"""Figure grids place, validate and solve the drops of the cells of each
shape (cells alike but for their antenna counts) as one stack.

Checked against the per-drop path it replaced (``oracles``, per-drop
figure-grid section): stacked placements equal per-seed ``place_users``
calls, stacked objectives equal per-drop ``solve_mmf``/``solve_sse``
objectives, and whole figure runs give the same exit code, message and
CSV bytes, all bit for bit.
"""

import contextlib
import dataclasses
import io
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimocast import allocation, cli, closed_form, figures, model, scenario, seeds
from mimocast.allocation import solve_mmf, solve_sse, waterfill
from mimocast.closed_form import PRECODERS
from mimocast.errors import DegenerateInputError, InvalidConfigError, ZfInfeasibleError
from mimocast.model import FadingProfile, FadingStack, require_valid
from mimocast.pareto import sweep_boundary
from mimocast.scenario import (CellGeometry, default_normalized_config, pathloss, place_drops,
                               place_users)

import oracles
from oracles import random_desk_instance

# Seeds of one 32-bit word and of several: SeedSequence splits a seed into
# 32-bit words, and only words past the fourth are mixed in a second loop.
seeds_ = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**160))


def drop_seeds(seed, n):
    return [np.random.SeedSequence(entropy=seed, spawn_key=(0, d)) for d in range(n)]


class TestDropSeeds:
    """One seed pass per figure gives drop d of grid cell c the generator
    ``SeedSequence(entropy=seed, spawn_key=(c, d))`` gives."""

    @staticmethod
    def assert_states_equal(seed, n_cells, n_drops):
        states = figures._drop_states(seed, n_cells, n_drops)
        assert states.shape == (n_cells, n_drops, 4) and states.dtype == np.uint64
        for c in range(n_cells):
            for d in range(n_drops):
                want = oracles.drop_seed(seed, c, d)
                assert np.array_equal(states[c, d], want.generate_state(4, np.uint64))
                got = np.random.default_rng(seeds.SpawnedSeed(states[c, d]))
                assert np.array_equal(got.random(8), np.random.default_rng(want).random(8))

    # 2**128 - 1 and 2**200 + 12345 have 4 and 7 words: the hash constant's
    # start, 4 * max(words, 4) steps on, at both ends of its count.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 - 1,
                                      2**128 + 1, 2**200 + 12345])
    @pytest.mark.parametrize("n_cells, n_drops", [(1, 1), (1, 10), (3, 1), (2, 10)])
    def test_states_equal_seed_sequences(self, seed, n_cells, n_drops):
        self.assert_states_equal(seed, n_cells, n_drops)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds_, n_cells=st.integers(1, 4), n_drops=st.integers(1, 4))
    def test_any_seed(self, seed, n_cells, n_drops):
        self.assert_states_equal(seed, n_cells, n_drops)

    def test_drop_seed_serves_only_pcg64(self):
        seed = seeds.SpawnedSeed(figures._drop_states(3, 1, 1)[0, 0])
        with pytest.raises(ValueError):
            seed.generate_state(2, np.uint64)
        with pytest.raises(ValueError):
            seed.generate_state(4, np.uint32)


class TestStackedPlacement:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds_, n_unicast=st.integers(0, 5),
           sizes=st.lists(st.integers(1, 4), max_size=3), n_drops=st.integers(1, 4),
           stock=st.booleans())
    def test_rows_equal_place_users(self, seed, n_unicast, sizes, n_drops, stock):
        rng = np.random.default_rng(seed)
        geometry = CellGeometry() if stock else CellGeometry(
            cell_radius=float(rng.uniform(100.0, 900.0)),
            exclusion_radius=float(rng.uniform(1.0, 90.0)),
            pathloss_exponent=float(rng.uniform(2.1, 4.5)))
        seeds = drop_seeds(seed, n_drops)
        stack = place_drops(geometry, n_unicast, sizes, seeds)
        assert stack.n_drops == n_drops
        for d, s in enumerate(seeds):
            profile, placement = place_users(geometry, n_unicast, sizes, s)
            assert stack.drop(d) == profile
            # ...and both equal one rng.uniform call per block and quantity.
            assert (profile, placement) == oracles.place_users_loop(geometry, n_unicast,
                                                                    sizes, s)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds_, n_unicast=st.integers(0, 5),
           sizes=st.lists(st.integers(1, 4), max_size=3), n_drops=st.integers(1, 4))
    def test_unicast_block_is_the_first_columns(self, seed, n_unicast, sizes, n_drops):
        # What a sum-SE shape places: the first draws of every stream.
        seeds = drop_seeds(seed, n_drops)
        full = place_drops(CellGeometry(), n_unicast, sizes, seeds)
        block = place_drops(CellGeometry(), n_unicast, (), seeds)
        assert block.ut_gains.shape == (n_drops, n_unicast)
        assert block.ut_gains.tobytes() == full.ut_gains[:, :n_unicast].tobytes()
        assert block.ut_offsets.tolist() == [0, n_unicast]

    def test_default_geometry_gains_exceed_min_gain(self):
        # Why a sum-SE shape may leave its multicast gains unplaced: no gain
        # the default geometry gives fails validation.  The weakest is at
        # the cell edge.
        geometry = CellGeometry()
        weakest = pathloss(geometry, geometry.cell_radius)
        assert weakest == pytest.approx(2.2e-14, rel=0.01)
        assert weakest > model.MIN_GAIN
        assert pathloss(geometry, geometry.exclusion_radius) > weakest

    def test_streams_are_drawn_up_to_their_last_radius(self, monkeypatch):
        widths = []
        real = scenario._unit_draws

        def spy(*args, **kwargs):
            drawn = real(*args, **kwargs)
            widths.append(drawn[0].shape)
            return drawn

        monkeypatch.setattr(scenario, "_unit_draws", spy)
        seeds = drop_seeds(3, 2)
        place_drops(CellGeometry(), 2, (3, 4), seeds)   # 2 * 9 - 4
        place_drops(CellGeometry(), 2, (), seeds)       # the unicast radii alone
        place_drops(CellGeometry(), 0, (3,), seeds)
        place_users(CellGeometry(), 2, (3, 4), seeds[0])   # the angles too
        assert widths == [(2, 14), (2, 2), (2, 3), (1, 18)]

    def test_stack_is_read_only(self):
        stack = place_drops(CellGeometry(), 2, (3,), drop_seeds(1, 2))
        assert stack.ut_gains.dtype == np.float64 and not stack.ut_gains.flags.writeable
        assert stack.ut_gains.shape == (2, 5)
        assert stack.ut_offsets.tolist() == [0, 2, 5]

    @pytest.mark.parametrize("n_unicast, sizes", [(-1, ()), (2, (0,)), (2, (3, -1))])
    def test_bad_counts_rejected(self, n_unicast, sizes):
        with pytest.raises(ValueError):
            place_drops(CellGeometry(), n_unicast, sizes, drop_seeds(0, 2))


def desk_stack(rng, n_drops, n_range=(50, 200)):
    """A random desk config and n_drops random gain draws of its shapes.
    Gains come from a short list now and then, so water-filling sees ties."""
    cfg, _ = random_desk_instance(rng, n_range=n_range)
    users = cfg.n_unicast + sum(cfg.group_sizes)
    if rng.integers(3) == 0:
        gains = rng.choice([0.1, 0.5, 1.0, 2.0], (n_drops, users))
    else:
        gains = np.exp(rng.uniform(np.log(0.05), np.log(2.0), (n_drops, users)))
    stack = FadingStack(ut_gains=gains, n_unicast=cfg.n_unicast, group_sizes=cfg.group_sizes)
    return cfg, stack


def splits(rng, total):
    return [0.0, total / 2.0, float(rng.uniform(0.0, total)), total]


def per_drop(solve, cfg, stack, p, precoder):
    """Objective per drop through the single-drop solver, or the error."""
    try:
        return [solve(cfg, stack.drop(d), p, precoder).objective
                for d in range(stack.n_drops)]
    except (ZfInfeasibleError, DegenerateInputError) as e:
        return type(e), str(e)


def stacked(problem, cfg, stack, p, precoder):
    """Objective per drop through one stacked problem, or the error."""
    try:
        return problem(cfg, stack, precoder).objectives(p).tolist()
    except (ZfInfeasibleError, DegenerateInputError) as e:
        return type(e), str(e)


class TestStackedSolvers:
    @settings(max_examples=80, deadline=None)
    @given(seed=seeds_, n_drops=st.integers(1, 4), precoder=st.sampled_from(PRECODERS))
    def test_objectives_equal_per_drop_solves(self, seed, n_drops, precoder):
        rng = np.random.default_rng(seed)
        cfg, stack = desk_stack(rng, n_drops, n_range=(4, 60))   # ZF infeasible at times
        require_valid(cfg, stack)
        feasible = precoder == "mrt" or cfg.n_antennas > cfg.n_streams
        gain, c = (cfg.n_antennas, 0.0) if precoder == "mrt" else \
            (cfg.n_antennas - cfg.n_streams, 1.0)
        for p in splits(rng, cfg.total_power):
            mmf = stacked(allocation._mmf_problem, cfg, stack, p, precoder)
            sse = stacked(allocation._sse_problem, cfg, stack, p, precoder)
            assert mmf == per_drop(solve_mmf, cfg, stack, p, precoder)
            assert sse == per_drop(solve_sse, cfg, stack, p, precoder)
            # ...and both equal the objectives scored one UT at a time.
            drops = [stack.drop(d) for d in range(n_drops)]
            if feasible:
                assert mmf == [oracles.mmf_objective_loop(cfg, f, p, gain, c) for f in drops]
            if feasible and cfg.n_unicast:
                assert sse == [oracles.sse_objective_loop(cfg, f, p, gain, c) for f in drops]

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds_, n_drops=st.integers(1, 4), precoder=st.sampled_from(PRECODERS))
    def test_each_drop_takes_its_own_antenna_count(self, seed, n_drops, precoder):
        # One antenna count per drop gives each drop the objective of the
        # config with that count; ZF leaves the counts it cannot serve NaN.
        rng = np.random.default_rng(seed)
        cfg, stack = desk_stack(rng, n_drops, n_range=(4, 60))
        require_valid(cfg, stack)
        counts = rng.integers(1, 60, n_drops)
        gains, c = closed_form._precoder_factors(cfg, precoder, counts)
        p = float(rng.uniform(0.0, cfg.total_power))
        for problem, solve in ((allocation._mmf_problem, solve_mmf),
                               (allocation._sse_problem, solve_sse)):
            if solve is solve_sse and cfg.n_unicast == 0:
                continue
            got = problem(cfg, stack, precoder, counts).objectives(p).tolist()
            for d, n in enumerate(counts.tolist()):
                one = dataclasses.replace(cfg, n_antennas=n)
                try:
                    want = solve(one, stack.drop(d), p, precoder).objective
                except ZfInfeasibleError:
                    assert math.isnan(got[d]) and math.isnan(gains[d])
                else:
                    assert got[d] == want
                    assert (float(gains[d]), c) == closed_form._precoder_factors(one, precoder)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds_, n_drops=st.integers(1, 4))
    def test_waterfill_rows_equal_single_problems(self, seed, n_drops):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        weights = rng.choice([0.5, 1.0, 2.0], n)
        offsets = rng.choice([0.25, 0.5, 1.0, 3.0], (n_drops, n)) * rng.choice([1.0, 1.1],
                                                                               (n_drops, n))
        for budget in (0.0, float(rng.uniform(0.0, 3.0 * n))):
            levels, nu = allocation._FillOrder(weights, offsets).levels(budget)
            for d in range(n_drops):
                levels_d, nu_d = waterfill(weights, offsets[d], budget)
                assert levels[d].tolist() == levels_d.tolist()
                assert float(nu[d]) == nu_d or (math.isnan(nu[d]) and math.isnan(nu_d))
                assert (tuple(levels_d.tolist()), nu_d) == oracles.waterfill_loop(
                    weights.tolist(), offsets[d].tolist(), budget)

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 4, 2), (5,)])
    def test_group_pieces_work_row_by_row(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        offsets = model._offsets(sizes)
        values = rng.uniform(0.0, 1.0, (3, sum(sizes))) * 10.0 ** rng.integers(-9, 9,
                                                                               (3, sum(sizes)))
        per_group = rng.uniform(size=(3, len(sizes)))
        for fn, arg in ((model._group_sums, values), (model._group_min, values),
                        (model._group_others, values), (model._per_member, per_group)):
            whole = fn(arg, offsets)
            assert [r.tolist() for r in whole] == [fn(row, offsets).tolist() for row in arg]


def error_of(cfg, fading):
    with pytest.raises(InvalidConfigError) as e:
        require_valid(cfg, fading)
    return str(e.value)


class TestStackedValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, 1e-310])
    @pytest.mark.parametrize("where", ["unicast", "multicast"])
    def test_first_bad_drop_is_named(self, where, bad):
        cfg, stack = desk_stack(np.random.default_rng(3), 5)
        gains = stack.ut_gains.copy()
        u = cfg.n_unicast
        target = gains[:, :u] if where == "unicast" and u else gains[:, u:]
        target[3, -1] = bad
        target[2, 0] = bad
        target[4, 0] = bad
        bad_stack = dataclasses.replace(stack, ut_gains=gains)
        with pytest.raises(InvalidConfigError) as e:
            require_valid(cfg, bad_stack)
        assert str(e.value) == error_of(cfg, bad_stack.drop(2))

    def test_invalid_config_is_reported_with_the_first_drop(self):
        cfg, stack = desk_stack(np.random.default_rng(4), 3)
        bad_cfg = model.SystemConfig(**{**{f: getattr(cfg, f) for f in (
            "n_antennas", "coherence_length", "n_unicast", "group_sizes",
            "unicast_energy_caps", "multicast_energy_caps", "sse_weights")},
            "pilot_length": cfg.coherence_length + 1, "total_power": cfg.total_power})
        gains = stack.ut_gains.copy()
        gains[1, cfg.n_unicast] = math.nan
        bad_stack = dataclasses.replace(stack, ut_gains=gains)
        with pytest.raises(InvalidConfigError) as e:
            require_valid(bad_cfg, bad_stack)
        assert str(e.value) == error_of(bad_cfg, bad_stack.drop(0))

    def test_unicast_block_is_checked_on_that_block(self):
        # What a sum-SE figure shape places; any other layout is still
        # checked against the config's.
        cfg = default_normalized_config(16, 200, 3, (2, 2))
        seeds = drop_seeds(5, 3)
        full, block = (place_drops(CellGeometry(), 3, sizes, seeds) for sizes in ((2, 2), ()))
        assert require_valid(cfg, block)[1] is block
        gains = full.ut_gains.copy()
        gains[2, 1] = math.nan
        with pytest.raises(InvalidConfigError) as e:
            require_valid(cfg, dataclasses.replace(block, ut_gains=gains[:, :3]))
        assert str(e.value) == error_of(cfg, dataclasses.replace(full, ut_gains=gains).drop(2))
        for other, name in ((dataclasses.replace(block, ut_gains=gains[:, :2], n_unicast=2),
                             "unicast_gains"),
                            (dataclasses.replace(full, group_sizes=(1, 3)), "multicast_gains"),
                            (FadingProfile(unicast_gains=gains[0, :3], multicast_gains=()),
                             "multicast_gains")):
            assert error_of(cfg, other).startswith(f"invalid configuration: {name}=")

    def test_empty_stack_rejected(self):
        cfg, stack = desk_stack(np.random.default_rng(6), 2)
        empty = dataclasses.replace(stack, ut_gains=stack.ut_gains[:0])
        with pytest.raises(ValueError):
            require_valid(cfg, empty)

    def test_valid_stack_runs_validate_config_once(self, monkeypatch):
        cfg, stack = desk_stack(np.random.default_rng(5), 4)
        calls = []
        real = model.validate_config
        monkeypatch.setattr(model, "validate_config",
                            lambda *a: calls.append(1) or real(*a))
        assert require_valid(cfg, stack)[1] is stack
        assert len(calls) == 1


def run_figure(argv):
    """Exit code, stderr and output bytes (None if not written) of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "f.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", out])
        data = Path(out).read_bytes() if os.path.exists(out) else None
    return code, err.getvalue(), data


def int_list(draw, lo, hi, max_size=2):
    return ",".join(map(str, draw(st.lists(st.integers(lo, hi), min_size=1,
                                           max_size=max_size))))


@st.composite
def figure_argv(draw):
    """Small fig2/fig3 grids: 1-4 drops, antenna counts low enough for some
    cells to be ZF-infeasible and now and then 0 or -1, which is invalid and
    may follow a valid count, U = 0 in fig2 and G = 0 in fig3 at times, and
    now and then a coherence length too short for the pilots."""
    figure = draw(st.sampled_from(["fig2", "fig3"]))
    argv = ["figure", figure, "--antennas-list", int_list(draw, -1, 24, max_size=3),
            "--drops", str(draw(st.integers(1, 4))), "--seed", str(draw(seeds_)),
            "--coherence", str(draw(st.sampled_from([200, 200, 200, 5])))]
    if figure == "fig2":
        argv += ["--g-list", int_list(draw, 1, 3), "--k-list", int_list(draw, 1, 4),
                 "--unicast", str(draw(st.integers(0, 4)))]
    else:
        argv += ["--u-list", int_list(draw, 1, 6), "--groups", str(draw(st.integers(0, 3))),
                 "--group-size", str(draw(st.integers(1, 3)))]
    return argv


class TestFigureGridOracle:
    @settings(max_examples=80, deadline=None)
    @given(argv=figure_argv())
    def test_runs_equal_the_per_drop_loop(self, argv):
        got = run_figure(argv)
        with mock.patch.object(figures, "drop_means", oracles.drop_means_loop):
            want = run_figure(argv)
        assert got == want

    @pytest.mark.parametrize("seed", [2**63 - 1, 2**128 + 1])
    @pytest.mark.parametrize("argv", [
        ("fig2", "--antennas-list", "5,64", "--g-list", "1,2", "--k-list", "2,3",
         "--unicast", "3"),
        ("fig3", "--antennas-list", "8,64", "--u-list", "2,7", "--groups", "1",
         "--group-size", "2"),
    ])
    def test_multi_word_seeds(self, argv, seed):
        argv = ["figure", *argv, "--drops", "3", "--seed", str(seed)]
        got = run_figure(argv)
        with mock.patch.object(figures, "drop_means", oracles.drop_means_loop):
            want = run_figure(argv)
        assert got[0] == 0 and got == want

    def test_small_grids_reach_infeasible_cells(self):
        # Grids as small as the strategy above draws have ZF-infeasible cells.
        code, _, data = run_figure(["figure", "fig3", "--antennas-list", "8", "--u-list",
                                    "2,7", "--groups", "1", "--group-size", "2",
                                    "--drops", "2", "--seed", "3"])
        assert code == 0
        assert b",zf,8,2,1,2,2," in data and data.count(b",False\n") == 1

    # Two antenna counts over 4 and 3 shapes: (G, K) pairs in fig2, U in fig3.
    SHAPE_GRIDS = [
        (("fig2", "--antennas-list", "16,32", "--g-list", "1,2", "--k-list", "2,3",
          "--unicast", "2"), 4),
        (("fig3", "--antennas-list", "16,32", "--u-list", "1,2,3", "--groups", "0",
          "--group-size", "2"), 3),
    ]

    @staticmethod
    def count_calls(monkeypatch, module, name, argv):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
        code, _, _ = run_figure(["figure", *argv, "--drops", "3", "--seed", "2"])
        assert code == 0
        return len(calls)

    @pytest.mark.parametrize("argv, shapes", SHAPE_GRIDS)
    def test_one_validation_per_cell_shape(self, monkeypatch, argv, shapes):
        assert self.count_calls(monkeypatch, model, "validate_config", argv) == shapes

    @pytest.mark.parametrize("argv, shapes", SHAPE_GRIDS)
    def test_precoder_free_work_once_per_cell_shape(self, monkeypatch, argv, shapes):
        # What MRT and ZF share, fig2's pilot qualities and fig3's estimate
        # variances (the model's rule), is worked out once per shape for
        # both precoders.
        name = {"fig2": "_pilot_qualities", "fig3": "_mmse_variances"}[argv[0]]
        assert self.count_calls(monkeypatch, allocation, name, argv) == shapes

    @pytest.mark.parametrize("argv, shapes", SHAPE_GRIDS)
    def test_one_placement_per_cell_shape(self, monkeypatch, argv, shapes):
        assert self.count_calls(monkeypatch, figures, "place_drops", argv) == shapes

    @pytest.mark.parametrize("argv, shapes", SHAPE_GRIDS)
    def test_one_config_per_cell_shape(self, monkeypatch, argv, shapes):
        assert self.count_calls(monkeypatch, figures, "default_normalized_config", argv) == shapes

    @pytest.mark.parametrize("argv", [
        ("fig2", "--g-list", "1", "--k-list", "2", "--unicast", "2"),
        ("fig3", "--u-list", "2", "--groups", "1", "--group-size", "2"),
    ])
    def test_later_count_a_float_cannot_hold_fails_its_cell(self, argv):
        # Such a count after a valid one used to pass the shape's one
        # validation and overflow in the sum-SE solver (exit 3).
        argv = ["figure", *argv, "--antennas-list", f"16,{10 ** 400}", "--drops", "2",
                "--seed", "4"]
        got = run_figure(argv)
        with mock.patch.object(figures, "drop_means", oracles.drop_means_loop):
            assert got == run_figure(argv)
        assert got[0] == 1 and "n_antennas=1000" in got[1]

    @pytest.mark.parametrize("n_antennas, g_list, message", [
        ("32,0", "1,2", "n_antennas=0"),
        ("0,32", "1,2", "n_antennas=0"),
        # Cell 1 (N = 32, G = 0) fails before cell 2 (N = 0, G = 1), of
        # the shape that is solved first.
        ("32,0", "1,0", "needs at least one group"),
        ("0,32", "1,0", "n_antennas=0"),
    ])
    def test_first_failing_cell_is_reported(self, n_antennas, g_list, message):
        argv = ["figure", "fig2", "--antennas-list", n_antennas, "--g-list", g_list,
                "--k-list", "2", "--unicast", "2", "--drops", "2", "--seed", "4"]
        got = run_figure(argv)
        with mock.patch.object(figures, "drop_means", oracles.drop_means_loop):
            assert got == run_figure(argv)
        assert got[0] == 1 and message in got[1]


class TestFigureLibrary:
    def test_drop_means_rejects_bad_arguments(self):
        configs = [default_normalized_config(16, 200, 2, (2,))]
        for objective, n_drops, seed in (("mse", 1, 0), ("mmf", 0, 0), ("mmf", 1, -1)):
            with pytest.raises(ValueError):
                figures.drop_means(configs, objective, n_drops, seed)

    @pytest.mark.parametrize("objective", ["mmf", "sse"])
    def test_cells_that_differ_in_more_than_antennas_are_solved_apart(self, objective):
        base = default_normalized_config(16, 200, 2, (2, 3))
        configs = [base, dataclasses.replace(base, n_antennas=32),
                   dataclasses.replace(base, unicast_energy_caps=base.unicast_energy_caps / 2),
                   dataclasses.replace(base, multicast_energy_caps=[
                       row * 2.0 for row in base.multicast_energy_caps]),
                   dataclasses.replace(base, sse_weights=base.sse_weights * [1.0, 3.0]),
                   dataclasses.replace(base, total_power=base.total_power / 4.0),
                   dataclasses.replace(base, pilot_length=base.pilot_length + 1),
                   dataclasses.replace(base, coherence_length=100)]
        assert [len(cells) for cells in figures._shapes(configs)] == [2, 1, 1, 1, 1, 1, 1]
        got = figures.drop_means(configs, objective, 3, 7)
        want = oracles.drop_means_loop(configs, objective, 3, 7)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_grid_configs_equal_configs_built_afresh(self):
        cells = [(16, 2, 1, 3), (32, 2, 1, 3), (16, 3, 2, 2), (64, 2, 1, 3), (8, 3, 2, 2),
                 (32, 2, 1, 3)]
        configs = figures.grid_configs(cells, 200)
        for (n, u, g, k), cfg in zip(cells, configs):
            fresh = default_normalized_config(n, 200, u, (k,) * g)
            assert cfg == fresh and hash(cfg) == hash(fresh) and cfg.to_dict() == fresh.to_dict()
            assert type(cfg.n_antennas) is int and cfg.pilot_offsets.tolist() == \
                fresh.pilot_offsets.tolist()
        # A shape's later cells share its arrays.
        for c in (1, 3, 5):
            for name in ("ut_energy_caps", "ut_offsets", "sse_weights", "group_offsets"):
                assert getattr(configs[c], name) is getattr(configs[0], name)
        assert configs[4].ut_energy_caps is configs[2].ut_energy_caps
        assert configs[2].ut_energy_caps is not configs[0].ut_energy_caps

    def test_grid_configs_read_counts_as_configs_do(self):
        with pytest.raises(TypeError, match="n_antennas must be an integer, got 32.0"):
            figures.grid_configs([(16, 2, 1, 3), (32.0, 2, 1, 3)], 200)
        # 2.0 unicast UTs are another shape, and raise as built afresh.
        with pytest.raises(TypeError, match="n_unicast must be an integer"):
            figures.grid_configs([(16, 2, 1, 3), (16, 2.0, 1, 3)], 200)
        base = default_normalized_config(16, 200, 2, (3,))
        with pytest.raises(TypeError, match="pilot_length must be an integer, got 6.5"):
            model._with_count(base, "pilot_length", 6.5)
        longer = allocation._at_pilot_length(base, np.int64(7))
        assert longer == dataclasses.replace(base, pilot_length=7)
        assert hash(longer) == hash(dataclasses.replace(base, pilot_length=7))
        assert type(longer.pilot_length) is int and longer.ut_energy_caps is base.ut_energy_caps
        assert allocation._at_pilot_length(base, base.pilot_length) is base

    def test_boundaries_sweep_one_placement(self):
        # N=4 serves U+G=4 streams: no ZF boundary there.
        configs = [default_normalized_config(n, 200, 2, (2, 2)) for n in (4, 16)]
        fading = place_users(CellGeometry(), 2, (2, 2), 9)[0]
        want = [sweep_boundary(cfg, fading, prec, 5) for cfg in configs for prec in PRECODERS
                if prec == "mrt" or cfg.n_antennas > cfg.n_streams]
        got = figures.boundaries(configs, 5, 9)
        assert [(b.precoder, b.cfg.n_antennas, b.points) for b in got] == \
            [(b.precoder, b.cfg.n_antennas, b.points) for b in want]
        assert figures.boundaries([], 5, 9) == []
