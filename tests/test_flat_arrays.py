"""The flat-array layout of per-UT data, checked against the per-UT loops
over tuples that it replaced (``oracles``, tuple-loop section): the array
code must give the same numbers bit for bit and the same violation lists."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimocast import allocation, closed_form, model, montecarlo
from mimocast.closed_form import PRECODERS, DownlinkPowers
from mimocast.errors import InvalidConfigError
from mimocast.model import (EstimationStats, FadingProfile, FadingStack, SystemConfig,
                            validate_config)
from mimocast.montecarlo import validate_closed_form
from mimocast.pareto import ParetoBoundary, select_operating_point, solve_split, sweep_boundary
from mimocast.scenario import (CellGeometry, Placement, default_normalized_config,
                               place_drops, place_users)

import oracles
from oracles import random_desk_instance

PAPER_CELL = {"n_antennas": 100, "coherence_length": 200, "n_unicast": 50,
              "group_sizes": (100,) * 10}
# NaN, +-inf, zeros of both signs, subnormals, MIN_GAIN itself and negatives.
BAD_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e-300,
              -1.0, -1e-300)


def paper_cell(seed):
    cfg = default_normalized_config(**PAPER_CELL)
    fading, _ = place_users(CellGeometry(), PAPER_CELL["n_unicast"],
                            PAPER_CELL["group_sizes"], seed)
    return cfg, fading


def desk_cell(seed):
    return random_desk_instance(np.random.default_rng(seed))


# The sides each record type reads back from the one array it stores them
# in: the unicast part (a slice) and the per-group parts (a tuple of views),
# or a solution's per-group parts alone.
SIDES = {
    SystemConfig: {"unicast_energy_caps": "ut_energy_caps",
                   "multicast_energy_caps": "ut_energy_caps"},
    FadingProfile: {"unicast_gains": "ut_gains", "multicast_gains": "ut_gains"},
    EstimationStats: {"unicast_var": "ut_var", "multicast_var": "ut_var"},
    DownlinkPowers: {"unicast": "stream_powers", "multicast": "stream_powers"},
    closed_form.SeReport: {"unicast_se": "ut_se", "multicast_se": "ut_se",
                           "unicast_sinr": "ut_sinr", "multicast_sinr": "ut_sinr"},
    allocation.MmfSolution: {"uplink_pilot_powers": "ut_pilot_powers", "x_caps": "ut_x_caps"},
    allocation.SseSolution: {},
}


def built_records():
    """One record of each type in ``SIDES`` as the package builds it, none
    of whose sides has been read."""
    cfg, fading = random_desk_instance(np.random.default_rng(14), u_range=(1, 4),
                                       g_range=(2, 3))
    point = solve_split(cfg, fading, "mrt", cfg.total_power / 3.0)
    stats = model._estimation_variances(cfg, fading, cfg.ut_energy_caps / cfg.pilot_length)
    powers = DownlinkPowers.equal_split(1.0, cfg.n_unicast, 1.0, cfg.n_groups)
    return [cfg, fading, place_drops(CellGeometry(), 2, (3, 1), [5, 6]).drop(1), stats, powers,
            closed_form.se_report(cfg, stats, fading, powers, "mrt"),
            point.mmf_solution, point.sse_solution]


def fresh_records():
    """``built_records``, then the same records as their constructors build
    them from their ``to_dict`` documents."""
    return built_records() + [type(r)(**r.to_dict()) for r in built_records()]


def scaled(value):
    return tuple(row * 2.0 for row in value) if isinstance(value, tuple) else value * 2.0


class TestLayout:
    def test_per_ut_fields_are_read_only_float_arrays(self):
        cfg, fading = desk_cell(3)
        for a in (cfg.unicast_energy_caps, cfg.sse_weights, cfg.ut_energy_caps,
                  fading.unicast_gains, fading.ut_gains,
                  *cfg.multicast_energy_caps, *fading.multicast_gains):
            assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            fading.multicast_gains[0][0] = 1.0

    def test_rows_view_the_pilot_order_array_at_the_ut_offsets(self):
        cfg, fading = desk_cell(4)
        bounds = fading.ut_offsets.tolist()
        u = cfg.n_unicast
        assert bounds == [0, u, *(u + np.cumsum(cfg.group_sizes)).tolist()]
        assert cfg.ut_offsets.tolist() == bounds
        assert cfg.group_offsets.tolist() == [b - u for b in bounds[1:]]
        for g, row in enumerate(fading.multicast_gains):
            assert np.shares_memory(row, fading.ut_gains)
            assert row.tolist() == fading.ut_gains[bounds[g + 1]:bounds[g + 2]].tolist()

    def test_pilot_offsets_are_derived_and_read_only(self):
        cfg, _ = desk_cell(4)
        u = cfg.n_unicast
        assert cfg.pilot_offsets.tolist() == [*range(u), *(u + cfg.group_offsets).tolist()]
        assert not cfg.pilot_offsets.flags.writeable
        assert "pilot_offsets" not in {f.name for f in dataclasses.fields(cfg)}
        assert "pilot_offsets" not in cfg.to_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pilot_offsets = np.arange(3)
        fresh = dataclasses.replace(cfg)
        assert "pilot_offsets" not in vars(fresh) and fresh == cfg and hash(fresh) == hash(cfg)

    def test_all_ut_records_view_one_array(self):
        cfg, fading = desk_cell(4)
        tau = cfg.pilot_length
        stats = model.estimation_variances(cfg, fading, cfg.unicast_energy_caps / tau,
                                           [caps / tau for caps in cfg.multicast_energy_caps])
        assert stats.ut_var.tolist() == [*stats.unicast_var.tolist(),
                                         *flat(r.tolist() for r in stats.multicast_var)]
        assert fading.ut_gains.tolist() == [*fading.unicast_gains.tolist(),
                                            *flat(r.tolist() for r in fading.multicast_gains)]
        half = cfg.total_power / 2.0
        report = closed_form.se_report(
            cfg, stats, fading,
            DownlinkPowers.equal_split(half, cfg.n_unicast, half, cfg.n_groups), "mrt")
        for a, b in ((stats.unicast_var, stats.ut_var), (stats.multicast_var[-1], stats.ut_var),
                     (report.unicast_se, report.ut_se), (report.multicast_se[0], report.ut_se),
                     (report.unicast_sinr, report.ut_sinr)):
            assert a.base is b.base and not a.base.flags.writeable
            assert not (a.flags.writeable or b.flags.writeable)

    def test_constructor_copies_its_input(self):
        gains = np.array([1.0, 2.0])
        fading = FadingProfile(unicast_gains=gains, multicast_gains=[[3.0], [4.0, 5.0]])
        gains[0] = 9.0
        assert fading.unicast_gains.tolist() == [1.0, 2.0]

    def test_constructor_copies_frozen_views_of_caller_arrays(self):
        # A read-only view of a read-only base is still the caller's: once
        # the base is made writeable again, writing to it must not reach
        # the record.
        base = np.array([1.0, 2.0, 3.0])
        base.setflags(write=False)
        gains = base[1:]
        rows = [base[:1]]
        fading = FadingProfile(unicast_gains=gains, multicast_gains=rows)
        assert not np.shares_memory(fading.unicast_gains, base)
        assert not np.shares_memory(fading.multicast_gains[0], base)
        base.setflags(write=True)
        base[:] = 9.0
        assert fading.unicast_gains.tolist() == [2.0, 3.0]
        assert fading.multicast_gains[0].tolist() == [1.0]

    def test_owned_arrays_are_kept_without_a_copy(self):
        gains = model._read_only(np.arange(5.0))
        offsets = model._offsets([1, 1, 3])
        kept = model._owned(FadingProfile, ut_gains=gains, ut_offsets=offsets)
        assert kept.ut_gains is gains and kept.ut_offsets is offsets
        assert all(row.base is gains.base for row in kept.multicast_gains)
        assert [row.tolist() for row in kept.multicast_gains] == [[1.0], [2.0, 3.0, 4.0]]
        with pytest.raises(ValueError):
            kept.multicast_gains[0].setflags(write=True)
        copied = FadingProfile(unicast_gains=kept.unicast_gains,
                               multicast_gains=kept.multicast_gains)
        assert copied == kept and not np.shares_memory(copied.ut_gains, gains)

    def test_equality_and_hash_follow_the_values(self):
        cfg, fading = desk_cell(5)
        same = SystemConfig.from_dict(cfg.to_dict())
        assert same == cfg and hash(same) == hash(cfg)
        assert FadingProfile.from_dict(fading.to_dict()) == fading
        moved = dataclasses.replace(cfg, sse_weights=cfg.sse_weights * 2.0)
        assert moved != cfg
        regrouped = FadingProfile(unicast_gains=fading.unicast_gains,
                                  multicast_gains=[fading.ut_gains[cfg.n_unicast:]])
        assert regrouped != fading or cfg.n_groups == 1

    def test_sides_are_views_of_the_stored_array_built_on_first_read(self):
        for record in fresh_records():
            parts = {}
            for side, stored in SIDES[type(record)].items():
                assert side not in vars(record), (type(record).__name__, side)
                value = getattr(record, side)
                assert vars(record)[side] is value and getattr(record, side) is value
                rows = value if isinstance(value, tuple) else (value,)
                assert all(np.shares_memory(row, getattr(record, stored)) for row in rows)
                parts.setdefault(stored, []).extend(rows)
            for stored, rows in parts.items():
                assert np.concatenate(rows).tolist() == getattr(record, stored).tolist()

    def test_replace_by_side_names_gives_the_constructors_record(self):
        for record in fresh_records():
            changed = {side: scaled(getattr(record, side)) for side in SIDES[type(record)]}
            want = type(record)(**{**record.to_dict(), **changed})
            got = dataclasses.replace(record, **changed)
            assert got == want and hash(got) == hash(want)
            assert got != record or not changed
            assert dataclasses.replace(record) == record

    def test_to_dict_round_trips(self):
        for record in fresh_records():
            d = record.to_dict()
            cls = type(record)
            again = cls.from_dict(d) if hasattr(cls, "from_dict") else cls(**d)
            assert again == record and hash(again) == hash(record)
            assert json.dumps(again.to_dict()) == json.dumps(d)
            for side in SIDES[cls]:
                value = getattr(record, side)
                assert d[side] == ([row.tolist() for row in value] if isinstance(value, tuple)
                                   else value.tolist())

    def test_another_grouping_of_the_same_values_is_another_record(self):
        one, other = ([1.0, 2.0], [3.0]), ([1.0], [2.0, 3.0])
        cfg = {"n_antennas": 8, "coherence_length": 20, "n_unicast": 1, "group_sizes": (2, 1),
               "pilot_length": 3, "total_power": 1.0, "unicast_energy_caps": [1.0],
               "sse_weights": [1.0]}
        mmf = {"precoder": "mrt", "objective": 1.0, "pilot_length": 3, "gamma": 1.0,
               "downlink_powers": [1.0, 1.0], "upsilon": [1.0, 1.0], "b_values": [1.0, 1.0]}
        cases = [
            (SystemConfig, cfg, ("multicast_energy_caps",)),
            (FadingProfile, {"unicast_gains": [1.0]}, ("multicast_gains",)),
            (EstimationStats, {"unicast_var": [1.0], "group_var": [1.0, 1.0]},
             ("multicast_var",)),
            (closed_form.SeReport, {"prelog": 0.5, "unicast_se": [1.0], "unicast_sinr": [1.0]},
             ("multicast_se", "multicast_sinr")),
            (allocation.MmfSolution, mmf, ("uplink_pilot_powers", "x_caps")),
        ]
        pairs = [(cls(**base, **dict.fromkeys(names, one)),
                  cls(**base, **dict.fromkeys(names, other))) for cls, base, names in cases]
        # The boundary between the unicast and the multicast side moves too.
        pairs += [(DownlinkPowers((1.0, 2.0), (3.0,)), DownlinkPowers((1.0,), (2.0, 3.0))),
                  (FadingProfile(unicast_gains=[1.0, 2.0], multicast_gains=([3.0],)),
                   FadingProfile(unicast_gains=[1.0], multicast_gains=([2.0, 3.0],)))]
        for a, b in pairs:
            stored = {SIDES[type(a)][side] for side in SIDES[type(a)]}
            assert all(getattr(a, n).tolist() == getattr(b, n).tolist() for n in stored)
            assert a != b and hash(a) != hash(b), type(a).__name__

    def test_arrays_sharing_offsets_need_parts_of_equal_lengths(self):
        with pytest.raises(ValueError, match="ut_offsets must have equal lengths"):
            closed_form.SeReport(prelog=0.5, unicast_se=[1.0], multicast_se=([1.0, 2.0],),
                                 unicast_sinr=[1.0], multicast_sinr=([1.0], [2.0]))
        with pytest.raises(ValueError, match="group_offsets must have equal lengths"):
            allocation.MmfSolution(precoder="mrt", objective=1.0, pilot_length=2,
                                   uplink_pilot_powers=([1.0, 2.0],), downlink_powers=[1.0],
                                   gamma=1.0, upsilon=[1.0], x_caps=([1.0],), b_values=[1.0])

    def test_score_powers_equal_the_constructors(self):
        cfg, fading = desk_cell(6)
        point = solve_split(cfg, fading, "zf", cfg.total_power / 2.0)
        for sides in ((np.full(cfg.n_unicast, 0.5), point.mmf_solution.downlink_powers),
                      (point.sse_solution.downlink_powers, np.full(cfg.n_groups, 0.25)),
                      ([1, 2], np.array([3.0], dtype=np.float32)), (np.empty(0), [1.5])):
            got, want = allocation._score_powers(*sides), DownlinkPowers(*sides)
            assert got == want and hash(got) == hash(want)
            assert got.stream_offsets.tolist() == want.stream_offsets.tolist()
            for a in (got.stream_powers, got.stream_offsets, got.unicast, got.multicast):
                assert not a.flags.writeable
        for sides in ((np.array([1j]), np.ones(1)), (np.ones(1), [None])):
            with pytest.raises(TypeError):
                DownlinkPowers(*sides)
            with pytest.raises(TypeError):
                allocation._score_powers(*sides)

    def test_non_numbers_raise_what_float_raises(self):
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=[1.0, None], multicast_gains=[])
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=[1.0, [2.0]], multicast_gains=[])
        with pytest.raises(ValueError):
            FadingProfile(unicast_gains=["x"], multicast_gains=[])
        with pytest.raises(TypeError):
            Placement(unicast=[[None, 1.0]], multicast=())

    def test_fading_profile_object_array_with_none_raises(self):
        # A cast would store None as NaN.
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=np.array([1.0, None], dtype=object), multicast_gains=[])
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=[1.0],
                          multicast_gains=[np.array([1.0, None], dtype=object)])
        fading = FadingProfile(unicast_gains=np.array([1.0, 2], dtype=object),
                               multicast_gains=[np.array([0.5], dtype=object)])
        assert fading.unicast_gains.tolist() == [1.0, 2.0]
        assert [row.tolist() for row in fading.multicast_gains] == [[0.5]]

    def test_fading_stack_converts_entry_by_entry(self):
        # A cast would keep only the real parts of a complex stack and
        # store None as NaN.
        for bad in (np.ones((2, 2), dtype=complex), [[1.0, 2.0], [1.0, 1j]],
                    [[1.0, np.complex128(2.0)]], np.array([[1.0, None]], dtype=object),
                    [[1.0, None]]):
            with pytest.raises(TypeError):
                FadingStack(ut_gains=bad, n_unicast=1, group_sizes=(1,))
        stack = FadingStack(ut_gains=np.array([[1.0, 2, 0.5]], dtype=object), n_unicast=2,
                            group_sizes=(1,))
        assert stack.ut_gains.tolist() == [[1.0, 2.0, 0.5]]
        assert stack.ut_gains.dtype == np.float64 and not stack.ut_gains.flags.writeable

    def test_fading_stack_rows_must_hold_every_ut(self):
        for gains in (np.ones((2, 2)), np.ones(3), np.ones((1, 2, 3))):
            with pytest.raises(ValueError, match="one row of 3 gains per drop"):
                FadingStack(ut_gains=gains, n_unicast=1, group_sizes=(2,))

    def test_fading_stack_copies_caller_arrays(self):
        gains = np.ones((2, 3))
        stack = FadingStack(ut_gains=gains, n_unicast=1, group_sizes=(2,))
        gains[:] = 9.0
        assert stack.ut_gains.tolist() == [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        assert stack.drop(1).multicast_gains[0].tolist() == [1.0, 1.0]

    def test_placed_stacks_keep_the_arrays_placement_built(self):
        # The stack, its row ranges and its drops view the array the
        # placement built.
        stack = place_drops(CellGeometry(), 2, (3, 1), [5, 6, 7])
        assert stack.ut_gains.base.flags.owndata and stack.ut_gains.base.flags.c_contiguous
        part = stack.rows(1, 3)
        assert np.shares_memory(part.ut_gains, stack.ut_gains)
        assert np.shares_memory(stack.drop(2).ut_gains, stack.ut_gains)
        assert part.drop(0) == stack.drop(1) and part.drop(1) == stack.drop(2)
        assert part.n_drops == 2

    def test_placement_object_array_with_none_raises(self):
        with pytest.raises(TypeError):
            Placement(unicast=np.array([[None, 1.0]], dtype=object), multicast=())
        with pytest.raises(TypeError):
            Placement(unicast=np.empty((0, 2)),
                      multicast=(np.array([[30.0, None]], dtype=object),))
        placement = Placement(unicast=np.array([[30.0, 1]], dtype=object), multicast=())
        assert placement.unicast.tolist() == [[30.0, 1.0]]

    # Complex entries raise TypeError, as a Python complex in a list does;
    # a cast, or float() of a numpy complex, kept only the real part.
    def test_fading_profile_complex_array_raises(self):
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=np.array([1.0 + 2j]), multicast_gains=[])
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=[1.0 + 2j], multicast_gains=[])

    def test_fading_profile_numpy_complex_entry_raises(self):
        for entry in (np.complex128(1.0 + 2j), np.complex64(1.0), np.clongdouble(1.0 + 2j)):
            with pytest.raises(TypeError):
                FadingProfile(unicast_gains=[1.0, entry], multicast_gains=[])

    def test_fading_profile_complex_multicast_row_raises(self):
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=[], multicast_gains=[np.array([1.0 + 0j, 2.0 + 1j])])
        with pytest.raises(TypeError):
            FadingProfile(unicast_gains=[], multicast_gains=[[1.0, np.complex128(2.0)]])

    def test_system_config_complex_energy_caps_raise(self):
        cfg, _ = random_desk_instance(np.random.default_rng(3), u_range=(1, 4))
        for caps in ({"unicast_energy_caps": cfg.unicast_energy_caps.astype(complex)},
                     {"multicast_energy_caps": [row.astype(complex)
                                                for row in cfg.multicast_energy_caps]},
                     {"sse_weights": list(cfg.sse_weights.astype(np.complex64))}):
            with pytest.raises(TypeError):
                dataclasses.replace(cfg, **caps)

    def test_placement_complex_positions_raise(self):
        with pytest.raises(TypeError):
            Placement(unicast=np.array([[30.0 + 1j, 0.5]]), multicast=())
        with pytest.raises(TypeError):
            Placement(unicast=np.empty((0, 2)), multicast=([[np.complex128(40.0), 1.0]],))

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (1, 4, 2), (5,)])
    def test_group_sums_add_left_to_right(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        values = rng.uniform(0.0, 1.0, sum(sizes)) * 10.0 ** rng.integers(-9, 9, sum(sizes))
        offsets = model._offsets(sizes)
        bounds = offsets.tolist()
        expected = [sum(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        assert model._group_sums(values, offsets).tolist() == expected


def violation_keys(violations):
    return [(v.field, type(v.value), repr(v.value), v.message) for v in violations]


def corrupt(cfg, fading, rng):
    """The pair with random entries set to invalid values and random fields
    reshaped, built through the public constructors."""
    fields = {
        "unicast_energy_caps": cfg.unicast_energy_caps.tolist(),
        "sse_weights": cfg.sse_weights.tolist(),
        "unicast_gains": fading.unicast_gains.tolist(),
        "multicast_energy_caps": [r.tolist() for r in cfg.multicast_energy_caps],
        "multicast_gains": [r.tolist() for r in fading.multicast_gains],
    }
    for name, rows in fields.items():
        action = rng.integers(4)
        nested = name.startswith("multicast")
        if action == 1:                       # bad entries
            flat = [(g, k) for g in range(len(rows)) for k in range(len(rows[g]))] \
                if nested else list(range(len(rows)))
            for _ in range(int(rng.integers(1, 4)) if flat else 0):
                where = flat[int(rng.integers(len(flat)))]
                value = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
                if nested:
                    rows[where[0]][where[1]] = value
                else:
                    rows[where] = value
        elif action == 2 and rows:            # one entry, or one group, missing
            if nested and rng.integers(2):
                rows.pop(int(rng.integers(len(rows))))
            else:
                target = rows[int(rng.integers(len(rows)))] if nested else rows
                if target:
                    target.pop()
        elif action == 3:                     # one entry, or one group, too many
            if nested and rows and rng.integers(2):
                rows[int(rng.integers(len(rows)))].append(1.0)
            else:
                rows.append([1.0] if nested else 1.0)
    sizes = list(cfg.group_sizes)
    if rng.integers(4) == 0 and sizes:
        sizes[int(rng.integers(len(sizes)))] = int(rng.integers(-1, 1))
    bad_cfg = SystemConfig(
        n_antennas=cfg.n_antennas, coherence_length=cfg.coherence_length,
        n_unicast=cfg.n_unicast, group_sizes=sizes,
        pilot_length=cfg.pilot_length - int(rng.integers(2)),
        total_power=cfg.total_power if rng.integers(3) else
        BAD_VALUES[int(rng.integers(len(BAD_VALUES)))],
        unicast_energy_caps=fields["unicast_energy_caps"],
        multicast_energy_caps=fields["multicast_energy_caps"],
        sse_weights=fields["sse_weights"])
    bad_fading = FadingProfile(unicast_gains=fields["unicast_gains"],
                               multicast_gains=fields["multicast_gains"])
    return bad_cfg, bad_fading


class TestValidationOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_corrupted_desk_pairs(self, seed):
        rng = np.random.default_rng(seed)
        cfg, fading = corrupt(*desk_cell(seed), rng)
        assert violation_keys(validate_config(cfg, fading)) == \
            violation_keys(oracles.validate_config(cfg, fading))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_corrupted_paper_cell_pairs(self, seed):
        rng = np.random.default_rng(seed)
        cfg, fading = corrupt(*paper_cell(seed), rng)
        assert violation_keys(validate_config(cfg, fading)) == \
            violation_keys(oracles.validate_config(cfg, fading))

    @pytest.mark.parametrize("cell", [desk_cell, paper_cell])
    def test_valid_pairs_have_no_violations(self, cell):
        cfg, fading = cell(11)
        assert validate_config(cfg, fading) == oracles.validate_config(cfg, fading) == []


def flat(rows):
    return [x for row in rows for x in row]


def random_pilots(cfg, rng):
    """Random pilot powers within the caps, some exactly zero."""
    tau = cfg.pilot_length
    pilots_un = [float(rng.uniform(0.0, e) * rng.integers(2)) / tau
                 for e in cfg.unicast_energy_caps]
    pilots_mu = [[float(rng.uniform(0.0, e) * rng.integers(2)) / tau for e in caps]
                 for caps in cfg.multicast_energy_caps]
    return pilots_un, pilots_mu


def assert_pieces_match_loops(cfg, fading, rng):
    problem = allocation._mmf_problem(cfg, fading, "mrt")
    upsilon, x_caps = problem.upsilon, problem.x_caps
    upsilon_o, x_caps_o = oracles.group_quality_floors(cfg, fading)
    assert upsilon.tolist() == list(upsilon_o)
    assert x_caps.tolist() == flat(x_caps_o)
    assert problem.b_values.tolist() == list(oracles.interference_loads(cfg, fading, upsilon_o))
    if cfg.n_unicast:
        problem = allocation._sse_problem(cfg, fading, "mrt")
        for gain, c in ((cfg.n_antennas, 0.0), (max(1, cfg.n_antennas - cfg.n_streams), 1.0)):
            offsets = allocation._unicast_offsets(cfg, fading.unicast_gains, problem.theta,
                                                  problem.error, gain, c)
            theta_o, errors_o, offsets_o = oracles.unicast_offsets(cfg, fading, gain, c)
            assert problem.theta.tolist() == list(theta_o)
            assert problem.error.tolist() == list(errors_o)
            assert offsets.tolist() == list(offsets_o)
    pilots_un, pilots_mu = random_pilots(cfg, rng)
    stats = model._estimation_variances(cfg, fading,
                                          model._pilot_arrays(cfg, pilots_un, pilots_mu))
    uni, multi, grp = oracles.estimation_variances_loop(cfg, fading, pilots_un, pilots_mu)
    assert stats.unicast_var.tolist() == list(uni)
    assert [r.tolist() for r in stats.multicast_var] == [list(r) for r in multi]
    assert stats.group_var.tolist() == list(grp)


class TestSolverPiecesOracle:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_desk_instances(self, seed):
        rng = np.random.default_rng(seed)
        cfg, fading = random_desk_instance(rng)
        assert_pieces_match_loops(cfg, fading, rng)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_paper_cell_drops(self, seed):
        cfg, fading = paper_cell(seed)
        assert_pieces_match_loops(cfg, fading, np.random.default_rng(seed))


class TestPilotOrderOracle:
    """The estimate variances and every score, worked out over the model's
    pilot order, against the per-side formulas they replaced (``oracles``,
    per-side closed-form section), bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_desk_instances(self, seed):
        # U = 0, G = 0, groups of one and zero pilot powers all occur.
        rng = np.random.default_rng(seed)
        cfg, fading = random_desk_instance(rng, u_range=(0, 8), g_range=(0, 4))
        pilots = random_pilots(cfg, rng)
        stats = model.estimation_variances(cfg, fading, *pilots)
        assert stats.to_dict() == \
            oracles.estimation_variances_per_side(cfg, fading, *pilots).to_dict()
        # Stream powers within the budget, some exactly zero.
        levels = (rng.uniform(0.0, 1.0, cfg.n_streams) * rng.integers(2, size=cfg.n_streams)
                  * cfg.total_power / max(cfg.n_streams, 1))
        powers = DownlinkPowers(unicast=levels[:cfg.n_unicast],
                                multicast=levels[cfg.n_unicast:])
        p_un = float(rng.uniform(0.0, cfg.total_power)) if cfg.n_unicast else 0.0
        p_mu = float(rng.uniform(0.0, cfg.total_power)) if cfg.n_groups else 0.0
        for precoder in PRECODERS:
            gain, c = closed_form._precoder_factors(cfg, precoder)
            assert closed_form.se_report(cfg, stats, fading, powers, precoder).to_dict() == \
                oracles.se_report_per_side(cfg, stats, fading, powers, gain, c).to_dict()
            if cfg.n_groups:
                sol = allocation.solve_mmf(cfg, fading, p_un, precoder)
                assert allocation.mmf_se_report(cfg, fading, sol, p_un).to_dict() == \
                    oracles.mmf_se_report_rebuilt(cfg, fading, sol, p_un,
                                                  per_side=True).to_dict()
            if cfg.n_unicast:
                sol = allocation.solve_sse(cfg, fading, p_mu, precoder)
                assert allocation.sse_se_report(cfg, fading, sol, p_mu).to_dict() == \
                    oracles.sse_se_report_rebuilt(cfg, fading, sol, p_mu,
                                                  per_side=True).to_dict()

    @pytest.mark.parametrize("n_unicast, sizes", [(-1, (2, 3)), (-3, ()), (2, (0, 3)),
                                                  (1, (-2,)), (-2, (1, -1, 0))])
    def test_bad_counts_construct_and_validate_as_before(self, n_unicast, sizes):
        cfg, fading = desk_cell(5)
        bad = dataclasses.replace(cfg, n_unicast=n_unicast, group_sizes=sizes)
        violations = validate_config(bad, fading)
        assert violations
        assert violation_keys(violations) == violation_keys(oracles.validate_config(bad, fading))


class TestWaterfillOracle:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=60))
    def test_levels_and_water_level_match_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        # Few distinct values, so many users tie in w/o and the order among
        # tied users (their input order) matters to the last bit.
        weights = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], n).tolist()
        offsets = (rng.choice([0.25, 0.5, 1.0, 1.5, 3.0], n) * rng.choice([1.0, 1.1], n)).tolist()
        budget = float(rng.uniform(0.0, 3.0 * n))
        levels, nu = allocation.waterfill(weights, offsets, budget)
        levels_o, nu_o = oracles.waterfill_loop(weights, offsets, budget)
        assert levels.tolist() == list(levels_o)
        assert nu == nu_o


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


def count_validations(monkeypatch):
    return count_calls(monkeypatch, model, "validate_config")


class TestSweepOnce:
    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("cell", [desk_cell, paper_cell])
    def test_points_equal_per_split_solves(self, cell, precoder):
        cfg, fading = cell(7)
        boundary = sweep_boundary(cfg, fading, precoder, 9)
        for p in boundary.points:
            q = solve_split(cfg, fading, precoder, p.p_unicast)
            assert (p.p_multicast, p.mmf_objective, p.sse_objective) == \
                (q.p_multicast, q.mmf_objective, q.sse_objective)
            assert p.mmf_solution == q.mmf_solution
            assert p.sse_solution == q.sse_solution

    def test_sweep_validates_once(self, monkeypatch):
        cfg, fading = desk_cell(8)
        calls = count_validations(monkeypatch)
        sweep_boundary(cfg, fading, "mrt", 11)
        assert len(calls) == 1


class TestOneBuildPerProblem:
    """Each allocation problem's split-independent arrays (pilot qualities
    for max-min, estimate variances and offsets for sum SE) are built once per
    call, and each public entry point validates its pair once.  A selection
    on a swept boundary reads the problems the sweep built, and the scores
    of its solutions read them too, with no validation."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("kind", ["ratio", "target_mmf", "target_sse"])
    def test_operating_point_op(self, monkeypatch, precoder, kind):
        cfg, fading = paper_cell(3)
        boundary = sweep_boundary(cfg, fading, precoder, 5)
        mid = boundary.points[2]
        value = {"ratio": (1.0, 3.0), "target_mmf": mid.mmf_objective,
                 "target_sse": mid.sse_objective}[kind]
        validations = count_validations(monkeypatch)
        builds = [count_calls(monkeypatch, allocation, name)
                  for name in ("_pilot_qualities", "_unicast_offsets")]
        point = select_operating_point(boundary, **{kind: value}).point
        assert (len(validations), *map(len, builds)) == (0, 0, 0)
        allocation.mmf_se_report(cfg, fading, point.mmf_solution, point.p_unicast)
        allocation.sse_se_report(cfg, fading, point.sse_solution, point.p_multicast)
        assert (len(validations), *map(len, builds)) == (0, 0, 0)
        assert point == solve_split(cfg, fading, precoder, point.p_unicast)

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_hand_built_boundary_selects(self, monkeypatch, precoder):
        # Its first selection validates and builds once; later ones do neither.
        cfg, fading = desk_cell(9)
        swept = sweep_boundary(cfg, fading, precoder, 3)
        boundary = ParetoBoundary(swept.points, precoder, cfg, fading)
        validations = count_validations(monkeypatch)
        builds = [count_calls(monkeypatch, allocation, name)
                  for name in ("_pilot_qualities", "_unicast_offsets")]
        first = select_operating_point(boundary, ratio=(1.0, 2.0))
        assert (len(validations), *map(len, builds)) == (1, 1, 1)
        mid = swept.points[1]
        again = [select_operating_point(boundary, ratio=(1.0, 2.0)),
                 select_operating_point(boundary, target_mmf=mid.mmf_objective),
                 select_operating_point(boundary, target_sse=mid.sse_objective)]
        assert (len(validations), *map(len, builds)) == (1, 1, 1)
        assert again[0] == first == select_operating_point(swept, ratio=(1.0, 2.0))

    def test_sweep(self, monkeypatch):
        cfg, fading = paper_cell(4)
        validations = count_validations(monkeypatch)
        builds = [count_calls(monkeypatch, allocation, name)
                  for name in ("_pilot_qualities", "_unicast_offsets")]
        sweep_boundary(cfg, fading, "zf", 7)
        assert (len(validations), *map(len, builds)) == (1, 1, 1)


SCORES = ((allocation.mmf_se_report, oracles.mmf_se_report_rebuilt, "mmf_solution", "p_unicast"),
          (allocation.sse_se_report, oracles.sse_se_report_rebuilt, "sse_solution", "p_multicast"))


def score_pairs(cfg, fading, point, **solutions):
    """Each score of the point against the pair, then the per-call oracle's,
    with the point's solutions unless ``solutions`` names others."""
    for score, oracle, solution, fixed in SCORES:
        sol = solutions.get(solution, getattr(point, solution))
        yield (score(cfg, fading, sol, getattr(point, fixed)),
               oracle(cfg, fading, sol, getattr(point, fixed)))


class TestScoresReadTheirProblem:
    """A score of a solution against the very pair its problem was built
    from reads that problem's config and estimate variances, and validates
    nothing again; against any other pair it takes the per-call path.  Both
    give the per-call oracle's bytes (``oracles``, per-call score section)."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("extra_pilots", [0, 5])
    @pytest.mark.parametrize("cell", ["desk-1", "desk-2", "desk-3", "paper"])
    def test_reports_equal_per_call_scores(self, cell, extra_pilots, precoder):
        cfg, fading = (paper_cell(5) if cell == "paper" else
                       random_desk_instance(np.random.default_rng(int(cell[-1])), u_range=(1, 6)))
        cfg = dataclasses.replace(cfg, pilot_length=cfg.n_streams + extra_pilots)
        points = sweep_boundary(cfg, fading, precoder, 3).points
        P = cfg.total_power
        assert [p.p_unicast for p in points] == [0.0, P / 2.0, P]
        for point in points:
            for got, want in score_pairs(cfg, fading, point):
                assert got.to_dict() == want.to_dict()
                assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_second_score_neither_validates_nor_estimates(self, monkeypatch, precoder):
        cfg, fading = paper_cell(5)
        boundary = sweep_boundary(cfg, fading, precoder, 5)
        point = select_operating_point(boundary, ratio=(1.0, 2.0)).point
        for score, _, solution, fixed in SCORES:
            validations = count_validations(monkeypatch)
            estimates = count_calls(monkeypatch, allocation, "_estimation_variances")
            first = score(cfg, fading, getattr(point, solution), getattr(point, fixed))
            assert (len(validations), len(estimates)) == (0, 1)
            again = score(cfg, fading, getattr(point, solution), getattr(point, fixed))
            assert (len(validations), len(estimates)) == (0, 1)
            assert again == first
            monkeypatch.undo()

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_other_pairs_take_the_per_call_path(self, monkeypatch, precoder):
        cfg, fading = random_desk_instance(np.random.default_rng(4), u_range=(1, 6))
        point = sweep_boundary(cfg, fading, precoder, 3).points[1]
        replaced = {"mmf_solution": dataclasses.replace(point.mmf_solution),
                    "sse_solution": dataclasses.replace(point.sse_solution)}
        twin = FadingProfile.from_dict(fading.to_dict())
        assert twin == fading and twin is not fading
        for pair, solutions in (((cfg, fading), replaced), ((cfg, twin), {}),
                                ((SystemConfig.from_dict(cfg.to_dict()), fading), {})):
            validations = count_validations(monkeypatch)
            estimates = count_calls(monkeypatch, allocation, "_estimation_variances")
            for got, want in score_pairs(*pair, point, **solutions):
                assert got.to_dict() == want.to_dict()
            # Each score once, and each oracle once.
            assert (len(validations), len(estimates)) == (4, 2)
            monkeypatch.undo()

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_invalid_fading_still_raises(self, precoder):
        cfg, fading = random_desk_instance(np.random.default_rng(5), u_range=(1, 6))
        point = sweep_boundary(cfg, fading, precoder, 3).points[1]
        invalid = dataclasses.replace(fading, unicast_gains=[0.0, *fading.unicast_gains[1:]])
        for score, _, solution, fixed in SCORES:
            with pytest.raises(InvalidConfigError, match=r"unicast_gains\[0\]"):
                score(cfg, invalid, getattr(point, solution), getattr(point, fixed))

    def test_solution_of_the_other_kind_raises(self):
        # Its problem's estimate variances hold the other side's pilots.
        cfg, fading = desk_cell(6)
        point = solve_split(cfg, fading, "mrt", cfg.total_power / 2.0)
        with pytest.raises(TypeError, match="MmfSolution"):
            allocation.mmf_se_report(cfg, fading, point.sse_solution, point.p_unicast)
        with pytest.raises(TypeError, match="SseSolution"):
            allocation.sse_se_report(cfg, fading, point.mmf_solution, point.p_multicast)

    def test_record_leaves_its_problem_out(self):
        cfg, fading = desk_cell(6)
        point = solve_split(cfg, fading, "mrt", cfg.total_power / 2.0)
        for sol in (point.mmf_solution, point.sse_solution):
            assert sol._problem is not None
            bare = dataclasses.replace(sol)
            assert bare._problem is None
            assert bare == sol and hash(bare) == hash(sol) and repr(bare) == repr(sol)
            assert bare.to_dict() == sol.to_dict() and "_problem" not in sol.to_dict()


def array_fields(record):
    """Every array a record holds: its array fields and each group row."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            yield from value


def every_record(precoder):
    """Records of every type, as the package and their constructors build them."""
    cfg, fading = desk_cell(12)
    point = solve_split(cfg, fading, precoder, cfg.total_power / 3.0)
    tau = cfg.pilot_length
    stats = model.estimation_variances(cfg, fading, cfg.unicast_energy_caps / tau,
                                       [caps / tau for caps in cfg.multicast_energy_caps])
    gains = np.ones((2, cfg.n_unicast + sum(cfg.group_sizes)))
    return [
        cfg, fading, stats, point.mmf_solution, point.sse_solution,
        FadingStack(ut_gains=gains, n_unicast=cfg.n_unicast, group_sizes=cfg.group_sizes),
        place_drops(CellGeometry(), 4, (3, 3), [11, 12, 13]).drop(1),
        place_drops(CellGeometry(), 4, (3, 3), [11, 12, 13]),
        place_drops(CellGeometry(), 4, (3, 3), [11, 12, 13]).rows(1, 2),
        EstimationStats(unicast_var=[0.5] * cfg.n_unicast,
                        multicast_var=[[0.5] * k for k in cfg.group_sizes],
                        group_var=np.ones(cfg.n_groups)),
        DownlinkPowers.equal_split(1.0, cfg.n_unicast, 1.0, cfg.n_groups),
        allocation.mmf_se_report(cfg, fading, point.mmf_solution, point.p_unicast),
        allocation.sse_se_report(cfg, fading, point.sse_solution, point.p_multicast),
        place_users(CellGeometry(), 4, (3, 3), 11)[1],
        Placement(unicast=[[30.0, 0.5]], multicast=([[40.0, 1.0], [50.0, 2.0]],)),
        validate_closed_form(*small_mc_cell(3, precoder), precoder, 100, 5),
        *fresh_records(),   # each view a side builds on read, as well
    ]


def assert_read_only(record):
    arrays = list(array_fields(record))
    assert arrays, type(record).__name__
    for a in arrays:
        with pytest.raises(ValueError):
            a.setflags(write=True)


class TestNoArrayCanBeMadeWriteable:
    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_every_record_type(self, precoder):
        for record in every_record(precoder):
            assert_read_only(record)
        levels, _ = allocation.waterfill((1.0, 2.0), (0.5, 1.0), 1.0)
        with pytest.raises(ValueError):
            levels.setflags(write=True)

    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("copy_of", [
        lambda r: pickle.loads(pickle.dumps(r, protocol=4)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=5)),
        copy.deepcopy, copy.copy], ids=["pickle4", "pickle5", "deepcopy", "copy"])
    def test_copies_keep_every_array_read_only(self, precoder, copy_of):
        # pickle and deepcopy used to give records writeable arrays.
        records = every_record(precoder)
        assert {SystemConfig, FadingProfile, FadingStack, EstimationStats, DownlinkPowers,
                closed_form.SeReport, allocation.MmfSolution, allocation.SseSolution, Placement,
                montecarlo.ValidationReport} <= set(map(type, records))
        for record in records:
            again = copy_of(record)
            assert type(again) is type(record)
            assert again == record and hash(again) == hash(record)
            assert_read_only(again)

    def test_copies_leave_out_what_is_built_on_read(self):
        cfg, fading = desk_cell(6)
        sol = solve_split(cfg, fading, "mrt", cfg.total_power / 2.0).mmf_solution
        # Read, and so built and kept, before the copies are made.
        assert cfg.multicast_energy_caps and cfg.pilot_offsets.size
        assert fading.multicast_gains and sol.x_caps and sol._problem is not None
        for record, built in ((cfg, {"multicast_energy_caps", "pilot_offsets"}),
                              (fading, {"multicast_gains"}), (sol, {"x_caps", "_problem"})):
            for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert not built & set(vars(again)) and again == record
        again = copy.deepcopy(fading)
        assert np.shares_memory(again.multicast_gains[0], again.ut_gains)
        # A copied solution leaves its problem behind, and scores the same.
        p_unicast = cfg.total_power / 2.0
        assert allocation.mmf_se_report(cfg, fading, copy.deepcopy(sol), p_unicast) == \
            allocation.mmf_se_report(cfg, fading, sol, p_unicast)


class TestResultArrays:
    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_fields_are_read_only_arrays_and_scalars_floats(self, precoder):
        cfg, fading = paper_cell(6)
        point = solve_split(cfg, fading, precoder, cfg.total_power / 3.0)
        mmf, sse = point.mmf_solution, point.sse_solution
        report = allocation.mmf_se_report(cfg, fading, mmf, point.p_unicast)
        powers = DownlinkPowers.equal_split(1.0, cfg.n_unicast, 1.0, cfg.n_groups)
        for a in (mmf.downlink_powers, mmf.upsilon, mmf.b_values, *mmf.uplink_pilot_powers,
                  *mmf.x_caps, sse.uplink_pilot_powers, sse.downlink_powers,
                  sse.effective_vars, report.unicast_se, report.unicast_sinr,
                  *report.multicast_se, *report.multicast_sinr, report.ut_sinr,
                  powers.unicast, powers.multicast):
            assert a.dtype == np.float64 and not a.flags.writeable
        for rows in (mmf.uplink_pilot_powers, mmf.x_caps, report.multicast_se,
                     report.multicast_sinr):
            assert type(rows) is tuple and tuple(map(len, rows)) == cfg.group_sizes
        assert np.shares_memory(report.multicast_sinr[-1], report.ut_sinr)
        for x in (mmf.objective, mmf.gamma, sse.objective, sse.water_level, report.prelog,
                  point.p_unicast, point.p_multicast):
            assert type(x) is float

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_sweep_points_share_one_base_per_field(self, precoder):
        cfg, fading = paper_cell(8)
        points = sweep_boundary(cfg, fading, precoder, 21).points

        def bases(point):
            mmf, sse = point.mmf_solution, point.sse_solution
            rows = (mmf.uplink_pilot_powers, mmf.x_caps)
            assert all(len({id(row.base) for row in group}) == 1 for group in rows)
            return [group[0].base for group in rows] + [
                a.base for a in (mmf.upsilon, mmf.b_values, sse.uplink_pilot_powers,
                                 sse.effective_vars)]

        first = bases(points[0])
        assert all(base is not None and not base.flags.writeable for base in first)
        assert len({id(base) for base in first}) == len(first)
        for point in points[1:]:
            assert all(a is b for a, b in zip(bases(point), first))
        # The shared pilot powers are what the solver reports.
        x = np.concatenate(points[3].mmf_solution.x_caps)
        assert np.concatenate(points[3].mmf_solution.uplink_pilot_powers).tolist() \
            == (x / cfg.n_streams).tolist()

    def test_equality_hash_and_json_round_trip(self):
        cfg, fading = paper_cell(7)
        point = solve_split(cfg, fading, "zf", cfg.total_power / 2.0)
        report = allocation.sse_se_report(cfg, fading, point.sse_solution, point.p_multicast)
        for record in (point.mmf_solution, point.sse_solution, report):
            text = json.dumps(record.to_dict())
            again = type(record)(**json.loads(text))
            assert again == record and hash(again) == hash(record)
            assert json.dumps(again.to_dict()) == text
        assert point == solve_split(cfg, fading, "zf", cfg.total_power / 2.0)
        scaled = dataclasses.replace(point.mmf_solution,
                                     downlink_powers=point.mmf_solution.downlink_powers * 2.0)
        assert scaled != point.mmf_solution
        assert DownlinkPowers((1.0, 2.0), (3.0,)) == DownlinkPowers([1.0, 2.0], np.array([3.0]))
        assert DownlinkPowers((1.0, 2.0), (3.0,)) != DownlinkPowers((1.0, 2.0), (3.5,))


def small_mc_cell(seed, precoder, u_range=(0, 4), g_range=(1, 3)):
    rng = np.random.default_rng(seed)
    cfg, fading = random_desk_instance(rng, n_range=(40, 60), u_range=u_range,
                                       g_range=g_range, k_range=(1, 4))
    tau = cfg.pilot_length
    pilots_un = [e / tau for e in cfg.unicast_energy_caps]
    pilots_mu = [[e / tau for e in caps] for caps in cfg.multicast_energy_caps]
    uni = rng.uniform(0.0, 1.0, cfg.n_unicast)
    mu = rng.uniform(0.0, 1.0, cfg.n_groups)
    if precoder == "mrt":
        # Zero pilots and zero powers take the estimators' and MRT's edge
        # paths (ZF needs every stream's estimate and rejects a zero pilot).
        if cfg.n_groups > 1:
            mu[-1] = 0.0
            pilots_mu[-1] = [0.0] * len(pilots_mu[-1])
        if cfg.n_unicast > 1:
            uni[0] = 0.0
            pilots_un[0] = 0.0
    scale = cfg.total_power / (uni.sum() + mu.sum())
    powers = DownlinkPowers(unicast=tuple(uni * scale), multicast=tuple(mu * scale))
    return cfg, fading, pilots_un, pilots_mu, powers


class TestMonteCarloOracle:
    @pytest.mark.parametrize("precoder", PRECODERS)
    @pytest.mark.parametrize("seed", range(4))
    def test_estimates_and_precoders_match_loops(self, seed, precoder):
        # The kernel's cores, which draw the pilot observations at unit
        # variance, against the loops on the same trial's draws lifted to
        # channels at each UT's variance and their pilot noise.
        from test_montecarlo import kernel_trials   # it imports this module
        cfg, fading, pilots_un, pilots_mu, powers = small_mc_cell(seed, precoder)
        stats = model.estimation_variances(cfg, fading, pilots_un, pilots_mu)
        draw = oracles.lifted_draw(cfg, fading, pilots_un, pilots_mu, seed, 0)
        est = oracles.mmse_estimate_loop(cfg, fading, pilots_un, pilots_mu, draw)
        build = {"mrt": oracles.build_mrt_precoders_loop,
                 "zf": oracles.build_zf_precoders_loop}[precoder]
        (_, C, X), = kernel_trials(cfg, fading, pilots_un, pilots_mu, seed, 1, powers, precoder)
        for got, want in ((C, (est.unicast_estimates, est.group_estimates)),
                          (X, build(cfg, est, powers, stats))):
            want = np.concatenate(want, axis=1)
            err = np.linalg.norm(got - want, axis=0)
            assert (err <= 1e-12 * np.linalg.norm(want, axis=0)).all(), err

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_validator_validates_and_estimates_once(self, monkeypatch, precoder):
        # The closed-form side reads the trials' estimate variances.
        cfg, fading, pilots_un, pilots_mu, powers = small_mc_cell(3, precoder)
        args = (cfg, fading, pilots_un, pilots_mu, powers, precoder, 100, 5)
        report = validate_closed_form(*args).to_dict()
        validations = count_validations(monkeypatch)
        estimates = [count_calls(monkeypatch, module, "_estimation_variances")
                     for module in (model, montecarlo)]
        assert validate_closed_form(*args).to_dict() == report
        assert (len(validations), sum(map(len, estimates))) == (1, 1)
