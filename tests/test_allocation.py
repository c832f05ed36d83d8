import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimocast.allocation import (mmf_se_report, solve_mmf, solve_sse, sse_se_report,
                                 waterfill, waterfill_budget, waterfill_kkt_violation)
from mimocast.closed_form import MRT, ZF, DownlinkPowers, se_report
from mimocast.errors import DegenerateInputError, ZfInfeasibleError
from mimocast.model import FadingProfile, estimation_variances

from oracles import bisect_waterfill, random_desk_instance
from test_model import make_config

LN2 = math.log(2.0)


def single_group_instance():
    """One single-member group, unit gain, cap 2, budget 10."""
    cfg = make_config(n_unicast=0, group_sizes=(1,), pilot_length=1)
    fading = FadingProfile(unicast_gains=(), multicast_gains=((1.0,),))
    return cfg, fading


class TestWaterfill:
    def test_zero_budget(self):
        levels, nu = waterfill((1.0, 2.0), (0.5, 0.7), 0.0)
        assert levels == (0.0, 0.0)
        assert nu == math.inf

    def test_single_user_closed_form(self):
        levels, nu = waterfill((1.5,), (0.4,), 3.0)
        assert levels == pytest.approx((3.0,))
        assert nu == pytest.approx(1.5 / ((3.0 + 0.4) * LN2), rel=1e-12)

    def test_kkt_hand_example(self):
        # Offsets (1, 3), equal weights, budget 1: only the cheap user is
        # active, the marginal utility 1/(nu*ln2) = 2 stays below offset 3.
        levels, nu = waterfill((1.0, 1.0), (1.0, 3.0), 1.0)
        assert levels == pytest.approx((1.0, 0.0), abs=1e-12)
        assert 1.0 / (nu * LN2) == pytest.approx(2.0, rel=1e-12)
        assert waterfill_kkt_violation((1.0, 1.0), (1.0, 3.0), levels, nu) <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill((), (), 1.0)
        with pytest.raises(ValueError):
            waterfill((1.0,), (0.0,), 1.0)
        with pytest.raises(ValueError):
            waterfill((0.0,), (1.0,), 1.0)
        with pytest.raises(ValueError):
            waterfill((1.0,), (1.0,), -1.0)

    @settings(max_examples=60)
    @given(
        weights=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6),
        offsets=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6),
        budget=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=50.0)),
    )
    def test_matches_bisection_and_kkt(self, weights, offsets, budget):
        k = min(len(weights), len(offsets))
        weights, offsets = tuple(weights[:k]), tuple(offsets[:k])
        levels, nu = waterfill(weights, offsets, budget)
        assert all(p >= 0.0 for p in levels)
        assert sum(levels) == pytest.approx(budget, rel=1e-12, abs=1e-12)
        assert waterfill_kkt_violation(weights, offsets, levels, nu) <= 1e-10
        ref_levels, _ = bisect_waterfill(weights, offsets, budget)
        assert np.allclose(levels, ref_levels, rtol=1e-8, atol=1e-8)


def log_utility(weights, offsets, levels):
    """sum_m w_m*ln(1 + levels_m/o_m), the objective waterfill_budget inverts."""
    return sum(w * math.log1p(p / o) for w, o, p in zip(weights, offsets, levels))


class TestWaterfillBudget:
    # Weights (1, 1, 1), offsets (1, 2, 4): user 2 joins at budget 1, where
    # the objective is ln 2, and user 3 at budget 5, where it is 3 ln 2.
    W, O = (1.0, 1.0, 1.0), (1.0, 2.0, 4.0)

    @settings(max_examples=80)
    @given(
        weights=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6),
        offsets=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6),
        budget=st.floats(min_value=1e-6, max_value=50.0),
    )
    def test_round_trip(self, weights, offsets, budget):
        k = min(len(weights), len(offsets))
        weights, offsets = tuple(weights[:k]), tuple(offsets[:k])
        levels, _ = waterfill(weights, offsets, budget)
        got = waterfill_budget(weights, offsets, log_utility(weights, offsets, levels))
        assert abs(got - budget) <= 1e-12 * (budget + sum(offsets))

    def test_exact_at_breakpoints(self):
        assert waterfill_budget(self.W, self.O, LN2) == pytest.approx(1.0, rel=1e-15)
        assert waterfill_budget(self.W, self.O, 3.0 * LN2) == pytest.approx(5.0, rel=1e-15)
        for budget in (1.0, 5.0):
            levels, _ = waterfill(self.W, self.O, budget)
            f = log_utility(self.W, self.O, levels)
            assert waterfill_budget(self.W, self.O, f) == pytest.approx(budget, rel=1e-14)

    def test_inside_a_segment(self):
        # Objective ln 4 lies between the first two breakpoints: levels
        # 2*sqrt2 - 1 and 2*sqrt2 - 2 spend 4*sqrt2 - 3.
        got = waterfill_budget(self.W, self.O, 2.0 * LN2)
        assert got == pytest.approx(4.0 * math.sqrt(2.0) - 3.0, rel=1e-15)

    def test_single_user(self):
        assert waterfill_budget((1.5,), (0.4,), 2.0) == pytest.approx(
            0.4 * math.expm1(2.0 / 1.5), rel=1e-15)

    def test_tied_ratios_form_zero_width_segments(self):
        # Every user has w/o = 1/2, so all join at once and
        # f = 6*ln((b + 12)/12): b = 12*expm1(f/6).
        weights, offsets = (1.0, 2.0, 3.0), (2.0, 4.0, 6.0)
        for f in (0.0, 1e-9, 0.3, 4.0):
            assert waterfill_budget(weights, offsets, f) == pytest.approx(
                12.0 * math.expm1(f / 6.0), rel=1e-14, abs=0.0)
        levels, _ = waterfill(weights, offsets, 7.0)
        f = log_utility(weights, offsets, levels)
        assert waterfill_budget(weights, offsets, f) == pytest.approx(7.0, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-12, 3e-13, 1e-14])
    def test_tiny_budgets_keep_full_precision(self, scale):
        budget = scale * max(self.O)
        f = math.log1p(budget / self.O[0])   # below the first breakpoint
        assert waterfill_budget(self.W, self.O, f) == pytest.approx(budget, rel=1e-14, abs=0.0)

    def test_zero_objective_is_zero_budget(self):
        assert waterfill_budget(self.W, self.O, 0.0) == 0.0
        assert waterfill_budget((2.0,), (0.3,), 0.0) == 0.0

    def test_bad_inputs(self):
        for objective in (-1e-12, math.inf, math.nan):
            with pytest.raises(ValueError):
                waterfill_budget(self.W, self.O, objective)
        with pytest.raises(ValueError):
            waterfill_budget((), (), 1.0)
        with pytest.raises(ValueError):
            waterfill_budget((1.0, 1.0), (1.0,), 1.0)
        with pytest.raises(ValueError):
            waterfill_budget((1.0,), (0.0,), 1.0)


class TestMmfMrt:
    def test_frozen_single_group_example(self):
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 5.0, MRT)
        assert sol.upsilon[0] == pytest.approx(2.0 / 11.0, rel=1e-12)
        assert sol.x_caps[0][0] == pytest.approx(2.0, rel=1e-12)
        assert sol.gamma == pytest.approx(500.0 / 16.5, rel=1e-12)
        assert sol.pilot_length == 1
        assert sol.uplink_pilot_powers[0][0] == pytest.approx(2.0, rel=1e-12)
        assert sol.downlink_powers[0] == pytest.approx(5.0, rel=1e-12)
        assert sol.objective == pytest.approx(4.943389267409073, rel=1e-12)

    def test_no_multicast_power_zero_objective(self):
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 10.0, MRT)
        assert sol.gamma == 0.0
        assert sol.objective == 0.0
        assert sol.downlink_powers == (0.0,)
        assert sol.uplink_pilot_powers[0][0] > 0.0  # pilots stay defined

    def test_empty_groups_rejected(self):
        cfg = make_config(n_unicast=1, group_sizes=(), pilot_length=1)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=())
        with pytest.raises(DegenerateInputError):
            solve_mmf(cfg, fading, 0.0, MRT)

    def test_split_out_of_range_rejected(self):
        cfg, fading = single_group_instance()
        with pytest.raises(ValueError):
            solve_mmf(cfg, fading, -0.5, MRT)
        with pytest.raises(ValueError):
            solve_mmf(cfg, fading, 10.5, MRT)


class TestMmfZf:
    def test_frozen_single_group_example(self):
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 5.0, ZF)
        assert sol.b_values[0] == pytest.approx(16.5, rel=1e-12)
        assert sol.gamma == pytest.approx(99.0 * 5.0 / 6.5, rel=1e-12)
        assert sol.objective == pytest.approx(6.238317841608733, rel=1e-12)

    def test_single_group_takes_whole_budget(self):
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 3.0, ZF)
        assert sol.downlink_powers[0] == pytest.approx(7.0, rel=1e-12)

    def test_too_few_antennas_rejected(self):
        cfg = make_config(n_unicast=3, group_sizes=(2,), pilot_length=4, n_antennas=4)
        fading = FadingProfile(unicast_gains=(1.0,) * 3, multicast_gains=((1.0, 1.0),))
        with pytest.raises(ZfInfeasibleError):
            solve_mmf(cfg, fading, 0.0, ZF)


class TestMmfProperties:
    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_solution_structure_on_random_instances(self, precoder):
        rng = np.random.default_rng(42)
        for _ in range(30):
            cfg, fading = random_desk_instance(rng)
            p_un = float(rng.uniform(0.0, cfg.total_power)) if cfg.n_unicast else 0.0
            sol = solve_mmf(cfg, fading, p_un, precoder)
            p_mu = cfg.total_power - p_un
            # full remaining budget spent
            assert sum(sol.downlink_powers) == pytest.approx(p_mu, rel=1e-12, abs=1e-12)
            # pilot length is the stream count
            assert sol.pilot_length == cfg.n_streams
            # pilot energies within caps, the floor member exactly at its cap
            for xs, caps in zip(sol.x_caps, cfg.multicast_energy_caps):
                assert all(0.0 <= x <= c for x, c in zip(xs, caps))
                assert any(x == c for x, c in zip(xs, caps))
            # every multicast UT's scored SE equals the objective
            rep = mmf_se_report(cfg, fading, sol, p_un)
            ses = [se for grp in rep.multicast_se for se in grp]
            assert max(ses) - min(ses) <= 1e-9 * max(ses)
            assert max(ses) == pytest.approx(sol.objective, rel=1e-9)

    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_objective_increases_with_multicast_power(self, precoder):
        rng = np.random.default_rng(7)
        cfg, fading = random_desk_instance(rng, u_range=(2, 4), g_range=(2, 3))
        splits = np.linspace(0.0, cfg.total_power, 9)
        objs = [solve_mmf(cfg, fading, float(s), precoder).objective for s in splits]
        # p_unicast grows along splits, so the multicast objective must fall
        assert all(a > b for a, b in zip(objs, objs[1:]))


class TestSseMrt:
    def test_frozen_two_user_waterfill(self):
        cfg = make_config(n_unicast=2, group_sizes=(), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0, 0.1), multicast_gains=())
        sol = solve_sse(cfg, fading, 5.0, MRT)
        assert sol.effective_vars == pytest.approx((2.0 / 3.0, 1.0 / 60.0), rel=1e-12)
        # offsets (0.165, 1.2); both active; levels computed by hand
        assert sol.downlink_powers == pytest.approx((3.0175, 1.9825), rel=1e-12)
        assert sum(sol.downlink_powers) == pytest.approx(5.0, rel=1e-15)
        assert sol.uplink_pilot_powers == pytest.approx((1.0, 1.0), rel=1e-12)
        expected = (1.0 - 2.0 / 200.0) * (
            math.log2(1.0 + 3.0175 / 0.165) + math.log2(1.0 + 1.9825 / 1.2))
        assert sol.objective == pytest.approx(expected, rel=1e-12)

    def test_single_user_takes_everything(self):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(0.7,), multicast_gains=((1.0,),))
        sol = solve_sse(cfg, fading, 4.0, MRT)
        assert sol.downlink_powers == pytest.approx((6.0,), rel=1e-15)

    def test_identical_users_split_equally(self):
        cfg = make_config(n_unicast=2, group_sizes=(), pilot_length=2)
        fading = FadingProfile(unicast_gains=(0.8, 0.8), multicast_gains=())
        sol = solve_sse(cfg, fading, 2.0, MRT)
        assert sol.downlink_powers[0] == pytest.approx(sol.downlink_powers[1], rel=1e-12)
        assert sum(sol.downlink_powers) == pytest.approx(8.0, rel=1e-15)

    def test_no_unicast_users_rejected(self):
        cfg, fading = single_group_instance()
        with pytest.raises(DegenerateInputError):
            solve_sse(cfg, fading, 5.0, MRT)


class TestSseZf:
    def test_single_user_takes_everything(self):
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(0.7,), multicast_gains=((1.0,),))
        sol = solve_sse(cfg, fading, 4.0, ZF)
        assert sol.downlink_powers == pytest.approx((6.0,), rel=1e-15)

    def test_huge_pilot_cap_removes_interference_offset(self):
        # With a near-infinite pilot budget the estimate is perfect and the
        # residual-interference term of the offset vanishes.
        beta = 0.7
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2, cap=1e12)
        fading = FadingProfile(unicast_gains=(beta,), multicast_gains=((1.0,),))
        sol = solve_sse(cfg, fading, 4.0, ZF)
        dof = cfg.n_antennas - cfg.n_streams
        assert sol.effective_vars[0] == pytest.approx(beta, rel=1e-9)
        # reconstruct the offset from the water level and the level
        offset = 1.0 / (sol.water_level * LN2) - sol.downlink_powers[0]
        assert offset == pytest.approx(1.0 / (dof * beta), rel=1e-6)

    def test_too_few_antennas_rejected(self):
        cfg = make_config(n_unicast=2, group_sizes=(1,), pilot_length=3, n_antennas=3)
        fading = FadingProfile(unicast_gains=(1.0, 1.0), multicast_gains=((1.0,),))
        with pytest.raises(ZfInfeasibleError):
            solve_sse(cfg, fading, 0.0, ZF)


class TestSseProperties:
    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_budget_kkt_and_scoring(self, precoder):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cfg, fading = random_desk_instance(rng, u_range=(1, 6))
            p_mu = float(rng.uniform(0.0, cfg.total_power))
            sol = solve_sse(cfg, fading, p_mu, precoder)
            budget = cfg.total_power - p_mu
            assert sum(sol.downlink_powers) == pytest.approx(budget, rel=1e-12, abs=1e-12)
            assert all(p >= 0.0 for p in sol.downlink_powers)
            rep = sse_se_report(cfg, fading, sol, p_mu)
            assert rep.weighted_sum_unicast_se(cfg.sse_weights) \
                == pytest.approx(sol.objective, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_objective_increases_with_unicast_power(self, precoder):
        rng = np.random.default_rng(13)
        cfg, fading = random_desk_instance(rng, u_range=(2, 5), g_range=(1, 2))
        splits = np.linspace(0.0, cfg.total_power, 9)
        objs = [solve_sse(cfg, fading, float(s), precoder).objective for s in splits]
        # p_multicast grows along splits, so the unicast objective must fall
        assert all(a > b for a, b in zip(objs, objs[1:]))


class TestGridOracleAgreement:
    @pytest.mark.parametrize("precoder", ["mrt", "zf"])
    def test_closed_form_attainable_by_grid_search(self, precoder):
        # The dense grid must land close below the closed-form optimum:
        # never above it, and within grid resolution of it.
        rng = np.random.default_rng(17)
        for _ in range(2):
            cfg, fading = random_desk_instance(rng, n_range=(30, 80), u_range=(1, 2),
                                               g_range=(1, 2), k_range=(1, 2))
            p_un = float(rng.uniform(0.0, cfg.total_power))
            from oracles import grid_mmf_objective, grid_sse_objective
            mmf_closed = solve_mmf(cfg, fading, p_un, precoder).objective
            mmf_grid = grid_mmf_objective(cfg, fading, p_un, precoder)
            assert mmf_grid <= mmf_closed * (1.0 + 1e-9)
            assert mmf_grid >= mmf_closed * (1.0 - 0.05)
            p_mu = cfg.total_power - p_un
            sse_closed = solve_sse(cfg, fading, p_mu, precoder).objective
            sse_grid = grid_sse_objective(cfg, fading, p_mu, precoder)
            assert sse_grid <= sse_closed * (1.0 + 1e-9)
            assert sse_grid >= sse_closed * (1.0 - 0.05)


class TestScoringGuards:
    def test_mismatched_unicast_power_with_no_users(self):
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 0.0, MRT)
        with pytest.raises(DegenerateInputError):
            mmf_se_report(cfg, fading, sol, 1.0)

    def test_report_uses_solution_pilot_length(self):
        rng = np.random.default_rng(3)
        cfg, fading = random_desk_instance(rng, u_range=(1, 2), g_range=(1, 2))
        cfg = dataclasses.replace(cfg, pilot_length=cfg.n_streams + 5)
        sol = solve_mmf(cfg, fading, 0.0, "mrt")
        rep = mmf_se_report(cfg, fading, sol, 0.0)
        assert rep.prelog == pytest.approx(1.0 - cfg.n_streams / cfg.coherence_length)


class TestBudgetTolerance:
    @pytest.mark.parametrize("overshoot, accepted", [(0.5e-12, True), (2e-12, False)])
    def test_split_and_scoring_share_one_bound(self, overshoot, accepted):
        # A power that overshoots the budget by the same relative amount must
        # get the same verdict as a solver split and as a scored power list.
        cfg = make_config(n_unicast=1, group_sizes=(1,), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0,), multicast_gains=((1.0,),))
        stats = estimation_variances(cfg, fading, [1.0], [[1.0]])
        over = cfg.total_power * (1.0 + overshoot)
        checks = (lambda: solve_mmf(cfg, fading, over, MRT),
                  lambda: se_report(cfg, stats, fading,
                                    DownlinkPowers(unicast=(over,), multicast=(0.0,)), MRT))
        for check in checks:
            if accepted:
                check()
            else:
                with pytest.raises(ValueError):
                    check()
