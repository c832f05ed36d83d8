import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimocast import allocation
from mimocast.allocation import (mmf_se_report, solve_mmf, solve_sse, sse_se_report,
                                 waterfill, waterfill_budget)
from mimocast.closed_form import (BUDGET_RTOL, MRT, PRECODERS, ZF, DownlinkPowers,
                                  _precoder_factors, se_from_sinr, se_report)
from mimocast.errors import DegenerateInputError, ZfInfeasibleError
from mimocast.model import FadingProfile, FadingStack, SystemConfig, estimation_variances

import oracles
from oracles import bisect_waterfill, random_desk_instance, waterfill_kkt_violation
from test_drop_stacks import desk_stack
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
        assert levels.tolist() == [0.0, 0.0]
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

    def test_nan_weight_rejected(self):
        # It used to drop the NaN user and give the other the whole budget.
        with pytest.raises(ValueError, match="weights"):
            waterfill((math.nan, 1.0), (1.0, 1.0), 1.0)

    def test_nan_offset_rejected(self):
        with pytest.raises(ValueError, match="offsets"):
            waterfill((1.0, 1.0), (math.nan, 1.0), 1.0)

    def test_infinite_weight_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            waterfill((math.inf, 1.0), (1.0, 1.0), 1.0)

    def test_infinite_offset_rejected(self):
        with pytest.raises(ValueError, match="offsets"):
            waterfill((1.0, 1.0), (math.inf, 1.0), 1.0)

    def test_infinite_budget_rejected(self):
        # It used to divide by zero and return infinite levels.
        with pytest.raises(ValueError, match="budget"):
            waterfill((1.0, 1.0), (1.0, 2.0), math.inf)

    def test_nan_budget_rejected(self):
        # It used to return zero levels with a NaN water level.
        with pytest.raises(ValueError, match="budget"):
            waterfill((1.0, 1.0), (1.0, 2.0), math.nan)

    @pytest.mark.parametrize("weights, offsets, budget", [
        ((1.0,), (1.0,), 1e-20),
        ((1.0, 2.0), (1e3, 4e3), 1e-14),
        ((1.5, 1.0, 1.0), (0.4, 3.0, 0.4), 1e-17),
    ])
    def test_budget_below_the_offsets_rounding_keeps_a_finite_water_level(
            self, weights, offsets, budget):
        # budget + o_1 rounds to o_1, so no candidate passed the strict test
        # and the water level was NaN; c_1/(budget + o_1) < c_1/o_1 holds for
        # any positive budget, so the first user joins.
        levels, nu = waterfill(weights, offsets, budget)
        assert math.isfinite(nu) and nu > 0.0
        assert all(p >= 0.0 for p in levels)
        assert waterfill_kkt_violation(weights, offsets, levels, nu) <= 1e-10
        assert (tuple(levels.tolist()), nu) == oracles.waterfill_loop(weights, offsets, budget)

    @pytest.mark.parametrize("weights, offsets, budget", [
        ((1e-300,), (1e-10,), 1e100),
        ((1e-300,), (1e300,), 1.0),   # its ratio c/o underflows too
        ((1e-300, 1e-300), (1e-10, 2e-10), 1e100),
    ])
    def test_water_level_that_underflows_keeps_the_budget(self, weights, offsets, budget):
        # nu = c/(budget + o) underflows to zero, and c/nu gave infinite
        # levels, with numpy's "divide by zero" warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels, nu = waterfill(weights, offsets, budget)
        assert nu == 0.0 and np.isfinite(levels).all() and (levels >= 0.0).all()
        assert abs(levels.sum() - budget) <= BUDGET_RTOL * budget
        if len(weights) == 1:
            assert levels.tolist() == [budget]

    @pytest.mark.parametrize("solve", [waterfill, waterfill_budget])
    @pytest.mark.parametrize("weights, offsets, target, error", [
        (np.array([1 + 1j, 2]), [1.0, 1.0], 1.0, TypeError),
        ([1.0, 2.0], np.array([1.0, 1 + 1j]), 1.0, TypeError),
        ([1.0, None], [1.0, 1.0], 1.0, TypeError),
        ([1.0, 1.0], [1.0, 1.0], np.complex128(1.0), TypeError),
        (np.array([[1.0, 1.0]]), [[1.0, 1.0]], 1.0, ValueError),
    ], ids=["complex weight", "complex offset", "None weight", "complex target", "2-D"])
    def test_inputs_convert_as_records_do(self, solve, weights, offsets, target, error):
        # Weights, offsets and the budget (or objective) are read with
        # ``model._vector`` and ``model._real``: a complex entry used to lose
        # its imaginary part with a ComplexWarning, and 2-D users raised
        # IndexError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                solve(weights, offsets, target)

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

    def test_nan_weight_rejected(self):
        # It used to return NaN.
        with pytest.raises(ValueError, match="weights"):
            waterfill_budget((math.nan,), (1.0,), 1.0)

    def test_non_finite_offset_rejected(self):
        for offset in (math.nan, math.inf):
            with pytest.raises(ValueError, match="offsets"):
                waterfill_budget((1.0, 1.0), (offset, 1.0), 1.0)

    @pytest.mark.parametrize("weights, offsets", [
        ((1e-300, 1.0), (1e300, 1.0)),
        ((1e-300, 1e-300, 1.0), (1e300, 1e300, 1.0)),
        ((1e-300, 1.0, 1e-300), (1e300, 1.0, 2e300)),
    ])
    def test_users_whose_ratio_underflows_never_join(self, weights, offsets):
        # w/o = 1e-600 underflows to zero: such a user would join at an
        # infinite budget, so it adds no segment.  It used to divide by
        # its ratio and raise ZeroDivisionError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = waterfill_budget(weights, offsets, 1.0)
            fill = allocation._FillOrder(np.array(weights), np.array(offsets))
            assert np.isfinite(fill.segments).all()
        assert got == math.e - 1.0 == 1.718281828459045
        levels, _ = waterfill(weights, offsets, got)   # the round trip, users in order
        assert levels.tolist() == [got if w == 1.0 else 0.0 for w in weights]
        assert log_utility(weights, offsets, levels) == pytest.approx(1.0, rel=1e-15)

    def test_users_who_all_never_join_are_rejected(self):
        # It used to raise ZeroDivisionError.
        with pytest.raises(ValueError, match="none ever joins"):
            waterfill_budget((1e-300, 2e-300), (1e300, 1e300), 1.0)


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
        assert sol.downlink_powers.tolist() == [0.0]
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

    def test_budget_below_the_offsets_rounding_keeps_a_finite_water_level(self):
        # The unicast budget P - nextafter(P, 0) = 1.1e-13 vanishes against
        # offsets of about 6e4, where the water level used to be NaN.
        cfg = dataclasses.replace(make_config(n_unicast=2, group_sizes=(2,), n_antennas=16,
                                              total_power=1e3),
                                  unicast_energy_caps=(1e-3, 1e-3))
        fading = FadingProfile(unicast_gains=(1.0, 0.5), multicast_gains=((1.0, 1.0),))
        p_mu = math.nextafter(cfg.total_power, 0.0)
        sol = solve_sse(cfg, fading, p_mu, MRT)
        offsets = allocation._sse_problem(cfg, fading, MRT).offsets.tolist()
        assert math.isfinite(sol.water_level) and sol.water_level > 0.0
        assert waterfill_kkt_violation(cfg.sse_weights.tolist(), offsets,
                                       sol.downlink_powers.tolist(), sol.water_level) <= 1e-10
        assert sse_se_report(cfg, fading, sol, p_mu).unicast_se.tolist() == [0.0, 0.0]


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
    def test_nan_fixed_power_rejected(self):
        cfg, fading = random_desk_instance(np.random.default_rng(8), u_range=(1, 8))
        sol = solve_mmf(cfg, fading, 0.0, MRT)
        with pytest.raises(ValueError, match="non-negative"):
            mmf_se_report(cfg, fading, sol, math.nan)

    def test_mismatched_unicast_power_with_no_users(self):
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 0.0, MRT)
        with pytest.raises(DegenerateInputError):
            mmf_se_report(cfg, fading, sol, 1.0)

    def test_free_side_without_streams_scores(self):
        # The side a score fills with an equal split has no streams: no
        # groups for sum SE, no unicast UTs for max-min.
        cfg = make_config(n_unicast=2, group_sizes=(), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0, 0.1), multicast_gains=())
        sol = solve_sse(cfg, fading, 0.0, MRT)
        rep = sse_se_report(cfg, fading, sol, 0.0)
        assert rep.weighted_sum_unicast_se(cfg.sse_weights) == pytest.approx(sol.objective,
                                                                             rel=1e-9)
        cfg, fading = single_group_instance()
        sol = solve_mmf(cfg, fading, 0.0, MRT)
        assert mmf_se_report(cfg, fading, sol, 0.0).min_multicast_se() == pytest.approx(
            sol.objective, rel=1e-9)

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


class TestHighPowerLimit:
    """AC-7's leading-order derivation, as a limit.

    gamma = gain*p_mu / sum_j (B_j - c*P) with B_j = 1/upsilon_j + sum_k 1/g_jk
    + K_j*P.  Scale the budget P and every pilot energy cap E by s, as a
    noise floor falling by s does: upsilon_j = min_k E*g^2/(1 + g*P) tends
    to min_k E*g/P, so R = sum_j (1/upsilon_j + sum_k 1/g_jk) stays bounded
    while the loads grow as P.  Hence gamma*P*load/(gain*p_mu) = 1 - R/(load*P
    + R) -> 1 with (gain, load) = (N, sum K) under MRT and (N-U-G, sum K - G)
    under ZF.  (1 + g*s*P)/(s*E*g^2) falls with s, so R at s = 1 bounds
    the residual's R for every s >= 1.
    """

    @pytest.mark.parametrize("precoder", [MRT, ZF])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           share=st.floats(min_value=0.05, max_value=0.95))
    def test_gamma_tends_to_leading_order(self, precoder, seed, share):
        # Groups of two or more, so that sum K - G > 0.
        cfg, fading = random_desk_instance(np.random.default_rng(seed), k_range=(2, 6))
        n, u, g = cfg.n_antennas, cfg.n_unicast, cfg.n_groups
        k_total = sum(cfg.group_sizes)
        gain, load = (n, k_total) if precoder == MRT else (n - u - g, k_total - g)
        p0 = cfg.total_power
        r_bound = 0.0
        for caps, gains in zip(cfg.multicast_energy_caps, fading.multicast_gains):
            r_bound += float(np.max((1.0 + gains * p0) / (caps * gains * gains)))
            r_bound += float(np.sum(1.0 / gains))
        for s in (1e6, 1e8):
            cfg_s = dataclasses.replace(
                cfg, total_power=p0 * s, unicast_energy_caps=cfg.unicast_energy_caps * s,
                multicast_energy_caps=tuple(row * s for row in cfg.multicast_energy_caps))
            big_p = cfg_s.total_power
            p_un = share * big_p if u else 0.0
            p_mu = big_p - p_un
            gamma = solve_mmf(cfg_s, fading, p_un, precoder).gamma
            residual = 1.0 - gamma * big_p * load / (gain * p_mu)
            assert -1e-12 <= residual <= r_bound / (load * big_p) + 1e-12, (s, residual)


# The unicast gains 0.7 and 1.3 and unit multicast gains, as log10.
CELL_GAINS = [math.log10(0.7), math.log10(1.3), 0.0, 0.0, 0.0]


def extreme_cell(power, caps, unicast_gains, multicast_gains):
    """N = 16, two unicast UTs, groups of sizes (1, 2) and tau = U+G = 4,
    at the budget ``power`` and one energy cap per UT (unicast UTs first)."""
    return (SystemConfig(n_antennas=16, coherence_length=200, n_unicast=2, group_sizes=(1, 2),
                         pilot_length=4, total_power=power, unicast_energy_caps=caps[:2],
                         multicast_energy_caps=(caps[2:3], caps[3:]), sse_weights=(1.0, 1.5)),
            FadingProfile(unicast_gains=unicast_gains,
                          multicast_gains=(multicast_gains[:1], multicast_gains[1:])))


class TestOneEstimationRule:
    """The sum-SE solver reads the model's estimate and error variances at
    full-cap pilots, the very values its score reads: its offsets keep
    their digits at any budget and pilot energy, its objective is what
    ``sse_se_report`` scores, and ``effective_vars`` is the variance scored.

    The objectives are checked against their scores with the budget and
    every cap at one value X, as a noise floor falling by X scales them.
    A fault outside the estimation rule shows elsewhere, with a strict
    xfail below: water-filled levels that lose their sum once the offsets
    dwarf the budget (sum SE with X below 1, or with caps far below P).
    The max-min objective holds over the whole range under both precoders,
    since ZF's loads stopped cancelling for a group of one."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=150, deadline=None)
    @given(log_power=st.floats(-6.0, 30.0),
           log_caps=st.lists(st.floats(-6.0, 30.0), min_size=5, max_size=5),
           log_gains=st.lists(st.floats(-2.0, 0.5), min_size=5, max_size=5))
    @example(log_power=12.0, log_caps=[12.0] * 5, log_gains=CELL_GAINS)
    def test_sse_offsets_match_exact_fractions(self, precoder, log_power, log_caps,
                                               log_gains):
        gains = [10.0 ** x for x in log_gains]
        cfg, fading = extreme_cell(10.0 ** log_power, [10.0 ** x for x in log_caps],
                                   gains[:2], gains[2:])
        offsets = allocation._sse_problem(cfg, fading, precoder).offsets
        want = oracles.unicast_offsets_exact(cfg, fading, *_precoder_factors(cfg, precoder))
        assert all(abs(Fraction(o) - w) <= Fraction(1e-14) * w
                   for o, w in zip(offsets.tolist(), want)), (offsets, [float(w) for w in want])

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=150, deadline=None)
    @given(log_x=st.floats(0.0, 30.0),
           log_gains=st.lists(st.floats(-2.0, 0.5), min_size=5, max_size=5))
    @example(log_x=12.0, log_gains=CELL_GAINS)
    def test_sse_objective_matches_its_score(self, precoder, log_x, log_gains):
        x, gains = 10.0 ** log_x, [10.0 ** g for g in log_gains]
        cfg, fading = extreme_cell(x, [x] * 5, gains[:2], gains[2:])
        sol = solve_sse(cfg, fading, x / 2.0, precoder)
        scored = sse_se_report(cfg, fading, sol, x / 2.0).weighted_sum_unicast_se(
            cfg.sse_weights)
        assert abs(scored - sol.objective) <= 1e-12 * sol.objective, (scored, sol.objective)

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=150, deadline=None)
    @given(log_x=st.floats(-6.0, 30.0),
           log_gains=st.lists(st.floats(-2.0, 0.5), min_size=5, max_size=5))
    @example(log_x=6.0, log_gains=[0.0, 0.0, -1.0, 0.0, 0.0])
    @example(log_x=17.0, log_gains=[0.0] * 5)
    def test_mmf_objective_matches_its_score(self, precoder, log_x, log_gains):
        # Under ZF, group 0 (one member) has the load 1/upsilon_0 + 1/g,
        # which B_0 - P loses: 5 digits at X = 1e6 with g = 0.1 (a load of
        # 20.0001), and all of them at X = 1e17 with unit gains.
        x, gains = 10.0 ** log_x, [10.0 ** g for g in log_gains]
        cfg, fading = extreme_cell(x, [x] * 5, gains[:2], gains[2:])
        sol = solve_mmf(cfg, fading, x / 2.0, precoder)
        scored = mmf_se_report(cfg, fading, sol, x / 2.0).min_multicast_se()
        assert abs(scored - sol.objective) <= 1e-12 * sol.objective, (scored, sol.objective)

    @pytest.mark.xfail(strict=True, raises=(AssertionError, ValueError),
                       reason="water-filled levels c/nu - o lose digits once the offsets "
                              "dwarf the budget, and the score reads their sum as P")
    @pytest.mark.parametrize("precoder, power, caps, unicast_gains", [
        # Offsets 6.25e20 at P = 1e16: the one active level is 5e15 - 32768.
        (MRT, 1e16, [1e-5, 1e-6, 1.0, 1.0, 1.0], [0.1, 1.0]),
        # Offsets 83.5 at P = 1e-3: the levels overshoot their budget by
        # 4.8e-12 of it, and the score rejects the powers.
        (ZF, 1e-3, [1e-3] * 5, [1.0, 1.0]),
    ])
    def test_sse_objective_matches_its_score_when_offsets_dwarf_the_budget(
            self, precoder, power, caps, unicast_gains):
        cfg, fading = extreme_cell(power, caps, unicast_gains, [1.0, 1.0, 1.0])
        sol = solve_sse(cfg, fading, power / 2.0, precoder)
        scored = sse_se_report(cfg, fading, sol, power / 2.0).weighted_sum_unicast_se(
            cfg.sse_weights)
        assert abs(scored - sol.objective) <= 1e-12 * sol.objective, (scored, sol.objective)

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_effective_vars_are_the_scored_variances(self, monkeypatch, precoder):
        # Both score paths, through the kept problem and through a copy of
        # the pair, which validates and estimates again.
        scored = []
        real = allocation._se_report
        monkeypatch.setattr(allocation, "_se_report",
                            lambda cfg, stats, *a: scored.append(stats) or real(cfg, stats, *a))
        for seed in range(200):
            cfg, fading = random_desk_instance(np.random.default_rng(seed), u_range=(1, 8))
            p_mu = cfg.total_power / 2.0
            sol = solve_sse(cfg, fading, p_mu, precoder)
            sse_se_report(cfg, fading, sol, p_mu)
            sse_se_report(dataclasses.replace(cfg), FadingProfile.from_dict(fading.to_dict()),
                          sol, p_mu)
            for stats in scored[-2:]:
                assert sol.effective_vars.tolist() == stats.unicast_var.tolist(), seed

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           log_power=st.floats(-3.0, 3.0), precoder=st.sampled_from(PRECODERS))
    def test_mmf_loads_agree_with_the_subtracting_rule_at_moderate_budgets(self, seed,
                                                                         log_power, precoder):
        # The loads the solver formed before, B_j - c*P, are a differential
        # oracle wherever the difference keeps its digits: there it loses
        # about eps*P of 1/upsilon_j + sum 1/g + (K_j - c)*P.
        cfg, fading = random_desk_instance(np.random.default_rng(seed))
        cfg = dataclasses.replace(cfg, total_power=10.0 ** log_power)
        gain, c = _precoder_factors(cfg, precoder)
        p_unicast = cfg.total_power / 2.0 if cfg.n_unicast else 0.0
        objective = solve_mmf(cfg, fading, p_unicast, precoder).objective
        assert objective == oracles.mmf_objective_loop(cfg, fading, p_unicast, gain, c)
        old = oracles.mmf_objective_loop_subtracting(cfg, fading, p_unicast, gain, c)
        assert abs(old - objective) <= 1e-12 * objective, (old, objective)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           log_scale=st.floats(-6.0, 3.0), precoder=st.sampled_from(PRECODERS))
    def test_offsets_agree_with_the_subtracting_rule_at_moderate_caps(self, seed, log_scale,
                                                                      precoder):
        # The rule the solver read before, b - c*theta from e*b*b/(1 + e*b),
        # is a differential oracle wherever its difference keeps its digits:
        # there it loses about eps*(1 + e*b) of b - theta.
        cfg, fading = random_desk_instance(np.random.default_rng(seed), u_range=(1, 8))
        scale = 10.0 ** log_scale / 5.0   # desk caps lie in [0.5, 5]
        cfg = dataclasses.replace(cfg, unicast_energy_caps=cfg.unicast_energy_caps * scale)
        problem = allocation._sse_problem(cfg, fading, precoder)
        theta_old, offsets_old = oracles.unicast_offsets_subtracting(
            cfg, fading, *_precoder_factors(cfg, precoder))
        assert np.allclose(problem.theta, theta_old, rtol=1e-15, atol=0.0)
        assert np.allclose(problem.offsets, offsets_old, rtol=1e-12, atol=0.0)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def within_one_ulp(got, want) -> bool:
    """Every entry of got within one ulp of want's."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool((np.abs(got - want) <= np.spacing(np.abs(want))).all())


class TestOneLog1pRule:
    """Every SE goes through numpy's log1p: the scalar ``se_from_sinr``, the
    max-min objective, the sum-SE objective (``_sum_se``), one drop or a
    stack of them, and the SE report agree bit for bit, and each log1p is
    within one ulp of math.log1p (``oracles.log1p_math``), the rule the
    arrays followed before."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_drops=st.integers(1, 4))
    def test_scalar_and_array_ses_agree(self, precoder, seed, n_drops):
        rng = np.random.default_rng(seed)
        cfg, stack = desk_stack(rng, n_drops)
        prelog, P = allocation._solver_prelog(cfg), cfg.total_power
        p_un = float(rng.uniform(0.0, P)) if cfg.n_unicast else 0.0
        p_mu = P - p_un

        mmf = allocation._mmf_problem(cfg, stack, precoder)
        gamma = mmf._gamma(p_un)[1]
        assert within_one_ulp(np.log1p(gamma), oracles.log1p_math(gamma))
        objectives = mmf.objectives(p_un)
        assert objectives.tolist() == [se_from_sinr(prelog, g) for g in gamma.tolist()]
        if cfg.n_unicast:
            sse = allocation._sse_problem(cfg, stack, precoder)
            levels, _, objectives = sse._fill(p_mu)
            ratios = levels / sse.offsets
            assert within_one_ulp(np.log1p(ratios), oracles.log1p_math(ratios))
            assert objectives.tolist() == [
                prelog * sum(se_from_sinr(a, x) for a, x in zip(cfg.sse_weights.tolist(), row))
                for row in ratios.tolist()]

        for d in range(n_drops):
            fading = stack.drop(d)
            sol = solve_mmf(cfg, fading, p_un, precoder)
            assert sol.objective == se_from_sinr(prelog, sol.gamma) == mmf.objectives(p_un)[d]
            reports = [mmf_se_report(cfg, fading, sol, p_un)]
            if cfg.n_unicast:
                sol = solve_sse(cfg, fading, p_mu, precoder)
                assert sol.objective == sse.objectives(p_mu)[d]
                reports.append(sse_se_report(cfg, fading, sol, p_mu))
            for report in reports:
                sinr = np.concatenate([report.unicast_sinr, report.multicast_sinr_flat])
                se = np.concatenate([report.unicast_se, report.multicast_se_flat])
                assert se.tolist() == [se_from_sinr(report.prelog, x) for x in sinr.tolist()]
                assert within_one_ulp(np.log1p(sinr), oracles.log1p_math(sinr))

    def test_one_ufunc_rounds_every_layout_alike(self):
        # A 0-d, a strided and a contiguous argument give the same bits.
        x = 10.0 ** np.random.default_rng(0).uniform(-5.0, 3.0, 4096)
        whole = np.log1p(x)
        assert np.array_equal(bits(np.log1p(np.repeat(x, 2)[::2])), bits(whole))
        assert [se_from_sinr(1.0, v) for v in x.tolist()] == (whole / math.log(2.0)).tolist()
        assert within_one_ulp(whole, oracles.log1p_math(x))


def tied_stack(rng, n_drops):
    """A desk config and stack whose unicast weights, caps and gains come
    from short lists, so that several UTs share one water-filling ratio."""
    cfg, stack = desk_stack(rng, n_drops)
    u = max(cfg.n_unicast, 1)
    cfg = dataclasses.replace(cfg, n_unicast=u, pilot_length=u + cfg.n_groups,
                              sse_weights=rng.choice([0.5, 1.0], u),
                              unicast_energy_caps=rng.choice([1.0, 2.0], u))
    stack = FadingStack(unicast_gains=rng.choice([0.5, 1.0], (n_drops, u)),
                        multicast_gains_flat=stack.multicast_gains_flat,
                        group_offsets=stack.group_offsets)
    return cfg, stack


class TestCachedWaterfill:
    """The sum-SE problem works out its fill order, and from it the
    segments of the inverse, once.  Its solves give the levels, water
    levels and objectives ``_FillOrder.levels`` gives and the
    one-user-at-a-time loop (``oracles.waterfill_loop``) gives, and its
    inverse the budget ``waterfill_budget`` and the loop it ran before
    (``oracles.waterfill_budget_loop``) give, all bit for bit: on one drop
    and on stacks, at a zero budget, with tied ratios and on the
    breakpoints themselves."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_drops=st.integers(1, 4),
           ties=st.booleans())
    def test_solves_equal_the_waterfill(self, precoder, seed, n_drops, ties):
        rng = np.random.default_rng(seed)
        cfg, stack = (tied_stack if ties else desk_stack)(rng, n_drops)
        if cfg.n_unicast == 0:
            return
        weights, P = cfg.sse_weights, cfg.total_power
        problem = allocation._sse_problem(cfg, stack, precoder)
        ones = [allocation._sse_problem(cfg, stack.drop(d), precoder) for d in range(n_drops)]
        for p_mu in (P, 0.0, P / 2.0, float(rng.uniform(0.0, P))):   # P: a zero budget
            budget = P - p_mu
            levels, nu, objectives = problem._fill(p_mu)
            want_levels, want_nu = allocation._FillOrder(weights, problem.offsets).levels(
                budget)
            assert np.array_equal(bits(levels), bits(want_levels))
            assert np.array_equal(bits(nu), bits(want_nu))
            for d, one in enumerate(ones):
                loop = oracles.waterfill_loop(weights.tolist(), problem.offsets[d].tolist(),
                                              budget)
                assert (tuple(levels[d].tolist()), float(nu[d])) == loop
                sol = one.solve(p_mu)
                assert (sol.downlink_powers.tolist(), sol.water_level, sol.objective) == \
                    (levels[d].tolist(), float(nu[d]), float(objectives[d]))
        for d, one in enumerate(ones):   # every budget on a breakpoint
            for budget in one._fill_order.segments[1].tolist():
                levels, nu = problem._fill_order.levels(budget)
                assert (tuple(levels[d].tolist()), float(nu[d])) == oracles.waterfill_loop(
                    weights.tolist(), problem.offsets[d].tolist(), budget)

    @pytest.mark.parametrize("precoder", PRECODERS)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), ties=st.booleans())
    def test_power_for_equals_waterfill_budget(self, precoder, seed, ties):
        rng = np.random.default_rng(seed)
        cfg, stack = (tied_stack if ties else desk_stack)(rng, 1)
        if cfg.n_unicast == 0:
            return
        weights, prelog = cfg.sse_weights, allocation._solver_prelog(cfg)
        problem = allocation._sse_problem(cfg, stack.drop(0), precoder)
        offsets = problem.offsets.tolist()
        for objective in (0.0, problem.top / 2.0, float(rng.uniform(0.0, problem.top)),
                          problem.top):
            f = objective * LN2 / prelog
            want = waterfill_budget(weights, offsets, f)
            assert problem.power_for(objective) == want
            assert want == oracles.waterfill_budget_loop(weights.tolist(), offsets, f)
        fill = problem._fill_order   # objectives on and beside every breakpoint
        level_sums = fill.segments[2].tolist()
        for f in level_sums + [math.nextafter(f, math.inf) for f in level_sums]:
            assert fill.budget(f) == waterfill_budget(weights, offsets, f) == \
                oracles.waterfill_budget_loop(weights.tolist(), offsets, f)

    @pytest.mark.parametrize("offset", [math.inf, math.nan])
    def test_power_for_checks_the_offsets_as_waterfill_budget_does(self, offset):
        cfg = make_config(n_unicast=2, group_sizes=(), pilot_length=2)
        fading = FadingProfile(unicast_gains=(1.0, 0.1), multicast_gains=())
        problem = allocation._sse_problem(cfg, fading, MRT)
        offsets = problem.offsets.copy()
        offsets[0] = offset
        object.__setattr__(problem, "offsets", offsets)
        with pytest.raises(ValueError, match="offsets must be positive and finite"):
            problem.power_for(1.0)

    def test_tied_ratios_and_their_breakpoints(self):
        # Three users at one ratio w/o = 2 and one below it: the ties add
        # no segment of their own, and the loop and the fill order's
        # segments take them in input order alike.
        weights, offsets = (1.0, 1.0, 2.0, 1.0), (0.5, 0.5, 1.0, 2.0)
        fill = allocation._FillOrder(np.array(weights), np.array(offsets))
        _, budgets, level_sums, _ = fill.segments.tolist()
        assert level_sums[:3] == [0.0, 0.0, 0.0]
        for f in (0.0, 0.5, level_sums[-1], 7.0):
            assert fill.budget(f) == waterfill_budget(weights, offsets, f) == \
                oracles.waterfill_budget_loop(list(weights), list(offsets), f)
        for budget in (0.0, *budgets, 3.0):
            levels, nu = fill.levels(budget)
            assert (tuple(levels.tolist()), float(nu)) == oracles.waterfill_loop(
                list(weights), list(offsets), budget)
