import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimocast.closed_form import PRECODERS, DownlinkPowers, se_report
from mimocast.model import estimation_variances
from mimocast.pareto import (ParetoBoundary, boundary_csv, check_convexity,
                             select_operating_point, solve_split,
                             sweep_boundary)
from mimocast.scenario import CellGeometry, default_normalized_config, place_users

from oracles import bisect_split, random_desk_instance


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(21)
    cfg, fading = random_desk_instance(rng, n_range=(80, 120), u_range=(3, 5),
                                       g_range=(2, 3), k_range=(1, 3))
    return cfg, fading


@pytest.fixture(scope="module")
def boundary(instance):
    cfg, fading = instance
    return sweep_boundary(cfg, fading, "mrt", 21)


class TestSweep:
    def test_endpoint_objectives_are_exact_zeros(self, boundary):
        assert boundary.points[0].p_unicast == 0.0
        assert boundary.points[0].sse_objective == 0.0
        assert boundary.points[-1].p_multicast == 0.0
        assert boundary.points[-1].mmf_objective == 0.0

    def test_point_count_and_ordering(self, boundary):
        assert len(boundary.points) == 21
        p_un = [p.p_unicast for p in boundary.points]
        assert p_un == sorted(p_un)

    def test_each_point_spends_the_full_budget(self, boundary, instance):
        cfg, _ = instance
        for p in boundary.points:
            assert p.p_unicast + p.p_multicast == pytest.approx(cfg.total_power, rel=1e-12)

    def test_objectives_strictly_monotone(self, boundary):
        mmf = [p.mmf_objective for p in boundary.points]
        sse = [p.sse_objective for p in boundary.points]
        assert all(a > b for a, b in zip(mmf, mmf[1:]))
        assert all(a < b for a, b in zip(sse, sse[1:]))

    def test_needs_two_points(self, instance):
        cfg, fading = instance
        with pytest.raises(ValueError):
            sweep_boundary(cfg, fading, "mrt", 1)

    def test_zf_sweep(self, instance):
        cfg, fading = instance
        b = sweep_boundary(cfg, fading, "zf", 5)
        assert len(b.points) == 5
        assert b.points[0].sse_objective == 0.0


class TestConvexity:
    def test_collinear_points_have_zero_violation(self, instance):
        cfg, fading = instance
        pts = []
        for i, x in enumerate((1.0, 2.0, 3.0)):
            base = solve_split(cfg, fading, "mrt", cfg.total_power * (3 - i) / 4)
            pts.append(dataclasses.replace(base, mmf_objective=x, sse_objective=2.0 * x))
        fake = ParetoBoundary(points=tuple(reversed(pts)), precoder="mrt",
                              cfg=cfg, fading=fading)
        report = check_convexity(fake)
        assert report.worst_violation == pytest.approx(0.0, abs=1e-12)
        assert report.is_concave_boundary

    def test_real_sweep_is_concave(self, boundary):
        report = check_convexity(boundary)
        assert report.is_concave_boundary
        assert report.worst_violation <= 1e-9 * report.scale

    def test_injected_defect_detected(self, boundary):
        pts = list(boundary.points)
        mid = dataclasses.replace(pts[10], sse_objective=pts[10].sse_objective * 0.9)
        dented = ParetoBoundary(points=tuple(pts[:10] + [mid] + pts[11:]),
                                precoder=boundary.precoder, cfg=boundary.cfg,
                                fading=boundary.fading)
        report = check_convexity(dented)
        assert not report.is_concave_boundary
        assert report.worst_violation > 0.0

    def test_unordered_boundary_rejected(self, boundary):
        shuffled = ParetoBoundary(points=boundary.points[::-1],
                                  precoder=boundary.precoder, cfg=boundary.cfg,
                                  fading=boundary.fading)
        with pytest.raises(ValueError):
            check_convexity(shuffled)


class TestSelect:
    def test_equal_ratio(self, boundary, instance):
        cfg, _ = instance
        op = select_operating_point(boundary, ratio=(1.0, 1.0))
        assert not op.clamped
        assert op.point.p_unicast == pytest.approx(cfg.total_power / 2.0, rel=1e-12)

    def test_zero_mmf_target_is_full_unicast_endpoint(self, boundary, instance):
        cfg, _ = instance
        op = select_operating_point(boundary, target_mmf=0.0)
        assert op.point.p_unicast == cfg.total_power
        assert not op.clamped

    def test_recovers_sweep_point_from_its_mmf_value(self, boundary, instance):
        cfg, _ = instance
        target = boundary.points[7]
        op = select_operating_point(boundary, target_mmf=target.mmf_objective)
        assert abs(op.point.p_unicast - target.p_unicast) <= 1e-9 * cfg.total_power

    def test_recovers_sweep_point_from_its_sse_value(self, boundary, instance):
        cfg, _ = instance
        target = boundary.points[13]
        op = select_operating_point(boundary, target_sse=target.sse_objective)
        assert abs(op.point.p_unicast - target.p_unicast) <= 1e-9 * cfg.total_power

    def test_out_of_range_target_clamps_to_endpoint(self, boundary):
        top = boundary.points[0].mmf_objective
        op = select_operating_point(boundary, target_mmf=top * 2.0)
        assert op.clamped
        assert op.point.p_unicast == 0.0

    def test_exactly_one_policy_required(self, boundary):
        with pytest.raises(ValueError):
            select_operating_point(boundary)
        with pytest.raises(ValueError):
            select_operating_point(boundary, ratio=(1, 1), target_mmf=1.0)

    def test_nan_target_rejected(self, boundary):
        for kind in ("target_mmf", "target_sse"):
            with pytest.raises(ValueError):
                select_operating_point(boundary, **{kind: float("nan")})

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_endpoint_targets_return_endpoints_unclamped(self, instance, precoder):
        # The closed-form range must equal the solved endpoints bit for bit,
        # or a target read off an endpoint would come back clamped.
        cfg, fading = instance
        P = cfg.total_power
        b = sweep_boundary(cfg, fading, precoder, 2)
        cases = [("target_mmf", b.points[0].mmf_objective, 0.0),
                 ("target_mmf", b.points[-1].mmf_objective, P),
                 ("target_sse", b.points[0].sse_objective, 0.0),
                 ("target_sse", b.points[-1].sse_objective, P)]
        for kind, target, split in cases:
            op = select_operating_point(b, **{kind: target})
            assert not op.clamped
            assert op.point.p_unicast == split
        above = select_operating_point(b, target_sse=b.points[-1].sse_objective * (1 + 1e-15))
        assert above.clamped and above.point.p_unicast == P


PAPER_CELL = {"n_antennas": 100, "coherence_length": 200, "n_unicast": 50,
              "group_sizes": (100,) * 10}


def assert_selection_matches_bisection(cfg, fading, precoder, kind, u):
    """The closed-form split lies within 1e-9*P of the bisection oracle's,
    and away from the ends its objective hits the target to 1e-12."""
    P = cfg.total_power
    b = sweep_boundary(cfg, fading, precoder, 2)
    ends = [p.mmf_objective if kind == "mmf" else p.sse_objective for p in b.points]
    target = min(ends) + u * (max(ends) - min(ends))
    op = select_operating_point(b, **{f"target_{kind}": target})
    assert not op.clamped
    split = op.point.p_unicast
    assert abs(split - bisect_split(b, target, kind)) <= 1e-9 * P
    if 0.01 * P <= split <= 0.99 * P:
        got = op.point.mmf_objective if kind == "mmf" else op.point.sse_objective
        assert got == pytest.approx(target, rel=1e-12, abs=0.0)


class TestClosedFormSelection:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           precoder=st.sampled_from(PRECODERS), kind=st.sampled_from(("mmf", "sse")),
           u=st.floats(min_value=0.0, max_value=1.0))
    def test_desk_instances_match_bisection(self, seed, precoder, kind, u):
        rng = np.random.default_rng(seed)
        cfg, fading = random_desk_instance(rng, u_range=(1, 8))
        # The solvers use the shortest pilot length whatever the config says.
        cfg = dataclasses.replace(cfg, pilot_length=int(
            rng.integers(cfg.n_streams, cfg.coherence_length, endpoint=True)))
        assert_selection_matches_bisection(cfg, fading, precoder, kind, u)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           precoder=st.sampled_from(PRECODERS), kind=st.sampled_from(("mmf", "sse")),
           u=st.floats(min_value=0.0, max_value=1.0))
    def test_paper_cell_drops_match_bisection(self, seed, precoder, kind, u):
        cfg = default_normalized_config(**PAPER_CELL)
        fading, _ = place_users(CellGeometry(), PAPER_CELL["n_unicast"],
                                PAPER_CELL["group_sizes"], seed)
        assert_selection_matches_bisection(cfg, fading, precoder, kind, u)


def random_feasible_bundle(cfg, fading, rng):
    """A random feasible operating point scored through the SE expressions."""
    tau = int(rng.integers(cfg.n_streams, cfg.coherence_length, endpoint=True))
    cfg_at = dataclasses.replace(cfg, pilot_length=tau)
    frac = rng.uniform(0.0, 1.0)
    p_un_total = float(rng.uniform(0.0, cfg.total_power)) * frac
    p_mu_total = (cfg.total_power - p_un_total) * rng.uniform(0.0, 1.0)
    uni = rng.dirichlet(np.ones(cfg.n_unicast)) * p_un_total if cfg.n_unicast else []
    mu = rng.dirichlet(np.ones(cfg.n_groups)) * p_mu_total
    powers = DownlinkPowers(unicast=tuple(uni), multicast=tuple(mu))
    pilots_un = [rng.uniform(0.0, e) / tau for e in cfg.unicast_energy_caps]
    pilots_mu = [[rng.uniform(0.0, e) / tau for e in caps]
                 for caps in cfg.multicast_energy_caps]
    stats = estimation_variances(cfg_at, fading, pilots_un, pilots_mu)
    rep = se_report(cfg_at, stats, fading, powers, "mrt")
    return rep.min_multicast_se(), rep.weighted_sum_unicast_se(cfg.sse_weights)


class TestDominance:
    def test_no_random_bundle_dominates_the_boundary(self, boundary, instance):
        cfg, fading = instance
        rng = np.random.default_rng(99)
        bundle_points = [random_feasible_bundle(cfg, fading, rng) for _ in range(1000)]
        for b_mmf, b_sse in bundle_points:
            for p in boundary.points:
                dominates = (b_mmf >= p.mmf_objective and b_sse >= p.sse_objective
                             and (b_mmf > p.mmf_objective or b_sse > p.sse_objective))
                assert not dominates


class TestCsv:
    def test_header_rows_and_round_trip(self, boundary):
        text = boundary_csv(boundary)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["p_un", "p_mu", "mmf_se", "sse", "precoder", "N"]
        assert len(rows) == 1 + len(boundary.points)
        for row, point in zip(rows[1:], boundary.points):
            assert float(row[0]) == point.p_unicast
            assert float(row[2]) == point.mmf_objective
            assert float(row[3]) == point.sse_objective
            assert row[4] == "mrt"
            assert int(row[5]) == boundary.cfg.n_antennas
