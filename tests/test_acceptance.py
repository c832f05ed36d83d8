"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s or -v to see them inline)."""

import math
import time

import numpy as np

from mimocast.allocation import mmf_se_report, solve_mmf, solve_sse
from mimocast.closed_form import DownlinkPowers, se_report
from mimocast.errors import ZfInfeasibleError
from mimocast.model import FadingProfile, estimation_variances
from mimocast.montecarlo import validate_closed_form
from mimocast.pareto import check_convexity, sweep_boundary
from mimocast.scenario import CellGeometry, default_normalized_config, place_users

from oracles import (grid_mmf_objective, grid_sse_objective, random_desk_instance,
                     waterfill_kkt_violation)
from test_model import make_config

LN2 = math.log(2.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"{criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def full_scale_instance(n_antennas, n_unicast, group_sizes, seed):
    cfg = default_normalized_config(n_antennas, 200, n_unicast, group_sizes)
    fading, _ = place_users(CellGeometry(), n_unicast, group_sizes, seed)
    return cfg, fading


def test_ac1_equal_se_at_mmf_optimum():
    rng = np.random.default_rng(20240101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        cfg, fading = random_desk_instance(rng, n_range=(50, 200), u_range=(0, 8),
                                           g_range=(1, 4), k_range=(1, 6))
        p_un = float(rng.uniform(0.0, cfg.total_power)) if cfg.n_unicast else 0.0
        for precoder in ("mrt", "zf"):
            sol = solve_mmf(cfg, fading, p_un, precoder)
            rep = mmf_se_report(cfg, fading, sol, p_un)
            ses = [se for grp in rep.multicast_se for se in grp]
            worst = max(worst, (max(ses) - min(ses)) / max(ses))
    elapsed = time.perf_counter() - t0
    report("AC-1", worst <= 1e-9 and elapsed < 5.0,
           f"max relative SE spread {worst:.2e} over 100 instances x 2 precoders "
           f"in {elapsed:.2f}s (limits: 1e-9, 5s)")


def test_ac2_closed_form_matches_monte_carlo():
    cfg = make_config(n_unicast=4, group_sizes=(3, 3), pilot_length=6,
                      n_antennas=64, cap=3.0)
    rng = np.random.default_rng(2024)
    fading = FadingProfile(
        unicast_gains=tuple(rng.uniform(0.1, 1.5, 4)),
        multicast_gains=tuple(tuple(rng.uniform(0.1, 1.5, 3)) for _ in range(2)),
    )
    tau = cfg.pilot_length
    pilots_un = [e / tau for e in cfg.unicast_energy_caps]
    pilots_mu = [[e / tau for e in caps] for caps in cfg.multicast_energy_caps]
    powers = DownlinkPowers.equal_split(cfg.total_power / 2.0, 4,
                                        cfg.total_power / 2.0, 2)
    t0 = time.perf_counter()
    zs = []
    for precoder, seed in (("mrt", 20240001), ("zf", 20240002)):
        rep = validate_closed_form(cfg, fading, pilots_un, pilots_mu, powers,
                                   precoder, n_trials=10_000, seed=seed)
        zs.extend(abs(r.z) for r in rep.records)
    elapsed = time.perf_counter() - t0
    rate = sum(1 for z in zs if z <= 3.0) / len(zs)
    report("AC-2", rate >= 0.99 and elapsed < 120.0,
           f"{len(zs)} per-user z-scores across all four kernels, pass rate "
           f"{rate:.3f}, worst |z| {max(zs):.2f}, {elapsed:.1f}s "
           f"(limits: 0.99, 120s)")


def test_ac3_grid_search_never_beats_closed_form():
    rng = np.random.default_rng(20240303)
    worst_excess = -math.inf
    t0 = time.perf_counter()
    for _ in range(20):
        cfg, fading = random_desk_instance(rng, n_range=(30, 80), u_range=(1, 2),
                                           g_range=(1, 2), k_range=(1, 2))
        p_un = float(rng.uniform(0.0, cfg.total_power))
        p_mu = cfg.total_power - p_un
        for precoder in ("mrt", "zf"):
            closed = solve_mmf(cfg, fading, p_un, precoder).objective
            oracle = grid_mmf_objective(cfg, fading, p_un, precoder, n=200)
            worst_excess = max(worst_excess, (oracle - closed) / max(closed, 1e-12))
            closed = solve_sse(cfg, fading, p_mu, precoder).objective
            oracle = grid_sse_objective(cfg, fading, p_mu, precoder, n=200)
            worst_excess = max(worst_excess, (oracle - closed) / max(closed, 1e-12))
    elapsed = time.perf_counter() - t0
    report("AC-3", worst_excess <= 1e-3 and elapsed < 60.0,
           f"max relative oracle excess {worst_excess:.2e} over 20 instances x "
           f"2 problems x 2 precoders in {elapsed:.1f}s (limits: 1e-3, 60s)")


def test_ac4_waterfilling_kkt():
    rng = np.random.default_rng(20240404)
    worst_budget = 0.0
    worst_kkt = 0.0
    for _ in range(50):
        cfg, fading = random_desk_instance(rng, u_range=(1, 8))
        p_mu = float(rng.uniform(0.0, cfg.total_power))
        for precoder in ("mrt", "zf"):
            sol = solve_sse(cfg, fading, p_mu, precoder)
            budget = cfg.total_power - p_mu
            if budget > 0:
                worst_budget = max(worst_budget,
                                   abs(sum(sol.downlink_powers) - budget) / budget)
            dof = cfg.n_antennas - cfg.n_streams
            beta = np.asarray(fading.unicast_gains)
            theta = np.asarray(sol.effective_vars)
            if precoder == "zf":
                offsets = (1.0 + (beta - theta) * cfg.total_power) / (dof * theta)
            else:
                offsets = (1.0 + beta * cfg.total_power) / (cfg.n_antennas * theta)
            worst_kkt = max(worst_kkt, waterfill_kkt_violation(
                cfg.sse_weights, offsets, sol.downlink_powers, sol.water_level))
    report("AC-4", worst_budget <= 1e-12 and worst_kkt <= 1e-10,
           f"50 instances x 2 precoders: worst budget error {worst_budget:.2e} "
           f"(limit 1e-12), worst KKT residual {worst_kkt:.2e} (limit 1e-10)")


def test_ac5_pareto_monotone_with_exact_zero_endpoints():
    cfg, fading = full_scale_instance(100, 50, (100,) * 10, seed=20240505)
    ok = True
    details = []
    for precoder in ("mrt", "zf"):
        b = sweep_boundary(cfg, fading, precoder, 21)
        mmf = [p.mmf_objective for p in b.points]
        sse = [p.sse_objective for p in b.points]
        strict = (all(a > x for a, x in zip(mmf, mmf[1:]))
                  and all(a < x for a, x in zip(sse, sse[1:])))
        zeros = sse[0] == 0.0 and mmf[-1] == 0.0
        ok = ok and strict and zeros
        details.append(f"{precoder}: strict={strict}, exact zeros={zeros}")
    report("AC-5", ok, "; ".join(details))


def test_ac6_attainable_region_convex():
    ok = True
    details = []
    for n in (100, 250, 500):
        cfg, fading = full_scale_instance(n, 50, (100,) * 10, seed=20240606)
        for precoder in ("mrt", "zf"):
            rep = check_convexity(sweep_boundary(cfg, fading, precoder, 21))
            ok = ok and rep.is_concave_boundary
            details.append(f"N={n}/{precoder}: violation {rep.worst_violation:.1e}")
    report("AC-6", ok, "midpoint concavity at 1e-9*scale; " + "; ".join(details))


def test_ac7_antenna_growth_compensates_larger_multicast_load():
    # Drop-averaged max-min multicast SE of (N=100, 4 groups of 16) vs
    # (N=500, 8 groups of 46) at an equal power split.
    #
    # Known red: under the exact closed forms these two operating points sit
    # ~12% apart for every drop-averaging protocol (stable across seeds,
    # drop counts, placement distributions, and unicast loads; to leading
    # order the equal-SINR level scales with N / total multicast users, and
    # 100/64 vs 500/368 already differ by ~15%).  The equivalent group size
    # at N=500 would be ~39, not 46.  The 10% tolerance is asserted
    # unweakened rather than widened to force a pass.
    drops = 60
    means = []
    for n, g, k in ((100, 4, 16), (500, 8, 46)):
        cfg = default_normalized_config(n, 200, 50, (k,) * g)
        vals = []
        for d in range(drops):
            fading, _ = place_users(CellGeometry(), 50, (k,) * g,
                                    np.random.SeedSequence(entropy=20240707,
                                                           spawn_key=(n, d)))
            vals.append(solve_mmf(cfg, fading, cfg.total_power / 2.0, "mrt").objective)
        means.append(sum(vals) / drops)
    gap = abs(means[0] - means[1]) / max(means)
    report("AC-7", gap <= 0.10,
           f"averaged over {drops} drops: {means[0]:.4f} vs {means[1]:.4f}, "
           f"relative gap {gap:.3f} (limit 0.10)")


def test_ac8_zf_feasibility_edge():
    # 8 antennas cannot zero-force 8+2 streams; MRT has no such limit.
    cfg = make_config(n_unicast=8, group_sizes=(1, 1), pilot_length=10,
                      n_antennas=8)
    rng = np.random.default_rng(20240808)
    fading = FadingProfile(
        unicast_gains=tuple(rng.uniform(0.2, 1.5, 8)),
        multicast_gains=((float(rng.uniform(0.2, 1.5)),),
                         (float(rng.uniform(0.2, 1.5)),)),
    )
    rejected = 0
    for call in (lambda: solve_sse(cfg, fading, 2.0, "zf"),
                 lambda: solve_mmf(cfg, fading, 2.0, "zf")):
        try:
            call()
        except ZfInfeasibleError:
            rejected += 1
    stats = estimation_variances(
        cfg, fading, [0.2] * 8, [[0.2], [0.2]])
    powers = DownlinkPowers.equal_split(5.0, 8, 5.0, 2)
    try:
        se_report(cfg, stats, fading, powers, "zf")
    except ZfInfeasibleError:
        rejected += 1
    mrt_ok = (solve_sse(cfg, fading, 2.0, "mrt").objective > 0.0
              and solve_mmf(cfg, fading, 2.0, "mrt").objective > 0.0
              and min(se_report(cfg, stats, fading, powers, "mrt").unicast_se) > 0.0)
    report("AC-8", rejected == 3 and mrt_ok,
           f"ZF rejected {rejected}/3 surfaces at N <= G+U; MRT accepts the "
           f"same configuration: {mrt_ok}")
