"""Independent brute-force oracles used by the test suite.

Everything here re-derives objective values from elementary formula
evaluations on dense grids or by bisection, or evaluates one SINR per UT
with a scalar formula per precoder and traffic type, on purpose sharing no
code with the solvers and the SINR kernel it checks.  Grid candidates are all feasible points, so an
oracle value can never exceed the true optimum.  The one exception,
``bisect_split``, bisects over the exact solves to check the closed-form
inverse of the trade-off boundary, with which it shares no code.
"""

import dataclasses
import math

import numpy as np

from mimocast.closed_form import ZF, DownlinkPowers, se_report
from mimocast.model import FadingProfile, SystemConfig, estimation_variances
from mimocast.pareto import ParetoBoundary, solve_split

LN2 = math.log(2.0)


def bisect_waterfill(weights, offsets, budget, iters=200):
    """Water-filling via bisection on the water level (reference solver)."""
    weights = np.asarray(weights, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if budget == 0.0:
        return np.zeros_like(weights), math.inf
    c = weights / LN2

    def allocated(nu):
        return float(np.sum(np.maximum(0.0, c / nu - offsets)))

    lo = float(np.min(c / (budget + offsets)))   # single user soaks the budget
    hi = float(np.sum(c) / budget)               # every user at zero offset
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if allocated(mid) > budget:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return np.maximum(0.0, c / nu - offsets), nu


def bisect_split(boundary: ParetoBoundary, value: float, kind: str) -> float:
    """Find the unicast power whose exact solve attains the target objective.

    Both objectives are strictly monotone in the split, so plain bisection
    on the unicast power converges; tolerance 1e-10 * P.
    """
    cfg, fading, precoder = boundary.cfg, boundary.fading, boundary.precoder
    P = cfg.total_power

    def score(p_un: float) -> float:
        pt = solve_split(cfg, fading, precoder, p_un)
        return pt.mmf_objective if kind == "mmf" else pt.sse_objective

    lo, hi = 0.0, P
    # mmf decreases in p_un, sse increases.
    increasing = kind == "sse"
    while hi - lo > 1e-10 * P:
        mid = 0.5 * (lo + hi)
        v = score(mid)
        if (v < value) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sinr_mrt_unicast(cfg, stats, fading, powers, m):
    """MRT unicast SINR: N*p*var / (1 + gain*(total transmitted power))."""
    num = cfg.n_antennas * powers.unicast[m] * stats.unicast_var[m]
    return num / (1.0 + fading.unicast_gains[m] * powers.total)


def sinr_mrt_multicast(cfg, stats, fading, powers, j, k):
    """MRT multicast SINR: N*q_j*var_jk / (1 + gain_jk*(total power))."""
    num = cfg.n_antennas * powers.multicast[j] * stats.multicast_var[j][k]
    return num / (1.0 + fading.multicast_gains[j][k] * powers.total)


def sinr_zf_unicast(cfg, stats, fading, powers, m):
    """ZF unicast SINR: beamforming gain drops to N-G-U, interference keeps
    only the estimation-error part of the gain."""
    dof = cfg.n_antennas - cfg.n_streams
    num = dof * powers.unicast[m] * stats.unicast_var[m]
    err = fading.unicast_gains[m] - stats.unicast_var[m]
    return num / (1.0 + err * powers.total)


def sinr_zf_multicast(cfg, stats, fading, powers, j, k):
    """ZF multicast SINR, same shape as the unicast one."""
    dof = cfg.n_antennas - cfg.n_streams
    num = dof * powers.multicast[j] * stats.multicast_var[j][k]
    err = fading.multicast_gains[j][k] - stats.multicast_var[j][k]
    return num / (1.0 + err * powers.total)


def _group_quality_factory(cfg, fading, j, precoder, n):
    """Group j's best min-member per-unit-power SINR as a function of the
    total transmitted power; the pilot-energy grid and the estimate
    variances on it are precomputed once."""
    eta = np.asarray(fading.multicast_gains[j])
    caps = np.asarray(cfg.multicast_energy_caps[j])
    gain_factor = (cfg.n_antennas - cfg.n_streams) if precoder == ZF else cfg.n_antennas
    k = len(eta)
    if k == 1:
        x = np.linspace(0.0, caps[0], n)[:, None]
    elif k == 2:
        a, b = np.meshgrid(np.linspace(0.0, caps[0], n),
                           np.linspace(0.0, caps[1], n), indexing="ij")
        x = np.stack([a.ravel(), b.ravel()], axis=-1)
    else:
        raise ValueError("grid oracle supports groups of at most 2 members")
    s = np.sum(x * eta, axis=-1, keepdims=True)
    xi = x * eta ** 2 / (1.0 + s)

    def at(p_used: float) -> float:
        if precoder == ZF:
            q = gain_factor * xi / (1.0 + (eta - xi) * p_used)
        else:
            q = gain_factor * xi / (1.0 + eta * p_used)
        return float(np.max(np.min(q, axis=-1)))

    return at


def grid_mmf_objective(cfg: SystemConfig, fading: FadingProfile, p_unicast: float,
                       precoder: str, n: int = 200) -> float:
    """Best min multicast SE found by dense grid search.

    Decision variables: per-group downlink powers (summing to at most the
    remaining budget), per-member pilot energies within their caps, and the
    pilot length.  The per-group power factors out of each member's SINR,
    which allows scanning the total multicast power and the within-split
    separately at full grid resolution.  The pilot length only scales the
    prelog while SINRs depend on pilot energies alone, so the shortest
    length is optimal; the SINR grid is over energies directly.
    """
    if cfg.n_groups > 2:
        raise ValueError("grid oracle supports at most 2 groups")
    budget = cfg.total_power - p_unicast
    prelog = 1.0 - cfg.n_streams / cfg.coherence_length
    quality = [_group_quality_factory(cfg, fading, j, precoder, n)
               for j in range(cfg.n_groups)]
    best = 0.0
    for s in np.linspace(0.0, budget, n):
        p_used = p_unicast + s
        h = [q(p_used) for q in quality]
        if cfg.n_groups == 1:
            sinr = s * h[0]
        else:
            q1 = np.linspace(0.0, s, n)
            sinr = float(np.max(np.minimum(q1 * h[0], (s - q1) * h[1])))
        best = max(best, prelog * math.log1p(sinr) / LN2)
    return best


def grid_sse_objective(cfg: SystemConfig, fading: FadingProfile, p_multicast: float,
                       precoder: str, n: int = 200) -> float:
    """Best weighted sum unicast SE found by dense grid search."""
    if cfg.n_unicast > 2:
        raise ValueError("grid oracle supports at most 2 unicast UTs")
    budget = cfg.total_power - p_multicast
    prelog = 1.0 - cfg.n_streams / cfg.coherence_length
    beta = np.asarray(fading.unicast_gains)
    caps = np.asarray(cfg.unicast_energy_caps)
    alpha = np.asarray(cfg.sse_weights)
    gain_factor = (cfg.n_antennas - cfg.n_streams) if precoder == ZF else cfg.n_antennas

    def unit_quality(m, p_used):
        x = np.linspace(0.0, caps[m], n)
        theta = x * beta[m] ** 2 / (1.0 + x * beta[m])
        if precoder == ZF:
            vals = gain_factor * theta / (1.0 + (beta[m] - theta) * p_used)
        else:
            vals = gain_factor * theta / (1.0 + beta[m] * p_used)
        return float(np.max(vals))

    best = 0.0
    for s in np.linspace(0.0, budget, n):
        p_used = p_multicast + s
        f = [unit_quality(m, p_used) for m in range(cfg.n_unicast)]
        if cfg.n_unicast == 1:
            obj = alpha[0] * math.log1p(s * f[0]) / LN2
        else:
            p1 = np.linspace(0.0, s, n)
            obj = float(np.max(alpha[0] * np.log1p(p1 * f[0]) / LN2
                               + alpha[1] * np.log1p((s - p1) * f[1]) / LN2))
        best = max(best, prelog * obj)
    return best


def score_candidate_mmf(cfg, fading, p_unicast, q_dl, x_energies, precoder):
    """Score one feasible multicast candidate through the library path.

    Used to cross-check that the oracle's internal formula agrees with the
    production SE evaluation at sampled grid points.
    """
    tau = cfg.n_streams
    cfg_at = dataclasses.replace(cfg, pilot_length=tau)
    stats = estimation_variances(
        cfg_at, fading,
        [e / tau for e in cfg.unicast_energy_caps],
        [[x / tau for x in row] for row in x_energies],
    )
    powers = DownlinkPowers(
        unicast=(p_unicast / cfg.n_unicast,) * cfg.n_unicast if cfg.n_unicast else (),
        multicast=tuple(q_dl),
    )
    rep = se_report(cfg_at, stats, fading, powers, precoder)
    return rep.min_multicast_se()


def random_desk_instance(rng, n_range=(50, 200), u_range=(0, 8), g_range=(1, 4),
                         k_range=(1, 6)):
    """Random small instance with O(1)-scale powers and gains."""
    n = int(rng.integers(*n_range, endpoint=True))
    u = int(rng.integers(*u_range, endpoint=True))
    g = int(rng.integers(*g_range, endpoint=True))
    sizes = tuple(int(rng.integers(*k_range, endpoint=True)) for _ in range(g))
    total = float(rng.uniform(5.0, 20.0))
    cfg = SystemConfig(
        n_antennas=n,
        coherence_length=200,
        n_unicast=u,
        group_sizes=sizes,
        pilot_length=u + g,
        total_power=total,
        unicast_energy_caps=tuple(rng.uniform(0.5, 5.0, u)),
        multicast_energy_caps=tuple(tuple(rng.uniform(0.5, 5.0, k)) for k in sizes),
        sse_weights=tuple(rng.uniform(0.5, 2.0, u)),
    )
    fading = FadingProfile(
        unicast_gains=tuple(np.exp(rng.uniform(np.log(0.05), np.log(2.0), u))),
        multicast_gains=tuple(tuple(np.exp(rng.uniform(np.log(0.05), np.log(2.0), k)))
                              for k in sizes),
    )
    return cfg, fading
