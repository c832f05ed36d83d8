"""Independent brute-force oracles used by the test suite.

Everything here re-derives objective values from elementary formula
evaluations on dense grids or by bisection, or evaluates one SINR per UT
with a scalar formula per precoder and traffic type, on purpose sharing no
code with the solvers and the SINR kernel it checks.  Grid candidates are all feasible points, so an
oracle value can never exceed the true optimum.  The one exception,
``bisect_split``, bisects over the exact solves to check the closed-form
inverse of the trade-off boundary, with which it shares no code.

The last section keeps the per-UT loops over tuples that the library ran
before it stored per-UT data as flat arrays: validation, the solvers'
split-independent pieces and the estimate variances, which read the pair
through ``tuple_layout`` and must agree with the array code bit for bit,
and the Monte Carlo estimation and precoders, one UT or stream at a time,
which must agree with the trial kernel's cores to rounding.
``zf_columns_eigensolve`` keeps the ZF core as it was before it bounded the
Gram's condition number by the trace of its inverse: its columns must
agree to rounding, and it must discard no draw the trace bound keeps.

The lifted-draw section turns one trial's draws into what a trial drew
before it drew only what the terms read: full channels at each UT's
variance and the pilot noise (``lifted_draw``).  A trial draws the pilot
observations and, in the k = min(N, S) dimensions of an orthonormal basis
of the precoder columns, one residual per UT and one per pilot;
``lift_draws`` adds each residual's part outside the basis from an
independent generator and solves for the channels and the noise, so that
the pilots observe exactly the drawn observations.  The basis is the thin Q
of the columns that the loops of the last section build from the
observations' estimates, with the signs that give R a positive diagonal
when the columns have full rank, as the kernel's Cholesky factor has.

The stored-terms section keeps the Monte Carlo validator as it was before
it streamed its trials: every per-trial inner product stored, then one
jackknife per UT.  Its trials compose the loops of the last section on the
lifted draws (``lifted_trial``).  Its empirical SINRs must agree with the
streamed ones to rounding.

The serial streamed section keeps the Monte Carlo trial loop as it was
before trials ran on worker threads, drew at unit variance and drew only
what the terms read: one loop on the calling thread composing the same
loops (``lifted_trial``: ``mmse_estimate_loop``,
``build_*_precoders_loop``) on the lifted draws, each trial's arrays
allocated afresh.  It stores every trial's desired term and
received power, as the validator did before it kept only per-UT moment
sums, and adds them up in trial order afterwards (``sum_terms``).  The
threaded kernel forms each UT's terms from k-dimensional draws and scales
them at the end, where this loop multiplies the lifted channels, scaled
first, by the precoders, so each kept trial's terms must agree to within
1e-12 of that trial's largest |d| and r, whatever the worker count.
``moment_tests_two_pass`` works out each UT's moment test from the stored
terms in two passes (means, then centred sums) and inverts the 2 x 2
covariance with ``np.linalg.solve``; the streamed statistics must agree
with it to rounding.

The per-call selection section keeps ``select_operating_point`` as it was
before a boundary kept its allocation problems: every call validates the
boundary's pair and builds both problems again.  Its points must equal the
ones selected on the kept problems, field for field.

The per-call score section keeps ``mmf_se_report``/``sse_se_report`` as
they were before a solution kept the problem that built it: every call
validates the pair at the solution's pilot length and works out the
estimate variances again.  Its reports must equal the kept-problem ones
byte for byte.

The per-drop figure-grid section keeps the grid loop as it was before a
cell's drops were placed and solved as one stack: one SeedSequence and one
placement per drop, drawn block by block, then one ``solve_mmf`` or
``solve_sse`` call per precoder.  The figure CSVs it gives must equal the stacked ones byte for
byte.  It also keeps ``default_normalized_config`` as it was before each
per-UT field came from one ``np.full``: the configs must be equal and
write the same JSON.
"""

import dataclasses
import logging
import math
from dataclasses import dataclass
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from mimocast import montecarlo
from mimocast.allocation import solve_mmf, solve_sse
from mimocast.closed_form import (PRECODERS, ZF, DownlinkPowers, SeReport, _equal_shares,
                                  _precoder_factors, _se_report, _sinr_terms,
                                  require_zf_feasible, se_report)
from mimocast.errors import DegenerateInputError, PlacementError, ZfInfeasibleError
from mimocast.model import (MIN_GAIN, FadingProfile, PowerSplit, SystemConfig, Violation,
                            _estimation_variances, estimation_variances, require_valid)
from mimocast.montecarlo import Z95, RankDeficientDraw, MAX_GRAM_COND
from mimocast.pareto import OperatingPoint, ParetoBoundary, _point, _problems, solve_split
from mimocast.scenario import (CellGeometry, Placement, RadioParams,
                               default_energy_cap_physical, noise_power_w_per_hz,
                               normalize_powers)

LN2 = math.log(2.0)

log = logging.getLogger(__name__)


def _normal_parts(rng: np.random.Generator, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of complex samples of the given shape, drawn
    in C order, each entry's real part and then its imaginary part."""
    z = rng.standard_normal((*shape, 2))
    return z[..., 0], z[..., 1]


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


# ----------------------------------------------- tuple-loop reference path


def tuple_layout(cfg: SystemConfig, fading: FadingProfile):
    """The pair with every per-UT field as a tuple (of tuples) of floats,
    the layout the loops below were written for."""
    cfg_t = SimpleNamespace(
        **{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.init},
        n_groups=cfg.n_groups, n_streams=cfg.n_streams)
    cfg_t.unicast_energy_caps = tuple(cfg.unicast_energy_caps.tolist())
    cfg_t.multicast_energy_caps = tuple(tuple(e.tolist()) for e in cfg.multicast_energy_caps)
    cfg_t.sse_weights = tuple(cfg.sse_weights.tolist())
    fading_t = SimpleNamespace(
        unicast_gains=tuple(fading.unicast_gains.tolist()),
        multicast_gains=tuple(tuple(g.tolist()) for g in fading.multicast_gains))
    return cfg_t, fading_t


def _check_positive_gains(name, gains, out):
    for i, g in enumerate(gains):
        if not math.isfinite(g) or g <= MIN_GAIN:
            out.append(Violation(f"{name}[{i}]", g, "non-positive, sub-normal, or non-finite gain"))


def validate_config(cfg, fading):
    """Check every type invariant; return the (possibly empty) violation list."""
    cfg, fading = tuple_layout(cfg, fading)
    v = []
    if cfg.n_antennas < 1:
        v.append(Violation("n_antennas", cfg.n_antennas, "must be a positive integer"))
    if cfg.coherence_length < 1:
        v.append(Violation("coherence_length", cfg.coherence_length, "must be a positive integer"))
    if cfg.n_unicast < 0:
        v.append(Violation("n_unicast", cfg.n_unicast, "must be non-negative"))
    for g, k in enumerate(cfg.group_sizes):
        if k < 1:
            v.append(Violation(f"group_sizes[{g}]", k, "every group needs at least one UT"))
    if cfg.pilot_length < cfg.n_streams:
        v.append(Violation("pilot_length", cfg.pilot_length,
                           f"orthogonal pilots need at least U+G = {cfg.n_streams} symbols"))
    if cfg.pilot_length > cfg.coherence_length:
        v.append(Violation("pilot_length", cfg.pilot_length,
                           "cannot exceed the coherence length"))
    if not (math.isfinite(cfg.total_power) and cfg.total_power > 0):
        v.append(Violation("total_power", cfg.total_power, "must be positive and finite"))

    if len(cfg.unicast_energy_caps) != cfg.n_unicast:
        v.append(Violation("unicast_energy_caps", len(cfg.unicast_energy_caps),
                           f"length must equal n_unicast = {cfg.n_unicast}"))
    else:
        for i, e in enumerate(cfg.unicast_energy_caps):
            if not (math.isfinite(e) and e > 0):
                v.append(Violation(f"unicast_energy_caps[{i}]", e, "energy cap must be positive"))
    if tuple(len(e) for e in cfg.multicast_energy_caps) != cfg.group_sizes:
        v.append(Violation("multicast_energy_caps",
                           tuple(len(e) for e in cfg.multicast_energy_caps),
                           f"shape must match group_sizes = {cfg.group_sizes}"))
    else:
        for g, caps in enumerate(cfg.multicast_energy_caps):
            for k, e in enumerate(caps):
                if not (math.isfinite(e) and e > 0):
                    v.append(Violation(f"multicast_energy_caps[{g}][{k}]", e,
                                       "energy cap must be positive"))
    if len(cfg.sse_weights) != cfg.n_unicast:
        v.append(Violation("sse_weights", len(cfg.sse_weights),
                           f"length must equal n_unicast = {cfg.n_unicast}"))
    else:
        for i, a in enumerate(cfg.sse_weights):
            if not (math.isfinite(a) and a > 0):
                v.append(Violation(f"sse_weights[{i}]", a, "weight must be positive"))

    if len(fading.unicast_gains) != cfg.n_unicast:
        v.append(Violation("unicast_gains", len(fading.unicast_gains),
                           f"length must equal n_unicast = {cfg.n_unicast}"))
    else:
        _check_positive_gains("unicast_gains", fading.unicast_gains, v)
    if tuple(len(g) for g in fading.multicast_gains) != cfg.group_sizes:
        v.append(Violation("multicast_gains", tuple(len(g) for g in fading.multicast_gains),
                           f"shape must match group_sizes = {cfg.group_sizes}"))
    else:
        for g, gains in enumerate(fading.multicast_gains):
            _check_positive_gains(f"multicast_gains[{g}]", gains, v)
    return v


def waterfill_loop(weights, offsets, budget):
    """``allocation.waterfill`` over Python floats, one user at a time."""
    n = len(weights)
    if budget == 0.0:
        return (0.0,) * n, math.inf
    c = [w / LN2 for w in weights]
    order = sorted(range(n), key=lambda i: c[i] / offsets[i], reverse=True)
    csum = 0.0
    osum = 0.0
    nu = math.nan
    n_active = 0
    for rank, i in enumerate(order, start=1):
        csum += c[i]
        osum += offsets[i]
        cand = csum / (budget + osum)
        if cand < c[i] / offsets[i]:
            nu = cand
            n_active = rank
    levels = [0.0] * n
    for i in order[:n_active]:
        levels[i] = max(0.0, c[i] / nu - offsets[i])
    return tuple(levels), nu


def waterfill_kkt_violation(weights, offsets, levels, water_level) -> float:
    """Largest KKT residual: active users must sit exactly at w/(nu*ln2)-o,
    inactive users must have w/(nu*ln2) <= o.  Residuals are scaled by
    max(1, magnitude) so the value is comparable across problem scales."""
    worst = 0.0
    for w, o, p in zip(weights, offsets, levels):
        marginal = w / (water_level * LN2) if math.isfinite(water_level) else 0.0
        if p > 0:
            worst = max(worst, abs(marginal - o - p) / max(1.0, abs(p)))
        else:
            worst = max(worst, (marginal - o) / max(1.0, o))
    return worst


def group_quality_floors(cfg, fading):
    """Per-group pilot-quality floor and the optimal capped pilot energies."""
    cfg, fading = tuple_layout(cfg, fading)
    P = cfg.total_power
    upsilon = []
    x_caps = []
    for caps, gains in zip(cfg.multicast_energy_caps, fading.multicast_gains):
        per_user = [e * g * g / (1.0 + g * P) for e, g in zip(caps, gains)]
        floor = min(per_user)
        upsilon.append(floor)
        x_caps.append(tuple(e * (floor / q) for e, q in zip(caps, per_user)))
    return tuple(upsilon), tuple(x_caps)


def interference_loads(cfg, fading, upsilon):
    cfg, fading = tuple_layout(cfg, fading)
    P = cfg.total_power
    return tuple(
        1.0 / u + sum(1.0 / g for g in gains) + len(gains) * P
        for u, gains in zip(upsilon, fading.multicast_gains)
    )


def unicast_offsets(cfg, fading, gain, c):
    """Full-cap estimate variances theta and the water-filling offsets."""
    cfg, fading = tuple_layout(cfg, fading)
    if cfg.n_unicast == 0:
        raise DegenerateInputError("sum-SE allocation needs at least one unicast UT")
    P = cfg.total_power
    theta = tuple(e * b * b / (1.0 + e * b)
                  for e, b in zip(cfg.unicast_energy_caps, fading.unicast_gains))
    offsets = tuple((1.0 + (b - c * t) * P) / (gain * t)
                    for b, t in zip(fading.unicast_gains, theta))
    return theta, offsets


def mmf_objective_loop(cfg, fading, p_unicast, gain, c):
    """``solve_mmf``'s objective for the precoder factors (gain, c), from the
    loops above: the SE at gamma = gain*p_mu / sum_j (B_j - c*P)."""
    upsilon, _ = group_quality_floors(cfg, fading)
    P = cfg.total_power
    loads = [b - c * P for b in interference_loads(cfg, fading, upsilon)]
    prelog = 1.0 - cfg.n_streams / cfg.coherence_length
    return prelog * math.log1p(gain * max(0.0, P - p_unicast) / sum(loads)) / LN2


def sse_objective_loop(cfg, fading, p_multicast, gain, c):
    """``solve_sse``'s objective for the precoder factors (gain, c), from the
    loops above: water-filled levels scored one UT at a time."""
    _, offsets = unicast_offsets(cfg, fading, gain, c)
    weights = cfg.sse_weights.tolist()
    levels, _ = waterfill_loop(weights, offsets, max(0.0, cfg.total_power - p_multicast))
    prelog = 1.0 - cfg.n_streams / cfg.coherence_length
    return prelog * sum(a * math.log1p(p / o) / LN2 for a, p, o in zip(weights, levels, offsets))


def estimation_variances_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast):
    """(unicast_var, multicast_var, group_var) as tuples, one UT at a time."""
    cfg, fading = tuple_layout(cfg, fading)
    tau = cfg.pilot_length

    uni = []
    for p, b in zip(pilot_powers_unicast, fading.unicast_gains):
        tpb = tau * p * b
        uni.append(tpb * b / (1.0 + tpb))

    multi = []
    grp = []
    for q_row, e_row in zip(pilot_powers_multicast, fading.multicast_gains):
        s = sum(tau * q * e for q, e in zip(q_row, e_row))
        multi.append(tuple(tau * q * e * e / (1.0 + s) for q, e in zip(q_row, e_row)))
        grp.append(s * s / (1.0 + s))
    return tuple(uni), tuple(multi), tuple(grp)


@dataclass(frozen=True)
class ChannelDraw:
    """One draw, one column per UT: the unicast UTs, then each group; and
    the pilot noise at unit variance, one column per pilot: each unicast
    UT's, then each group's."""

    channels: np.ndarray
    unicast_channels: np.ndarray                 # views into ``channels``
    multicast_channels: tuple[np.ndarray, ...]
    noise: np.ndarray


@dataclass(frozen=True)
class EstimateSet:
    unicast_estimates: np.ndarray   # N x U
    group_estimates: np.ndarray     # N x G: each group's composite estimate


def observe_loop(cfg, pilot_powers_unicast, pilot_powers_multicast, draw) -> np.ndarray:
    """The N x (U + G) pilot observations of one draw, one UT, then one
    group, at a time: each pilot's channels times sqrt(tau * power), plus its
    noise."""
    tau = cfg.pilot_length
    Y = np.array(draw.noise, dtype=complex)
    for u in range(cfg.n_unicast):
        Y[:, u] += math.sqrt(tau * pilot_powers_unicast[u]) * draw.unicast_channels[:, u]
    for g in range(cfg.n_groups):
        q_row = np.asarray(pilot_powers_multicast[g], dtype=float)
        Y[:, cfg.n_unicast + g] += draw.multicast_channels[g] @ np.sqrt(tau * q_row)
    return Y


def estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                  observations) -> EstimateSet:
    """MMSE estimates from the pilot observations, one pilot at a time."""
    tau = cfg.pilot_length
    U = cfg.n_unicast
    f_hat = np.zeros((cfg.n_antennas, U), dtype=complex)
    for u in range(U):
        p, b = pilot_powers_unicast[u], float(fading.unicast_gains[u])
        f_hat[:, u] = (math.sqrt(tau * p) * b / (1.0 + tau * p * b)) * observations[:, u]
    g_hat = np.zeros((cfg.n_antennas, cfg.n_groups), dtype=complex)
    for g in range(cfg.n_groups):
        s = sum(tau * q * e for q, e in zip(pilot_powers_multicast[g], fading.multicast_gains[g]))
        g_hat[:, g] = (s / (1.0 + s)) * observations[:, U + g]
    return EstimateSet(unicast_estimates=f_hat, group_estimates=g_hat)


def mmse_estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, draw):
    """MMSE estimates from one pilot phase of a draw with its noise."""
    return estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                         observe_loop(cfg, pilot_powers_unicast, pilot_powers_multicast, draw))


def build_mrt_precoders_loop(cfg, estimates, powers, stats):
    """MRT precoders (V, W), one column at a time: each estimate scaled to
    its stream's power."""
    N = cfg.n_antennas
    V = np.zeros((N, cfg.n_unicast), dtype=complex)
    for m in range(cfg.n_unicast):
        p = powers.unicast[m]
        if p == 0.0:
            continue
        var = float(stats.unicast_var[m])
        if var == 0.0:
            raise DegenerateInputError(f"unicast UT {m} has power but no channel estimate")
        V[:, m] = math.sqrt(p / (N * var)) * estimates.unicast_estimates[:, m]
    W = np.zeros((N, cfg.n_groups), dtype=complex)
    for j in range(cfg.n_groups):
        q = powers.multicast[j]
        if q == 0.0:
            continue
        var = float(stats.group_var[j])
        if var == 0.0:
            raise DegenerateInputError(f"group {j} has power but no channel estimate")
        W[:, j] = math.sqrt(q / (N * var)) * estimates.group_estimates[:, j]
    return V, W


def build_zf_precoders_loop(cfg, estimates, powers, stats):
    """ZF precoders (V, W) from the inverse Gram of the unit-norm estimates,
    with the stream scales set one at a time and ``np.linalg.cond`` as the
    rank rule."""
    require_zf_feasible(cfg)
    dof = cfg.n_antennas - cfg.n_streams
    C = np.concatenate([estimates.unicast_estimates, estimates.group_estimates], axis=1)
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficientDraw("estimate matrix has an all-zero column")
    Cn = C / norms
    gram = Cn.conj().T @ Cn
    if np.linalg.cond(gram) > MAX_GRAM_COND:
        raise RankDeficientDraw(f"Gram condition number exceeds {MAX_GRAM_COND:g}")
    scales = np.zeros(cfg.n_streams)
    for m in range(cfg.n_unicast):
        scales[m] = math.sqrt(dof * powers.unicast[m] * float(stats.unicast_var[m]))
    for j in range(cfg.n_groups):
        scales[cfg.n_unicast + j] = math.sqrt(dof * powers.multicast[j] * float(stats.group_var[j]))
    cols = Cn @ (np.linalg.inv(gram) @ np.diag(scales / norms))
    return cols[:, :cfg.n_unicast], cols[:, cfg.n_unicast:]


def zf_columns_eigensolve(C: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """``montecarlo._zf_columns`` as it was before it tested a trace bound
    on the inverse Gram: the equilibrated Gram's condition number from its
    extreme eigenvalues (``eigvalsh``), then one ``solve`` over all scaled
    basis vectors, with no explicit inverse."""
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficientDraw("estimate matrix has an all-zero column")
    Cn = C / norms
    gram = Cn.conj().T @ Cn
    eig = np.linalg.eigvalsh(gram)   # ascending
    if eig[0] <= 0.0 or eig[-1] > MAX_GRAM_COND * eig[0]:
        raise RankDeficientDraw(f"Gram condition number exceeds {MAX_GRAM_COND:g}")
    return Cn @ np.linalg.solve(gram, np.diag(scales / norms).astype(complex))


# --------------------------------------------------------- lifted draws


def _unit_draws(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex samples with standard normal real and imaginary parts."""
    re, im = _normal_parts(rng, shape)
    return re + 1j * im


def _pilot_members(cfg, fading, pilot_powers_unicast, pilot_powers_multicast):
    """Per pilot, each unicast UT's own and then each group's: (UT column, w)
    for each of its UTs, where w = sqrt(tau * power * gain) weighs the UT's
    unit channel in the pilot's unit observation."""
    tau = cfg.pilot_length
    members = [[(u, math.sqrt(tau * pilot_powers_unicast[u] * float(fading.unicast_gains[u])))]
               for u in range(cfg.n_unicast)]
    column = cfg.n_unicast
    for q_row, e_row in zip(pilot_powers_multicast, fading.multicast_gains):
        members.append([(column + k, math.sqrt(tau * q * float(e)))
                        for k, (q, e) in enumerate(zip(q_row, e_row))])
        column += len(q_row)
    return members


def lift_draws(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, observations,
               basis, rng, lift_rng) -> ChannelDraw:
    """Full channels and pilot noise from one trial's reduced draws.

    ``observations`` are the pilots' unit observations o_j, whose parts have
    variance 1 + s_j (s_j the sum of w^2 over the pilot's UTs), and
    ``basis`` is an N x k orthonormal basis that depends on them alone.
    ``rng`` then gives, per block of UTs in the trial's order
    (``montecarlo._trial_blocks``), a k-row array: one column per UT, the
    coordinates in the basis of its residual z_i, then one per pilot of the
    block for its zeta_j.  ``lift_rng`` gives the part of each outside the
    basis.  UT i of pilot j has the unit channel
    h_i = c_i o_j + z_i - c_i (sum_{l in j} w_l z_l + zeta_j), with
    c_i = w_i / (1 + s_j), and the pilot's noise is o_j - sum_{l in j} w_l h_l.
    With z and zeta independent unit draws, (h, noise) has the law of
    independent unit draws, whose observations are the o_j.
    """
    N, k = basis.shape
    members = _pilot_members(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)

    def full(coordinates):
        outside = _unit_draws(lift_rng, (N, coordinates.shape[1]))
        outside -= basis @ (basis.conj().T @ outside)
        return basis @ coordinates + outside

    U = cfg.n_unicast
    H = np.zeros((N, U + sum(cfg.group_sizes)), dtype=complex)
    noise = np.zeros(observations.shape, dtype=complex)
    for a, b, j0, j1 in montecarlo._trial_blocks(cfg):
        coordinates = _unit_draws(rng, (k, b - a + j1 - j0))
        z = dict(zip(range(a, b), full(coordinates[:, :b - a]).T))
        zeta = full(coordinates[:, b - a:]).T
        for j, zeta_j in zip(range(j0, j1), zeta):
            o = observations[:, j]
            s = sum(w * w for _, w in members[j])
            shared = zeta_j + sum(w * z[i] for i, w in members[j])
            for i, w in members[j]:
                c = w / (1.0 + s)
                H[:, i] = c * o + z[i] - c * shared
            noise[:, j] = o - sum(w * H[:, i] for i, w in members[j])
    gains = np.concatenate([np.asarray(fading.unicast_gains, dtype=float),
                            *(np.asarray(g, dtype=float) for g in fading.multicast_gains)])
    H *= np.sqrt(gains / 2.0)
    edges = np.cumsum([U, *cfg.group_sizes]).tolist()
    return ChannelDraw(channels=H, unicast_channels=H[:, :U],
                       multicast_channels=tuple(H[:, a:b] for a, b in zip(edges, edges[1:])),
                       noise=noise / math.sqrt(2.0))


def lifted_draw(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, seed, t,
                powers=None, precoder=None, stats=None) -> ChannelDraw:
    """Trial t of ``seed``, read from ``montecarlo.trial_rng`` in the order
    the trial kernel reads it, lifted to full channels at each UT's variance
    and pilot noise at unit variance (``lift_draws``).

    The observations come first, then the basis: the thin Q of the
    precoder columns the loop builders give for the observations'
    estimates (they raise RankDeficientDraw on a draw the trial discards),
    or, without powers, of the estimates.  The parts outside the basis come
    from a generator independent of the trial's.
    """
    rng = montecarlo.trial_rng(seed, t)
    members = _pilot_members(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    spread = np.array([math.sqrt(1.0 + sum(w * w for _, w in m)) for m in members])
    observations = _unit_draws(rng, (cfg.n_antennas, len(members))) * spread
    est = estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                        observations / math.sqrt(2.0))
    if powers is None:
        columns = (est.unicast_estimates, est.group_estimates)
    else:
        build = build_zf_precoders_loop if precoder == ZF else build_mrt_precoders_loop
        columns = build(cfg, est, powers, stats)
    basis, r = np.linalg.qr(np.concatenate(columns, axis=1))
    if powers is not None and cfg.n_antennas >= cfg.n_streams and \
            all(p != 0.0 for p in (*powers.unicast, *powers.multicast)):
        # Full column rank: the R with a positive diagonal, the Cholesky
        # factor of the columns' Gram, which the kernel takes.
        basis = basis * np.where(r.diagonal().real < 0.0, -1.0, 1.0)
    lift_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 1)))
    return lift_draws(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, observations,
                      basis, rng, lift_rng)


def lifted_trial(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers, precoder,
                 stats, seed, t):
    """The precoders (V, W) of trial t and its lifted draw: the loop
    estimator and builders on the draw's channels and noise."""
    draw = lifted_draw(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, seed, t,
                       powers, precoder, stats)
    est = mmse_estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, draw)
    build = build_zf_precoders_loop if precoder == ZF else build_mrt_precoders_loop
    return (*build(cfg, est, powers, stats), draw)


# ------------------------------------------- stored-terms Monte Carlo path


@dataclass(frozen=True)
class _TrialTerms:
    """Per-trial inner products for every UT, plus bookkeeping."""

    uni_des: np.ndarray            # (n, U) complex: own-stream effective channel
    uni_pow_uni: np.ndarray        # (n, U, U): |channel x unicast precoder|^2
    uni_pow_mu: np.ndarray         # (n, U, G)
    mu_des: tuple[np.ndarray, ...]      # per group: (n, K_g) complex
    mu_pow_mu: tuple[np.ndarray, ...]   # per group: (n, K_g, G)
    mu_pow_uni: tuple[np.ndarray, ...]  # per group: (n, K_g, U)
    n_kept: int
    n_discarded: int


def _run_trials(cfg: SystemConfig, fading: FadingProfile,
                pilot_powers_unicast, pilot_powers_multicast,
                powers: DownlinkPowers, precoder: str,
                n_trials: int, seed: int) -> _TrialTerms:
    require_valid(cfg, fading)
    if precoder not in PRECODERS:
        raise ValueError(f"unknown precoder {precoder!r}")
    stats = _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)

    U, G = cfg.n_unicast, cfg.n_groups
    uni_des = np.zeros((n_trials, U), dtype=complex)
    uni_pow_uni = np.zeros((n_trials, U, U))
    uni_pow_mu = np.zeros((n_trials, U, G))
    mu_des = [np.zeros((n_trials, k), dtype=complex) for k in cfg.group_sizes]
    mu_pow_mu = [np.zeros((n_trials, k, G)) for k in cfg.group_sizes]
    mu_pow_uni = [np.zeros((n_trials, k, U)) for k in cfg.group_sizes]

    kept = 0
    discarded = 0
    for t in range(n_trials):
        try:
            V, W, draw = lifted_trial(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                                      powers, precoder, stats, seed, t)
        except RankDeficientDraw:
            discarded += 1
            continue

        FhV = draw.unicast_channels.conj().T @ V      # U x U
        FhW = draw.unicast_channels.conj().T @ W      # U x G
        uni_des[kept] = np.diag(FhV)
        uni_pow_uni[kept] = np.abs(FhV) ** 2
        uni_pow_mu[kept] = np.abs(FhW) ** 2
        for j in range(G):
            GhW = draw.multicast_channels[j].conj().T @ W   # K_j x G
            GhV = draw.multicast_channels[j].conj().T @ V   # K_j x U
            mu_des[j][kept] = GhW[:, j]
            mu_pow_mu[j][kept] = np.abs(GhW) ** 2
            mu_pow_uni[j][kept] = np.abs(GhV) ** 2
        kept += 1

    if discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    discarded, n_trials)
    if kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    return _TrialTerms(
        uni_des=uni_des[:kept],
        uni_pow_uni=uni_pow_uni[:kept],
        uni_pow_mu=uni_pow_mu[:kept],
        mu_des=tuple(a[:kept] for a in mu_des),
        mu_pow_mu=tuple(a[:kept] for a in mu_pow_mu),
        mu_pow_uni=tuple(a[:kept] for a in mu_pow_uni),
        n_kept=kept,
        n_discarded=discarded,
    )


def _sinr_from_means(des_mean: complex, pow_terms_mean: np.ndarray) -> float:
    """Effective SINR from the term means: |E[des]|^2 over unit noise plus
    total received power minus the coherent part."""
    num = abs(des_mean) ** 2
    return num / (1.0 - num + float(np.sum(pow_terms_mean)))


def _jackknife(des: np.ndarray, pow_terms: np.ndarray) -> tuple[float, float]:
    """Plug-in SINR and its jackknife standard error over trials.

    des: (n,) complex; pow_terms: (n, T) squared magnitudes.  Leave-one-out
    means are formed in closed form, the SINR re-assembled for each, and the
    usual jackknife variance taken.
    """
    n = des.shape[0]
    des_sum = des.sum()
    pow_sum = pow_terms.sum(axis=0)
    full = _sinr_from_means(des_sum / n, pow_sum / n)

    loo_des = (des_sum - des) / (n - 1)
    loo_pow = (pow_sum[None, :] - pow_terms) / (n - 1)
    num = np.abs(loo_des) ** 2
    loo = num / (1.0 - num + loo_pow.sum(axis=1))
    se = math.sqrt((n - 1) / n * float(np.sum((loo - loo.mean()) ** 2)))
    return full, se


def _target_arrays(terms: _TrialTerms, kind: str, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(desired, unicast power terms, multicast power terms) for one UT."""
    if kind == "unicast":
        m = int(index)
        return terms.uni_des[:, m], terms.uni_pow_uni[:, m, :], terms.uni_pow_mu[:, m, :]
    if kind == "multicast":
        j, k = index
        return terms.mu_des[j][:, k], terms.mu_pow_uni[j][:, k, :], terms.mu_pow_mu[j][:, k, :]
    raise ValueError(f"unknown target kind {kind!r}")


def _statistics_for(terms: _TrialTerms, kind: str, index) -> tuple[float, float]:
    """One UT's plug-in SINR and its jackknife standard error."""
    des, pow_uni, pow_mu = _target_arrays(terms, kind, index)
    return _jackknife(des, np.concatenate([pow_uni, pow_mu], axis=1))


def validate_closed_form_stored(cfg: SystemConfig, fading: FadingProfile,
                                pilot_powers_unicast, pilot_powers_multicast,
                                powers: DownlinkPowers, precoder: str,
                                n_trials: int, seed: int) -> SimpleNamespace:
    """``montecarlo.validate_closed_form`` as it was over stored inner
    products: per UT the plug-in SINR, its jackknife half-width and the
    z-score (SINR - closed form) / jackknife standard error."""
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    terms = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                        powers, precoder, n_trials, seed)
    stats = estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    closed = se_report(cfg, stats, fading, powers, precoder)

    records = []

    def add(kind, index, cf):
        sinr, se = _statistics_for(terms, kind, index)
        if se > 0:
            z = (sinr - cf) / se
        else:
            z = 0.0 if sinr == cf else math.inf
        idx = (index,) if kind == "unicast" else tuple(index)
        records.append(SimpleNamespace(kind=kind, index=idx, closed_form=cf, empirical=sinr,
                                       ci_halfwidth=Z95 * se, z=z))

    for m, cf in enumerate(closed.unicast_sinr):
        add("unicast", m, cf)
    for j, group in enumerate(closed.multicast_sinr):
        for k, cf in enumerate(group):
            add("multicast", (j, k), cf)

    n_ok = sum(1 for r in records if abs(r.z) <= 3.0)
    rate = n_ok / len(records) if records else 1.0
    return SimpleNamespace(precoder=precoder, n_trials=terms.n_kept,
                           n_discarded=terms.n_discarded, records=tuple(records),
                           pass_rate=rate, passed=rate >= 0.99)


# ---------------------------------------- serial streamed Monte Carlo path


def run_trials_serial(cfg: SystemConfig, fading: FadingProfile,
                      pilot_powers_unicast, pilot_powers_multicast,
                      powers: DownlinkPowers, precoder: str,
                      n_trials: int, seed: int) -> SimpleNamespace:
    """``montecarlo._run_trials`` as one loop on the calling thread over the
    loops above, every trial's arrays allocated afresh and every trial's
    terms stored, then summed around the closed-form moments in trial order.
    It reads ``trial_rng`` through the ``montecarlo`` module and the
    builders through this one, so a test that replaces them there replaces
    them here as well.

    Besides the sums the validator reads, it returns the stored terms:
    ``desired`` and ``received``, one column per kept trial."""
    require_valid(cfg, fading)
    if precoder not in PRECODERS:
        raise ValueError(f"unknown precoder {precoder!r}")
    stats = _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    gain, c = _precoder_factors(cfg, precoder)
    (uni_signal, uni_rest), (mu_signal, mu_rest) = _sinr_terms(cfg, stats, fading, powers,
                                                               gain, c)
    signal = np.concatenate([uni_signal, mu_signal])
    m1, m2 = np.sqrt(signal), np.concatenate([uni_rest, mu_rest]) + signal

    U = cfg.n_unicast
    users = U + sum(cfg.group_sizes)
    own = np.concatenate([np.arange(U), U + np.repeat(np.arange(cfg.n_groups), cfg.group_sizes)])
    every = np.arange(users)
    desired = np.empty((users, n_trials), dtype=complex)
    received = np.empty((users, n_trials))

    kept = 0
    discarded = 0
    for t in range(n_trials):
        try:
            V, W, draw = lifted_trial(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                                      powers, precoder, stats, seed, t)
        except RankDeficientDraw:
            discarded += 1
            continue

        # conj(h^H x) for every UT and stream.
        effective = draw.channels.T @ np.concatenate([V, W], axis=1).conj()
        power = effective.real ** 2 + effective.imag ** 2
        received[:, kept] = power.sum(axis=1)
        desired[:, kept] = effective[every, own].conj()
        kept += 1

    if discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    discarded, n_trials)
    if kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    desired, received = desired[:, :kept], received[:, :kept]
    return SimpleNamespace(m1=m1, m2=m2, stats=stats, kept=kept, discarded=discarded,
                           desired=desired, received=received,
                           **sum_terms(m1, m2, desired, received))


def sum_terms(m1: np.ndarray, m2: np.ndarray, desired: np.ndarray,
              received: np.ndarray) -> dict[str, np.ndarray]:
    """The six per-UT sums of the stored terms (one column per trial), added
    in trial order: of x = Re d - m1, x^2, y = r - m2, y^2, x*y and Im d."""
    sums = {name: np.zeros(m1.size) for name in ("x", "xx", "y", "yy", "xy", "imag")}
    for t in range(desired.shape[1]):
        x = desired[:, t].real - m1
        y = received[:, t] - m2
        sums["x"] += x
        sums["xx"] += x * x
        sums["y"] += y
        sums["yy"] += y * y
        sums["xy"] += x * y
        sums["imag"] += desired[:, t].imag
    return sums


def moment_tests_two_pass(trials: SimpleNamespace) -> list[tuple[float, float, float, float]]:
    """(W, p, z, m1/SE) per UT from the stored terms of ``run_trials_serial``.

    The pair (Re d - m1, r - m2) is tested with two degrees of freedom.  A
    term with no spread tests only whether it sits exactly on its moment;
    without a second term, or with a singular covariance, the received
    power is tested alone, with one degree of freedom."""
    n = trials.kept
    normal = NormalDist()
    out = []
    for u in range(trials.m1.size):
        m1 = float(trials.m1[u])
        pair = np.stack([trials.desired[u].real - m1, trials.received[u] - trials.m2[u]])
        mean = pair.mean(axis=1)
        centred = pair - mean[:, None]
        cov = centred @ centred.T / (n - 1)
        spread = np.diag(cov) > 0
        if np.any(~spread & (mean != 0)):
            w, dof = math.inf, 1
        elif spread.all() and np.linalg.det(cov) > 0:
            w, dof = float(n * mean @ np.linalg.solve(cov, mean)), 2
        elif spread[1]:
            w, dof = float(n * mean[1] ** 2 / cov[1, 1]), 1
        elif spread[0]:
            w, dof = float(n * mean[0] ** 2 / cov[0, 0]), 1
        else:
            w, dof = 0.0, 0
        if dof == 2:
            p = math.exp(-w / 2)
            z = -normal.inv_cdf(p / 2)
        else:
            p = math.erfc(math.sqrt(w / 2)) if dof else 1.0
            z = math.sqrt(w)
        se = math.sqrt(cov[0, 0] / n)
        out.append((w, p, z, 0.0 if m1 == 0 else m1 / se))
    return out


# -------------------------------------------------- per-call selection


def select_operating_point_rebuilt(boundary: ParetoBoundary, ratio=None, target_mmf=None,
                                   target_sse=None) -> OperatingPoint:
    """``pareto.select_operating_point`` validating the boundary's pair and
    building both allocation problems on every call."""
    chosen = [p for p in (ratio, target_mmf, target_sse) if p is not None]
    if len(chosen) != 1:
        raise ValueError("give exactly one of ratio, target_mmf, target_sse")
    if ratio is not None:
        p_unicast = PowerSplit.from_ratio(*ratio, boundary.cfg.total_power).p_unicast
    elif math.isnan(chosen[0]):
        raise ValueError("the target must not be NaN")
    cfg, fading, precoder = boundary.cfg, boundary.fading, boundary.precoder
    P = cfg.total_power
    require_valid(cfg, fading)
    mmf, sse = _problems(cfg, fading, precoder)
    if ratio is not None:
        return OperatingPoint(_point(mmf, sse, p_unicast), False)

    target, problem = chosen[0], (mmf if target_mmf is not None else sse)
    top = float(problem.objectives(0.0))
    if target >= top:
        power, clamped = P, target > top
    elif target <= 0.0:
        power, clamped = 0.0, target < 0.0
    else:
        power, clamped = min(P, problem.power_for(target)), False
    split = P - power if problem is mmf else power
    return OperatingPoint(_point(mmf, sse, split), clamped)


# ------------------------------------------------------- per-call scores


def _score_rebuilt(cfg: SystemConfig, fading: FadingProfile, sol, pilots_unicast,
                   pilots_multicast, powers: DownlinkPowers) -> SeReport:
    """Closed-form SEs at the solution's pilot length and precoder, with the
    pair validated once for both the estimation and the SINR kernel."""
    cfg_at = (cfg if sol.pilot_length == cfg.pilot_length
              else dataclasses.replace(cfg, pilot_length=sol.pilot_length))
    gain, c = _precoder_factors(cfg_at, sol.precoder)
    require_valid(cfg_at, fading)
    stats = _estimation_variances(cfg_at, fading, pilots_unicast, pilots_multicast)
    return _se_report(cfg_at, stats, fading, powers, gain, c)


def mmf_se_report_rebuilt(cfg: SystemConfig, fading: FadingProfile, sol,
                          p_unicast_fixed: float) -> SeReport:
    """``allocation.mmf_se_report`` validating and estimating on every call."""
    return _score_rebuilt(cfg, fading, sol,
                          cfg.unicast_energy_caps / sol.pilot_length,
                          sol.uplink_pilot_powers,
                          DownlinkPowers(_equal_shares(p_unicast_fixed, cfg.n_unicast, "unicast"),
                                         sol.downlink_powers))


def sse_se_report_rebuilt(cfg: SystemConfig, fading: FadingProfile, sol,
                          p_multicast_fixed: float) -> SeReport:
    """``allocation.sse_se_report`` validating and estimating on every call."""
    return _score_rebuilt(cfg, fading, sol,
                          sol.uplink_pilot_powers,
                          [caps / sol.pilot_length for caps in cfg.multicast_energy_caps],
                          DownlinkPowers(sol.downlink_powers,
                                         _equal_shares(p_multicast_fixed, cfg.n_groups,
                                                       "multicast")))


# --------------------------------------------------- per-drop figure grids


def _draw_polar(geometry: CellGeometry, rng: np.random.Generator, n: int) -> np.ndarray:
    polar = np.empty((n, 2))
    r2 = rng.uniform(geometry.exclusion_radius ** 2, geometry.cell_radius ** 2, size=n)
    polar[:, 0] = np.sqrt(r2)
    polar[:, 1] = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return polar


def place_users_loop(geometry: CellGeometry, n_unicast: int, group_sizes, rng_seed):
    """``scenario.place_users`` drawing each block of UTs with its own two
    ``rng.uniform`` calls: radii, then angles."""
    geometry.validate()
    if n_unicast < 0 or any(k < 1 for k in group_sizes):
        raise ValueError("need n_unicast >= 0 and every group size >= 1")
    rng = np.random.default_rng(rng_seed)

    uni = _draw_polar(geometry, rng, n_unicast)
    groups = [_draw_polar(geometry, rng, k) for k in group_sizes]

    def gains(r):
        return geometry.attenuation_const / r ** geometry.pathloss_exponent

    profile = FadingProfile(
        unicast_gains=gains(uni[:, 0]),
        multicast_gains=tuple(gains(g[:, 0]) for g in groups),
    )
    return profile, Placement(unicast=uni, multicast=tuple(groups))


def default_normalized_config_twice(n_antennas, coherence_length, n_unicast, group_sizes,
                                    radio):
    """``default_normalized_config`` as it was built before: in physical
    units first, then through ``normalize_powers``."""
    group_sizes = tuple(int(k) for k in group_sizes)
    e_phys = default_energy_cap_physical(coherence_length)
    cfg = SystemConfig(
        n_antennas=n_antennas,
        coherence_length=coherence_length,
        n_unicast=n_unicast,
        group_sizes=group_sizes,
        pilot_length=n_unicast + len(group_sizes),
        total_power=radio.tx_power_watts,
        unicast_energy_caps=np.full(max(n_unicast, 0), e_phys),
        multicast_energy_caps=tuple(np.full(max(k, 0), e_phys) for k in group_sizes),
        sse_weights=np.ones(max(n_unicast, 0)),
    )
    return normalize_powers(radio, cfg)


def default_normalized_config_per_group(n_antennas, coherence_length, n_unicast, group_sizes,
                                        radio=RadioParams()):
    """``default_normalized_config`` as it was built before each per-UT
    field came from one ``np.full``: one array per group, which the config
    concatenates."""
    group_sizes = tuple(int(k) for k in group_sizes)
    radio.validate()
    scale = 1.0 / (radio.bandwidth_hz * noise_power_w_per_hz(radio))
    e = default_energy_cap_physical(coherence_length) * scale
    return SystemConfig(
        n_antennas=n_antennas,
        coherence_length=coherence_length,
        n_unicast=n_unicast,
        group_sizes=group_sizes,
        pilot_length=n_unicast + len(group_sizes),
        total_power=radio.tx_power_watts * scale,
        unicast_energy_caps=np.full(max(n_unicast, 0), e),
        multicast_energy_caps=tuple(np.full(max(k, 0), e) for k in group_sizes),
        sse_weights=np.ones(max(n_unicast, 0)),
    )


def drop_seed(seed: int, cell: int, drop: int) -> np.random.SeedSequence:
    """The seed of drop ``drop`` of grid cell ``cell``, one SeedSequence per
    drop as the figure grid built it before its seeds came from one pass."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(cell, drop))


def drop_means_loop(configs, objective, n_drops, seed) -> tuple[np.ndarray, np.ndarray]:
    """``figures.drop_means`` seeding, placing and solving one drop at a
    time: per drop one SeedSequence, one placement, then ``solve_mmf`` or
    ``solve_sse`` once per precoder, each validating the drop."""
    solve = {"mmf": solve_mmf, "sse": solve_sse}[objective]
    means = np.zeros((len(configs), len(PRECODERS)))
    feasible = np.zeros(means.shape, dtype=bool)
    for cell, cfg in enumerate(configs):
        acc = {prec: [] for prec in PRECODERS}
        for d in range(n_drops):
            try:
                fading = place_users_loop(CellGeometry(), cfg.n_unicast, cfg.group_sizes,
                                          drop_seed(seed, cell, d))[0]
            except ValueError as e:
                raise PlacementError(str(e)) from e
            for prec, vals in acc.items():
                try:
                    vals.append(solve(cfg, fading, cfg.total_power / 2.0, prec).objective)
                except ZfInfeasibleError:
                    pass
        for p, vals in enumerate(acc.values()):
            if vals:
                means[cell, p], feasible[cell, p] = sum(vals) / len(vals), True
    return means, feasible
