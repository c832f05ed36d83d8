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
Its ``unicast_offsets`` follows the model's estimation rule, as the solver
reads it since it stopped restating theta; ``unicast_offsets_subtracting``
keeps the rule the solver had before, b - c*theta with theta from the
energy cap, which must agree with it to rounding wherever the difference
keeps its digits, and ``unicast_offsets_exact`` gives the offsets in
rational arithmetic, which the solver must meet within 1e-14 at any pilot
energy and budget.  Likewise ``mmf_objective_loop`` forms each max-min
load as 1/upsilon_j + sum 1/g + (K_j - c)*P, as the solver does, and
``mmf_objective_loop_subtracting`` keeps the solver's earlier B_j - c*P,
which must agree with it to rounding at moderate budgets.
``waterfill_loop`` water-fills one user at a time, the first user active
at any positive budget, and ``waterfill_budget_loop`` inverts
water-filling in the one pass over the users that ``waterfill_budget``
made before the fill order built its segments as arrays: the problem's
solves and inverses must give their bits.  The
max-min loops and ``sse_objective_loop`` take their SEs through numpy's
log1p, as the program does; ``log1p_math`` keeps the rule it had before,
math.log1p per entry, which the ufunc must meet within one ulp.
``zf_columns_eigensolve`` keeps the ZF core as it was before it bounded the
Gram's condition number by the trace of its inverse: its columns must
agree to rounding, and it must discard no draw the trace bound keeps.
``estimate_factors`` and ``column_scales`` keep the precoders' diagonal as
the trial kernel worked it out before it factored the unit observations:
each pilot's estimate factor for unit draws, and each stream's column scale
read off the estimate variances.  The kernel's diagonal must equal scale
times factor times spread under MRT and scale over (factor times spread)
under ZF, to rounding.

The lifted-draw section turns one full-draw trial's draws into full
channels at each UT's variance and the pilot noise (``lifted_draw``).  A
full-draw trial draws the pilot observations and, in the k = min(N, S)
dimensions of an orthonormal basis of the precoder columns, one residual
per UT and one per pilot; ``lift_draws`` adds each residual's part outside
the basis from an independent generator and solves for the channels and the
noise, so that the pilots observe exactly the drawn observations.  The
basis is the thin Q of the columns that the loops of the last section build
from the observations' estimates, with the signs that give R a positive
diagonal when the columns have full rank, as the Cholesky factor of
``observation_basis`` has.  ``lifted_trials`` runs the loops of the last
section on the lifted draws and takes each UT's inner products with the
precoders (``inner_product_terms``).

The full-draw section keeps the trial kernel as it was before it
integrated each UT's estimation error out (``FullDrawKernel``): it draws
the N x S observations, factors them, and draws every UT's residual.  Its
ZF factor R^-H D, which the trial kernel no longer forms, comes from
``zf_factor``.  Its
terms must agree with ``lifted_trials``' to rounding, and, on one fixed
factor R, their mean over many residual draws must agree with the trial
kernel's conditional terms within sampling error.

The conditional-loop section gives the trial kernel's terms one UT and one
stream at a time: ``bartlett_factor`` draws a trial's factor R of the
observations with one entry per step, in the order the kernel reads the
trial's generator, and ``conditional_terms`` builds the estimates and the
precoders from R with the loops of the last section, then takes each term's
mean over the UT's estimation error, whose variance
``error_variances_exact`` works out in rational arithmetic.  The kernel's
terms must agree with these to within 1e-12 of the trial's largest |d| and
r.

The stored-terms section keeps the Monte Carlo validator as it was before
it streamed its trials: every trial's per-stream terms stored, then one
jackknife per UT.  Its trials are ``conditional_trials`` (or any other
trials of the same form).  Its empirical SINRs must agree with the
streamed ones to rounding.

The per-trial section keeps the trial kernel as it ran before its trials
ran in blocks (``run_trials_per_trial``): one SeedSequence per trial, one
factor array per trial, ZF's row norms from an LU inverse
(``zf_row_norms_lu``), MRT's per-UT terms formed one trial at a time
(``mrt_terms_per_trial``) and each trial's terms added to the sums before
the next draws.  The blocked run's sums must equal its sums bit for bit
under MRT and within 1e-12 under ZF, at any block size.  It also keeps
the per-trial steps the kernel had before its block step became its only
one: ``mrt_factor``, MRT's factor R D, and ``require_rank``, which raises
``RankDeficientDraw`` where the kernel's mask drops a ZF draw.
``zf_interference_exact`` gives the closed form's ZF interference in
rational arithmetic, which the library must meet within 1e-14 at any pilot
energy.

The serial streamed section keeps the Monte Carlo trial loop over stored
terms: it stores every trial's desired term and received power, as the
validator did before it kept only per-UT moment sums, and adds them up in
trial order afterwards (``sum_terms``).  ``moment_tests_two_pass`` works out
each UT's moment test from the stored terms in two passes (means, then
centred sums) and inverts the 2 x 2 covariance with ``np.linalg.solve``;
the streamed statistics must agree with it to rounding.

The per-call selection section keeps ``select_operating_point`` as it was
before a boundary kept its allocation problems: every call validates the
boundary's pair and builds both problems again.  Its points must equal the
ones selected on the kept problems, field for field.

The per-side closed-form section keeps the estimate variances, the SINR
terms and the SE report as they were before every per-UT rule ran over the
model's pilot order: one formula for the unicast UTs and another for the
multicast UTs, group by group (``estimation_variances_per_side``,
``sinr_terms_per_side``, ``se_report_per_side``).  The library's records
must equal theirs bit for bit.

The per-call score section keeps ``mmf_se_report``/``sse_se_report`` as
they were before a solution kept the problem that built it: every call
validates the pair at the solution's pilot length and works out the
estimate variances again.  Its reports must equal the kept-problem ones
byte for byte.  With ``per_side=True`` it scores through the per-side
closed form instead.

The per-drop figure-grid section keeps the grid loop as it was before a
cell's drops were placed and solved as one stack: one SeedSequence and one
placement per drop, drawn block by block, then one ``solve_mmf`` or
``solve_sse`` call per precoder.  The figure CSVs it gives must equal the stacked ones byte for
byte.  It also keeps ``default_normalized_config`` as it was before each
per-UT field came from one ``np.full``: the configs must be equal and
write the same JSON.

The scalar moment-test section keeps the moment tests as
``validate_closed_form`` ran them before they became array passes: one UT
at a time in Python floats (``moment_tests_scalar``).  The array passes
must give every UT's W, p and z bit for bit.

The validation-record section keeps the report as it was before it held
one array per record field (``validation_records``): a frozen record per
UT filled from the columns' lists, and every summary and the document a
loop over those records.  The columnar report's records, summaries and
document must equal its own, in value and type.
"""

import dataclasses
import logging
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from mimocast import montecarlo
from mimocast.allocation import solve_mmf, solve_sse
from mimocast.closed_form import (PRECODERS, ZF, DownlinkPowers, SeReport, _check_powers,
                                  _equal_shares, _precoder_factors, _se_report,
                                  _sinr_terms, require_zf_feasible, se_report)
from mimocast.errors import DegenerateInputError, PlacementError, ZfInfeasibleError
from mimocast.model import (MIN_GAIN, EstimationStats, FadingProfile, PowerSplit, SystemConfig,
                            Violation, _estimation_variances, _group_sums, _per_member,
                            _pilot_arrays, estimation_variances, require_valid)
from mimocast.montecarlo import EXACT_RTOL, MAX_GRAM_COND, Z95
from mimocast.pareto import OperatingPoint, ParetoBoundary, _point, _problems, solve_split
from mimocast.scenario import (CellGeometry, Placement, RadioParams,
                               default_energy_cap_physical, noise_power_w_per_hz,
                               normalize_powers)

LN2 = math.log(2.0)

log = logging.getLogger(__name__)


class RankDeficientDraw(RuntimeError):
    """The stacked estimate matrix lost rank in one draw; discard the trial.
    The oracles raise it where the trial kernel drops the draw by a mask."""


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
        if rank == 1 or cand < c[i] / offsets[i]:   # the first user joins at any budget > 0
            nu = cand
            n_active = rank
    levels = [0.0] * n
    for i in order[:n_active]:
        levels[i] = max(0.0, c[i] / nu - offsets[i])
    return tuple(levels), nu


def waterfill_budget_loop(weights, offsets, objective) -> float:
    """``allocation.waterfill_budget`` over Python floats as it ran before
    the fill order built its segments as arrays: one pass over the users in
    activation order, stopping at the segment that holds the objective."""
    users = sorted(zip(weights, offsets), key=lambda wo: wo[0] / wo[1], reverse=True)
    ratios = [w / o for w, o in users]
    budget = level_sum = wsum = 0.0   # b_k, f_k and A_k of the current segment
    for k, (w, _) in enumerate(users):
        wsum += w
        if k + 1 == len(users):
            break
        next_level_sum = level_sum + wsum * math.log(ratios[k] / ratios[k + 1])
        if next_level_sum > objective:
            break
        budget += wsum * (1.0 / ratios[k + 1] - 1.0 / ratios[k])
        level_sum = next_level_sum
    return budget + wsum / ratios[k] * math.expm1((objective - level_sum) / wsum)


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
    """Full-cap estimate variances theta, error variances and the
    water-filling offsets, one UT at a time, by the model's rule: the pilot
    energy tau*(e/tau)*b at the solvers' pilot length tau = U+G, theta =
    energy*b/(1 + energy), the error b/(1 + energy), and the offset
    (1 + leak*P)/(gain*theta) with the leak b under MRT (c = 0) and the
    error under ZF (c = 1): nothing is subtracted."""
    cfg, fading = tuple_layout(cfg, fading)
    if cfg.n_unicast == 0:
        raise DegenerateInputError("sum-SE allocation needs at least one unicast UT")
    P, tau = cfg.total_power, cfg.n_streams
    theta, errors, offsets = [], [], []
    for e, b in zip(cfg.unicast_energy_caps, fading.unicast_gains):
        energy = tau * (e / tau) * b
        theta.append(energy * b / (1.0 + energy))
        errors.append(b / (1.0 + energy))
        leak = b if c == 0.0 else errors[-1]
        offsets.append((1.0 + leak * P) / (gain * theta[-1]))
    return tuple(theta), tuple(errors), tuple(offsets)


def unicast_offsets_subtracting(cfg, fading, gain, c):
    """``unicast_offsets`` as the solver worked them out before it read the
    model's rule: theta = e*b*b/(1 + e*b) from the energy cap e, and the
    offset (1 + (b - c*theta)*P)/(gain*theta), whose difference loses
    digits once e*b dwarfs 1."""
    cfg, fading = tuple_layout(cfg, fading)
    P = cfg.total_power
    theta = tuple(e * b * b / (1.0 + e * b)
                  for e, b in zip(cfg.unicast_energy_caps, fading.unicast_gains))
    offsets = tuple((1.0 + (b - c * t) * P) / (gain * t)
                    for b, t in zip(fading.unicast_gains, theta))
    return theta, offsets


def unicast_offsets_exact(cfg, fading, gain, c) -> list[Fraction]:
    """The water-filling offsets (1 + (b - c*theta)*P)/(gain*theta) in exact
    rational arithmetic on the full-cap pilot energies e*b, theta =
    e*b^2/(1 + e*b), where b - theta = b/(1 + e*b) loses nothing."""
    P = Fraction(cfg.total_power)
    offsets = []
    for e, b in zip(cfg.unicast_energy_caps.tolist(), fading.unicast_gains.tolist()):
        e, b = Fraction(e), Fraction(b)
        theta = e * b * b / (1 + e * b)
        offsets.append((1 + (b - Fraction(c) * theta) * P) / (gain * theta))
    return offsets


def log1p_math(x) -> np.ndarray:
    """log1p of every entry through ``math.log1p``, one entry at a time: the
    rule every SE had before scalars and arrays alike went through numpy's
    log1p ufunc, which must stay within one ulp of it."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.log1p, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def mmf_objective_loop(cfg, fading, p_unicast, gain, c):
    """``solve_mmf``'s objective for the precoder factors (gain, c), from the
    loops above: the SE at gamma = gain*p_mu / sum_j (B_j - c*P), each load
    formed as 1/upsilon_j + sum 1/g + (K_j - c)*P, which subtracts nothing,
    through the SEs' log1p rule."""
    upsilon, _ = group_quality_floors(cfg, fading)
    cfg, fading = tuple_layout(cfg, fading)
    P = cfg.total_power
    loads = [1.0 / u + sum(1.0 / g for g in gains) + (len(gains) - c) * P
             for u, gains in zip(upsilon, fading.multicast_gains)]
    return _mmf_objective(cfg, p_unicast, gain, loads)


def mmf_objective_loop_subtracting(cfg, fading, p_unicast, gain, c):
    """``mmf_objective_loop`` as the solver formed its loads before, B_j -
    c*P, which loses the digits of 1/upsilon_j + sum 1/g for a group of one
    under ZF once P dwarfs them."""
    upsilon, _ = group_quality_floors(cfg, fading)
    P = cfg.total_power
    loads = [b - c * P for b in interference_loads(cfg, fading, upsilon)]
    return _mmf_objective(cfg, p_unicast, gain, loads)


def _mmf_objective(cfg, p_unicast, gain, loads) -> float:
    prelog = 1.0 - cfg.n_streams / cfg.coherence_length
    sinr = gain * max(0.0, cfg.total_power - p_unicast) / sum(loads)
    return float(prelog * np.log1p(sinr) / LN2)


def sse_objective_loop(cfg, fading, p_multicast, gain, c):
    """``solve_sse``'s objective for the precoder factors (gain, c), from the
    loops above: water-filled levels scored one UT at a time, each through
    the SEs' log1p rule."""
    *_, offsets = unicast_offsets(cfg, fading, gain, c)
    weights = cfg.sse_weights.tolist()
    levels, _ = waterfill_loop(weights, offsets, max(0.0, cfg.total_power - p_multicast))
    prelog = 1.0 - cfg.n_streams / cfg.coherence_length
    return float(prelog * sum(a * np.log1p(p / o) / LN2
                              for a, p, o in zip(weights, levels, offsets)))


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


def estimate_factors(cfg, fading, pilot_powers_unicast, pilot_powers_multicast) -> np.ndarray:
    """Each pilot's MMSE estimate factor for channels and noise drawn at unit
    variance, one pilot at a time: ``estimate_loop``'s factor over sqrt(2),
    the noise's amplitude."""
    tau = cfg.pilot_length
    factors = []
    for p, b in zip(pilot_powers_unicast, fading.unicast_gains):
        factors.append(math.sqrt(tau * p) * float(b) / (1.0 + tau * p * float(b)))
    for q_row, e_row in zip(pilot_powers_multicast, fading.multicast_gains):
        s = sum(tau * q * float(e) for q, e in zip(q_row, e_row))
        factors.append(s / (1.0 + s))
    return np.array(factors) / math.sqrt(2.0)


def column_scales(cfg, powers, stats, precoder) -> np.ndarray:
    """Each stream's column scale: sqrt(p / (N * var)) on its estimate under
    MRT (0 for a stream with no power), sqrt(dof * p * var) on its null-space
    direction under ZF."""
    p = np.concatenate([powers.unicast, powers.multicast])
    var = np.concatenate([stats.unicast_var, stats.group_var])
    if precoder == ZF:
        return np.sqrt((cfg.n_antennas - cfg.n_streams) * p * var)
    scales = np.zeros(p.size)
    on = p != 0.0
    scales[on] = np.sqrt(p[on] / (cfg.n_antennas * var[on]))
    return scales


def zf_columns_eigensolve(C: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The ZF columns of estimates C as they were built before the rank rule
    tested a trace bound on the inverse Gram: the equilibrated Gram's
    condition number from its extreme eigenvalues (``eigvalsh``), then one
    ``solve`` over all scaled basis vectors, with no explicit inverse."""
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


def cn(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """``montecarlo._cn``'s draw into a fresh array of the given shape."""
    return montecarlo._cn(rng, np.empty(shape, dtype=complex))


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


def pilot_spreads(cfg, fading, pilot_powers_unicast, pilot_powers_multicast) -> np.ndarray:
    """sqrt(1 + s_j) per pilot, s_j the sum of w^2 over its UTs: the spread
    of each part of the pilot's unit observation."""
    members = _pilot_members(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    return np.array([math.sqrt(1.0 + sum(w * w for _, w in m)) for m in members])


# Most UTs in one block of a full-draw trial (``trial_blocks``).
BLOCK_UTS = 448


def trial_blocks(cfg: SystemConfig) -> list[tuple[int, int, int, int]]:
    """The blocks of UTs a full-draw trial draws and forms one at a time, as
    (first UT, end UT, first pilot, end pilot): the unicast UTs, a pilot
    each, in runs of at most BLOCK_UTS; then runs of whole groups, each run
    as many consecutive groups as fit in BLOCK_UTS UTs, and at least one."""
    U = cfg.n_unicast
    blocks = [(a, min(a + BLOCK_UTS, U)) * 2 for a in range(0, U, BLOCK_UTS)]
    edges = (U + cfg.group_offsets).tolist()
    first = 0
    for j in range(1, cfg.n_groups + 1):
        if j == cfg.n_groups or edges[j + 1] - edges[first] > BLOCK_UTS:
            blocks.append((edges[first], edges[j], U + first, U + j))
            first = j
    return blocks


def lift_draws(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, observations,
               basis, rng, lift_rng) -> ChannelDraw:
    """Full channels and pilot noise from one full-draw trial's draws.

    ``observations`` are the pilots' unit observations o_j, whose parts have
    variance 1 + s_j (s_j the sum of w^2 over the pilot's UTs), and
    ``basis`` is an N x k orthonormal basis that depends on them alone.
    ``rng`` then gives, per block of UTs in the trial's order
    (``trial_blocks``), a k-row array: one column per UT, the
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
    for a, b, j0, j1 in trial_blocks(cfg):
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


def lifted_draw(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, seed,
                t) -> ChannelDraw:
    """Trial t of ``seed``, read from ``montecarlo.trial_rng`` in the order
    the full-draw oracle reads it, lifted to full channels at each UT's
    variance and pilot noise at unit variance (``lift_draws``).

    The observations come first, then the basis, which they alone give:
    their thin Q, its columns' signs set for a positive diagonal of R (the
    Cholesky factor of their Gram, which ``observation_basis`` takes), or
    the identity when there are no more antennas than pilots.  The parts
    outside the basis come from a generator independent of the trial's.
    """
    rng = montecarlo.trial_rng(seed, t)
    spread = pilot_spreads(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    observations = _unit_draws(rng, (cfg.n_antennas, spread.size)) * spread
    if cfg.n_antennas <= spread.size:
        basis = np.eye(cfg.n_antennas)
    else:
        basis, r = np.linalg.qr(observations)
        basis = basis * np.where(r.diagonal().real < 0.0, -1.0, 1.0)
    lift_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 1)))
    return lift_draws(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, observations,
                      basis, rng, lift_rng)


def inner_product_terms(cfg, V, W, draw):
    """One trial's terms from its precoders and channels: each UT's h^H x on
    its own stream, and |x_s^H h|^2 for every stream s (UTs x S)."""
    U = cfg.n_unicast
    own = np.concatenate([np.arange(U), U + np.repeat(np.arange(cfg.n_groups), cfg.group_sizes)])
    # conj(h^H x) for every UT and stream.
    effective = draw.channels.T @ np.concatenate([V, W], axis=1).conj()
    return effective[np.arange(own.size), own].conj(), effective.real ** 2 + effective.imag ** 2


def lifted_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers, precoder,
                  n_trials, seed):
    """Trials 0, 1, ..., n_trials - 1 on the lifted draws, one at a time:
    the loop estimator and builders on each draw's channels and noise, then
    ``inner_product_terms``, or None for a trial whose draw lost rank."""
    stats = _estimation_variances(
        cfg, fading, _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast))
    build = build_zf_precoders_loop if precoder == ZF else build_mrt_precoders_loop
    for t in range(n_trials):
        draw = lifted_draw(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, seed, t)
        est = mmse_estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, draw)
        try:
            yield inner_product_terms(cfg, *build(cfg, est, powers, stats), draw)
        except RankDeficientDraw:
            yield None


# ------------------------------------------------------ full-draw trials


def observation_basis(O: np.ndarray) -> np.ndarray:
    """R of the observations O = Q R, with Q orthonormal in k = min(N, S)
    columns: O itself when N <= S (Q = I); else the Cholesky factor of
    O^H O, unless rounding leaves that Gram indefinite, then from one QR."""
    if O.shape[0] <= O.shape[1]:
        return O
    try:
        # conj(O^H O) = R^T conj(R), and R^T is lower triangular.
        return np.linalg.cholesky(O.T @ O.conj()).T
    except np.linalg.LinAlgError:
        return np.linalg.qr(O, mode="r")


def zf_factor(R: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """ZF's factor R^-H D of the observations' factor R, which the trial
    kernel never forms, for a draw its rank rule keeps (the bound of
    ``montecarlo._zf_row_norms`` on a copy of R, which ``require_rank``
    turns into RankDeficientDraw for any other).  That rule reads
    upper-triangular factors, as a trial draws them; the square
    observations of N = S antennas, which are their own factor here and
    which ZF never serves, are triangularized by a QR first, which leaves
    the bound as it is."""
    triangle = R if np.array_equal(R, np.triu(R)) else np.linalg.qr(R, mode="r")
    _, (bound,) = montecarlo._zf_row_norms(triangle[None].copy())
    require_rank(bound)
    return np.linalg.inv(R).conj().T * diag


class FullDrawKernel:
    """The trial kernel as it was before it integrated each UT's estimation
    error out: it draws the N x S unit observations and factors them
    (``observation_basis``), takes the precoders' factor R_x through
    ``montecarlo``'s cores, then, in the k = min(N, S) dimensions of the
    observations' basis, draws one residual per UT and one per pilot, block
    by block (``trial_blocks``), and forms each UT's terms from them: its
    received power r and its complex desired term d.  ``residual_terms``
    runs the second half on a given R and generator."""

    def __init__(self, cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                 precoder, seed):
        self.seed, self.zf = seed, precoder == ZF
        members = _pilot_members(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
        weights = np.array([w for m in members for _, w in m])
        s = np.array([sum(w * w for _, w in m) for m in members])
        residual = weights / np.repeat(1.0 + s, [len(m) for m in members])
        self.spread = np.sqrt(1.0 + s)[:, None]
        N, S = cfg.n_antennas, cfg.n_streams
        power = np.concatenate([powers.unicast, powers.multicast])
        self.diag = np.sqrt(2.0 * (N - S) * power) if self.zf else np.sqrt(power / (2.0 * N))
        half_gains = np.concatenate([np.asarray(fading.unicast_gains, dtype=float),
                                     *(np.asarray(g, dtype=float)
                                       for g in fading.multicast_gains)]) / 2.0
        self.amp, self.power = np.sqrt(half_gains), half_gains
        self.n_antennas, self.n_users = N, half_gains.size
        self.rank = min(N, S)
        own = np.concatenate([np.arange(cfg.n_unicast),
                              cfg.n_unicast + np.repeat(np.arange(cfg.n_groups),
                                                        cfg.group_sizes)]).astype(int)
        self.unicast_blocks, self.group_blocks = [], []
        for a, b, j0, j1 in trial_blocks(cfg):
            c = residual[a:b]
            if b <= cfg.n_unicast:
                self.unicast_blocks.append((a, b, c, 1.0 - c * weights[a:b]))
                continue
            m, g = b - a, j1 - j0
            pilot = own[a:b] - j0
            sums = np.zeros((m + g, g))
            sums[np.arange(m), pilot] = weights[a:b]
            sums[m + np.arange(g), np.arange(g)] = 1.0
            rows = np.zeros((g, m))
            rows[pilot, np.arange(m)] = c
            self.group_blocks.append((a, b, j0, j1, sums, rows, np.arange(m), own[a:b]))
        self.pilots_per_block = max((j1 - j0 for _, _, j0, j1, *_ in self.group_blocks),
                                    default=0)

    def __call__(self, t):
        rng = montecarlo.trial_rng(self.seed, t)
        R = observation_basis(cn(rng, (self.n_antennas, self.diag.size)))
        return self.residual_terms(R, rng)

    def residual_terms(self, R, rng):
        """(received, desired) of every UT for the observations' factor R and
        residuals drawn from rng; None when ZF discards R."""
        try:
            R_x = (zf_factor if self.zf else mrt_factor)(R, self.diag)
        except RankDeficientDraw:
            return None
        # UT i of pilot j has h_i = c_i o_j + e_i, where e_i = z_i - c_i
        # (sum_{l in j} w_l z_l + zeta_j) for fresh unit draws z and zeta.
        # With rows per UT, (X^H h_i)^T = (Q^H e_i)^T conj(R_x) + c_i
        # (X^H o_j)^T; a block of groups forms it as one product, its
        # pilots' rank-one terms as extra rows of conj(R_x) and the draws.
        k, S, g_max = self.rank, self.diag.size, self.pilots_per_block
        lifted = np.empty((g_max + k, S), dtype=complex)
        conj_r = lifted[g_max:]
        np.conjugate(R_x, out=conj_r)
        T = R.T @ conj_r
        T *= self.spread   # T[j, s] = x_s^H o_j
        received = np.empty(self.n_users)
        desired = np.empty(self.n_users, dtype=complex)
        for a, b, c, keep in self.unicast_blocks:
            m = b - a
            draws = cn(rng, (k, 2 * m))
            e = draws[:, :m] * keep
            e -= draws[:, m:] * c
            effective = e.T @ conj_r
            effective += c[:, None] * T[a:b]
            desired[a:b] = effective[:, a:b].diagonal()
            received[a:b] = (effective.real ** 2 + effective.imag ** 2).sum(axis=1)
        for a, b, j0, j1, sums, rows, users, own in self.group_blocks:
            m, g = b - a, j1 - j0
            draws = np.empty((g + k, m + g), dtype=complex)
            draws[g:] = cn(rng, (k, m + g))
            draws[:g, :m] = rows
            top = lifted[g_max - g:]
            np.subtract(T[j0:j1], (draws[g:] @ sums).T @ conj_r, out=top[:g])
            effective = draws[:, :m].T @ top
            desired[a:b] = effective[users, own]
            received[a:b] = (effective.real ** 2 + effective.imag ** 2).sum(axis=1)
        # d = h^H x on the UT's own stream.
        return received * self.power, desired.conj() * self.amp


# ------------------------------------------------ conditional loop trials


def bartlett_factor(rng: np.random.Generator, n_antennas: int, n_streams: int) -> np.ndarray:
    """The k x S factor R of N x S unit observations Y = Q R, k = min(N, S),
    one entry at a time, in the order the trial kernel reads ``rng``: the
    upper trapezoid, row by row, of complex normals, then each diagonal
    entry made sqrt(|z_ii|^2 + 2 Gamma(N - 1 - i)), one gamma variate at a
    time."""
    N, S = n_antennas, n_streams
    k = min(N, S)
    re, im = _normal_parts(rng, (k * S - k * (k - 1) // 2,))
    R = np.zeros((k, S), dtype=complex)
    entry = 0
    for i in range(k):
        for j in range(i, S):
            R[i, j] = complex(re[entry], im[entry])
            entry += 1
    for i in range(k):
        # Products, as numpy squares an array; a numpy scalar's ** 2 calls
        # pow, which can differ from x * x in the last bit.
        x, y = R[i, i].real, R[i, i].imag
        R[i, i] = math.sqrt(x * x + y * y + 2.0 * rng.standard_gamma(N - 1.0 - i))
    return R


def error_variances_exact(cfg, fading, pilot_powers_unicast,
                          pilot_powers_multicast) -> list[Fraction]:
    """Each UT's per-coordinate estimation-error variance 2 (1 - c_i w_i) =
    2 (1 - w_i^2 / (1 + s_j)), for channels drawn at unit variance, in exact
    rational arithmetic on the pilot energies tau * power * gain."""
    tau = Fraction(cfg.pilot_length)
    pilots = [[tau * Fraction(p) * Fraction(float(b))]
              for p, b in zip(pilot_powers_unicast, fading.unicast_gains)]
    pilots += [[tau * Fraction(q) * Fraction(float(e)) for q, e in zip(q_row, e_row)]
               for q_row, e_row in zip(pilot_powers_multicast, fading.multicast_gains)]
    return [2 * (1 - energy / (1 + sum(row))) for row in pilots for energy in row]


def conditional_terms(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                      precoder, stats, R):
    """Each UT's terms given the factor R of a trial's unit observations,
    one UT and one stream at a time: the observations Y = Q R with Q the
    first k columns of the N x N identity, the loop estimator and builders
    on them, then, over the UT's estimation error e (independent of Y, of
    variance ``error_variances_exact``), E[h^H x_own] = a c o_j^H x_own and
    E|x_s^H h|^2 = a^2 (c^2 |x_s^H o_j|^2 + var(e) ||x_s||^2) per stream,
    with a = sqrt(gain/2) and c = w / (1 + s_j)."""
    N, S = cfg.n_antennas, cfg.n_streams
    members = _pilot_members(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    O = np.zeros((N, S), dtype=complex)
    O[:R.shape[0]] = R
    O *= pilot_spreads(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    # The physical observations are the unit ones over sqrt(2).
    est = estimate_loop(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                        O / math.sqrt(2.0))
    build = build_zf_precoders_loop if precoder == ZF else build_mrt_precoders_loop
    X = np.concatenate(build(cfg, est, powers, stats), axis=1)
    errors = error_variances_exact(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    gains = [float(b) for b in fading.unicast_gains]
    gains += [float(e) for row in fading.multicast_gains for e in row]
    desired = np.zeros(len(gains), dtype=complex)
    power = np.zeros((len(gains), S))
    for j, pilot in enumerate(members):
        s = sum(w * w for _, w in pilot)
        for i, w in pilot:
            a, c = math.sqrt(gains[i] / 2.0), w / (1.0 + s)
            desired[i] = a * c * np.vdot(O[:, j], X[:, j])
            for stream in range(S):
                coherent = abs(np.vdot(X[:, stream], O[:, j])) ** 2
                power[i, stream] = a * a * (c * c * coherent + float(errors[i])
                                            * np.vdot(X[:, stream], X[:, stream]).real)
    return desired, power


def conditional_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                       precoder, n_trials, seed):
    """Trials 0, 1, ..., n_trials - 1 of ``seed``, one at a time: the factor
    of each trial's observations from ``montecarlo.trial_rng``
    (``bartlett_factor``), then its ``conditional_terms``, or None for a
    trial whose draw lost rank."""
    stats = _estimation_variances(
        cfg, fading, _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast))
    for t in range(n_trials):
        R = bartlett_factor(montecarlo.trial_rng(seed, t), cfg.n_antennas, cfg.n_streams)
        try:
            yield conditional_terms(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                                    powers, precoder, stats, R)
        except RankDeficientDraw:
            yield None


# ------------------------------------------- stored-terms Monte Carlo path


@dataclass(frozen=True)
class _TrialTerms:
    """Per-trial terms for every UT, plus bookkeeping."""

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
                n_trials: int, seed: int, trials=None) -> _TrialTerms:
    require_valid(cfg, fading)
    if precoder not in PRECODERS:
        raise ValueError(f"unknown precoder {precoder!r}")
    if trials is None:
        trials = conditional_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                                    powers, precoder, n_trials, seed)

    U, G = cfg.n_unicast, cfg.n_groups
    edges = np.cumsum([U, *cfg.group_sizes]).tolist()
    uni_des = np.zeros((n_trials, U), dtype=complex)
    uni_pow_uni = np.zeros((n_trials, U, U))
    uni_pow_mu = np.zeros((n_trials, U, G))
    mu_des = [np.zeros((n_trials, k), dtype=complex) for k in cfg.group_sizes]
    mu_pow_mu = [np.zeros((n_trials, k, G)) for k in cfg.group_sizes]
    mu_pow_uni = [np.zeros((n_trials, k, U)) for k in cfg.group_sizes]

    kept = 0
    discarded = 0
    for trial in trials:
        if trial is None:
            discarded += 1
            continue
        desired, power = trial
        uni_des[kept] = desired[:U]
        uni_pow_uni[kept] = power[:U, :U]
        uni_pow_mu[kept] = power[:U, U:]
        for j, (a, b) in enumerate(zip(edges, edges[1:])):
            mu_des[j][kept] = desired[a:b]
            mu_pow_mu[j][kept] = power[a:b, U:]
            mu_pow_uni[j][kept] = power[a:b, :U]
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
                                n_trials: int, seed: int, trials=None) -> SimpleNamespace:
    """``montecarlo.validate_closed_form`` as it was over stored inner
    products: per UT the plug-in SINR, its jackknife half-width and the
    z-score (SINR - closed form) / jackknife standard error.  ``trials``,
    when given, are the run's trials, by default ``conditional_trials``."""
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    terms = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                        powers, precoder, n_trials, seed, trials)
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


# ------------------------------------------------- per-trial trial kernel


def zf_row_norms_lu(R: np.ndarray) -> np.ndarray:
    """ZF's rank rule and squared row norms of R^-1 as the kernel read them
    before it inverted a block of factors by back substitution: one LU
    inverse of one factor, RankDeficientDraw when it is singular or when
    the condition bound S sum_s ||R e_s||^2 ||row s of R^-1||^2 exceeds
    ``montecarlo.MAX_GRAM_COND`` (read at call time) or is NaN."""
    try:
        inverse = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        raise RankDeficientDraw("the observations' factor is singular") from None
    parts = inverse.view(np.float64)
    rows = np.einsum("ij,ij->i", parts, parts)
    bound = R.shape[1] * float(np.vdot(np.linalg.norm(R, axis=0) ** 2, rows))
    if not bound <= montecarlo.MAX_GRAM_COND:
        raise RankDeficientDraw(f"Gram condition bound {bound:.3g} exceeds "
                                f"{montecarlo.MAX_GRAM_COND:g}")
    return rows


def mrt_factor(R: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """MRT: each column is the matching unit observation, R in their basis,
    scaled to its power (a stream with no power has a zero column)."""
    return R * diag


def require_rank(bound: float) -> None:
    """Raise RankDeficientDraw, so that the caller discards the trial, when a
    ZF draw's condition bound exceeds ``montecarlo.MAX_GRAM_COND`` or is not
    a number: the draws the kernel's mask drops."""
    if not bound <= montecarlo.MAX_GRAM_COND:   # NaN fails the comparison too
        raise RankDeficientDraw(f"Gram condition bound {bound:.3g} exceeds "
                                f"{montecarlo.MAX_GRAM_COND:g}")


def trial_kernel(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                 precoder, seed) -> montecarlo._Kernel:
    """A run's trial kernel, given the pilot powers as the run converts them
    (``model._pilot_arrays``)."""
    pilots = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)
    return montecarlo._Kernel(cfg, fading, pilots, powers, precoder, seed)


def per_trial_factor(kernel, rng: np.random.Generator) -> np.ndarray:
    """One trial's observations' factor as the kernel drew it before trials
    ran in blocks: a fresh k x S array, its upper trapezoid from ``_cn``
    and its diagonal completed by gamma variates, from ``rng``."""
    k, S = kernel.shapes.size, kernel.diag.size
    upper = np.triu_indices(k, m=S)
    R = np.zeros((k, S), dtype=complex)
    R[upper] = cn(rng, (upper[0].size,))
    z = R.diagonal()
    R.flat[::S + 1] = np.sqrt(z.real ** 2 + z.imag ** 2
                              + 2.0 * rng.standard_gamma(kernel.shapes))
    return R


def mrt_terms_per_trial(kernel, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One trial's MRT terms (received, desired) as the kernel formed them
    before a block's per-UT gathers and coefficients ran as one: from
    R^T conj(R_x), with R_x = R D, one trial at a time."""
    R_x = mrt_factor(R, kernel.diag)
    T = R.T @ R_x.conj()   # T[j, s] = x_s^H y_j
    parts = T.view(np.float64)
    rows = np.einsum("ij,ij->i", parts, parts)[kernel.own]   # ||T_j||^2
    frobenius = float(np.vdot(R_x, R_x).real)
    received = kernel.coherent * rows
    received += kernel.incoherent * frobenius
    return received, kernel.own_scale * T.real.diagonal()[kernel.own]


def run_trials_per_trial(cfg: SystemConfig, fading: FadingProfile,
                         pilot_powers_unicast, pilot_powers_multicast,
                         powers: DownlinkPowers, precoder: str,
                         n_trials: int, seed: int) -> SimpleNamespace:
    """``montecarlo._run_trials``' sums as the run formed them before its
    trials ran in blocks: trial t alone, from ``SeedSequence(entropy=seed,
    spawn_key=(t,))`` (``trial_rng``), its factor drawn into a fresh array
    (``per_trial_factor``), ZF's row norms from an LU inverse
    (``zf_row_norms_lu``), MRT's terms from ``mrt_terms_per_trial``, and its
    terms added to the sums before the next trial draws.  The run-level
    coefficients are the kernel's."""
    stats = _estimation_variances(
        cfg, fading, _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast))
    gain, c = _precoder_factors(cfg, precoder)
    signal, interference = _sinr_terms(cfg, stats, fading, powers, gain, c)
    m1, m2 = np.sqrt(signal), interference + signal
    sums = SimpleNamespace(m1=m1, m2=m2, kept=0, discarded=0,
                           **{name: np.zeros(m1.size) for name in ("x", "xx", "y", "yy", "xy")})
    kernel = trial_kernel(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                          precoder, seed)
    for t in range(n_trials):
        R = per_trial_factor(kernel, montecarlo.trial_rng(seed, t))
        try:
            if precoder == ZF:
                frobenius = float(np.vdot(kernel.power, zf_row_norms_lu(R)))
                received = kernel.incoherent * frobenius
                received += kernel.coherent * kernel.power[kernel.own]   # T = D
                desired = kernel.own_scale * kernel.diag[kernel.own]
            else:
                received, desired = mrt_terms_per_trial(kernel, R)
        except RankDeficientDraw:
            sums.discarded += 1
            continue
        x, y = desired - m1, received - m2
        sums.x += x
        sums.xx += x * x
        sums.y += y
        sums.yy += y * y
        sums.xy += x * y
        sums.kept += 1
    return sums


def zf_interference_exact(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                          powers) -> list[Fraction]:
    """Each UT's ZF interference (beta - var) P_total, in pilot order, in
    exact rational arithmetic: beta - var = beta (1 - tau q beta / (1 + s))
    over the pilot energies s of its pilot (``error_variances_exact`` holds
    twice the bracket)."""
    gains = [Fraction(float(g)) for g in fading.unicast_gains]
    gains += [Fraction(float(e)) for row in fading.multicast_gains for e in row]
    errors = error_variances_exact(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    total = sum(map(Fraction, powers.unicast.tolist() + powers.multicast.tolist()))
    return [g * e / 2 * total for g, e in zip(gains, errors)]


# ---------------------------------------- serial streamed Monte Carlo path


def run_trials_serial(cfg: SystemConfig, fading: FadingProfile,
                      pilot_powers_unicast, pilot_powers_multicast,
                      powers: DownlinkPowers, precoder: str,
                      n_trials: int, seed: int, trials=None) -> SimpleNamespace:
    """``montecarlo._run_trials`` as one loop over stored terms: every
    trial's terms (``conditional_trials`` unless ``trials`` are given) kept,
    then summed around the closed-form moments in trial order.  It reads
    ``trial_rng`` through the ``montecarlo`` module and the builders through
    this one, so a test that replaces them there replaces them here as well.

    Besides the sums the validator reads, it returns the stored terms:
    ``desired`` and ``received``, one column per kept trial."""
    require_valid(cfg, fading)
    if precoder not in PRECODERS:
        raise ValueError(f"unknown precoder {precoder!r}")
    stats = _estimation_variances(
        cfg, fading, _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast))
    gain, c = _precoder_factors(cfg, precoder)
    signal, interference = _sinr_terms(cfg, stats, fading, powers, gain, c)
    m1, m2 = np.sqrt(signal), interference + signal

    users = cfg.n_unicast + sum(cfg.group_sizes)
    desired = np.empty((users, n_trials), dtype=complex)
    received = np.empty((users, n_trials))

    if trials is None:
        trials = conditional_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                                    powers, precoder, n_trials, seed)
    kept = 0
    discarded = 0
    for trial in trials:
        if trial is None:
            discarded += 1
            continue
        desired[:, kept], power = trial
        received[:, kept] = power.sum(axis=1)
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
    """The five per-UT sums of the stored terms (one column per trial), added
    in trial order: of x = Re d - m1, x^2, y = r - m2, y^2 and x*y."""
    sums = {name: np.zeros(m1.size) for name in ("x", "xx", "y", "yy", "xy")}
    for t in range(desired.shape[1]):
        x = desired[:, t].real - m1
        y = received[:, t] - m2
        sums["x"] += x
        sums["xx"] += x * x
        sums["y"] += y
        sums["yy"] += y * y
        sums["xy"] += x * y
    return sums


def moment_tests_two_pass(trials: SimpleNamespace) -> list[tuple[float, float, float, float]]:
    """(W, p, z, m1/SE) per UT from the stored terms of ``run_trials_serial``.

    The pair (Re d - m1, r - m2) is tested with two degrees of freedom.  A
    term whose range over the trials is within EXACT_RTOL of its moment tests
    only whether its mean is that close to the moment; without a second
    term, or with a singular covariance, the received power is tested alone,
    with one degree of freedom.  The standard error in m1/SE is at least
    EXACT_RTOL m1."""
    n = trials.kept
    normal = NormalDist()
    out = []
    for u in range(trials.m1.size):
        m1, m2 = float(trials.m1[u]), float(trials.m2[u])
        pair = np.stack([trials.desired[u].real - m1, trials.received[u] - m2])
        mean = pair.mean(axis=1)
        centred = pair - mean[:, None]
        cov = centred @ centred.T / (n - 1)
        tolerance = EXACT_RTOL * np.abs([m1, m2])
        spread = pair.max(axis=1) - pair.min(axis=1) > tolerance
        if np.any(~spread & (np.abs(mean) > tolerance)):
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
        se = max(math.sqrt(cov[0, 0] / n), EXACT_RTOL * m1)
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


# ---------------------------------------------- per-side closed form


def _rows(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-group parts of a flat per-member array."""
    bounds = offsets.tolist()
    return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))


def _joined_rows(rows) -> np.ndarray:
    """Per-group rows as one flat float64 array, group after group."""
    return np.array([x for row in rows for x in row], dtype=np.float64)


def estimation_variances_per_side(cfg: SystemConfig, fading: FadingProfile,
                                  pilot_powers_unicast, pilot_powers_multicast) -> EstimationStats:
    """The estimate variances with one formula per side, for a valid pair
    and valid pilot powers: tau*p*b^2 / (1 + tau*p*b) for a unicast UT, and
    the shared-pilot rule group by group for the multicast UTs.  The error
    variances likewise: b / (1 + tau*p*b) for a unicast UT, and for member k
    of a group e_k (1 + the other members' tau*q*e) / (1 + s), the others
    summed in a loop, those before k from the group's start and those after
    it from its end."""
    p = np.array(pilot_powers_unicast, dtype=np.float64)
    q = _joined_rows(pilot_powers_multicast)
    tau = cfg.pilot_length
    offsets = cfg.group_offsets

    b = fading.unicast_gains
    tpb = tau * p * b
    e = _joined_rows(fading.multicast_gains)
    tqe = tau * q * e
    s = _group_sums(tqe, offsets)
    others = []
    for row in _rows(tqe, offsets):
        row = row.tolist()
        for k in range(len(row)):
            before = after = 0.0
            for x in row[:k]:
                before += x
            for x in reversed(row[k + 1:]):
                after += x
            others.append(before + after)
    total = 1.0 + _per_member(s, offsets)
    return EstimationStats(unicast_var=tpb * b / (1.0 + tpb),
                           multicast_var=_rows(tqe * e / total, offsets),
                           group_var=s * s / (1.0 + s),
                           ut_error=np.concatenate([b / (1.0 + tpb),
                                                    e * (1.0 + np.array(others)) / total]))


def sinr_terms_per_side(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
                        powers: DownlinkPowers, gain: int, c: float):
    """Each side's (signal, interference) terms, (unicast UTs) and
    (multicast UTs, group by group).  The interference gain is beta under
    MRT and the error variance under ZF."""
    _check_powers(cfg, powers)
    total = powers.total
    u = cfg.n_unicast

    def terms(p, var, beta, error) -> tuple[np.ndarray, np.ndarray]:
        return gain * p * var, (beta if c == 0.0 else error) * total

    return (terms(powers.unicast, stats.unicast_var, fading.unicast_gains, stats.ut_error[:u]),
            terms(_per_member(powers.multicast, cfg.group_offsets),
                  _joined_rows(stats.multicast_var), _joined_rows(fading.multicast_gains),
                  stats.ut_error[u:]))


def se_report_per_side(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
                       powers: DownlinkPowers, gain: int, c: float) -> SeReport:
    """The SE report from ``sinr_terms_per_side``, one side at a time."""
    (uni_signal, uni_interference), (mu_signal, mu_interference) = \
        sinr_terms_per_side(cfg, stats, fading, powers, gain, c)
    uni_sinr = uni_signal / (1.0 + uni_interference)
    mu_sinr = mu_signal / (1.0 + mu_interference)
    offsets = cfg.group_offsets
    prelog = cfg.prelog
    return SeReport(
        prelog=prelog,
        unicast_se=prelog * np.log1p(uni_sinr) / LN2,
        multicast_se=_rows(prelog * np.log1p(mu_sinr) / LN2, offsets),
        unicast_sinr=uni_sinr,
        multicast_sinr=_rows(mu_sinr, offsets),
    )


# ------------------------------------------------------- per-call scores


def _score_rebuilt(cfg: SystemConfig, fading: FadingProfile, sol, pilots_unicast,
                   pilots_multicast, powers: DownlinkPowers, per_side: bool) -> SeReport:
    """Closed-form SEs at the solution's pilot length and precoder, with the
    pair validated once for both the estimation and the SINR kernel."""
    cfg_at = (cfg if sol.pilot_length == cfg.pilot_length
              else dataclasses.replace(cfg, pilot_length=sol.pilot_length))
    gain, c = _precoder_factors(cfg_at, sol.precoder)
    require_valid(cfg_at, fading)
    if per_side:
        stats = estimation_variances_per_side(cfg_at, fading, pilots_unicast, pilots_multicast)
        return se_report_per_side(cfg_at, stats, fading, powers, gain, c)
    stats = _estimation_variances(cfg_at, fading,
                                  _pilot_arrays(cfg_at, pilots_unicast, pilots_multicast))
    return _se_report(cfg_at, stats, fading, powers, gain, c)


def mmf_se_report_rebuilt(cfg: SystemConfig, fading: FadingProfile, sol,
                          p_unicast_fixed: float, per_side: bool = False) -> SeReport:
    """``allocation.mmf_se_report`` validating and estimating on every call."""
    return _score_rebuilt(cfg, fading, sol,
                          cfg.unicast_energy_caps / sol.pilot_length,
                          sol.uplink_pilot_powers,
                          DownlinkPowers(_equal_shares(p_unicast_fixed, cfg.n_unicast, "unicast"),
                                         sol.downlink_powers), per_side)


def sse_se_report_rebuilt(cfg: SystemConfig, fading: FadingProfile, sol,
                          p_multicast_fixed: float, per_side: bool = False) -> SeReport:
    """``allocation.sse_se_report`` validating and estimating on every call."""
    return _score_rebuilt(cfg, fading, sol,
                          sol.uplink_pilot_powers,
                          [caps / sol.pilot_length for caps in cfg.multicast_energy_caps],
                          DownlinkPowers(sol.downlink_powers,
                                         _equal_shares(p_multicast_fixed, cfg.n_groups,
                                                       "multicast")), per_side)


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


# ------------------------------------------------ scalar moment tests


def moment_tests_scalar(n: int, dx, dy, vx, vy, cxy, rx, ry, mx,
                        my) -> list[tuple[float, float, float]]:
    """Every UT's (W, p, z) as ``validate_closed_form`` worked them out
    before its moment tests ran as array passes: one UT at a time, in
    Python floats, from the UT's mean offsets, sample variances,
    covariance and ranges (``wald_scalar``, then ``p_and_z_scalar``)."""
    tests = []
    for terms in zip(*(np.asarray(a, dtype=float).tolist() for a in (dx, dy, vx, vy, cxy,
                                                                         rx, ry, mx, my))):
        w, dof = wald_scalar(n, *terms)
        tests.append((w, *p_and_z_scalar(w, dof)))
    return tests


def wald_scalar(n: int, dx: float, dy: float, vx: float, vy: float, cxy: float, rx: float,
                ry: float, mx: float, my: float) -> tuple[float, int]:
    """One UT's Wald statistic and degrees of freedom: an exact term (its
    range over the trials at most EXACT_RTOL of its moment) off its moment
    by more than that is a certain miss, and one on it leaves the other
    term to test alone, as does a pair too close to collinear."""
    exact_x = rx <= EXACT_RTOL * abs(mx)
    exact_y = ry <= EXACT_RTOL * abs(my)
    if (exact_x and abs(dx) > EXACT_RTOL * abs(mx)) or \
            (exact_y and abs(dy) > EXACT_RTOL * abs(my)):
        return math.inf, 1
    if not (exact_x or exact_y):
        rho = cxy / (math.sqrt(vx) * math.sqrt(vy))
        tx, ty = _score_scalar(n, dx, vx), _score_scalar(n, dy, vy)
        if abs(rho) < 1.0:
            return (tx - rho * ty) ** 2 / ((1.0 - rho) * (1.0 + rho)) + ty ** 2, 2
        return ty ** 2, 1
    if not exact_y:
        return _score_scalar(n, dy, vy) ** 2, 1
    if not exact_x:
        return _score_scalar(n, dx, vx) ** 2, 1
    return 0.0, 0


def _score_scalar(n: int, d: float, v: float) -> float:
    return d / math.sqrt(v) * math.sqrt(n)


def p_and_z_scalar(w: float, dof: int) -> tuple[float, float]:
    """The p-value of one Wald statistic and the z with P(|N(0, 1)| > z) =
    p; past W = 1412, where p/2 is subnormal, z solves the normal tail's
    asymptotic series."""
    if dof == 0:
        return 1.0, 0.0
    if dof == 1 or w == math.inf:
        return math.erfc(math.sqrt(0.5 * w)), math.sqrt(w)
    half_p = math.exp(-0.5 * w - LN2)
    if half_p >= sys.float_info.min:
        return math.exp(-0.5 * w), 0.0 - NormalDist().inv_cdf(half_p)
    log_tail = 0.5 * w + LN2
    z = math.sqrt(2.0 * log_tail)
    for _ in range(4):
        u = 1.0 / (z * z)
        z = math.sqrt(2.0 * log_tail - 2.0 * math.log(z) - math.log(2.0 * math.pi)
                      + 2.0 * math.log1p(u * (3.0 * u - 1.0)))
    return math.exp(-0.5 * w), z


# ------------------------------------------------ per-UT validation records


# The fields of a validation record, its columns in a report after kind and index.
RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(montecarlo.UserValidation))
REPORT_COLUMNS = RECORD_FIELDS[2:]


def _records(*columns) -> tuple:
    """One UserValidation per row of the columns, one column per field in
    field order, with the values as given: a frozen record's fields are
    written into its instance dictionary, as its __init__ would write them
    one at a time."""
    records = []
    for values in zip(*columns):
        record = object.__new__(montecarlo.UserValidation)
        record.__dict__.update(zip(RECORD_FIELDS, values))
        records.append(record)
    return tuple(records)


def _pass_rate(records) -> float:
    return sum(1 for r in records if abs(r.z) <= montecarlo.Z_PASS) / len(records) \
        if records else 1.0


def validation_records(report) -> SimpleNamespace:
    """A ``ValidationReport``'s records, summaries and document as the
    validator built them before the report kept columns: one record per UT
    from the columns' lists, each UT's kind and index from the layout, every
    summary a loop over the records, and the document a dict of them."""
    u = report.n_unicast
    indices = [(m,) for m in range(u)]
    indices += [(j, k) for j, size in enumerate(report.group_sizes) for k in range(size)]
    kinds = ["unicast"] * u + ["multicast"] * (len(indices) - u)
    records = _records(kinds, indices,
                       *(getattr(report, name).tolist() for name in REPORT_COLUMNS))
    rate = _pass_rate(records)
    out = SimpleNamespace(
        records=records,
        pass_rate=rate,
        passed=rate >= montecarlo.PASS_RATE,
        worst_z=max((r.z for r in records), default=0.0),
        pass_rate_by_kind={k: _pass_rate([r for r in records if r.kind == k])
                           for k in dict.fromkeys(kinds)},
        n_weak_signal=sum(1 for r in records if r.m1_over_se < montecarlo.WEAK_SIGNAL))
    out.document = {
        "precoder": report.precoder,
        "n_trials": report.n_trials,
        "n_discarded": report.n_discarded,
        "discarded_fraction": report.n_discarded / (report.n_trials + report.n_discarded),
        "pass_rate": out.pass_rate,
        "pass_rate_by_kind": out.pass_rate_by_kind,
        "worst_z": out.worst_z,
        "n_weak_signal": out.n_weak_signal,
        "passed": out.passed,
        "records": [r.to_dict() for r in records],
    }
    return out
