"""Independent link-level validation of the closed-form SINR expressions.

Per trial: draw small-scale Rayleigh channels for every UT into one matrix,
run MMSE estimation with one shared pilot per multicast group, build MRT or
ZF precoders, and form every UT's effective channel to every stream, one
product per block of UTs.  A trial yields two numbers per UT: the effective
channel on the UT's own stream (the desired term d) and the power the UT
receives summed over all streams (r), one fused reduction over the block's
products.  ZF inverts the Gram of the unit-norm estimates once, and a draw
whose Gram may be too ill-conditioned to invert, by a bound read off that
inverse, is discarded (``_zf_columns``); no eigensolve runs.

A trial draws its channel matrix at unit variance, with standard normal
real and imaginary parts, and never rescales it.  Each UT's amplitude
a = sqrt(gain/2) enters in two places: the estimator weights (the UT's
pilot amplitude, with the noise's 1/sqrt(2) in the estimate factors), and
the UT's terms once they are formed, d times a and r times a^2.  The trial
kernel works out these weights and the precoder column scales once per
run, after the run has checked its inputs; a trial runs no check.  The
kernel is the module's one trial path, and the module's public API is
``validate_closed_form``, its ``ValidationReport`` of ``UserValidation``
records, and ``trial_rng``.

The closed-form SINR is the hardening bound m1^2 / (1 + m2 - m1^2), built
from two moments per UT, m1 = E[d] and m2 = E[r], which
``closed_form._sinr_terms`` supplies.  Each trial's d and r enter per-UT
running sums shifted by those moments (Chan, Golub & LeVeque, 1983): of
x = Re d - m1, x^2, y = r - m2, y^2, x*y and Im d.  So memory does not grow
with the number of trials.  Each UT's record tests both moments at once:
W is the Wald statistic of the mean offsets (mean x, mean y) against their
sample covariance, p = exp(-W/2) its chi-square p-value with two degrees of
freedom, and z the two-sided normal quantile of p, so that |z| <= 3 keeps
the tail probability it has for one normal score.  The empirical SINR is
the plug-in |mean d|^2 / (1 - |mean d|^2 + mean r); its interval maps each
moment's 95% interval through the SINR formula.

Besides the input parameters, two things come from the closed-form side:
the powers pass ``closed_form._check_powers``, and the precoders are scaled
by the estimate variances of ``model._estimation_variances``, which the
closed form reads too.  That does not make the check circular: the
variances only set each stream's transmit power, while d and r are
measured from the drawn channels and estimates.

Each trial draws from its own SFC64 generator, seeded by the spawn of
(seed, trial index) from one SeedSequence; spawned sequences keep the trial
streams independent.  Trials run on a pool of worker threads, one per CPU
the process may use (at most MAX_WORKERS); numpy's random draws, ufuncs,
BLAS and LAPACK release the GIL.  The calling thread keeps at most one
pending trial per worker and adds each trial's terms to the running sums
in trial order, so every result is bit-identical whatever the number of
CPUs.  A trial that raises stops the run with the error of the lowest
failing trial, as a serial loop would.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import operator
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import closed_form
from .closed_form import (LN2, ZF, DownlinkPowers, _check_powers, _precoder_factors,
                          _sinr_terms)
from .errors import DegenerateInputError
from .model import (EstimationStats, FadingProfile, SystemConfig, _estimation_variances,
                    _pilot_arrays, _views, require_valid)

log = logging.getLogger(__name__)

# 95% two-sided normal quantile used for each moment's confidence interval.
Z95 = 1.959963984540054
# A UT passes when |z| <= Z_PASS, and a report when at least PASS_RATE of
# its UTs pass.
Z_PASS = 3.0
PASS_RATE = 0.99
# A UT whose closed-form m1 lies fewer standard errors of the mean desired
# term than this from zero has an SINR the trials barely resolve: the lower
# end of a 95% interval on its mean desired term reaches zero.
WEAK_SIGNAL = 2.0
# A ZF draw whose equilibrated Gram may have a condition number beyond this
# is treated as rank-deficient (a probability-zero event) and the trial
# discarded.  ``_zf_columns`` tests an upper bound on the condition number,
# S * |trace(inverse Gram)|, which is about 10^4 on the paper cell.
MAX_GRAM_COND = 1e12


@dataclass(frozen=True)
class UserValidation:
    """One UT's closed-form SINR against its simulation.

    ``wald`` is W, ``p_value`` is p = exp(-W/2) and ``z`` is the z with
    P(|N(0, 1)| > z) = p.  ``ci_low``/``ci_high`` bound the SINR.
    ``m1_over_se`` is the closed-form m1 over the standard error of the
    mean desired term.
    """

    kind: str            # "unicast" | "multicast"
    index: tuple[int, ...]
    closed_form: float
    empirical: float
    ci_low: float
    ci_high: float
    z: float
    wald: float
    p_value: float
    m1_over_se: float

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "index": list(self.index)}


def _pass_rate(records) -> float:
    return sum(1 for r in records if abs(r.z) <= Z_PASS) / len(records) if records else 1.0


@dataclass(frozen=True)
class ValidationReport:
    precoder: str
    n_trials: int
    n_discarded: int
    records: tuple[UserValidation, ...]
    pass_rate: float
    passed: bool

    @property
    def worst_z(self) -> float:
        return max((r.z for r in self.records), default=0.0)

    @property
    def pass_rate_by_kind(self) -> dict[str, float]:
        """The pass rate of each kind of UT the report has."""
        kinds = dict.fromkeys(r.kind for r in self.records)
        return {k: _pass_rate([r for r in self.records if r.kind == k]) for k in kinds}

    @property
    def discarded_fraction(self) -> float:
        return self.n_discarded / (self.n_trials + self.n_discarded)

    @property
    def n_weak_signal(self) -> int:
        """UTs with m1/SE below WEAK_SIGNAL."""
        return sum(1 for r in self.records if r.m1_over_se < WEAK_SIGNAL)

    def to_dict(self) -> dict:
        return {
            "precoder": self.precoder,
            "n_trials": self.n_trials,
            "n_discarded": self.n_discarded,
            "discarded_fraction": self.discarded_fraction,
            "pass_rate": self.pass_rate,
            "pass_rate_by_kind": self.pass_rate_by_kind,
            "worst_z": self.worst_z,
            "n_weak_signal": self.n_weak_signal,
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, independent of all others."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.SFC64(ss))


def _cn(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries with standard normal
    real and imaginary parts (E|z|^2 = 2), drawn in C order, each as its
    real and then its imaginary part."""
    z = np.empty(shape, dtype=complex)
    rng.standard_normal(out=z.view(np.float64))
    return z


def _ut_blocks(cfg: SystemConfig) -> list[tuple[int, int]]:
    """Column ranges of the per-UT arrays: the unicast UTs, then each group."""
    edges = [0, *(cfg.n_unicast + cfg.group_offsets).tolist()]
    return list(zip(edges, edges[1:]))


class _Estimator(NamedTuple):
    """The weights of one pilot phase, fixed for a run.

    Unicast UT u's observation is amp[u] * h_u + n_u and its estimate
    factors[u] times that.  Group g's observation is its members' channels
    weighted by weights[g], plus n_g, and its estimate group_factors[g]
    times that.
    """

    amp: np.ndarray
    factors: np.ndarray
    weights: tuple[np.ndarray, ...]
    group_factors: np.ndarray


def _estimator(cfg: SystemConfig, fading: FadingProfile, p: np.ndarray,
               q: np.ndarray) -> _Estimator:
    """MMSE weights for pilot powers p (unicast) and q (flat multicast), for
    channels and noise drawn at unit variance (``_cn``).

    A UT's channel is sqrt(gain/2) times its unit draw and the noise
    1/sqrt(2) times its own, so each pilot amplitude sqrt(tau * p) takes a
    factor sqrt(gain) and each estimate factor 1/sqrt(2), and the estimates
    come out as with draws at each UT's variance.
    """
    tau = cfg.pilot_length
    b = fading.unicast_gains
    amp = np.sqrt(tau * p)
    factors = amp * b / (1.0 + tau * p * b) / math.sqrt(2.0)
    weights = np.sqrt(tau * q) * np.sqrt(fading.multicast_gains_flat)
    snr = np.array([float(np.sum(tau * q_row * e_row)) for q_row, e_row in
                    zip(_views(q, cfg.group_offsets), fading.multicast_gains)])
    return _Estimator(amp * np.sqrt(b), factors, _views(weights, cfg.group_offsets),
                      snr / (1.0 + snr) / math.sqrt(2.0))


def _estimate(rng: np.random.Generator, unicast_channels: np.ndarray,
              multicast_channels: Sequence[np.ndarray], est: _Estimator) -> np.ndarray:
    """One pilot phase with fresh noise: the N x (U + G) estimate matrix,
    the unicast UTs' estimates and then each group's composite one."""
    N, U = unicast_channels.shape
    C = np.empty((N, U + len(multicast_channels)), dtype=complex)
    noise = _cn(rng, (U, N)).T
    np.multiply(est.factors, est.amp * unicast_channels + noise, out=C[:, :U])
    noise = _cn(rng, (len(multicast_channels), N))
    for g, (channels, w, factor) in enumerate(zip(multicast_channels, est.weights,
                                                  est.group_factors)):
        np.multiply(factor, channels @ w + noise[g], out=C[:, U + g])
    return C


class RankDeficientDraw(RuntimeError):
    """The stacked estimate matrix lost rank in one draw; discard the trial."""


def _require_estimates(powers: DownlinkPowers, stats: EstimationStats, precoder: str):
    """Under either precoder, a stream with power needs a channel estimate to
    point it: a unicast UT or group with no pilot power must get no power.
    ZF also needs every other stream's estimate to null it, so under ZF
    every stream needs one, with power or without."""
    for p, variances, what in ((powers.unicast, stats.unicast_var, "unicast UT"),
                               (powers.multicast, stats.group_var, "group")):
        dead = variances == 0.0
        powered = np.flatnonzero(dead & (p != 0.0))
        if powered.size:
            raise DegenerateInputError(f"{what} {powered[0]} has power but no channel estimate")
        if precoder == ZF and dead.any():
            raise DegenerateInputError(
                f"{what} {np.flatnonzero(dead)[0]} has no channel estimate, which "
                "zero-forcing needs for every stream")


def _column_scales(cfg: SystemConfig, powers: DownlinkPowers, stats: EstimationStats,
                   precoder: str) -> np.ndarray:
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


def _mrt_columns(C: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """MRT: each column is the matching estimate scaled to its power (a
    stream with no power has scale 0, so its column is zero)."""
    return C * scales


def _zf_columns(C: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """ZF: project each stream into the null space of all other estimates.

    The construction is invariant to rescaling the estimate columns, so the
    Gram is formed from unit-norm columns (estimate variances span many
    orders of magnitude across a cell) and inverted once: each stream's
    column is the unit-norm estimates times its column of the inverse,
    scaled by the stream's scale over its estimate's norm.

    With unit-norm columns the S x S Gram has trace S >= lambda_max, and
    its inverse has trace >= 1/lambda_min, so S * |trace(inverse)| bounds
    the condition number from above, with no eigensolve.  A bound beyond
    MAX_GRAM_COND, or none (a singular or non-finite inverse), means the
    draw lost rank and raises RankDeficientDraw so the caller can discard
    the trial.
    """
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficientDraw("estimate matrix has an all-zero column")
    Cn = C / norms
    try:
        inverse = np.linalg.inv(Cn.conj().T @ Cn)
    except np.linalg.LinAlgError:
        raise RankDeficientDraw("Gram matrix is singular") from None
    # The trace's modulus: the computed Gram is Hermitian only to rounding,
    # and near rank loss its inverse's blow-up can land in the imaginary
    # part.  Summed as Python numbers, a non-finite diagonal gives inf or
    # NaN without a warning.
    bound = C.shape[1] * abs(sum(inverse.diagonal().tolist()))
    if not bound <= MAX_GRAM_COND:   # NaN fails the comparison too
        raise RankDeficientDraw(f"Gram condition bound {bound:.3g} exceeds {MAX_GRAM_COND:g}")
    inverse *= scales / norms
    return Cn @ inverse


# One trial's terms: every UT's received power summed over all streams and
# the effective channel on its own stream.
_Result = tuple[np.ndarray, np.ndarray]


class _Kernel:
    """One run's trial: draw, estimate, precode and form each UT's terms.

    Everything fixed for the run is worked out here, once: the estimator
    weights, the column scales and the per-block indices.  A trial draws
    the channels at unit variance and never rescales them; each UT's
    amplitude a = sqrt(gain/2) enters the estimator weights and, at the
    end, its terms (d times a, r times a^2).  The caller has run every
    check; a trial runs none.
    """

    def __init__(self, cfg: SystemConfig, fading: FadingProfile, pilot_powers_unicast,
                 pilot_powers_multicast, powers: DownlinkPowers, precoder: str,
                 stats: EstimationStats, seed: int):
        self.seed, self.zf = seed, precoder == ZF
        p, q = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)
        self.estimator = _estimator(cfg, fading, p, q)
        self.scales = _column_scales(cfg, powers, stats, precoder)
        half_gains = np.concatenate([fading.unicast_gains, fading.multicast_gains_flat]) / 2.0
        self.amp, self.power = np.sqrt(half_gains), half_gains
        self.shape = cfg.n_antennas, half_gains.size
        self.n_unicast = U = cfg.n_unicast
        # Each UT's own stream: its unicast stream, or its group's.
        own = np.concatenate([np.arange(U),
                              U + np.repeat(np.arange(cfg.n_groups), cfg.group_sizes)])
        self.blocks = [(a, b, np.arange(b - a), own[a:b]) for a, b in _ut_blocks(cfg)]

    def __call__(self, t: int) -> _Result | None:
        """Run trial t; None when its draw lost rank and is discarded."""
        rng = trial_rng(self.seed, t)
        H = _cn(rng, self.shape)
        C = _estimate(rng, H[:, :self.n_unicast], [H[:, a:b] for a, b, *_ in self.blocks[1:]],
                      self.estimator)
        try:
            streams = (_zf_columns if self.zf else _mrt_columns)(C, self.scales)
        except RankDeficientDraw:
            return None

        # conj(h_u^H x_s) = h_u^T conj(x_s) for every UT u and stream s, one
        # product per block of UTs, so only the block's products are held at
        # once.  One product over all UTs is faster, but it raised the peak
        # RSS of a 200-trial paper-cell validation by 0.9-2.3 MB (2-5%) with
        # one to three workers.
        np.conjugate(streams, out=streams)
        received = np.empty(self.shape[1])
        desired = np.empty(self.shape[1], dtype=complex)
        for a, b, rows, own in self.blocks:
            effective = H[:, a:b].T @ streams
            desired[a:b] = effective[rows, own].conj()
            parts = effective.view(np.float64)
            np.einsum("ij,ij->i", parts, parts, out=received[a:b])
        desired *= self.amp
        received *= self.power
        return received, desired


class _Sums:
    """Per-UT sums over the kept trials, which enter in trial order, of
    x = Re d - m1, x^2, y = r - m2, y^2, x*y and Im d; shifting by the
    closed-form moments keeps the sums of squares free of cancellation.
    ``stats`` are the estimate variances every trial's precoders read."""

    def __init__(self, m1: np.ndarray, m2: np.ndarray, stats: EstimationStats):
        self.m1, self.m2, self.stats = m1, m2, stats
        self.x, self.xx, self.y, self.yy, self.xy, self.imag = (np.zeros(m1.size)
                                                                for _ in range(6))
        self.kept = 0
        self.discarded = 0

    def commit(self, result: _Result | None) -> None:
        if result is None:
            self.discarded += 1
            return
        received, desired = result
        x = desired.real - self.m1
        y = np.subtract(received, self.m2, out=received)
        self.x += x
        self.xx += x * x
        self.y += y
        self.yy += y * y
        self.xy += x * y
        self.imag += desired.imag
        self.kept += 1


# Most worker threads one run uses.  Each worker's trial in flight holds its
# own channel matrix (1.7 MB at the paper cell: 100 antennas, 1050 UTs) and
# products.  A 200-trial validation there peaks at 40.6 MB RSS with one
# worker, 45.0 MB with three and 47.3 MB with four (MRT; ZF 41.2, 46.0 and
# 48.2 MB; median of three fresh processes each, one BLAS thread, 2-vCPU
# VM), so each worker adds about 2.2 MB.
MAX_WORKERS = 3


def _worker_count(n_trials: int) -> int:
    """Workers for a run: the CPUs this process may use, at most one per
    trial and at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_trials, MAX_WORKERS))


def _run_trials(cfg: SystemConfig, fading: FadingProfile,
                pilot_powers_unicast, pilot_powers_multicast,
                powers: DownlinkPowers, precoder: str,
                n_trials: int, seed: int) -> _Sums:
    """Run the trials and sum every UT's terms around its closed-form moments.

    Trials run on a pool of ``_worker_count`` threads.  The calling thread
    keeps at most one pending trial per thread and enters the results in
    trial order, so the sums are the same bits for any worker count and the
    error raised is the lowest failing trial's.
    """
    require_valid(cfg, fading)
    _check_powers(cfg, powers)
    gain, c = _precoder_factors(cfg, precoder)
    stats = _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    _require_estimates(powers, stats, precoder)
    signal, interference = (np.concatenate(side) for side in
                            zip(*_sinr_terms(cfg, stats, fading, powers, gain, c)))
    sums = _Sums(np.sqrt(signal), interference + signal, stats)
    workers = _worker_count(n_trials)
    kernel = _Kernel(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                     precoder, stats, seed)
    with ThreadPoolExecutor(workers, thread_name_prefix="montecarlo") as pool:
        pending = deque()
        for t in range(n_trials):
            if len(pending) == workers:
                sums.commit(pending.popleft().result())
            pending.append(pool.submit(kernel, t))
        while pending:
            sums.commit(pending.popleft().result())

    if sums.discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    sums.discarded, n_trials)
    if sums.kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    return sums


def _wald(n: int, dx: float, dy: float, vx: float, vy: float, cxy: float) -> tuple[float, int]:
    """The Wald statistic of the mean offsets (dx, dy) of n trials, whose
    terms have sample variances vx, vy and covariance cxy, and its degrees
    of freedom.

    A term with no spread over the trials is exact: an offset there is
    certain (W = inf), and no offset leaves the other term to test alone, as
    does a pair too close to collinear to invert.
    """
    if vx > 0.0 and vy > 0.0:
        rho = cxy / (math.sqrt(vx) * math.sqrt(vy))
        tx, ty = _score(n, dx, vx), _score(n, dy, vy)
        if abs(rho) < 1.0:
            return (tx - rho * ty) ** 2 / ((1.0 - rho) * (1.0 + rho)) + ty ** 2, 2
        return ty ** 2, 1
    if (vx == 0.0 and dx != 0.0) or (vy == 0.0 and dy != 0.0):
        return math.inf, 1
    for d, v in ((dy, vy), (dx, vx)):
        if v > 0.0:
            return _score(n, d, v) ** 2, 1
    return 0.0, 0


def _score(n: int, d: float, v: float) -> float:
    """The mean offset d of n trials over its standard error, for v > 0."""
    return d / math.sqrt(v) * math.sqrt(n)


_LOG_2PI = math.log(2.0 * math.pi)


def _p_and_z(w: float, dof: int) -> tuple[float, float]:
    """The p-value of a Wald statistic w with dof degrees of freedom (0, 1
    or 2), and the z with P(|N(0, 1)| > z) = p, finite for every finite w."""
    if dof == 0:
        return 1.0, 0.0
    if dof == 1 or w == math.inf:
        return math.erfc(math.sqrt(0.5 * w)), math.sqrt(w)
    half_p = math.exp(-0.5 * w - LN2)
    if half_p >= sys.float_info.min:
        # Imported here: statistics brings in decimal and fractions, 0.5 MB
        # of RSS that every program importing mimocast would otherwise pay.
        from statistics import NormalDist
        return math.exp(-0.5 * w), 0.0 - NormalDist().inv_cdf(half_p)
    # p/2 is subnormal or zero (w > 1412): solve log Q(z) = -w/2 - ln 2 for
    # the normal tail Q with its series phi(z)/z * (1 - 1/z^2 + 3/z^4 - ...),
    # whose next term, 15/z^6, is below 1e-8 at z > 37.
    log_tail = 0.5 * w + LN2
    z = math.sqrt(2.0 * log_tail)
    for _ in range(4):
        u = 1.0 / (z * z)
        z = math.sqrt(2.0 * log_tail - 2.0 * math.log(z) - _LOG_2PI
                      + 2.0 * math.log1p(u * (3.0 * u - 1.0)))
    return math.exp(-0.5 * w), z


def _sinr_at(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The SINR a^2 / (1 + b - a^2) at mean desired term a and mean
    received power b, with a below 0 taken as 0 and b below a^2 as a^2.
    Every trial's received power is at least its own |d|^2, so the moments
    keep m2 >= m1^2 >= 0, and there the SINR rises with a and falls with b:
    an interval on each moment maps to one on the SINR through its ends."""
    a2 = np.maximum(a, 0.0) ** 2
    return a2 / (1.0 + np.maximum(b - a2, 0.0))


def validate_closed_form(cfg: SystemConfig, fading: FadingProfile,
                         pilot_powers_unicast, pilot_powers_multicast,
                         powers: DownlinkPowers, precoder: str,
                         n_trials: int, seed: int) -> ValidationReport:
    """Closed-form vs Monte Carlo SINR for every UT, with the moment test.

    Passes when at least 99% of per-user scores satisfy |z| <= 3.  The
    trial count and the seed are integers (``operator.index``) and the seed
    is non-negative, so every run can be repeated; both are checked before
    the first draw.
    """
    n_trials, seed = operator.index(n_trials), operator.index(seed)
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    sums = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                       powers, precoder, n_trials, seed)
    # _run_trials validated the pair and worked out the estimate variances.
    gain, c = _precoder_factors(cfg, precoder)
    closed = closed_form._se_report(cfg, sums.stats, fading, powers, gain, c)
    cf = np.concatenate([closed.unicast_sinr, closed.multicast_sinr_flat])

    n = sums.kept
    dx, dy = sums.x / n, sums.y / n   # mean offsets from m1 and m2
    vx = np.maximum(sums.xx - sums.x * dx, 0.0) / (n - 1)
    vy = np.maximum(sums.yy - sums.y * dy, 0.0) / (n - 1)
    cxy = (sums.xy - sums.x * dy) / (n - 1)
    a, b = sums.m1 + dx, sums.m2 + dy   # mean Re d and mean r
    se_a, se_b = np.sqrt(vx / n), np.sqrt(vy / n)
    num = np.hypot(a, sums.imag / n) ** 2
    empirical = num / (1.0 - num + b)
    low, high = _sinr_at(a - Z95 * se_a, b + Z95 * se_b), _sinr_at(a + Z95 * se_a, b - Z95 * se_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        m1_over_se = np.where(sums.m1 == 0.0, 0.0, sums.m1 / se_a)
    tests = []   # (W, p, z) per UT
    for terms in zip(dx.tolist(), dy.tolist(), vx.tolist(), vy.tolist(), cxy.tolist()):
        w, dof = _wald(n, *terms)
        tests.append((w, *_p_and_z(w, dof)))

    targets = [("unicast", (m,)) for m in range(cfg.n_unicast)]
    targets += [("multicast", (j, k)) for j, size in enumerate(cfg.group_sizes)
                for k in range(size)]
    records = tuple(
        UserValidation(kind=kind, index=index, closed_form=c, empirical=e, ci_low=lo,
                       ci_high=hi, z=z, wald=w, p_value=p, m1_over_se=r)
        for (kind, index), c, e, lo, hi, (w, p, z), r in zip(
            targets, cf.tolist(), empirical.tolist(), low.tolist(), high.tolist(), tests,
            m1_over_se.tolist()))

    rate = _pass_rate(records)
    return ValidationReport(
        precoder=precoder,
        n_trials=n,
        n_discarded=sums.discarded,
        records=records,
        pass_rate=rate,
        passed=rate >= PASS_RATE,
    )
