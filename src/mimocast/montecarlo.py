"""Independent link-level validation of the closed-form SINR expressions.

Per trial: draw every pilot's observation (each unicast UT has a pilot of
its own, each multicast group one shared pilot), form the MMSE estimates
from them, build MRT or ZF precoders, then draw what each UT's terms read
of its channel and form them.  A trial yields two numbers per UT: the
effective channel on the UT's own stream (the desired term d) and the power
the UT receives summed over all streams (r).  ZF inverts the Gram of the
unit-norm estimates once, and a draw whose Gram may be too ill-conditioned
to invert, by a bound read off that inverse, is discarded
(``_zf_columns``); no eigensolve runs.

A UT's d and r read its channel h only through the S = U + G numbers
x_s^H h, one per precoder column x_s, so a trial never draws a full
channel.  Pilot j observes o_j = sum_{i in j} w_i h_i + n_j, and a trial
draws the N x S observations, each at its own variance.  Given them, UT i
of pilot j has h_i = c_i o_j + e_i with c_i = w_i / (1 + s_j) and
s_j = sum_{i in j} w_i^2.  The residuals e_i are independent of every
observation, with the joint law of z_i - c_i (sum_{l in j} w_l z_l + zeta_j)
for fresh draws z (one per UT) and zeta (one per pilot).  The precoder
columns depend on the observations alone: X = Q R with Q orthonormal in
k = min(N, S) columns (R is the Cholesky factor of X^H X when X has full
column rank, else from one QR), and Q^H z of an isotropic draw z
independent of Q is again an isotropic draw, in k dimensions.  So a trial draws each z_i and
zeta_j in k dimensions and forms X^H h_i = c_i X^H o_j + R^H (z_i - c_i
(sum_{l in j} w_l z_l + zeta_j)): one product per block of UTs, plus one
rank-one term per group's pilot.  This is exact in law.  A trial draws
N S + k (users + S) complex numbers, where every channel and the pilot
noise would take N (users + S), and its per-UT work, k S, does not grow
with N.

Every draw has standard normal real and imaginary parts; only the
observations are scaled, each to its pilot's variance.  Each UT's amplitude
a = sqrt(gain/2) enters in two places: the estimator weights (the UT's
pilot weight w, with the noise's 1/sqrt(2) in the estimate factors), and
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

import logging
import math
import operator
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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
        return dict(vars(self), index=list(self.index))


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


def _cn(rng: np.random.Generator, shape: tuple[int, int],
        out: np.ndarray | None = None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries with standard normal
    real and imaginary parts (E|z|^2 = 2), drawn in C order, each as its
    real and then its imaginary part; into ``out``, a C-contiguous complex
    array of that shape, when given."""
    z = np.empty(shape, dtype=complex) if out is None else out
    rng.standard_normal(out=z.view(np.float64))
    return z


def _trial_blocks(cfg: SystemConfig) -> list[tuple[int, int, int, int]]:
    """The blocks of UTs a trial draws and forms one at a time, as (first UT,
    end UT, first pilot, end pilot): the unicast UTs, a pilot each, in runs
    of at most BLOCK_UTS; then runs of whole groups, each run as many
    consecutive groups as fit in BLOCK_UTS UTs, and at least one."""
    U = cfg.n_unicast
    blocks = [(a, min(a + BLOCK_UTS, U)) * 2 for a in range(0, U, BLOCK_UTS)]
    edges = (U + cfg.group_offsets).tolist()
    first = 0
    for j in range(1, cfg.n_groups + 1):
        if j == cfg.n_groups or edges[j + 1] - edges[first] > BLOCK_UTS:
            blocks.append((edges[first], edges[j], U + first, U + j))
            first = j
    return blocks


def _own_streams(cfg: SystemConfig) -> np.ndarray:
    """Each UT's own stream, which is also its pilot: its unicast stream, or
    its group's."""
    U = cfg.n_unicast
    return np.concatenate([np.arange(U),
                           U + np.repeat(np.arange(cfg.n_groups), cfg.group_sizes)])


class _Estimator(NamedTuple):
    """The weights of one pilot phase, fixed for a run, for channels and
    noise drawn at unit variance (``_cn``).

    Pilot j, a unicast UT's own or a group's shared one, observes
    o_j = sum_{i in j} w_i h_i + n_j, whose entries have parts of variance
    1 + s_j with s_j = sum_{i in j} w_i^2; its estimate is factors[j] * o_j.
    UT i of pilot j has h_i = residual[i] * o_j + e_i, with
    residual[i] = w_i / (1 + s_j) and e_i independent of every observation.
    """

    weights: np.ndarray    # w_i, per UT
    spread: np.ndarray     # sqrt(1 + s_j), per pilot
    factors: np.ndarray    # per pilot
    residual: np.ndarray   # per UT


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
    weights = np.sqrt(tau * np.concatenate([p * b, q * fading.multicast_gains_flat]))
    snr = np.concatenate([tau * p * b,
                          [float(np.sum(tau * q_row * e_row)) for q_row, e_row in
                           zip(_views(q, cfg.group_offsets), fading.multicast_gains)]])
    factors = np.concatenate([np.sqrt(tau * p) * b, snr[cfg.n_unicast:]]) / (1.0 + snr)
    return _Estimator(weights, np.sqrt(1.0 + snr), factors / math.sqrt(2.0),
                      weights / (1.0 + snr[_own_streams(cfg)]))


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


# Most UTs in one block of a trial.  A block of groups holds one
# (k + G) x (UTs + G) draw and one UTs x S product at a time: 0.8 MB for
# four groups of the paper cell (k = S = 60, 400 UTs).  Larger blocks make
# fewer and larger products, which run faster, but the peak RSS of eight
# 200-trial paper-cell validations in one process rose from 42.6 MB at 384
# UTs to 43.0 MB at 448 and 43.7 MB at 512 (2-vCPU VM).
BLOCK_UTS = 448

# One trial's terms: every UT's received power summed over all streams and
# the effective channel on its own stream.
_Result = tuple[np.ndarray, np.ndarray]


def _keep_freed_pages(n_bytes: int) -> None:
    """Allocate and free n_bytes, so that the trials' freed arrays stay
    mapped.

    glibc's malloc gives memory freed at the top of a heap back to the OS
    once it exceeds its trim threshold, 128 KiB at first.  A trial's arrays
    add up to more than that, so each trial would fault its pages in again:
    about 26 000 minor faults per 200-trial validation on the paper cell.
    Freeing a block that malloc mapped raises the threshold to twice the
    block's size, here about the most a trial holds at once.  With other
    allocators this only allocates and frees.
    """
    np.empty(n_bytes, dtype=np.uint8)


def _conj_r(X: np.ndarray, full_rank: bool, out: np.ndarray) -> None:
    """conj(R) into out, for X = Q R with Q orthonormal in k = min(N, S)
    columns: from the Cholesky factor of X^H X when X has full column rank,
    which is cheaper than a QR, unless rounding leaves that Gram indefinite;
    else from one QR."""
    if full_rank:
        try:
            # conj(X^H X) = conj(R)^H conj(R) = L L^H.
            np.conjugate(np.linalg.cholesky(X.T @ X.conj()).T, out=out)
            return
        except np.linalg.LinAlgError:
            pass
    np.conjugate(np.linalg.qr(X, mode="r"), out=out)


class _Kernel:
    """One run's trial: draw the pilot observations, estimate, precode, then
    draw each UT's channel in the span of the precoder columns and form its
    terms.

    Everything fixed for the run is worked out here, once: the estimator
    weights, the column scales and the per-block weights and indices.  A
    trial draws at unit variance; each UT's amplitude a = sqrt(gain/2)
    enters the estimator weights and, at the end, its terms (d times a, r
    times a^2).  The caller has run every check; a trial runs none.
    """

    def __init__(self, cfg: SystemConfig, fading: FadingProfile, pilot_powers_unicast,
                 pilot_powers_multicast, powers: DownlinkPowers, precoder: str,
                 stats: EstimationStats, seed: int):
        self.seed, self.zf = seed, precoder == ZF
        p, q = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)
        est = _estimator(cfg, fading, p, q)
        self.spread, self.factors = est.spread, est.factors
        self.scales = _column_scales(cfg, powers, stats, precoder)
        half_gains = np.concatenate([fading.unicast_gains, fading.multicast_gains_flat]) / 2.0
        self.amp, self.power = np.sqrt(half_gains), half_gains
        self.n_antennas, self.n_users = cfg.n_antennas, half_gains.size
        self.rank = min(cfg.n_antennas, cfg.n_streams)
        # With N >= S and every stream powered, X has full column rank.
        self.cholesky = cfg.n_antennas >= cfg.n_streams and bool(np.all(self.scales != 0.0))
        # Per block of unicast UTs, a pilot each: its UTs, their residual
        # weights c and 1 / (1 + s) = 1 - c w.  Per block of groups: its UTs
        # and pilots, the weights that sum each pilot's UT and zeta draws
        # (one column per pilot), each UT's c in its pilot's row, and each
        # UT's own stream.
        own, blocks = _own_streams(cfg), _trial_blocks(cfg)
        self.unicast_blocks, self.group_blocks = [], []
        for a, b, j0, j1 in blocks:
            c = est.residual[a:b]
            if b <= cfg.n_unicast:
                self.unicast_blocks.append((a, b, c, 1.0 - c * est.weights[a:b]))
                continue
            m, g = b - a, j1 - j0
            pilot = own[a:b] - j0
            sums = np.zeros((m + g, g))
            sums[np.arange(m), pilot] = est.weights[a:b]
            sums[m + np.arange(g), np.arange(g)] = 1.0
            rows = np.zeros((g, m))
            rows[pilot, np.arange(m)] = c
            self.group_blocks.append((a, b, j0, j1, sums, rows, np.arange(m), own[a:b]))
        self.pilots_per_block = max((j1 - j0 for _, _, j0, j1, *_ in self.group_blocks),
                                    default=0)
        # About the most a trial holds at once, in complex numbers: eight
        # N x S arrays, and a block's draws and product.
        S = cfg.n_streams
        block = max((b - a + j1 - j0) * (self.rank + j1 - j0 + S) for a, b, j0, j1 in blocks)
        _keep_freed_pages(16 * (8 * cfg.n_antennas * S + block))

    def __call__(self, t: int) -> _Result | None:
        """Run trial t; None when its draw lost rank and is discarded."""
        rng = trial_rng(self.seed, t)
        O = _cn(rng, (self.n_antennas, self.spread.size))
        O *= self.spread
        try:
            X = (_zf_columns if self.zf else _mrt_columns)(O * self.factors, self.scales)
        except RankDeficientDraw:
            return None

        # X = Q R with Q orthonormal, k = min(N, S) columns.  UT i of pilot
        # j has h_i = c_i o_j + e_i, where e_i = z_i - c_i (sum_{l in j} w_l
        # z_l + zeta_j) for fresh unit draws z and zeta: the same law, and
        # independent of every o.  Only Q^H e_i reaches X^H h_i, and it is
        # the same combination of k-dimensional draws, one column each.  So
        # with rows per UT, (X^H h_i)^T = (Q^H e_i)^T conj(R) + c_i (X^H o_j)^T.
        # A block of groups forms it as one product: its pilots' rank-one
        # terms are extra rows, of conj(R) (``lifted``) and of the draws (c).
        k, S, g_max = self.rank, self.spread.size, self.pilots_per_block
        lifted = np.empty((g_max + k, S), dtype=complex)
        conj_r = lifted[g_max:]
        _conj_r(X, self.cholesky, conj_r)
        np.conjugate(X, out=X)
        T = O.T @ X   # T[j, s] = x_s^H o_j
        received = np.empty(self.n_users)
        desired = np.empty(self.n_users, dtype=complex)
        for a, b, c, keep in self.unicast_blocks:
            # e_i = z_i / (1 + s_i) - c_i zeta_i.
            m = b - a
            draws = _cn(rng, (k, 2 * m))
            e = draws[:, :m] * keep
            e -= draws[:, m:] * c
            Y = e.T @ conj_r
            Y += c[:, None] * T[a:b]
            desired[a:b] = Y[:, a:b].diagonal()
            parts = Y.view(np.float64)
            np.einsum("ij,ij->i", parts, parts, out=received[a:b])
        for a, b, j0, j1, sums, rows, users, own in self.group_blocks:
            m, g = b - a, j1 - j0
            draws = np.empty((g + k, m + g), dtype=complex)
            _cn(rng, (k, m + g), out=draws[g:])
            draws[:g, :m] = rows
            top = lifted[g_max - g:]
            np.subtract(T[j0:j1], (draws[g:] @ sums).T @ conj_r, out=top[:g])
            Y = draws[:, :m].T @ top
            desired[a:b] = Y[users, own]
            parts = Y.view(np.float64)
            np.einsum("ij,ij->i", parts, parts, out=received[a:b])
        # d = h^H x on the UT's own stream.
        np.conjugate(desired, out=desired)
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
# own pilot observations, precoders and one block's draws and products (at
# the paper cell, 100 antennas and 1050 UTs, 0.1 MB per N x S array and
# 0.8 MB per block).  A 200-trial validation there peaks at 40.8 MB RSS
# with one worker, 44.4 MB with three and 46.3 MB with four (MRT; ZF 41.0,
# 44.9 and 46.7 MB; median of three fresh processes each, one BLAS thread,
# 2-vCPU VM), so each worker adds about 1.8 MB.
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
