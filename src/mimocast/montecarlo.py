"""Independent link-level validation of the closed-form SINR expressions.

Per trial: draw small-scale Rayleigh channels for every UT into one matrix,
run MMSE estimation with one shared pilot per multicast group, build MRT or
ZF precoders, and form every UT's effective channel to every stream.  A
trial keeps two numbers per UT: the effective channel on the UT's own
stream (the desired term) and the power the UT receives summed over all
streams.  That is 24 bytes per UT per trial; the per-stream received
powers only enter a running (UTs x streams) sum.  The empirical
SINR is assembled from sample means exactly as the definition states, with
the effective-channel variance entering as E[|x|^2] - |E[x]|^2; its
jackknife needs no more, since leaving one trial out changes a UT's total
received power by that trial's sum.  Nothing is shared with the
closed-form code path except the input parameters.

Trials use independent counter-based sub-streams derived from
(seed, trial index).  They run on worker threads, one per CPU the process
may use (at most MAX_WORKERS), each reusing its own draw, channel and
product buffers; numpy's random fills, ufuncs, BLAS and LAPACK release the
GIL.  A trial enters the running sums only once every earlier trial has
entered or been discarded, so the sums add in trial order and every result
is bit-identical whatever the number of CPUs.  A trial that raises stops
the run with the error of the lowest failing trial, as a serial loop would.
With one usable CPU the trials run on the calling thread.
"""

from __future__ import annotations

import logging
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closed_form
from .closed_form import (PRECODERS, ZF, DownlinkPowers, _precoder_factors,
                          require_zf_feasible)
from .errors import DegenerateInputError
from .model import (EstimationStats, FadingProfile, SystemConfig, _estimation_variances,
                    _pilot_arrays, _views, require_valid)

log = logging.getLogger(__name__)

# 95% two-sided normal quantile used for confidence half-widths.
Z95 = 1.959963984540054
# Gram systems with condition numbers beyond this are treated as
# rank-deficient draws (a probability-zero event) and the trial discarded.
MAX_GRAM_COND = 1e12


@dataclass(frozen=True)
class ChannelDraw:
    """One small-scale fading realization for every UT.

    ``channels`` holds one column per UT, the unicast UTs first and then
    each group's members; the other two fields are views into it.
    """

    channels: np.ndarray                         # N x (U + sum K) complex
    unicast_channels: np.ndarray                 # N x U complex
    multicast_channels: tuple[np.ndarray, ...]   # per group: N x K_g complex


@dataclass(frozen=True)
class EstimateSet:
    """MMSE channel estimates from one uplink training phase.

    Within a group every member's estimate is the composite group estimate
    scaled by a fixed real coefficient, so only the composite is stored.
    """

    unicast_estimates: np.ndarray   # N x U complex
    group_estimates: np.ndarray     # N x G complex
    member_coeffs: tuple[np.ndarray, ...]   # per group: K_g real coefficients

    def multicast_estimate(self, g: int, k: int) -> np.ndarray:
        return self.member_coeffs[g][k] * self.group_estimates[:, g]


@dataclass(frozen=True)
class TrialStatistics:
    """Sample-mean estimates of the terms in one UT's effective SINR."""

    desired_power_mean: float
    interference_unicast: tuple[float, ...]
    interference_multicast: tuple[float, ...]
    empirical_sinr: float
    confidence_halfwidth: float
    n_trials: int


@dataclass(frozen=True)
class UserValidation:
    kind: str            # "unicast" | "multicast"
    index: tuple[int, ...]
    closed_form: float
    empirical: float
    ci_halfwidth: float
    z: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "index": list(self.index),
            "closed_form": self.closed_form,
            "empirical": self.empirical,
            "ci_halfwidth": self.ci_halfwidth,
            "z": self.z,
        }


@dataclass(frozen=True)
class ValidationReport:
    precoder: str
    n_trials: int
    n_discarded: int
    records: tuple[UserValidation, ...]
    pass_rate: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "precoder": self.precoder,
            "n_trials": self.n_trials,
            "n_discarded": self.n_discarded,
            "pass_rate": self.pass_rate,
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
        }


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial, independent of all others."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def _cn_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """``rows`` standard circularly-symmetric complex Gaussian vectors of
    length n, row by row, each as its n real parts and then its n
    imaginary parts."""
    z = rng.standard_normal((rows, 2, n))
    return (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)


def _ut_blocks(cfg: SystemConfig) -> list[tuple[int, int]]:
    """Column ranges of the per-UT arrays: the unicast UTs, then each group."""
    edges = [0, *(cfg.n_unicast + cfg.group_offsets).tolist()]
    return list(zip(edges, edges[1:]))


def draw_channels(cfg: SystemConfig, fading: FadingProfile, rng_seed) -> ChannelDraw:
    """Independent Rayleigh channels with the profile's per-UT variances."""
    require_valid(cfg, fading)
    return _draw_channels(cfg, fading, rng_seed)


def _draw_buffers(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """What ``_draw_channels`` fills: the N x users channel matrix and room
    for one block's real and imaginary parts."""
    N, blocks = cfg.n_antennas, _ut_blocks(cfg)
    return (np.empty((N, blocks[-1][1]), dtype=complex),
            np.empty(2 * N * max(b - a for a, b in blocks)))


def _draw_channels(cfg: SystemConfig, fading: FadingProfile, rng_seed,
                   buffers: tuple[np.ndarray, np.ndarray] | None = None) -> ChannelDraw:
    """``draw_channels`` for a (cfg, fading) pair already validated, into
    ``buffers`` from ``_draw_buffers`` where given.

    Each block of UTs (the unicast UTs, then each group) draws its N x K
    real parts and then its N x K imaginary parts.  Scaling a part by
    1/sqrt(2) and then by the UT's sqrt(gain) gives the same bits as the
    complex arithmetic (re + 1j*im) / sqrt(2) * sqrt(gain).  Drawing block
    by block reads the generator's stream as one draw of every block would.
    """
    rng = np.random.default_rng(rng_seed)
    N = cfg.n_antennas
    amp = np.sqrt(np.concatenate([fading.unicast_gains, fading.multicast_gains_flat]))
    blocks = _ut_blocks(cfg)
    H, z = buffers or _draw_buffers(cfg)
    for a, b in blocks:
        part = z[:2 * N * (b - a)]
        rng.standard_normal(out=part)
        part *= 1.0 / math.sqrt(2.0)
        re, im = part.reshape(2, N, b - a)
        np.multiply(re, amp[a:b], out=H.real[:, a:b])
        np.multiply(im, amp[a:b], out=H.imag[:, a:b])
    return ChannelDraw(channels=H, unicast_channels=H[:, :cfg.n_unicast],
                       multicast_channels=tuple(H[:, a:b] for a, b in blocks[1:]))


def mmse_estimate(cfg: SystemConfig, fading: FadingProfile,
                  pilot_powers_unicast: Sequence[float],
                  pilot_powers_multicast: Sequence[Sequence[float]],
                  draw: ChannelDraw, noise_seed) -> EstimateSet:
    """Linear MMSE estimation from one pilot phase with fresh unit noise.

    Every member of a multicast group transmits the same pilot, so the BS
    observes the energy-weighted sum of the group's channels plus noise and
    scales it into the composite estimate; member estimates differ from it
    only by a per-member scalar.
    """
    rng = np.random.default_rng(noise_seed)
    tau = cfg.pilot_length
    N = cfg.n_antennas
    p, q = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)

    b = fading.unicast_gains
    amp = np.sqrt(tau * p)
    noise = _cn_rows(rng, cfg.n_unicast, N).T
    f_hat = (amp * b / (1.0 + tau * p * b)) * (amp * draw.unicast_channels + noise)

    g_hat = np.zeros((N, cfg.n_groups), dtype=complex)
    noise = _cn_rows(rng, cfg.n_groups, N)
    coeffs = []
    for g, (q_row, e_row) in enumerate(zip(_views(q, cfg.group_offsets), fading.multicast_gains)):
        received = draw.multicast_channels[g] @ np.sqrt(tau * q_row) + noise[g]
        s = float(np.sum(tau * q_row * e_row))
        g_hat[:, g] = (s / (1.0 + s)) * received
        coeffs.append(np.sqrt(tau * q_row) * e_row / s if s > 0 else np.zeros(len(q_row)))
    return EstimateSet(unicast_estimates=f_hat, group_estimates=g_hat,
                       member_coeffs=tuple(coeffs))


class RankDeficientDraw(RuntimeError):
    """The stacked estimate matrix lost rank in one draw; discard the trial."""


def _stream_powers(powers: DownlinkPowers) -> tuple[np.ndarray, np.ndarray]:
    p, q = powers.unicast, powers.multicast
    if (p < 0).any() or (q < 0).any():
        raise ValueError("downlink powers must be non-negative")
    return p, q


def build_mrt_precoders(cfg: SystemConfig, estimates: EstimateSet,
                        powers: DownlinkPowers, stats: EstimationStats):
    """MRT: each column is the matching estimate scaled to its power."""
    N = cfg.n_antennas

    def columns(estimates_: np.ndarray, p: np.ndarray, variances: np.ndarray, what: str):
        on = p != 0.0
        dead = np.flatnonzero(on & (variances == 0.0))
        if dead.size:
            raise DegenerateInputError(f"{what} {dead[0]} has power but no channel estimate")
        cols = np.zeros(estimates_.shape, dtype=complex)
        cols[:, on] = np.sqrt(p[on] / (N * variances[on])) * estimates_[:, on]
        return cols

    p, q = _stream_powers(powers)
    return (columns(estimates.unicast_estimates, p, stats.unicast_var, "unicast UT"),
            columns(estimates.group_estimates, q, stats.group_var, "group"))


def build_zf_precoders(cfg: SystemConfig, estimates: EstimateSet,
                       powers: DownlinkPowers, stats: EstimationStats):
    """ZF: project each stream into the null space of all other estimates.

    The construction is invariant to rescaling the estimate columns, so the
    Gram system is formed from unit-norm columns (estimate variances span
    many orders of magnitude across a cell) and solved with one
    factorization over all scaled basis vectors; no explicit inverse.  An
    ill-conditioned equilibrated Gram means the draw genuinely lost rank
    and raises RankDeficientDraw so the caller can discard the trial.
    """
    require_zf_feasible(cfg)
    dof = cfg.n_antennas - cfg.n_streams
    C = np.concatenate([estimates.unicast_estimates, estimates.group_estimates], axis=1)
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise RankDeficientDraw("estimate matrix has an all-zero column")
    Cn = C / norms
    gram = Cn.conj().T @ Cn
    # The Gram is Hermitian positive semidefinite, so its condition number is
    # the ratio of its extreme eigenvalues.
    eig = np.linalg.eigvalsh(gram)   # ascending
    if eig[0] <= 0.0 or eig[-1] > MAX_GRAM_COND * eig[0]:
        raise RankDeficientDraw(f"Gram condition number exceeds {MAX_GRAM_COND:g}")
    p, q = _stream_powers(powers)
    scales = np.sqrt(np.concatenate([dof * p * stats.unicast_var, dof * q * stats.group_var]))
    cols = Cn @ np.linalg.solve(gram, np.diag(scales / norms).astype(complex))
    return cols[:, :cfg.n_unicast], cols[:, cfg.n_unicast:]


@dataclass(frozen=True)
class _Trials:
    """What the estimator reads from the kept trials, one row per formed UT
    in ``ChannelDraw.channels`` order."""

    desired: np.ndarray      # (rows, n) complex: effective channel on the UT's own stream
    received: np.ndarray     # (rows, n): received power summed over all streams
    power_sums: np.ndarray   # (rows, streams): received power per stream, summed over trials
    n_kept: int
    n_discarded: int
    stats: EstimationStats   # the estimate variances every trial's precoders read


@dataclass(frozen=True)
class _Job:
    """What every trial of one run reads: the validated inputs, the pilot
    powers as arrays, and the ranges of UT columns whose products are formed."""

    cfg: SystemConfig
    fading: FadingProfile
    pilots_unicast: np.ndarray
    pilots_multicast: tuple[np.ndarray, ...]
    powers: DownlinkPowers
    precoder: str
    stats: EstimationStats
    seed: int
    rows: tuple[tuple[int, int], ...]
    own: np.ndarray          # each formed row's own stream

    @property
    def n_rows(self) -> int:
        return self.own.size


class _Kernel:
    """One worker's trial: draw, estimate, precode, form the products and
    the per-stream powers, into buffers allocated once per worker."""

    def __init__(self, job: _Job):
        cfg = job.cfg
        self.job = job
        self.draw = _draw_buffers(cfg)
        self.effective = np.empty((max(b - a for a, b in job.rows), cfg.n_streams),
                                  dtype=complex)
        self.power = np.empty((job.n_rows, cfg.n_streams))
        self.received = np.empty(job.n_rows)
        self.desired = np.empty(job.n_rows, dtype=complex)

    def __call__(self, t: int) -> bool:
        """Run trial t; False when its draw lost rank and is discarded."""
        job, cfg = self.job, self.job.cfg
        rng = trial_rng(job.seed, t)
        draw = _draw_channels(cfg, job.fading, rng, self.draw)
        est = mmse_estimate(cfg, job.fading, job.pilots_unicast, job.pilots_multicast,
                            draw, rng)
        try:
            if job.precoder == ZF:
                V, W = build_zf_precoders(cfg, est, job.powers, job.stats)
            else:
                V, W = build_mrt_precoders(cfg, est, job.powers, job.stats)
        except RankDeficientDraw:
            return False

        # h_u^H x_s for every formed UT u and stream s, one block of UTs
        # times V or W at a time.  Each entry then rounds as in a per-group
        # product; one product over all UTs and streams groups the sums
        # differently, and the SINR denominator amplifies last-bit changes
        # by up to the SINR.  Only the block's products are held at once.
        U, row = cfg.n_unicast, 0
        for a, b in job.rows:
            rows = slice(row, row + b - a)
            hh = draw.channels[:, a:b].conj().T
            effective, power = self.effective[:b - a], self.power[rows]
            effective[:, :U] = hh @ V
            effective[:, U:] = hh @ W
            np.abs(effective, out=power)
            np.square(power, out=power)
            power.sum(axis=1, out=self.received[rows])
            self.desired[rows] = effective[np.arange(b - a), job.own[rows]]
            row = rows.stop
        return True


class _Sums:
    """The run's accumulators, which trials enter in trial order."""

    def __init__(self, job: _Job, n_trials: int):
        self.desired = np.empty((job.n_rows, n_trials), dtype=complex)
        self.received = np.empty((job.n_rows, n_trials))
        self.power_sums = np.zeros((job.n_rows, job.cfg.n_streams))
        self.kept = 0
        self.discarded = 0

    def commit(self, kernel: _Kernel, kept: bool) -> None:
        if not kept:
            self.discarded += 1
            return
        self.power_sums += kernel.power
        self.received[:, self.kept] = kernel.received
        self.desired[:, self.kept] = kernel.desired
        self.kept += 1


# Most worker threads one run uses.  Each worker holds its own channel,
# draw and product buffers, about 2.5 MB at the paper cell (100 antennas,
# 1050 UTs, 60 streams), and adds about 3.1 MB to the peak RSS of a
# 200-trial validation there with its trial's temporaries: 3 workers stay
# within 5% of the serial loop's peak, 4 exceed it.
MAX_WORKERS = 3


def _worker_count(n_trials: int) -> int:
    """Workers for a run: the CPUs this process may use, at most one per
    trial and at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_trials, MAX_WORKERS))


class _Turnstile:
    """Hands out trials to worker threads and lets trial t commit only once
    every trial before it has committed or been discarded.

    A trial that raises stops the run when its turn comes, so the error kept
    is the one from the lowest failing trial, as in a serial loop.
    """

    def __init__(self, sums: _Sums, n_trials: int):
        self.sums = sums
        self.n_trials = n_trials
        self.cond = threading.Condition()
        self.next_trial = 0
        self.turn = 0
        self.error: BaseException | None = None

    def work(self, kernel: _Kernel) -> None:
        t = None
        try:
            while True:
                with self.cond:
                    if self.error is not None or self.next_trial == self.n_trials:
                        return
                    t = self.next_trial
                    self.next_trial += 1
                kept = kernel(t)
                with self.cond:
                    self.cond.wait_for(lambda: self.turn == t or self.error is not None)
                    if self.error is not None:
                        return
                    self.sums.commit(kernel, kept)
                    self.turn += 1
                    self.cond.notify_all()
        except BaseException as e:
            self.stop(e, t)

    def stop(self, error: BaseException, t: int | None = None) -> None:
        """Record ``error`` once every trial before t has committed (at once
        for None), unless an earlier trial's error is recorded first."""
        with self.cond:
            self.cond.wait_for(lambda: t is None or self.turn >= t or self.error is not None)
            if self.error is None:
                self.error = error
            self.cond.notify_all()

    def run(self, kernels: list[_Kernel]) -> None:
        started = []
        try:
            for i, kernel in enumerate(kernels):
                thread = threading.Thread(target=self.work, args=(kernel,),
                                          name=f"montecarlo-{i}")
                thread.start()
                started.append(thread)
            for thread in started:
                thread.join()
        except BaseException as e:   # a worker did not start, or interrupted: stop the rest
            self.stop(e)
            for thread in started:
                thread.join()
            raise
        if self.error is not None:
            raise self.error


def _run_trials(cfg: SystemConfig, fading: FadingProfile,
                pilot_powers_unicast, pilot_powers_multicast,
                powers: DownlinkPowers, precoder: str,
                n_trials: int, seed: int, target: int | None = None) -> _Trials:
    """Run the trials and keep what the estimator reads, for every UT or,
    with ``target``, for that one column of ``ChannelDraw.channels``.

    Trials run on ``_worker_count`` workers, inline on the calling thread
    when there is one, and enter the sums in trial order, so the result is
    the same bits for any worker count.
    """
    require_valid(cfg, fading)
    if precoder not in PRECODERS:
        raise ValueError(f"unknown precoder {precoder!r}")
    stats = _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    p, q = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)

    U = cfg.n_unicast
    # Each UT's own stream: its unicast stream, or its group's.
    own = np.concatenate([np.arange(U), U + np.repeat(np.arange(cfg.n_groups), cfg.group_sizes)])
    rows = tuple(_ut_blocks(cfg)) if target is None else ((target, target + 1),)
    job = _Job(cfg, fading, p, _views(q, cfg.group_offsets), powers, precoder, stats, seed,
               rows, np.concatenate([own[a:b] for a, b in rows]))
    sums = _Sums(job, n_trials)
    kernels = [_Kernel(job) for _ in range(_worker_count(n_trials))]
    if len(kernels) == 1:
        for t in range(n_trials):
            sums.commit(kernels[0], kernels[0](t))
    else:
        _Turnstile(sums, n_trials).run(kernels)

    kept, discarded = sums.kept, sums.discarded
    if discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    discarded, n_trials)
    if kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    return _Trials(desired=sums.desired[:, :kept], received=sums.received[:, :kept],
                   power_sums=sums.power_sums, n_kept=kept, n_discarded=discarded,
                   stats=job.stats)


def _sinr_from_means(des_mean: np.ndarray, power_mean: np.ndarray) -> np.ndarray:
    """Effective SINR from the term means: |E[des]|^2 over unit noise plus
    total received power minus the coherent part.

    The denominator cancels |E[des]|^2 against the received power, so an
    error in the last bit of |E[des]| moves the SINR by up to the SINR
    times that bit.  hypot rounds |E[des]| as Python's abs() does for one
    complex number; np.abs on complex arrays takes a CPU-dependent
    vectorized path that can differ in the last bit.
    """
    num = np.hypot(des_mean.real, des_mean.imag) ** 2
    return num / (1.0 - num + power_mean)


def _jackknife(trials: _Trials, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in SINR of UTs a..b-1 and its jackknife standard error over
    trials, in one pass with trials x (b - a) temporaries.

    The plug-in SINR sums the per-stream mean powers.  Leaving trial t out
    moves a UT's means to (sum - x_t) / (n - 1), with x_t its desired term
    and its received-power total, so every leave-one-out SINR comes from
    the row sums.
    """
    n = trials.n_kept
    desired, received = trials.desired[a:b], trials.received[a:b]
    des_sum = desired.sum(axis=1, keepdims=True)
    full = _sinr_from_means(des_sum[:, 0] / n, (trials.power_sums[a:b] / n).sum(axis=1))
    loo = _sinr_from_means((des_sum - desired) / (n - 1),
                           (received.sum(axis=1, keepdims=True) - received) / (n - 1))
    se = np.sqrt((n - 1) / n * np.sum((loo - loo.mean(axis=1, keepdims=True)) ** 2, axis=1))
    return full, se


def _target_column(cfg: SystemConfig, kind: str, index) -> int:
    """The per-UT column of ("unicast", m) or ("multicast", (j, k))."""
    if kind == "unicast":
        m = operator.index(index)
        if not 0 <= m < cfg.n_unicast:
            raise ValueError(f"unicast index {m} outside [0, {cfg.n_unicast})")
        return m
    if kind == "multicast":
        j, k = map(operator.index, index)
        if not 0 <= j < cfg.n_groups:
            raise ValueError(f"group index {j} outside [0, {cfg.n_groups})")
        if not 0 <= k < cfg.group_sizes[j]:
            raise ValueError(f"member index {k} outside [0, {cfg.group_sizes[j]}) of group {j}")
        return cfg.n_unicast + int(cfg.group_offsets[j]) + k
    raise ValueError(f"unknown target kind {kind!r}, expected 'unicast' or 'multicast'")


def empirical_sinr(cfg: SystemConfig, fading: FadingProfile,
                   pilot_powers_unicast, pilot_powers_multicast,
                   powers: DownlinkPowers, precoder: str,
                   kind: str, index, n_trials: int, seed: int) -> TrialStatistics:
    """Monte Carlo estimate of one UT's effective SINR.

    kind/index select the target: ("unicast", m) or ("multicast", (j, k)).
    Every trial draws, estimates and precodes for the whole cell, but forms
    only the target's products, so memory grows with the trials alone.
    """
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    trials = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                         powers, precoder, n_trials, seed,
                         target=_target_column(cfg, kind, index))
    n = trials.n_kept
    sinr, se = _jackknife(trials, 0, 1)
    means = trials.power_sums[0] / n
    return TrialStatistics(
        desired_power_mean=abs(trials.desired[0].sum() / n) ** 2,
        interference_unicast=tuple(means[:cfg.n_unicast].tolist()),
        interference_multicast=tuple(means[cfg.n_unicast:].tolist()),
        empirical_sinr=float(sinr[0]),
        confidence_halfwidth=Z95 * float(se[0]),
        n_trials=n,
    )


def validate_closed_form(cfg: SystemConfig, fading: FadingProfile,
                         pilot_powers_unicast, pilot_powers_multicast,
                         powers: DownlinkPowers, precoder: str,
                         n_trials: int, seed: int) -> ValidationReport:
    """Closed-form vs Monte Carlo SINR for every UT, with z-scores.

    Passes when at least 99% of per-user z-scores satisfy |z| <= 3.
    """
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    trials = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                         powers, precoder, n_trials, seed)
    # _run_trials validated the pair and worked out the estimate variances.
    gain, c = _precoder_factors(cfg, precoder)
    closed = closed_form._se_report(cfg, trials.stats, fading, powers, gain, c)

    # One pass per block of UTs keeps the temporaries at trials x block size.
    empirical, se = (np.concatenate(parts) for parts in
                     zip(*(_jackknife(trials, a, b) for a, b in _ut_blocks(cfg))))
    cf = np.concatenate([closed.unicast_sinr, closed.multicast_sinr_flat])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, (empirical - cf) / se, np.where(empirical == cf, 0.0, math.inf))

    targets = [("unicast", (m,)) for m in range(cfg.n_unicast)]
    targets += [("multicast", (j, k)) for j, size in enumerate(cfg.group_sizes)
                for k in range(size)]
    records = tuple(
        UserValidation(kind=kind, index=index, closed_form=c, empirical=e,
                       ci_halfwidth=h, z=zz)
        for (kind, index), c, e, h, zz in zip(targets, cf.tolist(), empirical.tolist(),
                                              (Z95 * se).tolist(), z.tolist()))

    n_ok = sum(1 for r in records if abs(r.z) <= 3.0)
    rate = n_ok / len(records) if records else 1.0
    return ValidationReport(
        precoder=precoder,
        n_trials=trials.n_kept,
        n_discarded=trials.n_discarded,
        records=records,
        pass_rate=rate,
        passed=rate >= 0.99,
    )
