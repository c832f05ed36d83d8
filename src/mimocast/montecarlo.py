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
received power by that trial's sum.

Besides the input parameters, two things come from the closed-form side:
the powers pass ``closed_form._check_powers``, and the precoders are scaled
by the estimate variances of ``model._estimation_variances``, which the
closed form reads too.  That does not make the check circular: the
variances only set each stream's transmit power, while the SINR is
measured from the drawn channels and estimates.

Each trial draws from its own SFC64 generator, seeded by the spawn of
(seed, trial index) from one SeedSequence; spawned sequences keep the trial
streams independent.  Trials run on a pool of worker threads, one per CPU
the process may use (at most MAX_WORKERS); numpy's random draws, ufuncs,
BLAS and LAPACK release the GIL.  The calling thread keeps at most one
pending trial per worker and adds each trial's products to the running sums
in trial order, so every result is bit-identical whatever the number of
CPUs.  A trial that raises stops the run with the error of the lowest
failing trial, as a serial loop would.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closed_form
from .closed_form import ZF, DownlinkPowers, _check_powers, _precoder_factors, require_zf_feasible
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
    """Generator for one trial, independent of all others."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.SFC64(ss))


def _cn(rng: np.random.Generator, shape: tuple[int, int], std=1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries with standard deviation
    ``std`` (a scalar, or one per column), drawn in C order, each as its real
    and then its imaginary part, and scaled once, by std/sqrt(2)."""
    z = np.empty(shape, dtype=complex)
    rng.standard_normal(out=z.view(np.float64))
    z *= std / math.sqrt(2.0)
    return z


def _ut_blocks(cfg: SystemConfig) -> list[tuple[int, int]]:
    """Column ranges of the per-UT arrays: the unicast UTs, then each group."""
    edges = [0, *(cfg.n_unicast + cfg.group_offsets).tolist()]
    return list(zip(edges, edges[1:]))


def draw_channels(cfg: SystemConfig, fading: FadingProfile, rng_seed) -> ChannelDraw:
    """Independent Rayleigh channels with the profile's per-UT variances."""
    require_valid(cfg, fading)
    return _draw_channels(cfg, fading, rng_seed)


def _draw_channels(cfg: SystemConfig, fading: FadingProfile, rng_seed) -> ChannelDraw:
    """``draw_channels`` for a (cfg, fading) pair already validated: one
    ``_cn`` draw fills the whole N x users matrix, every UT's column with
    standard deviation sqrt(gain)."""
    rng = np.random.default_rng(rng_seed)
    amp = np.sqrt(np.concatenate([fading.unicast_gains, fading.multicast_gains_flat]))
    H = _cn(rng, (cfg.n_antennas, amp.size), amp)
    return ChannelDraw(channels=H, unicast_channels=H[:, :cfg.n_unicast],
                       multicast_channels=tuple(H[:, a:b] for a, b in _ut_blocks(cfg)[1:]))


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
    noise = _cn(rng, (cfg.n_unicast, N)).T
    f_hat = (amp * b / (1.0 + tau * p * b)) * (amp * draw.unicast_channels + noise)

    g_hat = np.zeros((N, cfg.n_groups), dtype=complex)
    noise = _cn(rng, (cfg.n_groups, N))
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


def _require_estimates(powers: DownlinkPowers, stats: EstimationStats):
    """Under either precoder, a stream with power needs a channel estimate to
    point it: a unicast UT or group with no pilot power must get no power."""
    for p, variances, what in ((powers.unicast, stats.unicast_var, "unicast UT"),
                               (powers.multicast, stats.group_var, "group")):
        dead = np.flatnonzero((p != 0.0) & (variances == 0.0))
        if dead.size:
            raise DegenerateInputError(f"{what} {dead[0]} has power but no channel estimate")


def build_mrt_precoders(cfg: SystemConfig, estimates: EstimateSet,
                        powers: DownlinkPowers, stats: EstimationStats):
    """MRT: each column is the matching estimate scaled to its power."""
    N = cfg.n_antennas

    def columns(estimates_: np.ndarray, p: np.ndarray, variances: np.ndarray):
        on = p != 0.0
        cols = np.zeros(estimates_.shape, dtype=complex)
        cols[:, on] = np.sqrt(p[on] / (N * variances[on])) * estimates_[:, on]
        return cols

    _check_powers(cfg, powers)
    _require_estimates(powers, stats)
    return (columns(estimates.unicast_estimates, powers.unicast, stats.unicast_var),
            columns(estimates.group_estimates, powers.multicast, stats.group_var))


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
    _check_powers(cfg, powers)
    _require_estimates(powers, stats)
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
    scales = np.sqrt(np.concatenate([dof * powers.unicast * stats.unicast_var,
                                     dof * powers.multicast * stats.group_var]))
    cols = Cn @ np.linalg.solve(gram, np.diag(scales / norms).astype(complex))
    return cols[:, :cfg.n_unicast], cols[:, cfg.n_unicast:]


@dataclass(frozen=True)
class _Trials:
    """What the estimator reads from the kept trials, one row per UT in
    ``ChannelDraw.channels`` order."""

    desired: np.ndarray      # (users, n) complex: effective channel on the UT's own stream
    received: np.ndarray     # (users, n): received power summed over all streams
    power_sums: np.ndarray   # (users, streams): received power per stream, summed over trials
    n_kept: int
    n_discarded: int
    stats: EstimationStats   # the estimate variances every trial's precoders read


# One trial's products: every UT's per-stream received powers, their row
# sums and the effective channel on its own stream.
_Result = tuple[np.ndarray, np.ndarray, np.ndarray]


class _Kernel:
    """One run's trial: draw, estimate, precode, form the products and the
    per-stream powers.  Only the powers go into a buffer, from ``spare``."""

    def __init__(self, cfg: SystemConfig, fading: FadingProfile, pilot_powers_unicast,
                 pilot_powers_multicast, powers: DownlinkPowers, precoder: str,
                 stats: EstimationStats, seed: int, spare: deque):
        self.cfg, self.fading, self.powers, self.precoder = cfg, fading, powers, precoder
        p, q = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)
        self.pilots = p, _views(q, cfg.group_offsets)
        self.stats, self.seed, self.spare = stats, seed, spare
        self.blocks = _ut_blocks(cfg)
        U = cfg.n_unicast
        # Each UT's own stream: its unicast stream, or its group's.
        self.own = np.concatenate([np.arange(U),
                                   U + np.repeat(np.arange(cfg.n_groups), cfg.group_sizes)])

    def __call__(self, t: int) -> _Result | None:
        """Run trial t; None when its draw lost rank and is discarded."""
        cfg = self.cfg
        rng = trial_rng(self.seed, t)
        draw = _draw_channels(cfg, self.fading, rng)
        est = mmse_estimate(cfg, self.fading, *self.pilots, draw, rng)
        build = build_zf_precoders if self.precoder == ZF else build_mrt_precoders
        try:
            V, W = build(cfg, est, self.powers, self.stats)
        except RankDeficientDraw:
            return None

        # conj(h_u^H x_s) = h_u^T conj(x_s) for every UT u and stream s, one
        # product per block of UTs, so only the block's products are held at
        # once.  One product over all UTs is faster, but it raised the peak
        # RSS of a 200-trial paper-cell validation by 0.9-2.3 MB (2-5%) with
        # one to three workers.
        streams = np.concatenate([V, W], axis=1)
        np.conjugate(streams, out=streams)
        power = self.spare.pop()
        received = np.empty(self.own.size)
        desired = np.empty(self.own.size, dtype=complex)
        for a, b in self.blocks:
            effective = draw.channels[:, a:b].T @ streams
            desired[a:b] = effective[np.arange(b - a), self.own[a:b]].conj()
            parts = effective.view(np.float64)
            np.square(parts, out=parts)
            np.add(effective.real, effective.imag, out=power[a:b])
            power[a:b].sum(axis=1, out=received[a:b])
        return power, received, desired


class _Sums:
    """The run's accumulators, which trials enter in trial order, and one
    per-stream power buffer per worker: a trial takes one and entering its
    result hands it back, so with one pending trial per worker one is free."""

    def __init__(self, users: int, streams: int, n_trials: int, workers: int):
        self.desired = np.empty((users, n_trials), dtype=complex)
        self.received = np.empty((users, n_trials))
        self.power_sums = np.zeros((users, streams))
        self.spare = deque(np.empty((users, streams)) for _ in range(workers))
        self.kept = 0
        self.discarded = 0

    def commit(self, result: _Result | None) -> None:
        if result is None:
            self.discarded += 1
            return
        power, received, desired = result
        self.power_sums += power
        self.spare.append(power)
        self.received[:, self.kept] = received
        self.desired[:, self.kept] = desired
        self.kept += 1


# Most worker threads one run uses.  Each worker's trial in flight holds its
# own channel matrix (1.7 MB at the paper cell: 100 antennas, 1050 UTs) and
# products.  A 200-trial validation there peaks at 45.4 MB RSS with one
# worker, 50.0 MB with three and 52.7 MB with four (MRT; ZF 46.9, 51.8 and
# 54.9 MB), so each worker adds about 2.4 MB.
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
                n_trials: int, seed: int) -> _Trials:
    """Run the trials and keep what the estimator reads for every UT.

    Trials run on a pool of ``_worker_count`` threads.  The calling thread
    keeps at most one pending trial per thread and enters the results in
    trial order, so the sums are the same bits for any worker count and the
    error raised is the lowest failing trial's.
    """
    require_valid(cfg, fading)
    _check_powers(cfg, powers)
    _precoder_factors(cfg, precoder)
    stats = _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    _require_estimates(powers, stats)
    workers = _worker_count(n_trials)
    sums = _Sums(cfg.n_unicast + cfg.group_offsets[-1], cfg.n_streams, n_trials, workers)
    kernel = _Kernel(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                     precoder, stats, seed, sums.spare)
    with ThreadPoolExecutor(workers, thread_name_prefix="montecarlo") as pool:
        pending = deque()
        for t in range(n_trials):
            if len(pending) == workers:
                sums.commit(pending.popleft().result())
            pending.append(pool.submit(kernel, t))
        while pending:
            sums.commit(pending.popleft().result())

    kept, discarded = sums.kept, sums.discarded
    if discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    discarded, n_trials)
    if kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    return _Trials(desired=sums.desired[:, :kept], received=sums.received[:, :kept],
                   power_sums=sums.power_sums, n_kept=kept, n_discarded=discarded,
                   stats=stats)


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
