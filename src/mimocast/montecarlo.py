"""Independent link-level validation of the closed-form SINR expressions.

Per trial: draw small-scale Rayleigh channels, run MMSE estimation with one
shared pilot per multicast group, build MRT or ZF precoders, and record
every inner product entering the effective-SINR definition.  The empirical
SINR is assembled from sample means exactly as the definition states, with
the effective-channel variance entering as E[|x|^2] - |E[x]|^2; nothing is
shared with the closed-form code path except the input parameters.

Trials use independent counter-based sub-streams derived from
(seed, trial index), so results are order-independent and bit-identical
regardless of scheduling.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import closed_form
from .closed_form import PRECODERS, ZF, DownlinkPowers, require_zf_feasible
from .errors import DegenerateInputError
from .model import (EstimationStats, FadingProfile, SystemConfig, _estimation_variances,
                    _pilot_arrays, _views, estimation_variances, require_valid)

log = logging.getLogger(__name__)

# 95% two-sided normal quantile used for confidence half-widths.
Z95 = 1.959963984540054
# Gram systems with condition numbers beyond this are treated as
# rank-deficient draws (a probability-zero event) and the trial discarded.
MAX_GRAM_COND = 1e12


@dataclass(frozen=True)
class ChannelDraw:
    """One small-scale fading realization for every UT."""

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


def _cn(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _cn_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """``rows`` complex Gaussian vectors of length n, row r drawn as
    ``_cn(rng, n)`` would draw it after rows 0..r-1 (real part, then
    imaginary part, row by row)."""
    z = rng.standard_normal((rows, 2, n))
    return (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)


def draw_channels(cfg: SystemConfig, fading: FadingProfile, rng_seed) -> ChannelDraw:
    """Independent Rayleigh channels with the profile's per-UT variances."""
    require_valid(cfg, fading)
    return _draw_channels(cfg, fading, rng_seed)


def _draw_channels(cfg: SystemConfig, fading: FadingProfile, rng_seed) -> ChannelDraw:
    """``draw_channels`` for a (cfg, fading) pair already validated."""
    rng = np.random.default_rng(rng_seed)
    N = cfg.n_antennas
    uni = _cn(rng, (N, cfg.n_unicast)) * np.sqrt(np.asarray(fading.unicast_gains))
    groups = tuple(
        _cn(rng, (N, k)) * np.sqrt(np.asarray(gains))
        for k, gains in zip(cfg.group_sizes, fading.multicast_gains)
    )
    return ChannelDraw(unicast_channels=uni, multicast_channels=groups)


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
    p = np.asarray(powers.unicast, dtype=np.float64)
    q = np.asarray(powers.multicast, dtype=np.float64)
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
    if np.linalg.cond(gram) > MAX_GRAM_COND:
        raise RankDeficientDraw(f"Gram condition number exceeds {MAX_GRAM_COND:g}")
    p, q = _stream_powers(powers)
    scales = np.sqrt(np.concatenate([dof * p * stats.unicast_var, dof * q * stats.group_var]))
    cols = Cn @ np.linalg.solve(gram, np.diag(scales / norms).astype(complex))
    return cols[:, :cfg.n_unicast], cols[:, cfg.n_unicast:]


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
        rng = trial_rng(seed, t)
        draw = _draw_channels(cfg, fading, rng)
        est = mmse_estimate(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                            draw, rng)
        try:
            if precoder == ZF:
                V, W = build_zf_precoders(cfg, est, powers, stats)
            else:
                V, W = build_mrt_precoders(cfg, est, powers, stats)
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


def _statistics_for(terms: _TrialTerms, kind: str, index) -> TrialStatistics:
    des, pow_uni, pow_mu = _target_arrays(terms, kind, index)
    pow_all = np.concatenate([pow_uni, pow_mu], axis=1)
    sinr, se = _jackknife(des, pow_all)
    n = terms.n_kept
    return TrialStatistics(
        desired_power_mean=abs(des.sum() / n) ** 2,
        interference_unicast=tuple(pow_uni.mean(axis=0)),
        interference_multicast=tuple(pow_mu.mean(axis=0)),
        empirical_sinr=sinr,
        confidence_halfwidth=Z95 * se,
        n_trials=n,
    )


def empirical_sinr(cfg: SystemConfig, fading: FadingProfile,
                   pilot_powers_unicast, pilot_powers_multicast,
                   powers: DownlinkPowers, precoder: str,
                   kind: str, index, n_trials: int, seed: int) -> TrialStatistics:
    """Monte Carlo estimate of one UT's effective SINR.

    kind/index select the target: ("unicast", m) or ("multicast", (j, k)).
    """
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    terms = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                        powers, precoder, n_trials, seed)
    return _statistics_for(terms, kind, index)


def validate_closed_form(cfg: SystemConfig, fading: FadingProfile,
                         pilot_powers_unicast, pilot_powers_multicast,
                         powers: DownlinkPowers, precoder: str,
                         n_trials: int, seed: int) -> ValidationReport:
    """Closed-form vs Monte Carlo SINR for every UT, with z-scores.

    Passes when at least 99% of per-user z-scores satisfy |z| <= 3.
    """
    if n_trials < 100:
        raise ValueError(f"need at least 100 trials, got {n_trials}")
    terms = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                        powers, precoder, n_trials, seed)
    stats = estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    closed = closed_form.se_report(cfg, stats, fading, powers, precoder)

    records = []

    def add(kind, index, cf):
        ts = _statistics_for(terms, kind, index)
        se = ts.confidence_halfwidth / Z95
        if se > 0:
            z = (ts.empirical_sinr - cf) / se
        else:
            z = 0.0 if ts.empirical_sinr == cf else math.inf
        idx = (index,) if kind == "unicast" else tuple(index)
        records.append(UserValidation(kind=kind, index=idx, closed_form=cf,
                                      empirical=ts.empirical_sinr,
                                      ci_halfwidth=ts.confidence_halfwidth, z=z))

    for m, cf in enumerate(closed.unicast_sinr):
        add("unicast", m, cf)
    for j, group in enumerate(closed.multicast_sinr):
        for k, cf in enumerate(group):
            add("multicast", (j, k), cf)

    n_ok = sum(1 for r in records if abs(r.z) <= 3.0)
    rate = n_ok / len(records) if records else 1.0
    return ValidationReport(
        precoder=precoder,
        n_trials=terms.n_kept,
        n_discarded=terms.n_discarded,
        records=tuple(records),
        pass_rate=rate,
        passed=rate >= 0.99,
    )
