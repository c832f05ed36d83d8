"""Closed-form effective SINR and achievable SE of every unicast and
multicast UT under MRT or ZF precoding.

One expression covers every combination of precoder and traffic type; the
precoder only sets its two factors (see ``_precoder_factors``).  The
expressions are exact functions of the large-scale fading gains, the
channel-estimate variances, and the downlink power lists.  The total
transmitted power appearing in the interference terms is always recomputed
from the power lists, never passed separately, and read once per report.

Every SE, scalar or array, is prelog * log1p(SINR) / ln 2 through one
rule, numpy's ``log1p`` ufunc (``se_from_sinr`` and ``_se_report``, and the
allocation problems' objectives): it gives a 0-d, a strided and a
contiguous argument the same bits, so an objective and the report that
scores it agree bit for bit.  It may differ from ``math.log1p`` in the last
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, ZfInfeasibleError
from .model import (EstimationStats, FadingProfile, SystemConfig, _ArrayRecord, _owned,
                    _per_member, _read_only, _side, _store, require_valid)

MRT = "mrt"
ZF = "zf"
PRECODERS = (MRT, ZF)
LN2 = math.log(2.0)

# Relative slack of every power-budget check: optimal allocations sum to the
# budget up to float rounding and must not be rejected.
BUDGET_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class DownlinkPowers(_ArrayRecord):
    """Per-stream downlink powers: one entry per unicast UT and per group,
    stored in stream order in ``stream_powers``, read as slices of it."""

    unicast: np.ndarray = _side("stream_powers", 0, "stream_offsets")
    multicast: np.ndarray = _side("stream_powers", 1, "stream_offsets")
    stream_powers: np.ndarray = field(init=False, repr=False)
    stream_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _store(self)

    @property
    def p_unicast(self) -> float:
        return sum(self.stream_powers[:self.stream_offsets[1]].tolist())

    @property
    def p_multicast(self) -> float:
        return sum(self.stream_powers[self.stream_offsets[1]:].tolist())

    @property
    def total(self) -> float:
        return self.p_unicast + self.p_multicast

    @classmethod
    def equal_split(cls, p_unicast: float, n_unicast: int,
                    p_multicast: float, n_groups: int) -> "DownlinkPowers":
        return cls(unicast=_equal_shares(p_unicast, n_unicast, "unicast"),
                   multicast=_equal_shares(p_multicast, n_groups, "multicast"))


def _equal_shares(p: float, n: int, side: str) -> np.ndarray:
    """n equal shares of a side's power p.  A side without streams has
    nowhere to send power, so it must be given none."""
    if n == 0 and p != 0.0:
        streams = "unicast UTs" if side == "unicast" else "multicast groups"
        raise DegenerateInputError(f"no {streams} to carry a nonzero {side} power")
    return np.full(n, p / max(n, 1))   # empty, not p/0


@dataclass(frozen=True, eq=False)
class SeReport(_ArrayRecord):
    """Achievable SEs (bits/s/Hz) and the SINRs they derive from.

    Every UT's SE and SINR are stored in ``ut_se`` and ``ut_sinr``, read as
    read-only float64 views of them, the multicast ones one per group.
    """

    prelog: float
    unicast_se: np.ndarray = _side("ut_se", 0)
    multicast_se: tuple[np.ndarray, ...] = _side("ut_se", slice(1, None))
    unicast_sinr: np.ndarray = _side("ut_sinr", 0)
    multicast_sinr: tuple[np.ndarray, ...] = _side("ut_sinr", slice(1, None))
    ut_se: np.ndarray = field(init=False, repr=False)
    ut_sinr: np.ndarray = field(init=False, repr=False)
    ut_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _store(self)

    def min_multicast_se(self) -> float:
        if self.ut_se.size == self.ut_offsets[1]:
            raise DegenerateInputError("the minimum multicast SE needs at least one group")
        return float(self.ut_se[self.ut_offsets[1]:].min())

    def weighted_sum_unicast_se(self, weights: Sequence[float]) -> float:
        """sum_m weights[m] * unicast_se[m]; one weight per unicast UT."""
        return float(sum(a * se for a, se in zip(weights, self.unicast_se, strict=True)))


def _check_powers(cfg: SystemConfig, powers: DownlinkPowers) -> float:
    """Check the power lists against the config and return their total."""
    if powers.stream_offsets.tolist() != [0, cfg.n_unicast, cfg.n_streams]:
        raise ValueError(f"power lists must have {cfg.n_unicast} unicast and "
                         f"{cfg.n_groups} multicast entries")
    # Written so that NaN, which fails every comparison, fails both checks.
    if not (powers.stream_powers >= 0).all():
        raise ValueError("downlink powers must be non-negative")
    total = powers.total
    if not total <= cfg.total_power * (1.0 + BUDGET_RTOL):
        raise ValueError(f"downlink powers sum to {total}, exceeding the "
                         f"budget {cfg.total_power}")
    return total


def require_zf_feasible(cfg: SystemConfig):
    if cfg.n_antennas <= cfg.n_streams:
        raise ZfInfeasibleError(
            f"zero-forcing needs N > G+U, got N={cfg.n_antennas} with "
            f"G+U={cfg.n_streams} streams (zero degrees of freedom left)")


def _precoder_factors(cfg: SystemConfig, precoder: str,
                      n_antennas: np.ndarray | None = None) -> tuple[int | np.ndarray, float]:
    """(array gain, c): the only two places MRT and ZF differ.

    A UT with large-scale gain beta and estimate variance var sees the
    array gain times its own power times var as signal and the interference
    gain beta - c*var times the total transmitted power.  MRT keeps the full
    N antennas and all of beta (c = 0); ZF spends G+U degrees of freedom
    nulling the other streams, leaving N-G-U, and cancels the estimated part
    of the channel, leaving only the estimation error beta - var (c = 1).

    Given an array of antenna counts to take in place of the config's, the
    gain is an array with one entry per count, NaN where ZF cannot serve
    that count, and nothing is raised.
    """
    if precoder == MRT:
        return (cfg.n_antennas if n_antennas is None else n_antennas), 0.0
    if precoder == ZF:
        if n_antennas is None:
            require_zf_feasible(cfg)
            return cfg.n_antennas - cfg.n_streams, 1.0
        return np.where(n_antennas > cfg.n_streams, n_antennas - cfg.n_streams, np.nan), 1.0
    raise ValueError(f"unknown precoder {precoder!r}, expected one of {PRECODERS}")


def _interference_gain(c: float, gains: np.ndarray, var: np.ndarray,
                       error: np.ndarray | None) -> np.ndarray:
    """beta - c*var (see ``_precoder_factors``), which the SINR terms and
    the sum-SE offsets read: under ZF the error, beta - var only if None."""
    if c == 0.0:
        return gains
    return gains - var if error is None else error


def se_from_sinr(prelog: float, sinr: float) -> float:
    """SE in bits/s/Hz; log1p keeps accuracy for SINR much below one.  The
    same ufunc as every array SE, so a scalar rounds as an array entry does."""
    return float(prelog * np.log1p(sinr) / LN2)


def se_report(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
              powers: DownlinkPowers, precoder: str) -> SeReport:
    """Every UT's SINR gain*p*var / (1 + (beta - c*var)*P_total) and its SE
    with the pilot prelog, for the precoder's factors (gain, c)."""
    gain, c = _precoder_factors(cfg, precoder)
    require_valid(cfg, fading)
    return _se_report(cfg, stats, fading, powers, gain, c)


def _sinr_terms(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
                powers: DownlinkPowers, gain: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Every UT's two terms of the hardening bound, in pilot order
    (``SystemConfig.pilot_offsets``): the coherent power gain*p*var, with p
    the power of the UT's own stream, and the interference
    (beta - c*var)*P_total.

    They are the two moments the Monte Carlo validator simulates: the
    desired term h^H w has mean m1 = sqrt(gain*p*var), and the power a UT
    receives over all streams has mean m2 = (beta - c*var)*P_total +
    gain*p*var, so SINR = m1^2 / (1 + m2 - m1^2).
    """
    total = _check_powers(cfg, powers)
    if stats.ut_offsets.tolist() != cfg.ut_offsets.tolist():
        raise ValueError("estimation stats must be shaped like the config")
    var = stats.ut_var
    p = _per_member(powers.stream_powers, cfg.pilot_offsets)
    leaked = _interference_gain(c, fading.ut_gains, var, stats.ut_error)
    return gain * p * var, leaked * total


def _se_report(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
               powers: DownlinkPowers, gain: int, c: float) -> SeReport:
    """``se_report`` for a (cfg, fading) pair already validated, with the
    precoder's factors already looked up."""
    signal, interference = _sinr_terms(cfg, stats, fading, powers, gain, c)
    sinr = _read_only(signal / (1.0 + interference))
    prelog = cfg.prelog
    se = _read_only(prelog * np.log1p(sinr) / LN2)
    return _owned(SeReport, prelog=prelog, ut_se=se, ut_sinr=sinr, ut_offsets=cfg.ut_offsets)
