"""Closed-form effective SINR and achievable SE of every unicast and
multicast UT under MRT or ZF precoding.

One expression covers every combination of precoder and traffic type; the
precoder only sets its two factors (see ``_precoder_factors``).  The
expressions are exact functions of the large-scale fading gains, the
channel-estimate variances, and the downlink power lists.  The total
transmitted power appearing in the interference terms is always recomputed
from the power lists, never passed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ZfInfeasibleError
from .model import EstimationStats, FadingProfile, SystemConfig, require_valid

MRT = "mrt"
ZF = "zf"
PRECODERS = (MRT, ZF)

# Relative slack of every power-budget check: optimal allocations sum to the
# budget up to float rounding and must not be rejected.
BUDGET_RTOL = 1e-12


@dataclass(frozen=True)
class DownlinkPowers:
    """Per-stream downlink powers: one entry per unicast UT and per group."""

    unicast: tuple[float, ...]
    multicast: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "unicast", tuple(float(p) for p in self.unicast))
        object.__setattr__(self, "multicast", tuple(float(q) for q in self.multicast))

    @property
    def p_unicast(self) -> float:
        return sum(self.unicast)

    @property
    def p_multicast(self) -> float:
        return sum(self.multicast)

    @property
    def total(self) -> float:
        return self.p_unicast + self.p_multicast

    @classmethod
    def equal_split(cls, p_unicast: float, n_unicast: int,
                    p_multicast: float, n_groups: int) -> "DownlinkPowers":
        return cls(
            unicast=(p_unicast / n_unicast,) * n_unicast if n_unicast else (),
            multicast=(p_multicast / n_groups,) * n_groups if n_groups else (),
        )


@dataclass(frozen=True)
class SeReport:
    """Achievable SEs (bits/s/Hz) and the SINRs they derive from."""

    prelog: float
    unicast_se: tuple[float, ...]
    multicast_se: tuple[tuple[float, ...], ...]
    unicast_sinr: tuple[float, ...]
    multicast_sinr: tuple[tuple[float, ...], ...]

    def min_multicast_se(self) -> float:
        return min(se for grp in self.multicast_se for se in grp)

    def weighted_sum_unicast_se(self, weights: Sequence[float]) -> float:
        return float(sum(a * se for a, se in zip(weights, self.unicast_se)))

    def to_dict(self) -> dict:
        return {
            "prelog": self.prelog,
            "unicast_se": list(self.unicast_se),
            "multicast_se": [list(g) for g in self.multicast_se],
            "unicast_sinr": list(self.unicast_sinr),
            "multicast_sinr": [list(g) for g in self.multicast_sinr],
        }


def _check_powers(cfg: SystemConfig, powers: DownlinkPowers):
    if len(powers.unicast) != cfg.n_unicast or len(powers.multicast) != cfg.n_groups:
        raise ValueError(f"power lists must have {cfg.n_unicast} unicast and "
                         f"{cfg.n_groups} multicast entries")
    if any(p < 0 for p in powers.unicast) or any(q < 0 for q in powers.multicast):
        raise ValueError("downlink powers must be non-negative")
    if powers.total > cfg.total_power * (1.0 + BUDGET_RTOL):
        raise ValueError(f"downlink powers sum to {powers.total}, exceeding the "
                         f"budget {cfg.total_power}")


def require_zf_feasible(cfg: SystemConfig):
    if cfg.n_antennas <= cfg.n_streams:
        raise ZfInfeasibleError(
            f"zero-forcing needs N > G+U, got N={cfg.n_antennas} with "
            f"G+U={cfg.n_streams} streams (zero degrees of freedom left)")


def _precoder_factors(cfg: SystemConfig, precoder: str) -> tuple[int, float]:
    """(array gain, c): the only two places MRT and ZF differ.

    A UT with large-scale gain beta and estimate variance var sees the
    array gain times its own power times var as signal and the interference
    gain beta - c*var times the total transmitted power.  MRT keeps the full
    N antennas and all of beta (c = 0); ZF spends G+U degrees of freedom
    nulling the other streams, leaving N-G-U, and cancels the estimated part
    of the channel, leaving only the estimation error beta - var (c = 1).
    """
    if precoder == MRT:
        return cfg.n_antennas, 0.0
    if precoder == ZF:
        require_zf_feasible(cfg)
        return cfg.n_antennas - cfg.n_streams, 1.0
    raise ValueError(f"unknown precoder {precoder!r}, expected one of {PRECODERS}")


def se_from_sinr(prelog: float, sinr: float) -> float:
    """SE in bits/s/Hz; log1p keeps accuracy for SINR much below one."""
    return prelog * math.log1p(sinr) / math.log(2.0)


def se_report(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
              powers: DownlinkPowers, precoder: str) -> SeReport:
    """Every UT's SINR gain*p*var / (1 + (beta - c*var)*P_total) and its SE
    with the pilot prelog, for the precoder's factors (gain, c)."""
    gain, c = _precoder_factors(cfg, precoder)
    require_valid(cfg, fading)
    return _se_report(cfg, stats, fading, powers, gain, c)


def _se_report(cfg: SystemConfig, stats: EstimationStats, fading: FadingProfile,
               powers: DownlinkPowers, gain: int, c: float) -> SeReport:
    """``se_report`` for a (cfg, fading) pair already validated, with the
    precoder's factors already looked up."""
    _check_powers(cfg, powers)
    total = powers.total

    def sinr(p: float, var: float, beta: float) -> float:
        return gain * p * var / (1.0 + (beta - c * var) * total)

    uni_sinr = tuple(sinr(p, var, beta) for p, var, beta in
                     zip(powers.unicast, stats.unicast_var, fading.unicast_gains,
                         strict=True))
    mu_sinr = tuple(tuple(sinr(q, var, beta) for var, beta in
                          zip(variances, betas, strict=True))
                    for q, variances, betas in
                    zip(powers.multicast, stats.multicast_var, fading.multicast_gains,
                        strict=True))
    prelog = cfg.prelog
    return SeReport(
        prelog=prelog,
        unicast_se=tuple(se_from_sinr(prelog, s) for s in uni_sinr),
        multicast_se=tuple(tuple(se_from_sinr(prelog, s) for s in grp) for grp in mu_sinr),
        unicast_sinr=uni_sinr,
        multicast_sinr=mu_sinr,
    )
