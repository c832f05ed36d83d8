"""Closed-form optimal resource allocation.

Two problems, each solved by one closed form for MRT and ZF precoding
alike (the precoder only sets the array gain and interference factors):

* max-min fairness over all multicast UTs (pilot energies, pilot length,
  and per-group downlink powers), given a fixed unicast power budget;
* weighted sum SE over the unicast UTs (water-filling downlink powers,
  full-cap pilots, shortest pilot length), given a fixed multicast budget.

Both solvers spend the entire remaining downlink budget and use the
shortest feasible pilot length; the max-min optimum equalizes every
multicast UT's SE.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from .closed_form import (BUDGET_RTOL, DownlinkPowers, SeReport, _precoder_factors,
                          se_report)
from .errors import DegenerateInputError
from .model import FadingProfile, SystemConfig, estimation_variances, require_valid

LN2 = math.log(2.0)


@dataclass(frozen=True)
class MmfSolution:
    """Optimal max-min multicast allocation for one power split.

    gamma is the SINR every multicast UT attains at the optimum; upsilon
    holds each group's binding pilot-quality floor; x_caps the optimal
    pilot energies (power * pilot length, capped by the energy budgets);
    b_values the per-group interference loads B_j, to which the downlink
    powers are proportional after the precoder's offset (B_j - c*P).
    """

    precoder: str
    objective: float
    pilot_length: int
    uplink_pilot_powers: tuple[tuple[float, ...], ...]
    downlink_powers: tuple[float, ...]
    gamma: float
    upsilon: tuple[float, ...]
    x_caps: tuple[tuple[float, ...], ...]
    b_values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "precoder": self.precoder,
            "objective": self.objective,
            "pilot_length": self.pilot_length,
            "uplink_pilot_powers": [list(q) for q in self.uplink_pilot_powers],
            "downlink_powers": list(self.downlink_powers),
            "gamma": self.gamma,
            "upsilon": list(self.upsilon),
            "x_caps": [list(x) for x in self.x_caps],
            "b_values": list(self.b_values),
        }


@dataclass(frozen=True)
class SseSolution:
    """Optimal weighted-sum-SE unicast allocation for one power split.

    effective_vars are the channel-estimate variances at full-cap pilot
    energy; water_level is the dual variable of the power constraint
    (+inf when the budget is zero and nothing is allocated).
    """

    precoder: str
    objective: float
    pilot_length: int
    uplink_pilot_powers: tuple[float, ...]
    downlink_powers: tuple[float, ...]
    water_level: float
    effective_vars: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "precoder": self.precoder,
            "objective": self.objective,
            "pilot_length": self.pilot_length,
            "uplink_pilot_powers": list(self.uplink_pilot_powers),
            "downlink_powers": list(self.downlink_powers),
            "water_level": self.water_level,
            "effective_vars": list(self.effective_vars),
        }


def waterfill(weights: Sequence[float], offsets: Sequence[float],
              budget: float) -> tuple[tuple[float, ...], float]:
    """Water-filling: levels_m = max(0, w_m/(nu*ln2) - o_m) exhausting the budget.

    nu is found by exact breakpoint enumeration: users sorted by w/(o*ln2)
    descending, closed-form nu per candidate active set, largest consistent
    set taken.  A zero budget returns all-zero levels with nu = +inf.
    """
    if len(weights) != len(offsets):
        raise ValueError("weights and offsets must have equal length")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if any(o <= 0 for o in offsets):
        raise ValueError("offsets must be positive")
    n = len(weights)
    if n == 0:
        raise ValueError("need at least one user")
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


def waterfill_kkt_violation(weights: Sequence[float], offsets: Sequence[float],
                            levels: Sequence[float], water_level: float) -> float:
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


def _check_split(total: float, fixed: float, name: str) -> float:
    """Validate a fixed power share and return the non-negative remainder."""
    if not (0.0 <= fixed <= total * (1.0 + BUDGET_RTOL)):
        raise ValueError(f"{name} must lie in [0, {total}], got {fixed}")
    return max(0.0, total - fixed)


def _group_quality_floors(cfg: SystemConfig, fading: FadingProfile):
    """Per-group pilot-quality floor and the optimal capped pilot energies.

    Each member's individually attainable quality is E*g^2/(1+g*P); the
    group floor is the worst of them and every member scales its pilot
    energy down to match, so the floor member sits exactly at its cap.
    """
    P = cfg.total_power
    upsilon = []
    x_caps = []
    for caps, gains in zip(cfg.multicast_energy_caps, fading.multicast_gains):
        per_user = [e * g * g / (1.0 + g * P) for e, g in zip(caps, gains)]
        floor = min(per_user)
        upsilon.append(floor)
        x_caps.append(tuple(e * (floor / q) for e, q in zip(caps, per_user)))
    return tuple(upsilon), tuple(x_caps)


def _interference_loads(cfg: SystemConfig, fading: FadingProfile,
                        upsilon: Sequence[float]) -> tuple[float, ...]:
    P = cfg.total_power
    return tuple(
        1.0 / u + sum(1.0 / g for g in gains) + len(gains) * P
        for u, gains in zip(upsilon, fading.multicast_gains)
    )


def solve_mmf(cfg: SystemConfig, fading: FadingProfile, p_unicast_fixed: float,
              precoder: str) -> MmfSolution:
    """Max-min multicast SE for a fixed unicast power.

    With the precoder's factors (gain, c), every multicast UT reaches
    gamma = gain*p_mu / sum_j (B_j - c*P) when group j gets the downlink
    power q_j = p_mu*(B_j - c*P) / sum_j (B_j - c*P).
    """
    gain, c = _precoder_factors(cfg, precoder)
    require_valid(cfg, fading)
    if cfg.n_groups == 0:
        raise DegenerateInputError("max-min multicast needs at least one group")
    p_mu = _check_split(cfg.total_power, p_unicast_fixed, "p_unicast_fixed")

    P = cfg.total_power
    tau = cfg.n_streams
    upsilon, x_caps = _group_quality_floors(cfg, fading)
    b_values = _interference_loads(cfg, fading, upsilon)
    # B_j = 1/upsilon_j + sum 1/g + K_j*P >= 1/upsilon_j + P > P, so the
    # loads below cannot vanish for a valid config; guard anyway.
    loads = tuple(b - c * P for b in b_values)
    if any(load <= 0.0 for load in loads):
        raise DegenerateInputError("degenerate group interference load (B_j <= c*P)")

    spread = sum(loads)
    gamma = gain * p_mu / spread
    prelog = 1.0 - tau / cfg.coherence_length
    return MmfSolution(
        precoder=precoder,
        objective=prelog * math.log1p(gamma) / LN2,
        pilot_length=tau,
        uplink_pilot_powers=tuple(tuple(x / tau for x in xs) for xs in x_caps),
        downlink_powers=tuple(p_mu * load / spread for load in loads),
        gamma=gamma,
        upsilon=upsilon,
        x_caps=x_caps,
        b_values=b_values,
    )


def solve_sse(cfg: SystemConfig, fading: FadingProfile, p_multicast_fixed: float,
              precoder: str) -> SseSolution:
    """Weighted sum SE of unicast UTs for a fixed multicast power.

    Water-fills over the offsets (1 + (beta - c*theta)*P) / (gain*theta),
    theta being each UT's estimate variance at full-cap pilot energy.
    """
    gain, c = _precoder_factors(cfg, precoder)
    require_valid(cfg, fading)
    if cfg.n_unicast == 0:
        raise DegenerateInputError("sum-SE allocation needs at least one unicast UT")
    budget = _check_split(cfg.total_power, p_multicast_fixed, "p_multicast_fixed")

    P = cfg.total_power
    tau = cfg.n_streams
    theta = tuple(e * b * b / (1.0 + e * b)
                  for e, b in zip(cfg.unicast_energy_caps, fading.unicast_gains))
    offsets = tuple((1.0 + (b - c * t) * P) / (gain * t)
                    for b, t in zip(fading.unicast_gains, theta))

    levels, nu = waterfill(cfg.sse_weights, offsets, budget)
    prelog = 1.0 - tau / cfg.coherence_length
    objective = prelog * sum(a * math.log1p(p / o) / LN2
                             for a, p, o in zip(cfg.sse_weights, levels, offsets))
    return SseSolution(
        precoder=precoder,
        objective=objective,
        pilot_length=tau,
        uplink_pilot_powers=tuple(e / tau for e in cfg.unicast_energy_caps),
        downlink_powers=levels,
        water_level=nu,
        effective_vars=theta,
    )


def _score(cfg: SystemConfig, fading: FadingProfile, sol: MmfSolution | SseSolution,
           pilots_unicast, pilots_multicast, powers: DownlinkPowers) -> SeReport:
    """Closed-form SEs at the solution's pilot length and precoder."""
    cfg_at = dataclasses.replace(cfg, pilot_length=sol.pilot_length)
    stats = estimation_variances(cfg_at, fading, pilots_unicast, pilots_multicast)
    return se_report(cfg_at, stats, fading, powers, sol.precoder)


def mmf_se_report(cfg: SystemConfig, fading: FadingProfile, sol: MmfSolution,
                  p_unicast_fixed: float) -> SeReport:
    """Score a max-min solution through the closed-form SE expressions.

    The solution leaves unicast pilots and the unicast power split free;
    they are filled with full-cap pilots and an equal split, which does not
    affect the multicast SEs (only the unicast total enters them).
    """
    if cfg.n_unicast == 0 and p_unicast_fixed != 0.0:
        raise DegenerateInputError("no unicast UTs to carry a nonzero unicast power")
    U = cfg.n_unicast
    return _score(cfg, fading, sol,
                  [e / sol.pilot_length for e in cfg.unicast_energy_caps],
                  sol.uplink_pilot_powers,
                  DownlinkPowers(unicast=(p_unicast_fixed / U,) * U if U else (),
                                 multicast=sol.downlink_powers))


def sse_se_report(cfg: SystemConfig, fading: FadingProfile, sol: SseSolution,
                  p_multicast_fixed: float) -> SeReport:
    """Score a sum-SE solution through the closed-form SE expressions.

    Multicast pilots and the per-group split are filled with full-cap
    pilots and an equal split; the unicast SEs only see the multicast total.
    """
    if cfg.n_groups == 0 and p_multicast_fixed != 0.0:
        raise DegenerateInputError("no multicast groups to carry a nonzero multicast power")
    G = cfg.n_groups
    return _score(cfg, fading, sol,
                  sol.uplink_pilot_powers,
                  [[e / sol.pilot_length for e in caps] for caps in cfg.multicast_energy_caps],
                  DownlinkPowers(unicast=sol.downlink_powers,
                                 multicast=(p_multicast_fixed / G,) * G if G else ()))
