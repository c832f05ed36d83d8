"""Closed-form optimal resource allocation.

Two problems, each solved by one closed form for MRT and ZF precoding
alike (the precoder only sets the array gain and interference factors):

* max-min fairness over all multicast UTs (pilot energies, pilot length,
  and per-group downlink powers), given a fixed unicast power budget;
* weighted sum SE over the unicast UTs (water-filling downlink powers,
  full-cap pilots, shortest pilot length), given a fixed multicast budget.

Both solvers spend the entire remaining downlink budget and use the
shortest feasible pilot length; the max-min optimum equalizes every
multicast UT's SE.  Each problem's split-independent pieces are worked out
once, for one drop or a FadingStack: those no precoder changes
(``_mmf_pieces``, ``_sse_pieces``), then the precoder's own step
(``_mmf_problem``, ``_sse_problem``).  The solve at a split, every drop's
objective, the objective's inverse and the boundary sweep all read them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closed_form import (BUDGET_RTOL, LN2, DownlinkPowers, SeReport, _log1p,
                          _precoder_factors, _se_report, se_from_sinr)
from .errors import DegenerateInputError
from .model import (FadingProfile, FadingStack, SystemConfig, _ArrayRecord,
                    _Shared, _estimation_variances, _freeze, _group_min, _group_sums,
                    _per_member, _row_sums, _sizes, require_valid)


@dataclass(frozen=True, eq=False)
class MmfSolution(_ArrayRecord):
    """Optimal max-min multicast allocation for one power split.

    gamma is the SINR every multicast UT attains at the optimum; upsilon
    holds each group's binding pilot-quality floor; x_caps the optimal
    pilot energies (power * pilot length, capped by the energy budgets);
    b_values the per-group interference loads B_j, to which the downlink
    powers are proportional after the precoder's offset (B_j - c*P).
    Per-UT and per-group fields are read-only float64 arrays, the per-UT
    ones one view per group.
    """

    precoder: str
    objective: float
    pilot_length: int
    uplink_pilot_powers: tuple[np.ndarray, ...]
    downlink_powers: np.ndarray
    gamma: float
    upsilon: np.ndarray
    x_caps: tuple[np.ndarray, ...]
    b_values: np.ndarray

    def __post_init__(self):
        _freeze(self, ("downlink_powers", "upsilon", "b_values"),
                ("uplink_pilot_powers", "x_caps"))


@dataclass(frozen=True, eq=False)
class SseSolution(_ArrayRecord):
    """Optimal weighted-sum-SE unicast allocation for one power split.

    effective_vars are the channel-estimate variances at full-cap pilot
    energy; water_level is the dual variable of the power constraint
    (+inf when the budget is zero and nothing is allocated).  Per-UT fields
    are read-only float64 arrays.
    """

    precoder: str
    objective: float
    pilot_length: int
    uplink_pilot_powers: np.ndarray
    downlink_powers: np.ndarray
    water_level: float
    effective_vars: np.ndarray

    def __post_init__(self):
        _freeze(self, ("uplink_pilot_powers", "downlink_powers", "effective_vars"))


def _waterfill_users(weights: Sequence[float],
                     offsets: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The users' weights and offsets as float arrays, once checked."""
    if len(weights) != len(offsets):
        raise ValueError("weights and offsets must have equal length")
    w = np.asarray(weights, dtype=np.float64)
    o = np.asarray(offsets, dtype=np.float64)
    if (w <= 0).any():
        raise ValueError("weights must be positive")
    if (o <= 0).any():
        raise ValueError("offsets must be positive")
    if w.size == 0:
        raise ValueError("need at least one user")
    return w, o


def _waterfill(weights: np.ndarray, offsets: np.ndarray,
               budget: float) -> tuple[np.ndarray, np.ndarray]:
    """``waterfill`` on checked arrays: weights (U,) shared by every row of
    offsets (..., U), each row one problem with the same budget.  Returns
    the levels, shaped like the offsets, and one water level per row."""
    if budget == 0.0:
        return np.zeros(offsets.shape), np.full(offsets.shape[:-1], math.inf)
    n = weights.size
    o = offsets.reshape(-1, n)
    rows = np.arange(len(o))[:, None]
    c = weights / LN2
    order = np.argsort(-(c / o), axis=1, kind="stable")   # ties keep their input order
    c_s, o_s = c[order], o[rows, order]
    cand = np.cumsum(c_s, axis=1) / (budget + np.cumsum(o_s, axis=1))
    # The largest consistent active set ends at the last consistent candidate.
    last = np.where(cand < c_s / o_s, np.arange(n), -1).max(axis=1)
    nu = np.where(last >= 0, cand[rows[:, 0], np.maximum(last, 0)], math.nan)
    levels = np.zeros(o.shape)
    levels[rows, order] = np.where(np.arange(n) <= last[:, None],
                                   np.maximum(0.0, c_s / nu[:, None] - o_s), 0.0)
    return levels.reshape(offsets.shape), nu.reshape(offsets.shape[:-1])


def waterfill(weights: Sequence[float], offsets: Sequence[float],
              budget: float) -> tuple[np.ndarray, float]:
    """Water-filling: levels_m = max(0, w_m/(nu*ln2) - o_m) exhausting the budget.

    nu is found by exact breakpoint enumeration: users sorted by w/(o*ln2)
    descending, closed-form nu per candidate active set, largest consistent
    set taken.  A zero budget returns all-zero levels with nu = +inf.  The
    levels come as a read-only float64 array.
    """
    w, o = _waterfill_users(weights, offsets)
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    levels, nu = _waterfill(w, o, budget)
    levels.setflags(write=False)
    return levels, float(nu)


def waterfill_budget(weights: Sequence[float], offsets: Sequence[float],
                     objective: float) -> float:
    """The budget at which ``waterfill`` attains sum_m w_m*ln(1 + levels_m/o_m)
    = objective: the inverse of water-filling.

    A growing budget activates users in order of r = w/o descending.  With
    A_k the sum of the first k weights, user k+1 joins at the budget
    b_{k+1} = b_k + A_k*(1/r_{k+1} - 1/r_k), where the objective is
    f_{k+1} = f_k + A_k*ln(r_k/r_{k+1}) (b_1 = f_1 = 0).  Between two
    breakpoints the objective is f_k + A_k*ln((b + O_k)/(b_k + O_k)), O_k
    being the sum of the first k offsets and b_k + O_k = A_k/r_k, so the
    budget is b_k + A_k/r_k*expm1((f - f_k)/A_k).  Every increment is
    non-negative, and expm1 keeps budgets near zero accurate.
    """
    weights, offsets = (a.tolist() for a in _waterfill_users(weights, offsets))
    if not 0.0 <= objective < math.inf:
        raise ValueError(f"objective must be non-negative and finite, got {objective}")
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


def _check_split(total: float, fixed: float, name: str) -> float:
    """Validate a fixed power share and return the non-negative remainder."""
    if not (0.0 <= fixed <= total * (1.0 + BUDGET_RTOL)):
        raise ValueError(f"{name} must lie in [0, {total}], got {fixed}")
    return max(0.0, total - fixed)


# The split-independent pieces below read one drop (a FadingProfile) or a
# FadingStack; with a stack every result has a leading drop axis.


def _group_quality_floors(cfg: SystemConfig, fading: FadingProfile | FadingStack):
    """Per-group pilot-quality floor and the optimal capped pilot energies
    (flat, one per multicast UT).

    Each member's individually attainable quality is E*g^2/(1+g*P); the
    group floor is the worst of them and every member scales its pilot
    energy down to match, so the floor member sits exactly at its cap.
    """
    P = cfg.total_power
    caps, gains = cfg.multicast_energy_caps_flat, fading.multicast_gains_flat
    per_user = caps * gains * gains / (1.0 + gains * P)
    if not per_user.all():
        raise DegenerateInputError("a multicast UT's pilot quality underflows to zero")
    floors = _group_min(per_user, cfg.group_offsets)
    return floors, caps * (_per_member(floors, cfg.group_offsets) / per_user)


def _interference_loads(cfg: SystemConfig, fading: FadingProfile | FadingStack,
                        upsilon: np.ndarray) -> np.ndarray:
    offsets = cfg.group_offsets
    return (1.0 / upsilon + _group_sums(1.0 / fading.multicast_gains_flat, offsets)
            + _sizes(offsets) * cfg.total_power)


def _solver_prelog(cfg: SystemConfig) -> float:
    """Prelog at the solvers' pilot length, the shortest feasible one (U+G)."""
    return 1.0 - cfg.n_streams / cfg.coherence_length


def _unicast_theta(cfg: SystemConfig, fading: FadingProfile | FadingStack) -> np.ndarray:
    """Full-cap estimate variances theta, which no precoder changes."""
    if cfg.n_unicast == 0:
        raise DegenerateInputError("sum-SE allocation needs at least one unicast UT")
    e, b = cfg.unicast_energy_caps, fading.unicast_gains
    theta = e * b * b / (1.0 + e * b)
    if not theta.all():
        raise DegenerateInputError("a unicast UT's estimate variance underflows to zero")
    return theta


def _unicast_offsets(cfg: SystemConfig, gains: np.ndarray, theta: np.ndarray, gain: int,
                     c: float) -> np.ndarray:
    """The water-filling offsets (1 + (beta - c*theta)*P) / (gain*theta)
    under the precoder's factors; the split leaves them alone."""
    return (1.0 + (gains - c * theta) * cfg.total_power) / (gain * theta)


def _sum_se(prelog: float, weights: np.ndarray, levels: np.ndarray,
            offsets: np.ndarray) -> np.ndarray:
    """Weighted sum SE of water-filled levels along the last axis:
    prelog * sum a*log2(1 + p/o), with math.log1p per user and the terms
    added left to right."""
    return prelog * _row_sums(weights * _log1p(levels / offsets) / LN2)


@dataclass(frozen=True, eq=False)
class _MmfPieces:
    """What the max-min problem of a validated drop, or of every drop of a
    FadingStack, needs under any precoder: group floors upsilon_j, pilot
    energies (flat) and loads B_j."""

    cfg: SystemConfig
    upsilon: np.ndarray
    x_caps: np.ndarray
    b_values: np.ndarray

    def problem(self, precoder: str) -> _MmfProblem:
        """The problem under the precoder, which adds only its factors."""
        gain, c = _precoder_factors(self.cfg, precoder)
        # B_j = 1/upsilon_j + sum 1/g + K_j*P >= 1/upsilon_j + P > P, so the
        # loads below cannot vanish for a valid config; guard anyway.
        loads = self.b_values - c * self.cfg.total_power
        if (loads <= 0.0).any():
            raise DegenerateInputError("degenerate group interference load (B_j <= c*P)")
        return _MmfProblem(self, precoder, gain, loads, _row_sums(loads))


def _mmf_pieces(cfg: SystemConfig, fading: FadingProfile | FadingStack) -> _MmfPieces:
    """The max-min pieces of a validated pair (or config and stack)."""
    if cfg.n_groups == 0:
        raise DegenerateInputError("max-min multicast needs at least one group")
    upsilon, x_caps = _group_quality_floors(cfg, fading)
    return _MmfPieces(cfg, upsilon, x_caps, _interference_loads(cfg, fading, upsilon))


@dataclass(frozen=True, eq=False)
class _MmfProblem:
    """The max-min problem under one precoder, with everything that does
    not depend on the power split worked out once: the pieces, the
    precoder's effective loads B_j - c*P and their sum, one per drop."""

    pieces: _MmfPieces
    precoder: str
    gain: int
    loads: np.ndarray
    spread: np.ndarray

    @property
    def cfg(self) -> SystemConfig:
        return self.pieces.cfg

    def _gamma(self, p_unicast_fixed: float):
        """The multicast power and the SINR gain*p_mu / sum_j (B_j - c*P)."""
        p_mu = _check_split(self.cfg.total_power, p_unicast_fixed, "p_unicast_fixed")
        return p_mu, self.gain * p_mu / self.spread

    def objectives(self, p_unicast_fixed: float) -> np.ndarray:
        """``solve_mmf``'s objective, one per drop."""
        return _solver_prelog(self.cfg) * _log1p(self._gamma(p_unicast_fixed)[1]) / LN2

    @functools.cached_property
    def _shared(self) -> tuple[_Shared, _Shared, _Shared, _Shared]:
        """The one drop's pilot powers x/tau, pilot energies x, upsilon and
        B_j, which every solve's record shares."""
        p, offsets = self.pieces, self.cfg.group_offsets
        return (_Shared(p.x_caps / self.cfg.n_streams, offsets),
                _Shared(p.x_caps, offsets), _Shared(p.upsilon), _Shared(p.b_values))

    def solve(self, p_unicast_fixed: float) -> MmfSolution:
        """``solve_mmf`` on the one drop."""
        p_mu, gamma = self._gamma(p_unicast_fixed)
        gamma = float(gamma)
        pilot_powers, x_caps, upsilon, b_values = self._shared
        return MmfSolution(
            precoder=self.precoder,
            objective=se_from_sinr(_solver_prelog(self.cfg), gamma),
            pilot_length=self.cfg.n_streams,
            uplink_pilot_powers=pilot_powers,
            downlink_powers=p_mu * self.loads / self.spread,
            gamma=gamma,
            upsilon=upsilon,
            x_caps=x_caps,
            b_values=b_values,
        )

    def power_for(self, objective: float) -> float:
        """The multicast power at which the one drop's objective is
        ``objective``: gamma is linear in p_mu and nothing else depends on
        the split, so p_mu = expm1(objective*ln2/prelog) * sum_j (B_j - c*P) / gain."""
        return (math.expm1(objective * LN2 / _solver_prelog(self.cfg)) * float(self.spread)
                / self.gain)


def _mmf_problem(cfg: SystemConfig, fading: FadingProfile | FadingStack,
                 precoder: str) -> _MmfProblem:
    """The max-min problem of a validated pair (or config and stack)."""
    _precoder_factors(cfg, precoder)   # a precoder error comes before the pieces' own
    return _mmf_pieces(cfg, fading).problem(precoder)


@dataclass(frozen=True, eq=False)
class _SsePieces:
    """What the sum-SE problem of a validated drop, or of every drop of a
    FadingStack, needs under any precoder: the unicast gains and the
    full-cap estimate variances theta."""

    cfg: SystemConfig
    gains: np.ndarray
    theta: np.ndarray

    def problem(self, precoder: str) -> _SseProblem:
        """The problem under the precoder, whose factors set the
        water-filling offsets."""
        gain, c = _precoder_factors(self.cfg, precoder)
        return _SseProblem(self, precoder,
                           _unicast_offsets(self.cfg, self.gains, self.theta, gain, c))


def _sse_pieces(cfg: SystemConfig, fading: FadingProfile | FadingStack) -> _SsePieces:
    """The sum-SE pieces of a validated pair (or config and stack)."""
    return _SsePieces(cfg, fading.unicast_gains, _unicast_theta(cfg, fading))


@dataclass(frozen=True, eq=False)
class _SseProblem:
    """The sum-SE problem under one precoder: the pieces and the
    water-filling offsets, worked out once."""

    pieces: _SsePieces
    precoder: str
    offsets: np.ndarray

    @property
    def cfg(self) -> SystemConfig:
        return self.pieces.cfg

    def _fill(self, p_multicast_fixed: float):
        """Water-filled levels, water levels and objectives, one per drop."""
        budget = _check_split(self.cfg.total_power, p_multicast_fixed, "p_multicast_fixed")
        levels, nu = _waterfill(self.cfg.sse_weights, self.offsets, budget)
        return levels, nu, _sum_se(_solver_prelog(self.cfg), self.cfg.sse_weights, levels,
                                   self.offsets)

    def objectives(self, p_multicast_fixed: float) -> np.ndarray:
        """``solve_sse``'s objective, one per drop."""
        return self._fill(p_multicast_fixed)[2]

    @functools.cached_property
    def _shared(self) -> tuple[_Shared, _Shared]:
        """The one drop's full-cap pilot powers at the solvers' pilot length
        and theta, which every solve's record shares."""
        return (_Shared(self.cfg.unicast_energy_caps / self.cfg.n_streams),
                _Shared(self.pieces.theta))

    def solve(self, p_multicast_fixed: float) -> SseSolution:
        """``solve_sse`` on the one drop."""
        levels, nu, objective = self._fill(p_multicast_fixed)
        pilot_powers, theta = self._shared
        return SseSolution(
            precoder=self.precoder,
            objective=float(objective),
            pilot_length=self.cfg.n_streams,
            uplink_pilot_powers=pilot_powers,
            downlink_powers=levels,
            water_level=float(nu),
            effective_vars=theta,
        )

    def power_for(self, objective: float) -> float:
        """The unicast power at which the one drop's objective is
        ``objective``: ``waterfill_budget`` over the solver's offsets."""
        return waterfill_budget(self.cfg.sse_weights, self.offsets,
                                objective * LN2 / _solver_prelog(self.cfg))


def _sse_problem(cfg: SystemConfig, fading: FadingProfile | FadingStack,
                 precoder: str) -> _SseProblem:
    """The sum-SE problem of a validated pair (or config and stack)."""
    _precoder_factors(cfg, precoder)   # a precoder error comes before the pieces' own
    return _sse_pieces(cfg, fading).problem(precoder)


def solve_mmf(cfg: SystemConfig, fading: FadingProfile, p_unicast_fixed: float,
              precoder: str) -> MmfSolution:
    """Max-min multicast SE for a fixed unicast power.

    With the precoder's factors (gain, c), every multicast UT reaches
    gamma = gain*p_mu / sum_j (B_j - c*P) when group j gets the downlink
    power q_j = p_mu*(B_j - c*P) / sum_j (B_j - c*P).
    """
    require_valid(cfg, fading)
    return _mmf_problem(cfg, fading, precoder).solve(p_unicast_fixed)


def solve_sse(cfg: SystemConfig, fading: FadingProfile, p_multicast_fixed: float,
              precoder: str) -> SseSolution:
    """Weighted sum SE of unicast UTs for a fixed multicast power.

    Water-fills over the offsets (1 + (beta - c*theta)*P) / (gain*theta),
    theta being each UT's estimate variance at full-cap pilot energy.
    """
    require_valid(cfg, fading)
    return _sse_problem(cfg, fading, precoder).solve(p_multicast_fixed)


def _score(cfg: SystemConfig, fading: FadingProfile, sol: MmfSolution | SseSolution,
           pilots_unicast, pilots_multicast, powers: DownlinkPowers) -> SeReport:
    """Closed-form SEs at the solution's pilot length and precoder, with the
    pair validated once for both the estimation and the SINR kernel."""
    cfg_at = (cfg if sol.pilot_length == cfg.pilot_length
              else dataclasses.replace(cfg, pilot_length=sol.pilot_length))
    gain, c = _precoder_factors(cfg_at, sol.precoder)
    require_valid(cfg_at, fading)
    stats = _estimation_variances(cfg_at, fading, pilots_unicast, pilots_multicast)
    return _se_report(cfg_at, stats, fading, powers, gain, c)


def mmf_se_report(cfg: SystemConfig, fading: FadingProfile, sol: MmfSolution,
                  p_unicast_fixed: float) -> SeReport:
    """Score a max-min solution through the closed-form SE expressions.

    The solution leaves unicast pilots and the unicast power split free;
    they are filled with full-cap pilots and an equal split, which does not
    affect the multicast SEs (only the unicast total enters them).
    """
    if cfg.n_unicast == 0 and p_unicast_fixed != 0.0:
        raise DegenerateInputError("no unicast UTs to carry a nonzero unicast power")
    equal = DownlinkPowers.equal_split(p_unicast_fixed, cfg.n_unicast, 0.0, 0)
    return _score(cfg, fading, sol,
                  cfg.unicast_energy_caps / sol.pilot_length,
                  sol.uplink_pilot_powers,
                  DownlinkPowers(equal.unicast, sol.downlink_powers))


def sse_se_report(cfg: SystemConfig, fading: FadingProfile, sol: SseSolution,
                  p_multicast_fixed: float) -> SeReport:
    """Score a sum-SE solution through the closed-form SE expressions.

    Multicast pilots and the per-group split are filled with full-cap
    pilots and an equal split; the unicast SEs only see the multicast total.
    """
    if cfg.n_groups == 0 and p_multicast_fixed != 0.0:
        raise DegenerateInputError("no multicast groups to carry a nonzero multicast power")
    equal = DownlinkPowers.equal_split(0.0, 0, p_multicast_fixed, cfg.n_groups)
    return _score(cfg, fading, sol,
                  sol.uplink_pilot_powers,
                  [caps / sol.pilot_length for caps in cfg.multicast_energy_caps],
                  DownlinkPowers(sol.downlink_powers, equal.multicast))
