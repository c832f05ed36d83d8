"""Closed-form optimal resource allocation.

Two problems, each solved by one closed form for MRT and ZF precoding
alike (the precoder only sets the array gain and interference factors):

* max-min fairness over all multicast UTs (pilot energies, pilot length,
  and per-group downlink powers), given a fixed unicast power budget;
* weighted sum SE over the unicast UTs (water-filling downlink powers,
  full-cap pilots, shortest pilot length), given a fixed multicast budget.

Both solvers spend the entire remaining downlink budget and use the
shortest feasible pilot length; the max-min optimum equalizes every
multicast UT's SE.  Each objective is one problem class, built for one
drop or a FadingStack under one precoder (``_mmf_problem``,
``_sse_problem``): it holds the arrays no precoder changes and the ones the
precoder's factors set, and ``under`` gives the same problem under another
precoder, sharing the precoder-free arrays.  The solve at a split, every
drop's objective, the objective's inverse and the boundary sweep all read
the problem.  Each solution keeps the problem that built it, and the
scores (``mmf_se_report``, ``sse_se_report``) read that problem's
split-independent work too: the config at the solution's pilot length and
the estimate variances, which every solution of one problem shares.  They
do so only for the very pair the problem was built from, which was
validated then.  The sum-SE problem's estimate and error variances are
the model's (``model._mmse_variances``), the very values its scores read.
It also keeps the water-filling pieces no split changes, worked out on
first use: ``_FillOrder``, the only code here that orders users, holds
them by c/o with their sorted weights, c and o, prefix sums and ratios,
and builds ``waterfill_budget``'s segments from those arrays.  So a solve
at a split only divides and tests and its inverse bisects the segments,
with the bits ``waterfill`` and ``waterfill_budget`` give, which read the
same object.  Every objective takes its SEs through the one log1p rule of
``closed_form``, so it equals the report that scores it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closed_form import (BUDGET_RTOL, LN2, DownlinkPowers, SeReport, _equal_shares,
                          _interference_gain, _precoder_factors, _se_report,
                          se_from_sinr)
from .errors import DegenerateInputError
from .model import (EstimationStats, FadingProfile, FadingStack, SystemConfig, _ArrayRecord,
                    _Shared, _estimation_variances, _freeze, _group_min, _group_sums,
                    _mmse_variances, _per_member, _pilot_arrays, _read_only, _real, _row_sums,
                    _sizes, _vector, _within, require_valid)


def _problem_field():
    """The problem a solve records on its solution, out of every field list."""
    return dataclasses.field(default=None, init=False, repr=False, compare=False)


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
    _problem: _MmfProblem | None = _problem_field()

    def __post_init__(self):
        _freeze(self, ("downlink_powers", "upsilon", "b_values"),
                ("uplink_pilot_powers", "x_caps"))


@dataclass(frozen=True, eq=False)
class SseSolution(_ArrayRecord):
    """Optimal weighted-sum-SE unicast allocation for one power split.

    effective_vars are the estimate variances at full-cap pilot energy that
    ``sse_se_report`` scores with; water_level is the dual variable of the
    power constraint (+inf when the budget is zero and nothing is
    allocated).  Per-UT fields are read-only float64 arrays.
    """

    precoder: str
    objective: float
    pilot_length: int
    uplink_pilot_powers: np.ndarray
    downlink_powers: np.ndarray
    water_level: float
    effective_vars: np.ndarray
    _problem: _SseProblem | None = _problem_field()

    def __post_init__(self):
        _freeze(self, ("uplink_pilot_powers", "downlink_powers", "effective_vars"))


def _waterfill_users(weights: Sequence[float],
                     offsets: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The users' weights and offsets, 1-D, as float arrays converted as
    records convert their fields (``model._vector``), once checked."""
    if np.ndim(weights) != 1 or np.ndim(offsets) != 1:
        raise ValueError("weights and offsets must be 1-D")
    w, o = _vector(weights), _vector(offsets)
    if w.size != o.size:
        raise ValueError("weights and offsets must have equal length")
    if not _within(w, 0.0):
        raise ValueError("weights must be positive and finite")
    if not _within(o, 0.0):
        raise ValueError("offsets must be positive and finite")
    if w.size == 0:
        raise ValueError("need at least one user")
    return w, o


class _FillOrder:
    """Water-filling over fixed users, whatever the budget, and its inverse:
    weights (U,) shared by every row of offsets (..., U), each row one
    problem.  The only code here that orders users.  What no budget changes
    is worked out once: each row's users in order of c/o = w/(o*ln2)
    descending (ties keep their input order), their w, c and o in that
    order, the prefix sums of c and o and the ratios c/o.  ``levels`` then
    only divides and tests, and ``budget`` bisects the first row's
    ``segments``, built from the same arrays on first use."""

    def __init__(self, weights: np.ndarray, offsets: np.ndarray):
        self.shape, n = offsets.shape, weights.size
        o = offsets.reshape(-1, n)
        self.rows, self.ranks = np.arange(len(o))[:, None], np.arange(n)
        c = weights / LN2
        self.order = np.argsort(-(c / o), axis=1, kind="stable")
        self.w, self.c, self.o = weights[self.order], c[self.order], o[self.rows, self.order]
        self.c_sums, self.o_sums = np.cumsum(self.c, axis=1), np.cumsum(self.o, axis=1)
        self.ratios = self.c / self.o

    def levels(self, budget: float) -> tuple[np.ndarray, np.ndarray]:
        """The levels at one budget for every row, one array shaped like the
        offsets, and one water level per row."""
        if budget == 0.0:
            return np.zeros(self.shape), np.full(self.shape[:-1], math.inf)
        cand = self.c_sums / (budget + self.o_sums)
        # The largest consistent active set ends at the last consistent
        # candidate.  The first user's, c_1/(budget + o_1) < c_1/o_1, holds
        # at any positive budget, also where rounding loses the budget.
        last = np.where(cand < self.ratios, self.ranks, 0).max(axis=1)
        nu = cand[self.rows[:, 0], last]
        # Where nu underflows, c/nu is lost; there the level c (b + O_k)/C_k
        # - o, C_k and O_k the sums over the active set, is formed as
        # (c/C_k) b + ((c/C_k) O_k - o), which gives one active user all of b.
        lost = nu < sys.float_info.min
        fill = self.c / np.where(lost, 1.0, nu)[:, None] - self.o
        if lost.any():
            active = self.rows[lost, 0], last[lost]
            share = self.c[lost] / self.c_sums[active][:, None]
            fill[lost] = share * budget + (share * self.o_sums[active][:, None] - self.o[lost])
        levels = np.zeros(self.shape)
        levels.reshape(self.o.shape)[self.rows, self.order] = np.where(
            self.ranks <= last[:, None], np.maximum(0.0, fill), 0.0)
        return levels, nu.reshape(self.shape[:-1])

    @functools.cached_property
    def segments(self) -> np.ndarray:
        """The first row's ``waterfill_budget`` segments, one column each:
        rows r_k, b_k, f_k and A_k, each sum added left to right.  A user
        whose ratio w/o underflows to zero never joins, and has none."""
        w, r = self.w[0], self.w[0] / self.o[0]
        w, r = w[r > 0.0], r[r > 0.0]
        wsums = np.cumsum(w)
        steps = np.zeros((2, r.size))   # the b and f a segment adds to the one before
        steps[0, 1:] = 1.0 / r[1:] - 1.0 / r[:-1]
        steps[1, 1:] = list(map(math.log, (r[:-1] / r[1:]).tolist()))
        steps[:, 1:] *= wsums[:-1]
        return np.stack([r, *np.cumsum(steps, axis=1), wsums])

    def budget(self, objective: float) -> float:
        """The first row's budget at which water-filling attains
        ``objective``: in the last segment whose f_k does not exceed it (the
        f_k never fall)."""
        if not 0.0 <= objective < math.inf:
            raise ValueError(f"objective must be non-negative and finite, got {objective}")
        segments = self.segments
        if not segments.size:
            raise ValueError("every user's ratio w/o underflows to zero: none ever joins")
        k = int(np.searchsorted(segments[2], objective, side="right")) - 1   # f_1 = 0 <= objective
        ratio, start, level_sum, wsum = segments[:, k].tolist()
        return start + wsum / ratio * math.expm1((objective - level_sum) / wsum)


def waterfill(weights: Sequence[float], offsets: Sequence[float],
              budget: float) -> tuple[np.ndarray, float]:
    """Water-filling: levels_m = max(0, w_m/(nu*ln2) - o_m) exhausting the budget.

    nu is found by exact breakpoint enumeration: users sorted by w/(o*ln2)
    descending, closed-form nu per candidate active set, largest consistent
    set taken; at a positive budget the first user is always active.  A
    zero budget returns all-zero levels with nu = +inf.  The levels come as
    a read-only float64 array.
    """
    w, o = _waterfill_users(weights, offsets)
    budget = _real(budget)
    if not 0.0 <= budget < math.inf:
        raise ValueError(f"budget must be non-negative and finite, got {budget}")
    levels, nu = _FillOrder(w, o).levels(budget)
    return _read_only(levels), float(nu)


def waterfill_budget(weights: Sequence[float], offsets: Sequence[float],
                     objective: float) -> float:
    """The budget at which ``waterfill`` attains sum_m w_m*ln(1 + levels_m/o_m)
    = objective: the inverse of water-filling.

    A growing budget activates users in ``waterfill``'s order, r = w/o
    descending.  With A_k the sum of the first k weights, user k+1 joins at
    the budget b_{k+1} = b_k + A_k*(1/r_{k+1} - 1/r_k), where the objective
    is f_{k+1} = f_k + A_k*ln(r_k/r_{k+1}) (b_1 = f_1 = 0).  Between two
    breakpoints the objective is f_k + A_k*ln((b + O_k)/(b_k + O_k)), O_k
    being the sum of the first k offsets and b_k + O_k = A_k/r_k, so the
    budget is b_k + A_k/r_k*expm1((f - f_k)/A_k).  Every increment is
    non-negative, and expm1 keeps budgets near zero accurate.  A user whose
    r underflows to zero would join at an infinite budget, so never does.
    """
    return _FillOrder(*_waterfill_users(weights, offsets)).budget(_real(objective))


def _check_split(total: float, fixed: float, name: str) -> float:
    """Validate a fixed power share and return the non-negative remainder."""
    if not (0.0 <= fixed <= total * (1.0 + BUDGET_RTOL)):
        raise ValueError(f"{name} must lie in [0, {total}], got {fixed}")
    return max(0.0, total - fixed)


# The precoder-free arrays below read one drop (a FadingProfile) or a
# FadingStack; with a stack every result has a leading drop axis.


def _pilot_qualities(cfg: SystemConfig, fading: FadingProfile | FadingStack) -> np.ndarray:
    """Each multicast UT's individually attainable pilot quality E*g^2/(1+g*P)
    at its energy cap E (flat, one per multicast UT)."""
    gains = fading.multicast_gains_flat
    # Worked out in two buffers shaped like the gains, with the same roundings.
    per_user = cfg.multicast_energy_caps_flat * gains
    per_user *= gains
    load = gains * cfg.total_power
    load += 1.0
    per_user /= load
    if not per_user.all():
        raise DegenerateInputError("a multicast UT's pilot quality underflows to zero")
    return per_user


def _inverse_sums(cfg: SystemConfig, fading: FadingProfile | FadingStack,
                  upsilon: np.ndarray) -> np.ndarray:
    """1/upsilon_j + sum 1/g over group j's members, per group."""
    return 1.0 / upsilon + _group_sums(1.0 / fading.multicast_gains_flat, cfg.group_offsets)


def _solver_prelog(cfg: SystemConfig) -> float:
    """Prelog at the solvers' pilot length, the shortest feasible one (U+G)."""
    return 1.0 - cfg.n_streams / cfg.coherence_length


def _unicast_offsets(cfg: SystemConfig, gains: np.ndarray, theta: np.ndarray,
                     error: np.ndarray, gain: int | np.ndarray, c: float) -> np.ndarray:
    """The water-filling offsets (1 + leak*P) / (gain*theta), leak = beta -
    c*theta as ``_interference_gain`` gives it; the split leaves them alone."""
    return (1.0 + _interference_gain(c, gains, theta, error) * cfg.total_power) / (gain * theta)


def _sum_se(prelog: float, weights: np.ndarray, levels: np.ndarray,
            offsets: np.ndarray) -> np.ndarray:
    """Weighted sum SE of water-filled levels along the last axis:
    prelog * sum a*log2(1 + p/o), with the SEs' one log1p rule
    (``closed_form.se_from_sinr``) and the terms added left to right."""
    return prelog * _row_sums(weights * np.log1p(levels / offsets) / LN2)


def _built_by(problem: _Problem, solution):
    """The solution, with the problem that built it recorded on it."""
    object.__setattr__(solution, "_problem", problem)
    return solution


def _at_pilot_length(cfg: SystemConfig, pilot_length: int) -> SystemConfig:
    return (cfg if pilot_length == cfg.pilot_length
            else dataclasses.replace(cfg, pilot_length=pilot_length))


def _score_stats(cfg_at: SystemConfig, fading: FadingProfile, kind: type,
                 pilot_powers) -> EstimationStats:
    """The estimate variances a score of a ``kind`` solution reads, for a
    pair valid at the solution's pilot length (``cfg_at``): the solution's
    own pilot powers, and full-cap pilots caps / pilot length for the UTs
    it leaves free (unicast under max-min, multicast under sum SE)."""
    tau = cfg_at.pilot_length
    pilots = ((cfg_at.unicast_energy_caps / tau, pilot_powers) if kind is MmfSolution
              else (pilot_powers, [caps / tau for caps in cfg_at.multicast_energy_caps]))
    return _estimation_variances(cfg_at, fading, _pilot_arrays(cfg_at, *pilots))


@dataclass(frozen=True, eq=False)
class _Problem:
    """An allocation problem of a validated drop, or of every drop of a
    FadingStack, under one precoder: its objective's precoder-free arrays
    (the subclass's own fields) and the precoder's factors.  With one
    antenna count per drop of a stack, each drop gets its own array gain
    (see ``_precoder_factors``).  Each subclass names the solution it
    builds (``_solution``) and the arrays every solve's record shares
    (``_shared``, the pilot powers first)."""

    cfg: SystemConfig
    fading: FadingProfile | FadingStack
    precoder: str
    gain: int | np.ndarray
    c: float

    def under(self, precoder: str, n_antennas: np.ndarray | None = None):
        """The same problem under another precoder, which shares every
        precoder-free array with this one."""
        gain, c = _precoder_factors(self.cfg, precoder, n_antennas)
        return dataclasses.replace(self, precoder=precoder, gain=gain, c=c)

    @functools.cached_property
    def top(self) -> float:
        """The one drop's objective with the whole budget."""
        return float(self.objectives(0.0))

    @functools.cached_property
    def _scoring(self) -> tuple[SystemConfig, EstimationStats]:
        """What a score of any solve reads besides the split: the config at
        the solver's pilot length and the estimate variances of the pilots
        every solve's record shares and full-cap pilots for the others."""
        cfg_at = _at_pilot_length(self.cfg, self.cfg.n_streams)
        pilots = self._shared[0]
        return cfg_at, _score_stats(cfg_at, self.fading, self._solution,
                                    pilots.view if pilots.rows is None else pilots.rows)


@dataclass(frozen=True, eq=False)
class _MmfProblem(_Problem):
    """The max-min problem: each multicast UT's pilot quality, the group
    floors upsilon_j and the sums 1/upsilon_j + sum 1/g, and from them the
    loads B_j = 1/upsilon_j + sum 1/g + K_j*P and, under the precoder, the
    effective loads B_j - c*P and their sum, one per drop."""

    qualities: np.ndarray
    upsilon: np.ndarray
    inverse_sums: np.ndarray
    _solution = MmfSolution

    def __post_init__(self):
        # B_j - c*P is formed as 1/upsilon_j + sum 1/g + (K_j - c)*P, which
        # subtracts nothing (c <= 1 <= K_j), so that a group of one keeps
        # the digits of its 1/upsilon_j + 1/g under ZF at any budget P.
        sizes, power = _sizes(self.cfg.group_offsets), self.cfg.total_power
        loads = self.inverse_sums + (sizes - self.c) * power
        object.__setattr__(self, "b_values", self.inverse_sums + sizes * power)
        object.__setattr__(self, "loads", loads)
        object.__setattr__(self, "spread", _row_sums(loads))

    @functools.cached_property
    def x_caps(self) -> np.ndarray:
        """The optimal capped pilot energies (flat): every member scales its
        energy down to match its group's floor, so the floor member sits
        exactly at its cap."""
        cfg = self.cfg
        return cfg.multicast_energy_caps_flat * (_per_member(self.upsilon, cfg.group_offsets)
                                                 / self.qualities)

    def _gamma(self, p_unicast_fixed: float):
        """The multicast power and the SINR gain*p_mu / sum_j (B_j - c*P)."""
        p_mu = _check_split(self.cfg.total_power, p_unicast_fixed, "p_unicast_fixed")
        return p_mu, self.gain * p_mu / self.spread

    def objectives(self, p_unicast_fixed: float) -> np.ndarray:
        """``solve_mmf``'s objective, one per drop."""
        return _solver_prelog(self.cfg) * np.log1p(self._gamma(p_unicast_fixed)[1]) / LN2

    @functools.cached_property
    def _shared(self) -> tuple[_Shared, _Shared, _Shared, _Shared]:
        """The one drop's pilot powers x/tau, pilot energies x, upsilon and
        B_j, which every solve's record shares."""
        offsets = self.cfg.group_offsets
        return (_Shared(self.x_caps / self.cfg.n_streams, offsets),
                _Shared(self.x_caps, offsets), _Shared(self.upsilon), _Shared(self.b_values))

    def solve(self, p_unicast_fixed: float) -> MmfSolution:
        """``solve_mmf`` on the one drop."""
        p_mu, gamma = self._gamma(p_unicast_fixed)
        gamma = float(gamma)
        pilot_powers, x_caps, upsilon, b_values = self._shared
        return _built_by(self, MmfSolution(
            precoder=self.precoder,
            objective=se_from_sinr(_solver_prelog(self.cfg), gamma),
            pilot_length=self.cfg.n_streams,
            uplink_pilot_powers=pilot_powers,
            downlink_powers=p_mu * self.loads / self.spread,
            gamma=gamma,
            upsilon=upsilon,
            x_caps=x_caps,
            b_values=b_values,
        ))

    def power_for(self, objective: float) -> float:
        """The multicast power at which the one drop's objective is
        ``objective``: gamma is linear in p_mu and nothing else depends on
        the split, so p_mu = expm1(objective*ln2/prelog) * sum_j (B_j - c*P) / gain."""
        return (math.expm1(objective * LN2 / _solver_prelog(self.cfg)) * float(self.spread)
                / self.gain)


def _mmf_problem(cfg: SystemConfig, fading: FadingProfile | FadingStack, precoder: str,
                 n_antennas: np.ndarray | None = None) -> _MmfProblem:
    """The max-min problem of a validated pair (or config and stack)."""
    gain, c = _precoder_factors(cfg, precoder, n_antennas)   # its error comes first
    if cfg.n_groups == 0:
        raise DegenerateInputError("max-min multicast needs at least one group")
    qualities = _pilot_qualities(cfg, fading)
    upsilon = _group_min(qualities, cfg.group_offsets)   # each group's worst quality
    return _MmfProblem(cfg, fading, precoder, gain, c, qualities, upsilon,
                       _inverse_sums(cfg, fading, upsilon))


@dataclass(frozen=True, eq=False)
class _SseProblem(_Problem):
    """The sum-SE problem: full-cap pilot powers, the model's estimate and
    error variances at them (``theta``, ``error``) and, under the precoder,
    the water-filling offsets, one row per drop."""

    pilot_powers: np.ndarray
    theta: np.ndarray
    error: np.ndarray
    _solution = SseSolution

    def __post_init__(self):
        gain = self.gain if np.ndim(self.gain) == 0 else self.gain[:, None]   # per drop
        object.__setattr__(self, "offsets", _unicast_offsets(
            self.cfg, self.fading.unicast_gains, self.theta, self.error, gain, self.c))

    @functools.cached_property
    def _fill_order(self) -> _FillOrder:
        """The water-filling pieces no split changes, one row per drop."""
        return _FillOrder(self.cfg.sse_weights, self.offsets)

    def _fill(self, p_multicast_fixed: float):
        """Water-filled levels, water levels and objectives, one per drop."""
        budget = _check_split(self.cfg.total_power, p_multicast_fixed, "p_multicast_fixed")
        levels, nu = self._fill_order.levels(budget)
        return levels, nu, _sum_se(_solver_prelog(self.cfg), self.cfg.sse_weights, levels,
                                   self.offsets)

    def objectives(self, p_multicast_fixed: float) -> np.ndarray:
        """``solve_sse``'s objective, one per drop."""
        return self._fill(p_multicast_fixed)[2]

    @functools.cached_property
    def _shared(self) -> tuple[_Shared, _Shared]:
        """The one drop's full-cap pilot powers at the solvers' pilot length
        and theta, which every solve's record shares."""
        return _Shared(self.pilot_powers), _Shared(self.theta)

    def solve(self, p_multicast_fixed: float) -> SseSolution:
        """``solve_sse`` on the one drop."""
        levels, nu, objective = self._fill(p_multicast_fixed)
        pilot_powers, theta = self._shared
        return _built_by(self, SseSolution(
            precoder=self.precoder,
            objective=float(objective),
            pilot_length=self.cfg.n_streams,
            uplink_pilot_powers=pilot_powers,
            downlink_powers=levels,
            water_level=float(nu),
            effective_vars=theta,
        ))

    def power_for(self, objective: float) -> float:
        """The unicast power at which the one drop's objective is
        ``objective``: ``waterfill_budget`` over the solver's offsets, once
        checked as it checks them, from the fill order's segments."""
        _waterfill_users(self.cfg.sse_weights, self.offsets)
        return self._fill_order.budget(objective * LN2 / _solver_prelog(self.cfg))


def _sse_problem(cfg: SystemConfig, fading: FadingProfile | FadingStack, precoder: str,
                 n_antennas: np.ndarray | None = None) -> _SseProblem:
    """The sum-SE problem of a validated pair (or config and stack)."""
    gain, c = _precoder_factors(cfg, precoder, n_antennas)   # its error comes first
    if cfg.n_unicast == 0:
        raise DegenerateInputError("sum-SE allocation needs at least one unicast UT")
    pilot_powers = cfg.unicast_energy_caps / cfg.n_streams
    _, theta, error = _mmse_variances(cfg.n_streams, pilot_powers, fading.unicast_gains,
                                      cfg.pilot_offsets[:cfg.n_unicast + 1])
    if not theta.all():
        raise DegenerateInputError("a unicast UT's estimate variance underflows to zero")
    return _SseProblem(cfg, fading, precoder, gain, c, pilot_powers, theta, error)


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

    Water-fills over the offsets (1 + leak*P) / (gain*theta), with the
    model's full-cap estimate variances theta and leak beta - c*theta.
    """
    require_valid(cfg, fading)
    return _sse_problem(cfg, fading, precoder).solve(p_multicast_fixed)


def _score(cfg: SystemConfig, fading: FadingProfile, sol: MmfSolution | SseSolution,
           kind: type, powers: DownlinkPowers) -> SeReport:
    """Closed-form SEs at the solution's pilot length and precoder.  Scored
    against the very pair its problem was built from, and so validated, a
    solution reads the problem's config and estimate variances; any other
    pair is validated once for both the estimation and the SINR kernel."""
    if not isinstance(sol, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(sol).__name__}")
    problem = sol._problem
    if problem is not None and problem.cfg is cfg and problem.fading is fading:
        cfg_at, stats = problem._scoring
        gain, c = _precoder_factors(cfg_at, sol.precoder)
    else:
        cfg_at = _at_pilot_length(cfg, sol.pilot_length)
        gain, c = _precoder_factors(cfg_at, sol.precoder)
        require_valid(cfg_at, fading)
        stats = _score_stats(cfg_at, fading, kind, sol.uplink_pilot_powers)
    return _se_report(cfg_at, stats, fading, powers, gain, c)


def mmf_se_report(cfg: SystemConfig, fading: FadingProfile, sol: MmfSolution,
                  p_unicast_fixed: float) -> SeReport:
    """Score a max-min solution through the closed-form SE expressions.

    The solution leaves unicast pilots and the unicast power split free;
    they are filled with full-cap pilots and an equal split, which does not
    affect the multicast SEs (only the unicast total enters them).
    """
    return _score(cfg, fading, sol, MmfSolution,
                  DownlinkPowers(_equal_shares(p_unicast_fixed, cfg.n_unicast, "unicast"),
                                 sol.downlink_powers))


def sse_se_report(cfg: SystemConfig, fading: FadingProfile, sol: SseSolution,
                  p_multicast_fixed: float) -> SeReport:
    """Score a sum-SE solution through the closed-form SE expressions.

    Multicast pilots and the per-group split are filled with full-cap
    pilots and an equal split; the unicast SEs only see the multicast total.
    """
    return _score(cfg, fading, sol, SseSolution,
                  DownlinkPowers(sol.downlink_powers,
                                 _equal_shares(p_multicast_fixed, cfg.n_groups, "multicast")))
