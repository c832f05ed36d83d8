"""Independent link-level validation of the closed-form SINR expressions.

Each UT has two terms: the effective channel on its own stream (the
desired term d) and the power it receives summed over all streams (r).  A
trial simulates the pilot phase, through the factor R of the pilots'
observations, and the precoders built from it; given the observations, it
integrates each UT's Gaussian estimation error out in closed form.

UTs and pilots come in the model's pilot order
(``SystemConfig.pilot_offsets``), and pilot j carries stream j.  Every
draw has standard normal real and imaginary parts (``_cn``).  Pilot j
observes o_j = sum_{i in j} w_i h_i + n_j = sqrt(1 + s_j) y_j, with
w_i = sqrt(tau * power * gain) for each UT, s_j = sum_{i in j} w_i^2 and
y_j a unit draw.  Its MMSE estimate is sqrt(var_j / 2) y_j, with var_j the
estimate variance of the closed form, so the estimate factor and the
variance cancel in both precoders.
MRT's column s, sqrt(p_s / (N var_s)) times the estimate, is
sqrt(p_s / (2 N)) y_s.  ZF's columns E (E^H E)^-1 diag(sqrt((N - S) p var)),
with E the estimates and S = U + G streams, are Y (Y^H Y)^-1
diag(sqrt(2 (N - S) p)).  With Y = Q R, Q orthonormal in k = min(N, S)
columns, each precoder is X = Q R_x, with R_x = R D under MRT and
R_x = R^-H D under ZF, for one diagonal of the stream powers alone,
D = kappa diag(sqrt(p)): kappa = 1/sqrt(2 N) under MRT and sqrt(2 (N - S))
under ZF.

A trial reads the observations only through R: both precoders' factors,
and every x_s^H y_j, an entry of T = R^T conj(R_x).  Y^H Y = R^H R is a
complex Wishart matrix, so a trial draws R itself by the Bartlett
decomposition, as the k x S upper-trapezoidal factor: standard complex
normals above the diagonal, and R_ii = sqrt(chi-square with 2 (N - i)
degrees of freedom) for i = 0 ... k - 1.  When N <= S, which only MRT
allows, the columns right of the k x k triangle are standard complex
normals too.  So a trial costs O(S^3), whatever N, plus a few gathers per
UT.

Given the observations, UT i of pilot j has h_i = c_i o_j + e_i with
c_i = w_i / (1 + s_j); the error e_i is Gaussian, independent of every
observation, with per-coordinate variance 2 (1 - c_i w_i) =
2 (1 + sum_{l in j, l != i} w_l^2) / (1 + s_j), which the trial kernel
forms from leave-one-out sums so that nothing cancels.  A trial therefore
takes each UT's terms as their means given the observations, in closed
form:

    E[r_i | Y] = a_i^2 (c_i^2 (1 + s_j) ||T_j||^2 + 2 (1 - c_i w_i) ||R_x||_F^2),
    E[d_i | Y] = a_i c_i sqrt(1 + s_j) T[j, j],

with a_i = sqrt(gain/2) the UT's amplitude and T_j row j of T.  Under MRT,
T = R^T conj(R) D, and T[j, j] = ||y_j||^2 D_j is real.  Under ZF, T = D:
d is a constant, m1 up to rounding, ||T_j||^2 = D_j^2, and a trial reads only
||R_x||_F^2 = sum_s D_s^2 ||row s of R^-1||^2.  ZF reads those row norms
off R^-1, which one back substitution gives for a whole block of factors
(``_zf_row_norms``), and discards a draw whose equilibrated estimate Gram
may be too ill-conditioned to invert, by a bound read off the same row
norms (``_require_rank``); no LU inverse or eigensolve runs.  By the tower
rule, these terms have the same means as the terms of a full channel draw,
with less spread (Rao-Blackwellization).  The trial kernel works out the weights, the
precoders' diagonal and each UT's coefficients once per run, after the run
has checked its inputs; a trial runs no check and reads only the stream
powers, the pilot weights and the amplitudes.  The kernel is the module's
one trial path, and the module's public API is ``validate_closed_form``,
its ``ValidationReport`` of ``UserValidation`` records, and ``trial_rng``.

The closed-form SINR is the hardening bound m1^2 / (1 + m2 - m1^2), built
from two moments per UT, m1 = E[d] and m2 = E[r], which
``closed_form._sinr_terms`` supplies.  Each trial's d and r enter per-UT
running sums shifted by those moments (Chan, Golub & LeVeque, 1983): of
x = d - m1, x^2, y = r - m2, y^2 and x*y.  So memory does not grow with the
number of trials.  Each UT's record tests both moments at once: W is the
Wald statistic of the mean offsets (mean x, mean y) against their sample
covariance, p = exp(-W/2) its chi-square p-value with two degrees of
freedom, and z the two-sided normal quantile of p, so that |z| <= 3 keeps
the tail probability it has for one normal score.  A term whose sample
spread is within EXACT_RTOL of its moment is exact: it passes when its mean
is that close to the moment, leaving the other term to test alone, and is a
certain miss otherwise.  The empirical SINR is the plug-in
(mean d)^2 / (1 - (mean d)^2 + mean r); its interval maps each moment's 95%
interval through the SINR formula.

Each record also reports that closed-form SINR.  The powers pass
``closed_form._check_powers``, and the trials read neither the estimate
variances nor anything else of the closed form.

Each trial draws from its own SFC64 generator, seeded by the spawn of
(seed, trial index) from one SeedSequence (``trial_rng``); spawned
sequences keep the trial streams independent.  Trials run in blocks of
BLOCK_TRIALS, one after another: a block's seed words come from one pass of
the seed hash (``seeds.SpawnHash``), its trials draw their factors into the
run's one factor stack, and ZF inverts the stack as one.  Within a block,
trials run in trial order: each trial's terms enter the sums before the
next trial's are formed, a discarded draw drops only its own trial, and a
trial that raises stops the run.  So the sums do not depend on the block
size, and the run holds one block's stack, whatever its trial count.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .closed_form import (LN2, ZF, DownlinkPowers, _check_powers, _precoder_factors,
                          _sinr_terms)
from .errors import DegenerateInputError
from .model import (EstimationStats, FadingProfile, SystemConfig, _estimation_variances,
                    _group_others, _group_sums, _per_member, _pilot_arrays, require_valid)
from .seeds import SpawnedSeed, SpawnHash

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
# A term whose sample standard deviation is at most this fraction of its
# moment is exact, as ZF's desired term is: its spread over the trials is
# rounding (1.5e-16 of m1 on the paper cell), which a t score would read as
# a signal.
EXACT_RTOL = 1e-12
# A ZF draw whose equilibrated Gram may have a condition number beyond this
# is treated as rank-deficient (a probability-zero event) and the trial
# discarded.  ``_require_rank`` tests an upper bound on the condition number,
# S * trace(inverse Gram), which is about 10^4 on the paper cell.
MAX_GRAM_COND = 1e12
# Trials per block: a block's trials are seeded by one pass of the seed hash
# and draw into one factor stack, which ZF inverts as one.  Every trial
# keeps its own draws, terms and place in the sums, whatever the block size.
# On the paper cell, blocks of 16 and 32 ran no faster than 8 and peaked up
# to 0.5 and 1.3 MB higher in RSS.
BLOCK_TRIALS = 8


@dataclass(frozen=True)
class UserValidation:
    """One UT's closed-form SINR against its simulation.

    ``wald`` is W, ``p_value`` is p = exp(-W/2) and ``z`` is the z with
    P(|N(0, 1)| > z) = p.  ``ci_low``/``ci_high`` bound the SINR.
    ``m1_over_se`` is the closed-form m1 over the standard error of the
    mean desired term, that error taken as at least EXACT_RTOL m1: at most
    1/EXACT_RTOL, which an exact desired term (ZF's) reaches, and 0 when m1
    is.  Every field is finite, except W and z of a certain miss (an exact
    term off its moment), which are infinite.
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
    """Generator for one trial, independent of all others: SFC64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=(trial,))``.  A run seeds its
    trials with the same words, a block at a time (``_Kernel._draw``)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.SFC64(ss))


def _cn(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries with standard normal
    real and imaginary parts (E|z|^2 = 2), drawn in C order, each as its
    real and then its imaginary part."""
    z = np.empty(shape, dtype=complex)
    rng.standard_normal(out=z.view(np.float64))
    return z


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


def _mrt_factor(R: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """MRT: each column is the matching unit observation, R in their basis,
    scaled to its power (a stream with no power has a zero column)."""
    return R * diag


def _zf_row_norms(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ZF, over a stack of S x S factors, which it overwrites with their
    inverses: the squared norms of the rows of each R^-1, which is all a
    trial reads of ZF's factor R_x = R^-H D (its squared column norms are
    D_s^2 times these), and each factor's bound on the condition number of
    its equilibrated estimate Gram.

    R^-1 = X is upper triangular, and R X = I gives its rows bottom up:
    X_ii = 1/R_ii and X[i, i+1:] = -X_ii R[i, i+1:] X[i+1:, i+1:], one
    vector-matrix product per row for the whole stack, which is a sixth of
    the flops of an LU inverse.  Row i of R is read before it is
    overwritten, and of X only the rows below it.

    The construction is invariant to rescaling the estimate columns, so the
    rank rule reads the Gram of unit-norm columns.  That Gram has trace S >=
    lambda_max, and its inverse has trace sum_s ||R e_s||^2 ||e_s^T R^-1||^2
    >= 1/lambda_min, so S times that sum bounds the condition number from
    above, with no eigensolve (``_require_rank``).  A singular or
    non-finite factor gives an infinite or NaN bound, without a warning.
    """
    S = R.shape[-1]
    parts = R.view(np.float64)   # each entry's real and imaginary parts
    columns = np.einsum("bij,bij->bj", parts, parts).reshape(-1, S, 2).sum(axis=2)
    diagonal = np.arange(S)
    with np.errstate(all="ignore"):
        inverse = 1.0 / R[:, diagonal, diagonal].real
        R[:, diagonal, diagonal] = inverse
        for i in range(S - 2, -1, -1):
            R[:, i, i + 1:] = (R[:, i:i + 1, i + 1:] @ R[:, i + 1:, i + 1:])[:, 0] \
                * -inverse[:, i, None]
        rows = np.einsum("bij,bij->bi", parts, parts)
        return rows, S * np.einsum("bs,bs->b", columns, rows)


def _require_rank(bound: float) -> None:
    """Raise RankDeficientDraw, so that the caller discards the trial, when a
    ZF draw's condition bound exceeds MAX_GRAM_COND or is not a number."""
    if not bound <= MAX_GRAM_COND:   # NaN fails the comparison too
        raise RankDeficientDraw(f"Gram condition bound {bound:.3g} exceeds {MAX_GRAM_COND:g}")


# One trial's terms, given its observations: every UT's received power
# summed over all streams and its (real) effective channel on its own stream.
_Result = tuple[np.ndarray, np.ndarray]


class _Kernel:
    """One run's trials, a block at a time: draw each trial's observations'
    factor R into the run's factor stack, take each precoder's S-column
    factor R_x from it, and form every UT's terms given the observations.

    Everything fixed for the run is worked out here, once: the precoders'
    per-stream diagonal kappa sqrt(p), which reads the stream powers alone,
    and three coefficients per UT i of pilot j, from the pilot weights and
    its amplitude a_i = sqrt(gain/2): a_i^2 c_i^2 (1 + s_j) on ||T_j||^2 and
    a_i^2 2 (1 - c_i w_i) on ||R_x||_F^2 in r, and a_i c_i sqrt(1 + s_j) on
    T[j, j] in d.  Under ZF, T = D, so ZF's desired terms and the ||T_j||^2
    part of r are fixed for the run too.  The caller has run every check; a
    trial runs none.
    """

    def __init__(self, cfg: SystemConfig, fading: FadingProfile, pilot_powers_unicast,
                 pilot_powers_multicast, powers: DownlinkPowers, precoder: str, seed: int):
        self.seeds, self.zf = SpawnHash(seed), precoder == ZF
        N, S = cfg.n_antennas, cfg.n_streams
        power = np.concatenate([powers.unicast, powers.multicast])
        self.diag = np.sqrt(2.0 * (N - S) * power) if self.zf else np.sqrt(power / (2.0 * N))
        # The pilot weights w_i = sqrt(tau * power * gain) of unit-variance
        # draws, 1 + s_j per pilot, and each UT's error variance
        # 2 (1 + the other UTs' w^2 on its pilot) / (1 + s_j), which
        # subtracts nothing (see the module docstring).
        pilots = cfg.pilot_offsets
        energy = cfg.pilot_length * (_pilot_arrays(cfg, pilot_powers_unicast,
                                                   pilot_powers_multicast) * fading.ut_gains)
        total = 1.0 + _group_sums(energy, pilots)   # 1 + s_j, per pilot
        per_ut = _per_member(total, pilots)
        self.own = _per_member(np.arange(S), pilots)   # each UT's pilot is its stream
        half_gains = fading.ut_gains / 2.0
        coherent = np.sqrt(energy) / per_ut * np.sqrt(total)[self.own]   # c_i sqrt(1 + s_j)
        self.own_scale = np.sqrt(half_gains) * coherent
        self.coherent = half_gains * coherent ** 2
        self.incoherent = half_gains * (2.0 * (1.0 + _group_others(energy, pilots)) / per_ut)
        if self.zf:   # T = D: d and the ||T_j||^2 part of r are fixed for the run
            self.power = self.diag ** 2
            self.fixed_received = self.coherent * self.power[self.own]
            self.fixed_desired = self.own_scale * self.diag[self.own]
        # Bartlett: the upper trapezoid's positions in k = min(N, S) rows,
        # row by row, and the gamma shapes N - 1 - i that complete each
        # diagonal entry.
        k = min(N, S)
        self.upper = np.triu_indices(k, m=S)
        self.shapes = N - 1.0 - np.arange(k)
        # The run's factor stack, one k x S factor per trial of a block.  The
        # draws fill each upper trapezoid, and ZF's inverses are upper
        # triangular too, so the strict lower triangle stays as zeroed here.
        self.factors = np.zeros((BLOCK_TRIALS, k, S), dtype=complex)

    def _draw(self, start: int, stop: int) -> np.ndarray:
        """The factors of trials start, ..., stop - 1, at most BLOCK_TRIALS
        of them, in the run's stack: each drawn from its trial's SFC64
        generator, seeded with the words of ``trial_rng``'s SeedSequence,
        which one pass of the seed hash gives for the whole block."""
        R = self.factors[:stop - start]
        states = self.seeds.states((np.arange(start, stop, dtype=np.uint32),), 3)
        for factor, state in zip(R, states):
            self._factor(np.random.Generator(np.random.SFC64(SpawnedSeed(state))), factor)
        return R

    def _factor(self, rng: np.random.Generator, R: np.ndarray) -> None:
        """Draw into R, whose strict lower triangle is zero, the factor of
        the unit observations Y = Q R, with Q orthonormal in k = min(N, S)
        columns: the k x S upper-trapezoidal factor, whose Gram R^H R has the
        law of Y^H Y."""
        S = R.shape[1]
        R[self.upper] = _cn(rng, (self.upper[0].size,))
        # R_ii^2 = |z_ii|^2 + 2 Gamma(N - 1 - i): chi-square with 2 (N - i)
        # degrees of freedom, as |z|^2 is chi-square with 2.
        z = R.diagonal()
        R.flat[::S + 1] = np.sqrt(z.real ** 2 + z.imag ** 2
                                  + 2.0 * rng.standard_gamma(self.shapes))

    def __call__(self, start: int, stop: int) -> Iterator[_Result | None]:
        """Run trials start, ..., stop - 1, in order: each one's terms, or
        None when its draw lost rank and is discarded.  Each trial's terms
        are fresh arrays, which ``_Sums.commit`` overwrites."""
        R = self._draw(start, stop)
        terms = self._zf_terms if self.zf else self._mrt_terms
        for given in zip(*_zf_row_norms(R)) if self.zf else zip(R):
            try:
                yield terms(*given)
            except RankDeficientDraw:
                yield None

    def _mrt_terms(self, R: np.ndarray) -> _Result:
        R_x = _mrt_factor(R, self.diag)
        T = R.T @ R_x.conj()   # T[j, s] = x_s^H y_j
        parts = T.view(np.float64)
        rows = np.einsum("ij,ij->i", parts, parts)[self.own]   # ||T_j||^2
        frobenius = float(np.vdot(R_x, R_x).real)
        received = self.coherent * rows
        received += self.incoherent * frobenius
        return received, self.own_scale * T.real.diagonal()[self.own]

    def _zf_terms(self, rows: np.ndarray, bound: float) -> _Result:
        """ZF's terms from the squared row norms of R^-1 and the condition
        bound of one trial (``_zf_row_norms``)."""
        _require_rank(bound)
        # ||R_x||_F^2 = sum_s D_s^2 ||row s of R^-1||^2, all that varies.
        frobenius = float(np.vdot(self.power, rows))
        received = self.incoherent * frobenius
        received += self.fixed_received
        return received, self.fixed_desired.copy()


class _Sums:
    """Per-UT sums over the kept trials, which enter in trial order, of
    x = d - m1, x^2, y = r - m2, y^2 and x*y; shifting by the closed-form
    moments keeps the sums of squares free of cancellation."""

    def __init__(self, m1: np.ndarray, m2: np.ndarray):
        self.m1, self.m2 = m1, m2
        self.x, self.xx, self.y, self.yy, self.xy = (np.zeros(m1.size) for _ in range(5))
        self.kept = 0
        self.discarded = 0

    def commit(self, result: _Result | None) -> None:
        if result is None:
            self.discarded += 1
            return
        received, desired = result
        x = np.subtract(desired, self.m1, out=desired)
        y = np.subtract(received, self.m2, out=received)
        self.x += x
        self.xx += x * x
        self.y += y
        self.yy += y * y
        self.xy += x * y
        self.kept += 1


def _run_trials(cfg: SystemConfig, fading: FadingProfile,
                pilot_powers_unicast, pilot_powers_multicast,
                powers: DownlinkPowers, precoder: str,
                n_trials: int, seed: int) -> tuple[_Sums, np.ndarray]:
    """Run the trials in order and sum every UT's terms around its
    closed-form moments; return the sums and every UT's closed-form SINR."""
    require_valid(cfg, fading)
    _check_powers(cfg, powers)
    gain, c = _precoder_factors(cfg, precoder)
    stats = _estimation_variances(cfg, fading, pilot_powers_unicast, pilot_powers_multicast)
    _require_estimates(powers, stats, precoder)
    signal, interference = _sinr_terms(cfg, stats, fading, powers, gain, c)
    sums = _Sums(np.sqrt(signal), interference + signal)
    kernel = _Kernel(cfg, fading, pilot_powers_unicast, pilot_powers_multicast, powers,
                     precoder, seed)
    for start in range(0, n_trials, BLOCK_TRIALS):
        for result in kernel(start, min(start + BLOCK_TRIALS, n_trials)):
            sums.commit(result)

    if sums.discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    sums.discarded, n_trials)
    if sums.kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    return sums, signal / (1.0 + interference)


def _wald(n: int, dx: float, dy: float, vx: float, vy: float, cxy: float, mx: float,
          my: float) -> tuple[float, int]:
    """The Wald statistic of the mean offsets (dx, dy) of n trials, whose
    terms have sample variances vx, vy and covariance cxy around moments mx
    and my, and its degrees of freedom.

    A term whose sample standard deviation is at most EXACT_RTOL of its
    moment's magnitude is exact: an offset beyond that tolerance there is
    certain (W = inf), and one within it leaves the other term to test
    alone, as does a pair too close to collinear to invert.
    """
    exact_x = math.sqrt(vx) <= EXACT_RTOL * abs(mx)
    exact_y = math.sqrt(vy) <= EXACT_RTOL * abs(my)
    if (exact_x and abs(dx) > EXACT_RTOL * abs(mx)) or \
            (exact_y and abs(dy) > EXACT_RTOL * abs(my)):
        return math.inf, 1
    if not (exact_x or exact_y):
        rho = cxy / (math.sqrt(vx) * math.sqrt(vy))
        tx, ty = _score(n, dx, vx), _score(n, dy, vy)
        if abs(rho) < 1.0:
            return (tx - rho * ty) ** 2 / ((1.0 - rho) * (1.0 + rho)) + ty ** 2, 2
        return ty ** 2, 1
    if not exact_y:
        return _score(n, dy, vy) ** 2, 1
    if not exact_x:
        return _score(n, dx, vx) ** 2, 1
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
    if not 100 <= n_trials <= 2**32:   # trial indices are 32-bit spawn-key words
        raise ValueError(f"need 100 to 2**32 trials, got {n_trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    sums, cf = _run_trials(cfg, fading, pilot_powers_unicast, pilot_powers_multicast,
                           powers, precoder, n_trials, seed)

    n = sums.kept
    dx, dy = sums.x / n, sums.y / n   # mean offsets from m1 and m2
    vx = np.maximum(sums.xx - sums.x * dx, 0.0) / (n - 1)
    vy = np.maximum(sums.yy - sums.y * dy, 0.0) / (n - 1)
    cxy = (sums.xy - sums.x * dy) / (n - 1)
    a, b = sums.m1 + dx, sums.m2 + dy   # mean d and mean r
    se_a, se_b = np.sqrt(vx / n), np.sqrt(vy / n)
    empirical = a * a / (1.0 - a * a + b)
    low, high = _sinr_at(a - Z95 * se_a, b + Z95 * se_b), _sinr_at(a + Z95 * se_a, b - Z95 * se_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        m1_over_se = np.where(sums.m1 == 0.0, 0.0,
                              sums.m1 / np.maximum(se_a, EXACT_RTOL * sums.m1))
    tests = []   # (W, p, z) per UT
    for terms in zip(dx.tolist(), dy.tolist(), vx.tolist(), vy.tolist(), cxy.tolist(),
                     sums.m1.tolist(), sums.m2.tolist()):
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
