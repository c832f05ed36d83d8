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
off R^-1, which a blocked triangular inversion gives for a whole block of
factors at once (``_zf_row_norms``), and discards a draw whose equilibrated
estimate Gram may be too ill-conditioned to invert, by a bound read off the
same row norms and masked for the block; no LU inverse or eigensolve runs.  By
the tower rule, these terms have the same means as the terms of a full channel draw,
with less spread (Rao-Blackwellization).  The trial kernel works out the weights, the
precoders' diagonal and each UT's coefficients once per run, after the run
has checked its inputs; a trial runs no check and reads only the stream
powers, the pilot weights and the amplitudes.  The public API is
``validate_closed_form``, its ``ValidationReport``, and ``trial_rng``.

The closed-form SINR is the hardening bound m1^2 / (1 + m2 - m1^2), built
from two moments per UT, m1 = E[d] and m2 = E[r], which
``closed_form._sinr_terms`` supplies.  Each trial's d and r enter per-UT
running sums shifted by those moments (Chan, Golub & LeVeque, 1983): of
x = d - m1, x^2, y = r - m2, y^2 and x*y.  So memory does not grow with the
number of trials.  Each UT's record tests both moments at once: W is the
Wald statistic of the mean offsets (mean x, mean y) against their sample
covariance, p = exp(-W/2) its chi-square p-value with two degrees of
freedom, and z the two-sided normal quantile of p, so that |z| <= 3 keeps
the tail probability it has for one normal score.  The sums also keep each
UT's least and greatest x and y.  A term whose range over the kept trials
(greatest less least) is within EXACT_RTOL of its moment is exact: it passes
when its mean is that close to the moment, leaving the other term to test
alone, and is a certain miss otherwise.  The range, unlike the sample
spread, holds no rounding of the mean offset, so a certain miss does not
depend on how the sums round.  The empirical SINR is the plug-in
(mean d)^2 / (1 - (mean d)^2 + mean r); its interval maps each moment's 95%
interval through the SINR formula.  The powers pass
``closed_form._check_powers``, and the trials read nothing of the closed form.

Each trial draws from its own SFC64 generator, seeded by the spawn of
(seed, trial index) from one SeedSequence (``trial_rng``); spawned
sequences keep the trial streams independent.  Trials run in blocks of
BLOCK_TRIALS, one after another: a block's seed words come from one pass of
the seed hash (``seeds.SpawnHash``), its trials draw into their rows of the
block's draw buffers, from which the block's factors are formed in the
run's one factor stack, and ZF inverts the stack as one.  The block step
is a trial's only step, and none of it raises or catches: ZF's rank rule
masks the block's bounds, so a discarded draw drops only its own trial, and
the reductions that read a kept trial's whole factor run in trial order.
The per-UT gathers and coefficients then run once for the block's kept
trials, elementwise, and each kept trial's terms enter the sums in trial
order.  So the sums do not depend on the block size, and the run holds one
block's buffers, whatever its trial count.  The moment tests run as array
passes over the UTs; only the exponentials, erfc, the normal quantile and
its tail series run per UT, through ``math`` and ``statistics``.  The
report keeps one array per field of its per-UT record, the closed-form SINR
among them; its pass rate, gate and other summaries reduce those arrays,
and it builds its ``UserValidation`` records only when they are read.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .closed_form import (LN2, ZF, DownlinkPowers, _check_powers, _precoder_factors,
                          _sinr_terms)
from .errors import DegenerateInputError
from .model import (EstimationStats, FadingProfile, SystemConfig, _ArrayRecord,
                    _estimation_variances, _freeze, _group_others, _group_sums, _per_member,
                    _pilot_arrays, require_valid)
from .seeds import SpawnedSeed, SpawnHash

log = logging.getLogger(__name__)

# 95% two-sided normal quantile used for each moment's confidence interval.
Z95 = 1.959963984540054
# A run draws MIN_TRIALS to MAX_TRIALS trials: the trial indices are the
# 32-bit words of the seed hash's spawn keys.
MIN_TRIALS = 100
MAX_TRIALS = 2**32
# A UT passes when |z| <= Z_PASS, and a report when at least PASS_RATE of
# its UTs pass.
Z_PASS = 3.0
PASS_RATE = 0.99
# A UT whose closed-form m1 lies fewer standard errors of the mean desired
# term than this from zero has an SINR the trials barely resolve: the lower
# end of a 95% interval on its mean desired term reaches zero.
WEAK_SIGNAL = 2.0
# A term whose range over the kept trials is at most this fraction of its
# moment is exact, as ZF's desired term is: it takes one value in every
# trial, and any spread a t score read there would be rounding.  The range
# is read, not the sample spread: a spread formed around the closed-form
# moment keeps about 1e-10 of a large mean offset as spurious spread.
EXACT_RTOL = 1e-12
# A ZF draw whose equilibrated Gram may have a condition number beyond this
# is treated as rank-deficient (a probability-zero event) and the trial
# discarded: a trial keeps a draw whose upper bound on the condition number,
# S * trace(inverse Gram) (``_zf_row_norms``), is at most this; a NaN bound
# is not.  The bound is about 10^4 on the paper cell.
MAX_GRAM_COND = 1e12
# Trials per block: a block's trials are seeded by one pass of the seed hash
# and draw into one factor stack, which ZF inverts as one.  Every trial
# keeps its own draws, terms and place in the sums, whatever the block size.
# On the paper cell, blocks of 16 and 32 ran no faster than 8 and peaked up
# to 0.5 and 1.3 MB higher in RSS.
BLOCK_TRIALS = 8
# ZF inverts a block's factors by blocks of at most this many rows: the
# leaves, a power-of-two count of equal diagonal blocks per factor, which
# one stacked row loop inverts, and which pairs of neighbours then combine
# by products.  The paper cell's 60 streams make 4 leaves of 15.
LEAF_ROWS = 16


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
        values = [getattr(self, name) for name in _COLUMNS]
        return _record_dicts([((self.kind, self.index), values)])[0]


# The report's per-UT columns, every field of UserValidation after kind and
# index, and what its document gives before the records.
_COLUMNS = tuple(f.name for f in dataclasses.fields(UserValidation))[2:]
_SUMMARY = ("precoder", "n_trials", "n_discarded", "discarded_fraction", "pass_rate",
            "pass_rate_by_kind", "worst_z", "n_weak_signal", "passed")
_FIELDS = ("kind", "index", *_COLUMNS)


def _record_dicts(rows) -> list[dict]:
    """Each UT's record as its document writes it, from rows of ((kind,
    index), column values): kind, index (as a list) and the values, in
    field order."""
    return [dict(zip(_FIELDS, (kind, list(index), *values))) for (kind, index), values in rows]


def _share_passing(z: np.ndarray) -> float:
    """The share of the z scores with |z| <= Z_PASS, 1.0 of none."""
    return int(np.count_nonzero(np.abs(z) <= Z_PASS)) / z.size if z.size else 1.0


@dataclass(frozen=True, eq=False)
class ValidationReport(_ArrayRecord):
    """Every UT's validation as one read-only float64 array per numeric
    ``UserValidation`` field, in pilot order: ``n_unicast`` unicast UTs, then
    groups of ``group_sizes``.  The pass rate, the gate and the other
    summaries reduce the arrays; ``records`` builds the per-UT view when read."""

    precoder: str
    n_trials: int
    n_discarded: int
    n_unicast: int
    group_sizes: tuple[int, ...]
    closed_form: np.ndarray
    empirical: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    z: np.ndarray
    wald: np.ndarray
    p_value: np.ndarray
    m1_over_se: np.ndarray

    def __post_init__(self):
        _freeze(self, _COLUMNS)

    def _rows(self):
        """Each UT's kind, index and column values, in pilot order."""
        uts = [("unicast", (m,)) for m in range(self.n_unicast)]
        uts += [("multicast", (j, k)) for j, size in enumerate(self.group_sizes)
                for k in range(size)]
        return zip(uts, zip(*(getattr(self, name).tolist() for name in _COLUMNS)))

    @property
    def records(self) -> tuple[UserValidation, ...]:
        """One UserValidation per UT, in pilot order."""
        return tuple(UserValidation(*ut, *values) for ut, values in self._rows())

    @property
    def pass_rate(self) -> float:
        return _share_passing(self.z)

    @property
    def passed(self) -> bool:
        return self.pass_rate >= PASS_RATE

    @property
    def worst_z(self) -> float:
        return float(self.z.max()) if self.z.size else 0.0

    @property
    def pass_rate_by_kind(self) -> dict[str, float]:
        """The pass rate of each kind of UT the report has."""
        u = self.n_unicast
        return {kind: _share_passing(z) for kind, z in (("unicast", self.z[:u]),
                                                        ("multicast", self.z[u:])) if z.size}

    @property
    def discarded_fraction(self) -> float:
        return self.n_discarded / (self.n_trials + self.n_discarded)

    @property
    def n_weak_signal(self) -> int:
        """UTs with m1/SE below WEAK_SIGNAL."""
        return int(np.count_nonzero(self.m1_over_se < WEAK_SIGNAL))

    def to_dict(self) -> dict:
        """The run, its summaries, and every record's ``to_dict``, written
        from the columns without building the records."""
        return {**{name: getattr(self, name) for name in _SUMMARY},
                "records": _record_dicts(self._rows())}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, independent of all others: SFC64 seeded by
    ``SeedSequence(entropy=seed, spawn_key=(trial,))``.  A run seeds its
    trials with the same words, a block at a time (``_Kernel._draw``)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.SFC64(ss))


def _cn(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the complex array ``out`` with circularly-symmetric complex
    Gaussian entries with standard normal real and imaginary parts
    (E|z|^2 = 2), drawn in C order, each as its real and then its imaginary
    part, and return it."""
    rng.standard_normal(out=out.view(np.float64))
    return out


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


def _diagonal_blocks(X: np.ndarray, size: int) -> np.ndarray:
    """The size x size blocks on the diagonal of every matrix of the
    C-contiguous stack X, as a writable (stack, n // size, size, size) view."""
    batch, row, column = X.strides
    return np.ndarray((X.shape[0], X.shape[1] // size, size, size), X.dtype, X, 0,
                      (batch, (row + column) * size, row, column))


def _zf_row_norms(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ZF, over a C-contiguous stack of S x S upper-triangular factors,
    which it may overwrite: the squared norms of the rows of each R^-1, which is all a
    trial reads of ZF's factor R_x = R^-H D (its squared column norms are
    D_s^2 times these), and each factor's bound on the condition number of
    its equilibrated estimate Gram.

    R^-1 = X is upper triangular, and this works out Y = -X by blocks, for
    the whole stack at once.  Each factor splits into the fewest
    power-of-two count of equal diagonal leaves of at most LEAF_ROWS rows,
    padded with the identity when S does not fill them, which leaves R^-1
    as the leading S x S block of the inverse.  One row loop inverts every
    leaf by back substitution, bottom up: Y_ii = -1/R_ii and Y[i, i+1:] =
    Y_ii R[i, i+1:] Y[i+1:, i+1:], a vector-matrix product per row for the
    stack's leaves together.  Then neighbouring pairs combine, level by
    level, into blocks twice their size: [[Y_1, R_12], [0, Y_2]] becomes
    [[Y_1, Y_1 R_12 Y_2], [0, Y_2]], the X_12 = -X_1 R_12 X_2 of R X = I
    with its sign absorbed by Y.  Blocked triangular inversion keeps the
    stability bound of the back substitution (Du Croz & Higham, IMA J.
    Numer. Anal. 12, 1992).  The numpy calls number at most LEAF_ROWS per
    stack in the row loop and a few per level, whose count is log2 of the
    leaf count.  Up to LEAF_ROWS streams, one leaf is the whole factor, and
    the row loop gives a row-by-row back substitution's bits: each product
    of -X is the one of X, negated exactly.

    The construction is invariant to rescaling the estimate columns, so the
    rank rule reads the Gram of unit-norm columns.  That Gram has trace S >=
    lambda_max, and its inverse has trace sum_s ||R e_s||^2 ||e_s^T R^-1||^2
    >= 1/lambda_min, so S times that sum bounds the condition number from
    above, with no eigensolve.  A singular or non-finite factor gives an
    infinite or NaN bound, without a warning, and MAX_GRAM_COND drops it.
    """
    stack, S = R.shape[0], R.shape[-1]
    parts = R.view(np.float64)   # each entry's real and imaginary parts
    columns = np.einsum("bij,bij->bj", parts, parts).reshape(-1, S, 2).sum(axis=2)
    leaves = 1 << (max(S - 1, 0) // LEAF_ROWS).bit_length()
    size = max(-(-S // leaves), 1)
    n = leaves * size
    if n == S:
        Y = R
    else:
        Y = np.zeros((stack, n, n), dtype=complex)
        Y[:, :S, :S] = R
        Y[:, range(S, n), range(S, n)] = 1.0
    with np.errstate(all="ignore"):
        diagonal = Y.reshape(stack, n * n)[:, ::n + 1]
        inverse = -1.0 / diagonal.real
        diagonal[...] = inverse
        inverse = inverse.reshape(stack, leaves, size)
        leaf = _diagonal_blocks(Y, size)
        for i in range(size - 2, -1, -1):
            np.multiply((leaf[..., i:i + 1, i + 1:] @ leaf[..., i + 1:, i + 1:])[..., 0, :],
                        inverse[..., i, None], out=leaf[..., i, i + 1:])
        half = size
        while half < n:
            pair = _diagonal_blocks(Y, 2 * half)
            np.matmul(pair[..., :half, :half] @ pair[..., :half, half:], pair[..., half:, half:],
                      out=pair[..., :half, half:])
            half *= 2
        parts = Y.view(np.float64)
        rows = np.einsum("bij,bij->bi", parts, parts)[:, :S]
        return rows, S * np.einsum("bs,bs->b", columns, rows)


# A block's terms, given each trial's observations: every UT's received
# power summed over all streams and its (real) effective channel on its own
# stream, one row per kept trial in trial order and one column per UT; and
# how many of the block's trials were discarded.
_Block = tuple[np.ndarray, np.ndarray, int]


class _Kernel:
    """One run's trials, a block at a time: draw each trial's observations'
    factor R into the run's factor stack, take each precoder's S-column
    factor R_x from it, and form every UT's terms given the observations.

    Everything fixed for the run is worked out here, once: the precoders'
    per-stream diagonal kappa sqrt(p), which reads the stream powers alone,
    and three coefficients per UT i of pilot j, from the pilot weights and
    its amplitude a_i = sqrt(gain/2): a_i^2 c_i^2 (1 + s_j) on ||T_j||^2 and
    a_i^2 2 (1 - c_i w_i) on ||R_x||_F^2 in r, and a_i c_i sqrt(1 + s_j) on
    T[j, j] in d.  Under ZF, T = D fixes the rows of ||T_j||^2 and T[j, j]
    too.  The caller has run every check; a trial runs none.

    A block's trials draw one at a time, each from its own generator, into
    their rows of the block's draw buffers; ``_complete`` then places each
    trial's normals in its factor and forms every diagonal of the block in
    one pass.  ZF keeps a block's draws by one mask on their condition
    bounds.  The reductions that read a whole factor run per kept trial; the
    per-UT gathers and coefficients, which are elementwise, run once per
    block.
    """

    def __init__(self, cfg: SystemConfig, fading: FadingProfile, pilot_powers: np.ndarray,
                 powers: DownlinkPowers, precoder: str, seed: int):
        self.seeds, self.zf = SpawnHash(seed), precoder == ZF
        N, S = cfg.n_antennas, cfg.n_streams
        power = np.concatenate([powers.unicast, powers.multicast])
        self.diag = np.sqrt(2.0 * (N - S) * power) if self.zf else np.sqrt(power / (2.0 * N))
        # The pilot weights w_i = sqrt(tau * power * gain) of unit-variance
        # draws, 1 + s_j per pilot, and each UT's error variance
        # 2 (1 + the other UTs' w^2 on its pilot) / (1 + s_j), which
        # subtracts nothing (see the module docstring).
        pilots = cfg.pilot_offsets
        energy = cfg.pilot_length * (pilot_powers * fading.ut_gains)
        total = 1.0 + _group_sums(energy, pilots)   # 1 + s_j, per pilot
        per_ut = _per_member(total, pilots)
        self.own = _per_member(np.arange(S), pilots)   # each UT's pilot is its stream
        half_gains = fading.ut_gains / 2.0
        coherent = np.sqrt(energy) / per_ut * np.sqrt(total)[self.own]   # c_i sqrt(1 + s_j)
        self.own_scale = np.sqrt(half_gains) * coherent
        self.coherent = half_gains * coherent ** 2
        self.incoherent = half_gains * (2.0 * (1.0 + _group_others(energy, pilots)) / per_ut)
        if self.zf:   # T = D: every trial's ||T_j||^2 = D_j^2 and T[j, j] = D_j
            self.power = self.diag ** 2
            self.coherent_rows = np.broadcast_to(self.power, (BLOCK_TRIALS, S))
            self.own_channel = np.broadcast_to(self.diag, (BLOCK_TRIALS, S))
        else:   # each kept trial's ||T_j||^2 and T[j, j], one row per trial of a block
            self.coherent_rows = np.empty((BLOCK_TRIALS, S))
            self.own_channel = np.empty((BLOCK_TRIALS, S))
        self.frobenius = np.empty((BLOCK_TRIALS, 1))   # each kept trial's ||R_x||_F^2
        # Bartlett: the gamma shapes N - 1 - i that complete each diagonal
        # entry of the k = min(N, S) rows.
        k = min(N, S)
        self.shapes = N - 1.0 - np.arange(k)
        # The block's draws, one row per trial, and the run's factor stack,
        # one k x S factor per trial of a block.  A trial draws its upper
        # trapezoid row by row, and ``upper`` holds where those entries go
        # in the flattened stack, one row per trial.  The draws fill each
        # upper trapezoid, and ZF's inverses are upper triangular too, so
        # the strict lower triangle stays as zeroed here.
        upper = np.flatnonzero(np.triu(np.ones((k, S), dtype=bool)))
        self.upper = np.arange(BLOCK_TRIALS)[:, None] * (k * S) + upper
        self.normals = np.empty((BLOCK_TRIALS, upper.size), dtype=complex)
        self.gammas = np.empty((BLOCK_TRIALS, k))
        self.factors = np.zeros((BLOCK_TRIALS, k, S), dtype=complex)

    def _draw(self, start: int, stop: int) -> np.ndarray:
        """The factors of trials start, ..., stop - 1, at most BLOCK_TRIALS
        of them, in the run's stack: each drawn from its trial's SFC64
        generator, seeded with the words of ``trial_rng``'s SeedSequence,
        which one pass of the seed hash gives for the whole block."""
        states = self.seeds.states((np.arange(start, stop, dtype=np.uint32),), 3)
        for normals, gammas, state in zip(self.normals, self.gammas, states):
            self._factor(np.random.Generator(np.random.SFC64(SpawnedSeed(state))), normals,
                         gammas)
        return self._complete(stop - start)

    def _factor(self, rng: np.random.Generator, normals: np.ndarray, gammas: np.ndarray) -> None:
        """Draw one trial's factor of the unit observations Y = Q R, with Q
        orthonormal in k = min(N, S) columns, into its rows of the block's
        buffers, in the order its generator gives them: the upper
        trapezoid's complex normals, row by row, then one gamma variate per
        diagonal entry (``_complete`` forms R from them)."""
        _cn(rng, normals)
        rng.standard_gamma(self.shapes, out=gammas)

    def _complete(self, n: int) -> np.ndarray:
        """The first n factors of the stack, from the first n trials' draws:
        the k x S upper-trapezoidal factors, whose Gram R^H R has the law of
        Y^H Y, each with a zero strict lower triangle."""
        self.factors.reshape(-1)[self.upper[:n]] = self.normals[:n]
        R = self.factors[:n]
        # R_ii^2 = |z_ii|^2 + 2 Gamma(N - 1 - i): chi-square with 2 (N - i)
        # degrees of freedom, as |z|^2 is chi-square with 2.
        z = R.reshape(n, -1)[:, ::R.shape[2] + 1]
        z[...] = np.sqrt(z.real ** 2 + z.imag ** 2 + 2.0 * self.gammas[:n])
        return R

    def __call__(self, start: int, stop: int) -> _Block:
        """Run trials start, ..., stop - 1: the terms of those kept, in
        trial order, as fresh arrays, which ``_Sums.commit`` overwrites, and
        the count of those discarded because their draw lost rank.  Each kept
        trial's reductions of its whole factor fill the next buffer row."""
        R = self._draw(start, stop)
        if self.zf:
            rows, bounds = _zf_row_norms(R)
            kept = rows[bounds <= MAX_GRAM_COND]   # NaN fails the comparison too
            for row, norms in enumerate(kept):
                # ||R_x||_F^2 = sum_s D_s^2 ||row s of R^-1||^2, all that varies.
                self.frobenius[row] = np.vdot(self.power, norms)
        else:
            kept = R
            for row, factor in enumerate(R):
                R_x = factor * self.diag   # R D: each stream's unit observation, scaled
                T = factor.T @ R_x.conj()   # T[j, s] = x_s^H y_j
                parts = T.view(np.float64)
                self.coherent_rows[row] = np.einsum("ij,ij->i", parts, parts)   # ||T_j||^2
                self.frobenius[row] = np.vdot(R_x, R_x).real
                self.own_channel[row] = T.real.diagonal()
        received, desired = self._terms(len(kept))
        return received, desired, len(R) - len(kept)

    def _terms(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Every UT's terms in the block's first n trials, from their rows
        (gathered by ``take``, which keeps the rows C-contiguous and gives
        fresh arrays under ZF too)."""
        received = self.coherent_rows[:n].take(self.own, axis=1)
        received *= self.coherent
        received += self.incoherent * self.frobenius[:n]
        desired = self.own_channel[:n].take(self.own, axis=1)
        desired *= self.own_scale
        return received, desired


class _Sums:
    """Per-UT sums over the kept trials, which enter in trial order, of
    x = d - m1, x^2, y = r - m2, y^2 and x*y; shifting by the closed-form
    moments keeps the sums of squares free of cancellation.  Also each UT's
    least and greatest x and y, whose difference is the term's range."""

    def __init__(self, m1: np.ndarray, m2: np.ndarray):
        self.m1, self.m2 = m1, m2
        self.x, self.xx, self.y, self.yy, self.xy = (np.zeros(m1.size) for _ in range(5))
        self.x_low, self.y_low = np.full(m1.size, math.inf), np.full(m1.size, math.inf)
        self.x_high, self.y_high = np.full(m1.size, -math.inf), np.full(m1.size, -math.inf)
        self.kept = 0
        self.discarded = 0

    def commit(self, received: np.ndarray, desired: np.ndarray, discarded: int) -> None:
        """Add a block's kept trials, one row each in trial order, and count
        its discarded ones.  The shifts and products run on the block; each
        trial's row enters every sum before the next one's."""
        x = np.subtract(desired, self.m1, out=desired)
        y = np.subtract(received, self.m2, out=received)
        product = np.empty_like(x)
        for total, a, b in ((self.x, x, None), (self.xx, x, x), (self.y, y, None),
                            (self.yy, y, y), (self.xy, x, y)):
            for row in a if b is None else np.multiply(a, b, out=product):
                total += row
        if x.shape[0]:   # a block may keep no trial
            for low, high, a in ((self.x_low, self.x_high, x), (self.y_low, self.y_high, y)):
                np.minimum(low, np.minimum.reduce(a, out=product[0]), out=low)
                np.maximum(high, np.maximum.reduce(a, out=product[0]), out=high)
        self.kept += x.shape[0]
        self.discarded += discarded


def _run_trials(cfg: SystemConfig, fading: FadingProfile,
                pilot_powers_unicast, pilot_powers_multicast,
                powers: DownlinkPowers, precoder: str,
                n_trials: int, seed: int) -> tuple[_Sums, np.ndarray]:
    """Run the trials in order and sum every UT's terms around its
    closed-form moments; return the sums and every UT's closed-form SINR.
    The pilot powers are converted once, by the model, for the closed form
    and the trials alike."""
    require_valid(cfg, fading)
    _check_powers(cfg, powers)
    gain, c = _precoder_factors(cfg, precoder)
    pilot_powers = _pilot_arrays(cfg, pilot_powers_unicast, pilot_powers_multicast)
    stats = _estimation_variances(cfg, fading, pilot_powers)
    _require_estimates(powers, stats, precoder)
    signal, interference = _sinr_terms(cfg, stats, fading, powers, gain, c)
    sums = _Sums(np.sqrt(signal), interference + signal)
    kernel = _Kernel(cfg, fading, pilot_powers, powers, precoder, seed)
    for start in range(0, n_trials, BLOCK_TRIALS):
        sums.commit(*kernel(start, min(start + BLOCK_TRIALS, n_trials)))

    if sums.discarded:
        log.warning("discarded %d of %d trials (rank-deficient estimate matrix)",
                    sums.discarded, n_trials)
    if sums.kept < 2:
        raise DegenerateInputError("fewer than 2 usable trials")
    return sums, signal / (1.0 + interference)


def _wald(n: int, dx: np.ndarray, dy: np.ndarray, vx: np.ndarray, vy: np.ndarray,
          cxy: np.ndarray, rx: np.ndarray, ry: np.ndarray, mx: np.ndarray,
          my: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every UT's Wald statistic of its mean offsets (dx, dy) over n
    trials, whose terms have sample variances vx, vy, covariance cxy and
    ranges rx, ry around moments mx and my, and its degrees of freedom, as
    arrays.

    A term whose range is at most EXACT_RTOL of its moment's magnitude is
    exact: an offset beyond that tolerance there is certain (W = inf), and
    one within it leaves the other term to test alone, as does a pair too
    close to collinear to invert.  Each score is
    the mean offset over its standard error, d / sqrt(v) sqrt(n), and
    squares go through C's pow (``float_power``), as Python's ``** 2`` does.
    """
    sx, sy = np.sqrt(vx), np.sqrt(vy)
    tol_x, tol_y = EXACT_RTOL * np.abs(mx), EXACT_RTOL * np.abs(my)
    exact_x, exact_y = rx <= tol_x, ry <= tol_y
    miss = exact_x & (np.abs(dx) > tol_x) | exact_y & (np.abs(dy) > tol_y)
    with np.errstate(all="ignore"):   # read only where both terms vary
        rho = cxy / (sx * sy)
        tx, ty = dx / sx * math.sqrt(n), dy / sy * math.sqrt(n)
        tx2, ty2 = np.float_power(tx, 2.0), np.float_power(ty, 2.0)
        pair = np.float_power(tx - rho * ty, 2.0) / ((1.0 - rho) * (1.0 + rho)) + ty2
    cases = [miss, ~exact_x & ~exact_y & (np.abs(rho) < 1.0), ~exact_y, ~exact_x]
    return np.select(cases, [math.inf, pair, ty2, tx2], 0.0), np.select(cases, [1, 2, 1, 1], 0)


_LOG_2PI = math.log(2.0 * math.pi)


def _tail_z(w: float) -> float:
    """The z of a Wald statistic w with two degrees of freedom whose p/2 is
    subnormal or zero (w > 1412): the root of log Q(z) = -w/2 - ln 2 for
    the normal tail Q with its series phi(z)/z * (1 - 1/z^2 + 3/z^4 - ...),
    whose next term, 15/z^6, is below 1e-8 at z > 37."""
    log_tail = 0.5 * w + LN2
    z = math.sqrt(2.0 * log_tail)
    for _ in range(4):
        u = 1.0 / (z * z)
        z = math.sqrt(2.0 * log_tail - 2.0 * math.log(z) - _LOG_2PI
                      + 2.0 * math.log1p(u * (3.0 * u - 1.0)))
    return z


def _p_and_z(w: np.ndarray, dof: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The p-value of every Wald statistic w with its dof degrees of freedom
    (0, 1 or 2), and the z with P(|N(0, 1)| > z) = p, finite for every
    finite w.  The arithmetic runs on the arrays; exp, erfc, the normal
    quantile and the tail series run per entry, through ``math`` and
    ``statistics``, whose results numpy's vectorized functions need not
    match to the bit."""
    p, z = np.ones_like(w), np.zeros_like(w)
    one = (dof == 1) | (w == math.inf)
    p[one] = [math.erfc(v) for v in np.sqrt(0.5 * w[one]).tolist()]
    z[one] = np.sqrt(w[one])
    two = (dof == 2) & ~one
    if two.any():
        # Imported here: statistics brings in decimal and fractions, 0.5 MB
        # of RSS that every program importing mimocast would otherwise pay.
        from statistics import NormalDist
        quantile = NormalDist().inv_cdf
        low = -0.5 * w[two]
        p[two] = [math.exp(v) for v in low.tolist()]
        z[two] = [0.0 - quantile(half) if half >= sys.float_info.min else _tail_z(v)
                  for half, v in zip(map(math.exp, (low - LN2).tolist()), w[two].tolist())]
    return p, z


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
    if not MIN_TRIALS <= n_trials <= MAX_TRIALS:
        raise ValueError(f"need {MIN_TRIALS} to {MAX_TRIALS} trials, got {n_trials}")
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
    wald, dof = _wald(n, dx, dy, vx, vy, cxy, sums.x_high - sums.x_low,
                      sums.y_high - sums.y_low, sums.m1, sums.m2)
    p, z = _p_and_z(wald, dof)

    return ValidationReport(precoder=precoder, n_trials=n, n_discarded=sums.discarded,
                            n_unicast=cfg.n_unicast, group_sizes=cfg.group_sizes,
                            closed_form=cf, empirical=empirical, ci_low=low, ci_high=high,
                            z=z, wald=wald, p_value=p, m1_over_se=m1_over_se)
