"""The paper's figure grids as arrays.

``grid_configs`` builds a grid's stock configs, one per cell (N, U, G, K):
each (U, G, K) shape once, and its cells at other antenna counts as
siblings that share its arrays.  ``drop_means`` gives fig2 and fig3: per
grid cell (a config) and precoder, the mean max-min or sum-SE objective at
an even power split over random user placements, and whether the precoder
can serve the cell.  It works shape by shape: the cells alike but for
their antenna counts are placed as one stack, validated by the model's one
check of a config and a stack (``require_valid``), and solved together,
and each objective places only the gains it reads (max-min every UT's, sum
SE the unicast UTs').  ``boundaries`` gives fig4: the trade-off boundary of
one placement under each config and precoder.  All place users in the
default geometry.
"""

from __future__ import annotations

import operator
import sys
from typing import Sequence

import numpy as np

from . import allocation, pareto
from .closed_form import PRECODERS, _precoder_factors
from .errors import InvalidConfigError, ZfInfeasibleError
from .model import FadingStack, SystemConfig, _row_sums, _with_count, require_valid
from .scenario import CellGeometry, _check_counts, default_normalized_config, place_drops
from .seeds import SpawnedSeed, SpawnHash


def grid_configs(cells: Sequence[tuple[int, int, int, int]],
                 coherence_length: int) -> list[SystemConfig]:
    """The stock config of each grid cell (N, U, G, K): N antennas, U
    unicast UTs and G groups of K, ``default_normalized_config(N,
    coherence_length, U, (K,) * G)``.  It is built once per (U, G, K)
    shape, at the shape's first cell; the shape's later cells are its
    siblings at their own antenna counts, which share its arrays and equal
    the configs built afresh.  A cell raises what its config built afresh
    raises, and the first failing cell's error is the one raised."""
    shapes: dict[str, SystemConfig] = {}
    configs = []
    for n, u, g, k in cells:
        key = repr((u, g, k))   # so that 2 and 2.0 are different shapes
        if key in shapes:
            configs.append(_with_count(shapes[key], "n_antennas", n))
        else:
            configs.append(shapes.setdefault(
                key, default_normalized_config(n, coherence_length, u, (k,) * g)))
    return configs


def _drop_states(seed: int, n_cells: int, n_drops: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(cell, drop)).generate_state(4,
    np.uint64)`` of every cell and drop, as a (cells, drops, 4) array: the
    words PCG64 asks its seed for, from one pass of the seed hash over every
    cell and drop at once."""
    return SpawnHash(seed).states((np.arange(n_cells, dtype=np.uint32)[:, None],
                                   np.arange(n_drops, dtype=np.uint32)), 4)


# Each objective's allocation problem (see ``allocation``).
_PROBLEMS = {"mmf": allocation._mmf_problem, "sse": allocation._sse_problem}


def _shape(cfg: SystemConfig) -> tuple:
    """All a grid cell's drops read of its config but the antenna count.
    Numbers are compared by repr and arrays by their bytes, so cells of one
    shape hold the very same values."""
    return (repr((cfg.coherence_length, cfg.n_unicast, cfg.group_sizes, cfg.pilot_length,
                  cfg.total_power)),
            *(a.tobytes() for a in (cfg.ut_offsets, cfg.ut_energy_caps, cfg.sse_weights)))


def _shapes(configs: Sequence[SystemConfig]) -> list[list[int]]:
    """The cells of each shape, in order of the shapes' first cells."""
    cells = {}
    for c, cfg in enumerate(configs):
        cells.setdefault(_shape(cfg), []).append(c)
    return list(cells.values())


def _valid_cells(cfgs: Sequence[SystemConfig], drops: FadingStack,
                 n_drops: int) -> tuple[int, InvalidConfigError | None]:
    """How many cells of one shape, in order, are valid with their drops,
    and the error of the first that is not (None if every cell is valid).

    The cells differ only in their antenna counts, so the first is
    validated with the drops of all, and a later one only if a config
    rejects its count.  A bad gain, which the default geometry never gives
    (``_placed``), fails the first cell with its first bad drop's error."""
    for i, cfg in enumerate(cfgs):
        if i == 0 or not 1 <= cfg.n_antennas <= sys.float_info.max:
            try:
                require_valid(cfg, drops if i == 0 else drops.rows(i * n_drops,
                                                                    (i + 1) * n_drops))
            except InvalidConfigError as e:
                return i, e
    return len(cfgs), None


def _placed(cfg: SystemConfig, objective: str, seeds: list[SpawnedSeed]) -> FadingStack:
    """The drops of ``seeds`` stacked as far as the objective reads them:
    max-min every gain, sum SE the unicast gains alone, the first of each
    placement's draws, with the counts checked as for every UT.  Any gain
    left out or placed is valid: in the default geometry the weakest, at
    the cell edge, exceeds ``MIN_GAIN`` by far."""
    sizes = cfg.group_sizes
    if objective == "sse":
        _check_counts(cfg.n_unicast, sizes)
        sizes = ()
    return place_drops(CellGeometry(), cfg.n_unicast, sizes, seeds)


def _shape_means(cfgs: Sequence[SystemConfig], states: np.ndarray,
                 objective: str) -> tuple[np.ndarray, np.ndarray, InvalidConfigError | None]:
    """``drop_means`` of the cells of one shape, whose drops' seed states
    are ``states`` (cells, drops, 4), up to the first invalid cell, and that
    cell's error (None if there is none).

    Any other error is raised: it is the one the shape's first cell would
    raise on its own, as the drops of every cell are placed, and those of
    the valid cells solved, together.  (The solvers' only errors that
    depend on a drop's gains, pilot qualities or estimate variances that
    underflow to zero, need gains far below those of the default geometry.)
    Each precoder solves them in one pass, with each cell's own array gain;
    a precoder that cannot serve a cell's antenna count leaves it
    infeasible."""
    first, n_drops = cfgs[0], states.shape[1]
    drops = _placed(first, objective, [SpawnedSeed(s) for s in states.reshape(-1, 4)])
    n_valid, invalid = _valid_cells(cfgs, drops, n_drops)
    if n_valid == 0:
        raise invalid
    n_antennas = np.array([cfg.n_antennas for cfg in cfgs[:n_valid]])
    counts = np.repeat(n_antennas, n_drops)
    problem = _PROBLEMS[objective](first, drops.rows(0, n_valid * n_drops), PRECODERS[0],
                                   counts)
    means = np.zeros((n_valid, len(PRECODERS)))
    feasible = np.zeros(means.shape, dtype=bool)
    for p, prec in enumerate(PRECODERS):
        if prec != problem.precoder:
            problem = problem.under(prec, counts)
        vals = problem.objectives(first.total_power / 2.0)
        served = ~np.isnan(_precoder_factors(first, prec, n_antennas)[0])
        # The drops' objectives added left to right, as a Python sum adds them.
        means[served, p] = _row_sums(vals.reshape(n_valid, n_drops))[served] / n_drops
        feasible[:, p] = served
    return means, feasible, invalid


def drop_means(configs: Sequence[SystemConfig], objective: str, n_drops: int,
               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per config (grid cell) and precoder (in ``PRECODERS`` order), the
    mean ``objective`` ("mmf" or "sse") at an even power split over
    ``n_drops`` user placements, and whether the precoder is feasible: two
    (cells, precoders) arrays, float64 and bool.  An infeasible precoder
    has a zero mean.

    Drop d of cell c is placed from ``SeedSequence(entropy=seed,
    spawn_key=(c, d))``; the seeds of every drop come from one pass.  Cells
    that differ only in their antenna counts share a shape: in the model
    the count enters nothing but the precoder's array gain.  The drops of a
    shape's cells are placed as one stack, as far as the objective reads
    them (``_placed``), and validated once, the problem's
    precoder-free arrays are worked out once for both precoders (``under``),
    and each precoder solves every drop in one pass (see ``_shape_means``).
    Each cell gives the numbers, and the grid the error, that the cells
    placed, validated and solved one by one in order would give: the first
    failing cell's.  ``n_drops`` and ``seed`` are integers
    (``operator.index``).
    """
    if objective not in _PROBLEMS:
        raise ValueError(f"unknown objective {objective!r}, expected one of {sorted(_PROBLEMS)}")
    n_drops, seed = operator.index(n_drops), operator.index(seed)
    if n_drops < 1:
        raise ValueError(f"need at least one drop, got {n_drops}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    means = np.zeros((len(configs), len(PRECODERS)))
    feasible = np.zeros(means.shape, dtype=bool)
    states = _drop_states(seed, len(configs), n_drops)
    invalid = None   # the first invalid cell found so far, and its error
    for cells in _shapes(configs):
        if invalid is not None and invalid[0] < cells[0]:
            break   # the cells of this shape and of the later ones all come after it
        # What this raises is the error of the shape's first cell, which
        # comes before every cell found invalid so far.
        m, f, error = _shape_means([configs[c] for c in cells], states[cells], objective)
        means[cells[:len(m)]], feasible[cells[:len(m)]] = m, f
        if error is not None and (invalid is None or cells[len(m)] < invalid[0]):
            invalid = cells[len(m)], error
    if invalid is not None:
        raise invalid[1]
    return means, feasible


def boundaries(configs: Sequence[SystemConfig], n_points: int,
               seed: int) -> list[pareto.ParetoBoundary]:
    """The ``n_points``-point trade-off boundary of one placement, drawn
    with ``numpy.random.default_rng(seed)``, under each config and each
    precoder it can serve, in config then ``PRECODERS`` order.  The configs
    differ only in what the placement does not read: it takes its UT counts
    from the first."""
    if not configs:
        return []
    first = configs[0]
    fading = place_drops(CellGeometry(), first.n_unicast, first.group_sizes, [seed]).drop(0)
    out = []
    for cfg in configs:
        for prec in PRECODERS:
            try:
                out.append(pareto.sweep_boundary(cfg, fading, prec, n_points))
            except ZfInfeasibleError:
                continue
    return out
