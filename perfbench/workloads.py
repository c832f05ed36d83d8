"""The three benchmark workloads and the checks on their outputs.

A workload turns the benchmark seed into program inputs; the program only
ever sees those generated inputs.  Ops are numbered: op 0 is the untimed
warm-up that every worker process repeats, and ops 1, 2, ... form one
deterministic stream that the timed phase walks through in blocks of
``block`` ops.  Only public entry points are called: ``mimocast.cli.main``
and the top-level exports of ``mimocast``.

Calls go through module attributes at call time (``mc.sweep_boundary``,
``cli.main``) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import mimocast as mc
from mimocast import cli

PAPER_CELL = {"n_antennas": 100, "coherence_length": 200, "n_unicast": 50,
              "group_sizes": (100,) * 10}

# The CLI's default grids, passed explicitly so the benchmark knows the grid
# it must find in each CSV.
FIGURE_GRID = {
    "antennas": (100, 250, 500),
    "g": (2, 4, 6, 8, 10),
    "k": tuple(range(10, 101, 10)),
    "u": tuple(range(10, 101, 10)),
    "unicast": 50,
    "groups": 10,
    "group_size": 100,
    "drops": 10,
}

SPLIT_ATOL = 1e-10   # selected split vs the split attaining the target, times P
TARGET_RTOL = 1e-7   # selected objective vs requested target, counted only
SE_RTOL = 1e-9       # scored SEs vs solver objectives (AC-1's tolerance)


@dataclass
class Outcome:
    """What one checked unit (set-up or op) produced."""

    units: int = 0
    output: bytes = b""
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 63))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _paper_cell(rng: np.random.Generator):
    cfg = mc.default_normalized_config(**PAPER_CELL)
    fading, _ = mc.place_users(mc.CellGeometry(), PAPER_CELL["n_unicast"],
                               PAPER_CELL["group_sizes"], _draw_seed(rng))
    return cfg, fading


class FigureGrid:
    """One op regenerates both grid figures: ``figure fig2`` then ``figure
    fig3`` through ``cli.main``.  A work unit is one drop of one grid cell,
    solved for MRT and for ZF where feasible."""

    name = "figure-grid"
    block = 1

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> Outcome:
        return Outcome()

    def request(self, i: int) -> dict:
        rng = _rng(self.seed, 0, i)
        return {"fig2": _draw_seed(rng), "fig3": _draw_seed(rng)}

    def _argv(self, fig: str, seed: int) -> list[str]:
        g = FIGURE_GRID
        argv = ["figure", fig, "--seed", str(seed), "--drops", str(g["drops"]),
                "--antennas-list", ",".join(map(str, g["antennas"])),
                "--out", os.path.join(self.workdir, f"{fig}.csv")]
        if fig == "fig2":
            argv += ["--g-list", ",".join(map(str, g["g"])),
                     "--k-list", ",".join(map(str, g["k"])),
                     "--unicast", str(g["unicast"])]
        else:
            argv += ["--u-list", ",".join(map(str, g["u"])),
                     "--groups", str(g["groups"]), "--group-size", str(g["group_size"])]
        return argv

    def run(self, req: dict) -> dict:
        return {fig: cli.main(self._argv(fig, seed)) for fig, seed in req.items()}

    def check(self, req: dict, codes: dict) -> Outcome:
        out = Outcome(counters={"cli_bytes": 0})
        for fig in req:
            if codes[fig] != 0:
                out.failures.append(f"{fig}: exit code {codes[fig]}")
                continue
            path = os.path.join(self.workdir, f"{fig}.csv")
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path + ".manifest.json", "rb") as fh:
                out.counters["cli_bytes"] += len(data) + len(fh.read())
            out.output += data
            out.units += self._check_csv(fig, data.decode(), out)
        return out

    @staticmethod
    def _check_csv(fig: str, text: str, out: Outcome) -> int:
        """Check one figure CSV; return the number of drops it covers."""
        g = FIGURE_GRID
        if fig == "fig2":
            objective, key_cols = "mmf_se", ("n_antennas", "n_groups", "group_size")
            cells = [(n, gg, k) for n in g["antennas"] for gg in g["g"] for k in g["k"]]
        else:
            objective, key_cols = "sse", ("n_antennas", "n_unicast")
            cells = [(n, u) for n in g["antennas"] for u in g["u"]]
        expected = {(prec, cell) for prec in mc.PRECODERS for cell in cells}
        seen = []
        for row in csv.DictReader(io.StringIO(text)):
            cell = tuple(int(row[c]) for c in key_cols)
            seen.append((row["precoder"], cell))
            n, u, groups = int(row["n_antennas"]), int(row["n_unicast"]), int(row["n_groups"])
            value, feasible = float(row[objective]), row["feasible"] == "True"
            where = f"{fig} {row['precoder']} {cell}"
            out.expect(math.isfinite(value), f"{where}: objective {value} not finite")
            out.expect(feasible == (row["precoder"] == mc.MRT or n > u + groups),
                       f"{where}: feasible={feasible} but N={n}, U+G={u + groups}")
            out.expect(value > 0 if feasible else value == 0,
                       f"{where}: objective {value} with feasible={feasible}")
        out.expect(len(seen) == len(expected) and set(seen) == expected,
                   f"{fig}: {len(seen)} rows do not cover the {len(expected)} "
                   f"(precoder, cell) pairs once each")
        return len(cells) * g["drops"]


class OperatingPoint:
    """Requests against fixed trade-off boundaries of the paper's default
    cell.  Set-up places a few drops and sweeps and checks each boundary;
    one op selects a point by target or ratio and scores it."""

    name = "operating-point"
    block = 3          # each block holds one request of each kind
    KINDS = ("target_mmf", "target_sse", "ratio")
    DROPS = 3
    SWEEP_POINTS = 21

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cells = []        # (cfg, fading, boundary) per drop and precoder

    def setup(self) -> Outcome:
        out = Outcome()
        rng = _rng(self.seed, 1, 0)
        for d in range(self.DROPS):
            cfg, fading = _paper_cell(rng)
            for prec in mc.PRECODERS:
                boundary = mc.sweep_boundary(cfg, fading, prec, self.SWEEP_POINTS)
                convexity = mc.check_convexity(boundary)
                self.cells.append((cfg, fading, boundary))
                out.output += mc.boundary_csv(boundary).encode()
                self._check_boundary(f"drop {d} {prec}", boundary, convexity, out)
        return out

    @staticmethod
    def _check_boundary(where, boundary, convexity, out: Outcome):
        pts = boundary.points
        mmf = [p.mmf_objective for p in pts]
        sse = [p.sse_objective for p in pts]
        out.expect(all(b < a for a, b in zip(mmf, mmf[1:])),
                   f"{where}: mmf not strictly decreasing along the sweep")
        out.expect(all(b > a for a, b in zip(sse, sse[1:])),
                   f"{where}: sse not strictly increasing along the sweep")
        out.expect(sse[0] == 0.0 and mmf[-1] == 0.0,
                   f"{where}: endpoints sse[0]={sse[0]}, mmf[-1]={mmf[-1]} not exactly 0")
        out.expect(convexity.is_concave_boundary,
                   f"{where}: convexity check failed ({convexity.worst_violation})")

    def request(self, i: int) -> tuple:
        rng = _rng(self.seed, 1, 1, i)
        if i == 0:
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
        else:
            order = _rng(self.seed, 1, 2, (i - 1) // self.block).permutation(len(self.KINDS))
            kind = self.KINDS[order[(i - 1) % self.block]]
        cell = int(rng.integers(len(self.cells)))
        u = float(rng.uniform())
        if kind == "ratio":
            return cell, kind, (u, 1.0 - u)
        pts = self.cells[cell][2].points
        if kind == "target_mmf":
            lo, hi = pts[-1].mmf_objective, pts[0].mmf_objective
        else:
            lo, hi = pts[0].sse_objective, pts[-1].sse_objective
        return cell, kind, lo + u * (hi - lo)

    def run(self, req: tuple):
        cell, kind, value = req
        cfg, fading, boundary = self.cells[cell]
        chosen = mc.select_operating_point(boundary, **{kind: value})
        pt = chosen.point
        mmf_report = mc.mmf_se_report(cfg, fading, pt.mmf_solution, pt.p_unicast)
        sse_report = mc.sse_se_report(cfg, fading, pt.sse_solution, pt.p_multicast)
        return chosen, mmf_report, sse_report

    def _within_split_tolerance(self, cell: int, kind: str, target: float,
                                split: float) -> bool:
        """Whether ``split`` lies within the bisection's documented tolerance
        of the split that attains ``target``: the objectives one tolerance
        either side of it straddle the target, as both are monotone in the
        split.  Near full multicast the ZF sum SE is so steep that this
        tolerance allows objective errors far above TARGET_RTOL."""
        cfg, fading, boundary = self.cells[cell]
        P = cfg.total_power
        tol = SPLIT_ATOL * P
        ends = [mc.solve_split(cfg, fading, boundary.precoder, p)
                for p in (max(0.0, split - tol), min(P, split + tol))]
        obj = [p.mmf_objective if kind == "target_mmf" else p.sse_objective for p in ends]
        return min(obj) <= target <= max(obj)

    def check(self, req: tuple, result) -> Outcome:
        cell, kind, value = req
        cfg = self.cells[cell][0]
        chosen, mmf_report, sse_report = result
        pt = chosen.point
        out = Outcome(units=1)
        where = f"{kind}={value!r} on cell {cell}"
        out.expect(not chosen.clamped, f"{where}: in-range request came back clamped")
        if kind != "ratio":
            got = pt.mmf_objective if kind == "target_mmf" else pt.sse_objective
            err = _rel(got, value)
            out.expect(self._within_split_tolerance(cell, kind, value, pt.p_unicast),
                       f"{where}: split {pt.p_unicast!r} (objective {got!r}, relative "
                       f"error {err:.3g}) is not within {SPLIT_ATOL:g}*P of the target's split")
            out.counters = {"targets": 1, "targets_beyond_rtol": int(err > TARGET_RTOL)}
        mu = [se for grp in mmf_report.multicast_se for se in grp]
        spread = _rel(max(mu), min(mu))
        out.expect(spread <= SE_RTOL, f"{where}: multicast SEs spread by {spread:.3g}")
        out.expect(_rel(min(mu), pt.mmf_objective) <= SE_RTOL,
                   f"{where}: min multicast SE {min(mu)!r} != mmf objective {pt.mmf_objective!r}")
        uni = sum(w * se for w, se in zip(cfg.sse_weights, sse_report.unicast_se))
        out.expect(_rel(uni, pt.sse_objective) <= SE_RTOL,
                   f"{where}: weighted unicast SE {uni!r} != sse objective {pt.sse_objective!r}")
        out.output = json.dumps([pt.p_unicast, pt.mmf_objective, pt.sse_objective,
                                 chosen.clamped, mmf_report.to_dict(),
                                 sse_report.to_dict()]).encode()
        return out


class McPaperCell:
    """One ``validate_closed_form`` call per op on the paper's default cell:
    full-cap pilots, equal split at 1:1, precoder alternating MRT/ZF.  A
    work unit is one kept trial."""

    name = "mc-paper-cell"
    block = 1
    TRIALS = 200
    Z_LIMIT = 3.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> Outcome:
        self.cfg, self.fading = _paper_cell(_rng(self.seed, 2, 0))
        cfg = self.cfg
        tau, half = cfg.pilot_length, cfg.total_power / 2.0
        self.pilots_unicast = [e / tau for e in cfg.unicast_energy_caps]
        self.pilots_multicast = [[e / tau for e in caps] for caps in cfg.multicast_energy_caps]
        self.powers = mc.DownlinkPowers.equal_split(half, cfg.n_unicast, half, cfg.n_groups)
        return Outcome()

    def request(self, i: int) -> tuple:
        return (mc.MRT if i % 2 else mc.ZF), _draw_seed(_rng(self.seed, 2, 1, i))

    def run(self, req: tuple):
        precoder, seed = req
        return mc.validate_closed_form(self.cfg, self.fading, self.pilots_unicast,
                                       self.pilots_multicast, self.powers, precoder,
                                       self.TRIALS, seed)

    def check(self, req: tuple, report) -> Outcome:
        cfg = self.cfg
        z = [r.z for r in report.records]
        out = Outcome(units=report.n_trials, counters={
            "trials": report.n_trials + report.n_discarded,
            "discarded": report.n_discarded,
            "z_total": len(z),
            "z_within": sum(1 for v in z if abs(v) <= self.Z_LIMIT),
        })
        where = f"{req[0]} seed {req[1]}"
        users = cfg.n_unicast + sum(cfg.group_sizes)
        out.expect(len(z) == users, f"{where}: {len(z)} records for {users} users")
        out.expect(all(math.isfinite(v) for v in z), f"{where}: non-finite z-score")
        out.expect(report.n_trials + report.n_discarded == self.TRIALS,
                   f"{where}: kept {report.n_trials} + discarded {report.n_discarded} "
                   f"!= {self.TRIALS} requested")
        out.output = json.dumps(report.to_dict(), sort_keys=True).encode()
        return out


WORKLOADS = {w.name: w for w in (FigureGrid, OperatingPoint, McPaperCell)}
