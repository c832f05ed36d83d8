"""Command-line front end.

Subcommands: ``scenario`` (generate a cell drop), ``mmf`` / ``sse`` (run one
allocation solver), ``pareto`` (trade-off sweep to CSV), ``validate``
(Monte Carlo vs closed form), and ``figure`` (grid sweeps).  Every output
file gets a sibling ``<name>.manifest.json`` holding the resolved arguments,
seeds, and a config hash, enough to re-run it bit-identically.

Exit codes: 0 success, 1 validation or infeasibility, 2 I/O, 3 internal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import secrets
import sys
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, allocation, montecarlo, pareto
from .closed_form import PRECODERS
from .errors import MimocastError, ZfInfeasibleError
from .model import (FadingProfile, FadingStack, PowerSplit, SystemConfig, require_valid,
                    require_valid_drops)
from .scenario import (CellGeometry, RadioParams, default_normalized_config, place_drops,
                       place_users)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad command line or bad input values; maps to exit code 1.

    Library calls that check user input raise ValueError; the CLI turns
    those into UsageError where it makes them, so a ValueError that reaches
    ``main`` is a bug and exits 3.
    """


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise UsageError(f"{path} is not valid JSON: {e}") from e


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every output file.

    The config hash covers command, resolved arguments, and seeds: anything
    that determines the output bytes.  Timestamps are informational only.
    """

    command: str
    args: dict
    seeds: dict
    outputs: tuple[str, ...]
    tool_version: str
    config_sha256: str
    created_utc: str

    @classmethod
    def build(cls, command: str, args: dict, seeds: dict, outputs) -> "RunManifest":
        body = {"command": command, "args": args, "seeds": seeds}
        return cls(
            command=command,
            args=args,
            seeds=seeds,
            outputs=tuple(str(o) for o in outputs),
            tool_version=__version__,
            config_sha256=hashlib.sha256(
                json.dumps(body, sort_keys=True).encode()).hexdigest(),
            created_utc=datetime.now(timezone.utc).isoformat(),
        )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "args": self.args,
            "seeds": self.seeds,
            "outputs": list(self.outputs),
            "tool_version": self.tool_version,
            "config_sha256": self.config_sha256,
            "created_utc": self.created_utc,
        }


def _write_manifest(outputs: list, command: str, args: argparse.Namespace, seeds: dict):
    """One manifest listing every output of the run, next to each of them."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    text = _json_text(RunManifest.build(command, resolved, seeds, outputs).to_dict())
    for out_path in outputs:
        _write_text(str(out_path) + ".manifest.json", text)


def _ensure_seed(seed: int | None) -> int:
    """Explicit seed, or a fresh one that the manifest will record."""
    if seed is not None and seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    return secrets.randbits(63) if seed is None else seed


def _parse_ratio(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(":")
        a, b = float(a), float(b)
    except ValueError as e:
        raise UsageError(f"--split-ratio must look like A:B, got {text!r}") from e
    if not (math.isfinite(a) and math.isfinite(b)):
        raise UsageError(f"--split-ratio parts must be finite, got {text!r}")
    return a, b


def _resolve_p_un(args, total: float) -> float:
    if args.p_un is not None and args.split_ratio is not None:
        raise UsageError("give either --p-un or --split-ratio, not both")
    if args.p_un is not None:
        if not 0.0 <= args.p_un <= total:
            raise UsageError(f"--p-un must lie in [0, {total}], got {args.p_un}")
        return args.p_un
    if args.split_ratio is not None:
        a, b = _parse_ratio(args.split_ratio)
        try:
            return PowerSplit.from_ratio(a, b, total).p_unicast
        except ValueError as e:
            raise UsageError(f"--split-ratio {args.split_ratio}: {e}") from e
    raise UsageError("one of --p-un or --split-ratio is required")


def _load_scenario(path: str):
    doc = _read_json(path)
    try:
        cfg = SystemConfig.from_dict(doc["system"])
        fading = FadingProfile.from_dict(doc["fading"])
        require_valid(cfg, fading)
    except KeyError as e:
        raise UsageError(f"scenario file {path} is missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise UsageError(f"scenario file {path} holds a malformed value: {e}") from e
    return cfg, fading, doc


# ----------------------------------------------------------------- scenario


def _group_count(count: int, flag: str) -> int:
    """A group count from the command line.  A negative one would silently
    mean no groups at all, since (k,) * -1 == ()."""
    if count < 0:
        raise UsageError(f"{flag} must be non-negative, got {count}")
    return count


def _group_sizes_from_args(args) -> tuple[int, ...]:
    if args.group_sizes:
        try:
            sizes = tuple(int(s) for s in args.group_sizes.split(","))
        except ValueError as e:
            raise UsageError(f"--group-sizes must be comma-separated integers: {e}") from e
    else:
        sizes = (args.group_size,) * _group_count(args.groups, "--groups")
    return sizes


def cmd_scenario(args) -> int:
    geometry = CellGeometry(
        cell_radius=args.cell_radius,
        exclusion_radius=args.exclusion_radius,
        pathloss_exponent=args.pathloss_exponent,
        attenuation_const=args.attenuation_const,
    )
    radio = RadioParams(
        bandwidth_hz=args.bandwidth,
        noise_psd_dbm_hz=args.noise_psd,
        tx_power_watts=args.tx_power,
    )
    sizes = _group_sizes_from_args(args)
    seed = _ensure_seed(args.seed)
    try:
        geometry.validate()
        radio.validate()
        fading, placement = place_users(geometry, args.unicast, sizes, seed)
    except ValueError as e:
        raise UsageError(str(e)) from e
    cfg = default_normalized_config(args.antennas, args.coherence, args.unicast,
                                    sizes, radio)
    require_valid(cfg, fading)
    doc = {
        "geometry": geometry.to_dict(),
        "radio": radio.to_dict(),
        "seed": seed,
        "system": cfg.to_dict(),
        "positions": placement.to_dict(),
        "fading": fading.to_dict(),
    }
    _write_text(args.out, _json_text(doc))
    _write_manifest([args.out], "scenario", args, {"placement": seed})
    return EXIT_OK


# ---------------------------------------------------------------- mmf / sse


def cmd_mmf(args) -> int:
    cfg, fading, _ = _load_scenario(args.scenario)
    p_un = _resolve_p_un(args, cfg.total_power)
    if cfg.n_unicast == 0 and p_un != 0.0:
        raise UsageError("scenario has no unicast UTs; --p-un must be 0")
    sol = allocation.solve_mmf(cfg, fading, p_un, args.precoder)
    report = allocation.mmf_se_report(cfg, fading, sol, p_un)
    doc = {
        "problem": "mmf",
        "precoder": args.precoder,
        "p_unicast": p_un,
        "p_multicast": max(0.0, cfg.total_power - p_un),
        "solution": sol.to_dict(),
        "se_report": report.to_dict(),
    }
    _write_text(args.out, _json_text(doc))
    _write_manifest([args.out], "mmf", args, {})
    return EXIT_OK


def cmd_sse(args) -> int:
    cfg, fading, _ = _load_scenario(args.scenario)
    p_un = _resolve_p_un(args, cfg.total_power)
    p_mu = max(0.0, cfg.total_power - p_un)
    if cfg.n_groups == 0 and p_mu != 0.0:
        raise UsageError("scenario has no multicast groups; the full budget "
                         "must go to unicast (--split-ratio 1:0)")
    sol = allocation.solve_sse(cfg, fading, p_mu, args.precoder)
    report = allocation.sse_se_report(cfg, fading, sol, p_mu)
    doc = {
        "problem": "sse",
        "precoder": args.precoder,
        "p_unicast": p_un,
        "p_multicast": p_mu,
        "solution": sol.to_dict(),
        "se_report": report.to_dict(),
    }
    _write_text(args.out, _json_text(doc))
    _write_manifest([args.out], "sse", args, {})
    return EXIT_OK


# ------------------------------------------------------------------- pareto


def cmd_pareto(args) -> int:
    cfg, fading, _ = _load_scenario(args.scenario)
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    if args.convexity_out and args.points < 3:
        raise UsageError(f"--convexity-out needs --points of at least 3, got {args.points}")
    boundary = pareto.sweep_boundary(cfg, fading, args.precoder, args.points)
    _write_text(args.out, pareto.boundary_csv(boundary))
    outputs = [args.out]
    if args.convexity_out:
        report = pareto.check_convexity(boundary)
        _write_text(args.convexity_out, _json_text(report.to_dict()))
        outputs.append(args.convexity_out)
    _write_manifest(outputs, "pareto", args, {})
    return EXIT_OK


# ----------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    cfg, fading, _ = _load_scenario(args.scenario)
    if args.trials < 100:
        raise UsageError(f"--trials must be at least 100, got {args.trials}")
    seed = _ensure_seed(args.seed)
    if args.p_un is None and args.split_ratio is None:
        p_un = cfg.total_power / 2.0
    else:
        p_un = _resolve_p_un(args, cfg.total_power)
    p_mu = cfg.total_power - p_un
    powers = montecarlo.DownlinkPowers.equal_split(
        p_un if cfg.n_unicast else 0.0, cfg.n_unicast,
        p_mu if cfg.n_groups else 0.0, cfg.n_groups)
    tau = cfg.pilot_length
    report = montecarlo.validate_closed_form(
        cfg, fading,
        cfg.unicast_energy_caps / tau,
        [caps / tau for caps in cfg.multicast_energy_caps],
        powers, args.precoder, args.trials, seed)
    _write_text(args.out, _json_text(report.to_dict()))
    _write_manifest([args.out], "validate", args, {"trials": seed})
    if not report.passed:
        print(f"validation FAILED: pass rate {report.pass_rate:.4f} < 0.99",
              file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# ------------------------------------------------------------------- figure


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as e:
        raise UsageError(f"{flag} must be comma-separated integers: {e}") from e


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx: hashmix, mix,
# mix_entropy, generate_state), a documented and stable stream contract.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, const):
    """SeedSequence's hashmix of a word (a Python int or a uint32 array)
    and the hash constant it passes on; constants stay Python ints."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _mix_word(pool: list, word, const):
    """Mix one entropy word into every pool word, as mix_entropy does with
    the words past the pool size."""
    for i in range(len(pool)):
        h, const = _hashmix(word, const)
        pool[i] = _mix(pool[i], h)
    return const


def _drop_states(seed: int, n_cells: int, n_drops: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(cell, drop)).generate_state(4,
    np.uint64)`` of every cell and drop, as a (cells, drops, 4) array.

    A spawn key pads the seed's 32-bit words with zeros to the pool size
    (4) and follows them, so every drop shares the pool the seed's own
    words mix into: that part runs once, on Python ints.  The cell and drop
    words and the state that follows run on uint32 arrays (which wrap, as
    the hash does) over every cell and drop at once.
    """
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool, const = [], _INIT_A
    for w in words[:4]:
        h, const = _hashmix(w, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in words[4:]:
        const = _mix_word(pool, w, const)
    const = _mix_word(pool, np.arange(n_cells, dtype=np.uint32)[:, None], const)
    _mix_word(pool, np.arange(n_drops, dtype=np.uint32), const)
    state, const = np.empty((n_cells, n_drops, 8), dtype="<u4"), _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        v = v * const & _MASK32
        state[..., i] = v ^ v >> 16
    # As generate_state does: word pairs read as little-endian uint64s.
    return state.view("<u8").astype(np.uint64, copy=False)


class _DropSeed(np.random.bit_generator.ISeedSequence):
    """One drop's seed: the words its SeedSequence would generate for
    PCG64, which asks for exactly ``generate_state(4, np.uint64)``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a drop seed only holds the 4 uint64 words PCG64 reads")
        return self.state


def _place(n_unicast: int, group_sizes, seeds) -> FadingStack:
    """Default-geometry drops, one per seed, for user-given UT counts."""
    try:
        return place_drops(CellGeometry(), n_unicast, group_sizes, seeds)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _drop_means(args, seed, grid, config, pieces) -> list[list[tuple[str, str, bool]]]:
    """Per grid cell, (precoder, mean objective, feasible) for each precoder.

    Cell c is ``config(*grid[c])``; it averages the objective at an even
    power split over args.drops user placements, drop d placed from
    ``SeedSequence(entropy=seed, spawn_key=(c, d))``.  A precoder the cell
    cannot support is flagged infeasible with a zero mean.  The seeds of
    every drop come from one pass (``_drop_states``).  A cell's drops are
    placed as one stack, validated once, and ``pieces``
    (``allocation._mmf_pieces`` or ``_sse_pieces``) works out what both
    precoders share; each precoder then adds its own step and solves every
    drop in one pass.
    """
    if args.drops < 1:
        raise UsageError(f"--drops must be at least 1, got {args.drops}")
    cells = []
    for point, states in zip(grid, _drop_states(seed, len(grid), args.drops)):
        cfg = config(*point)
        drops = require_valid_drops(cfg, _place(cfg.n_unicast, cfg.group_sizes,
                                                [_DropSeed(s) for s in states]))
        shared = pieces(cfg, drops)
        row = []
        for prec in PRECODERS:
            try:
                vals = shared.problem(prec).objectives(cfg.total_power / 2.0).tolist()
            except ZfInfeasibleError:
                vals = []
            row.append((prec, _fmt(sum(vals) / len(vals) if vals else 0.0), bool(vals)))
        cells.append(row)
    return cells


def _figure_rows_fig2(args, seed):
    """Max-min multicast SE over a (groups x group size x antennas) grid."""
    n_list = _int_list(args.antennas_list, "--antennas-list")
    g_list = [_group_count(g, "--g-list") for g in _int_list(args.g_list, "--g-list")]
    k_list = _int_list(args.k_list, "--k-list")
    grid = [(n, g, k) for n in n_list for g in g_list for k in k_list]

    def config(n, g, k):
        return default_normalized_config(n, args.coherence, args.unicast, (k,) * g)

    rows = [[args.figure, prec, n, g, k, args.unicast, args.drops, mean, feasible]
            for (n, g, k), cell in zip(grid, _drop_means(args, seed, grid, config,
                                                         allocation._mmf_pieces))
            for prec, mean, feasible in cell]
    header = ["figure", "precoder", "n_antennas", "n_groups", "group_size",
              "n_unicast", "drops", "mmf_se", "feasible"]
    return header, rows


def _figure_rows_fig3(args, seed):
    """Unicast sum SE over a (unicast count x antennas) grid."""
    n_list = _int_list(args.antennas_list, "--antennas-list")
    u_list = _int_list(args.u_list, "--u-list")
    sizes = (args.group_size,) * _group_count(args.groups, "--groups")
    grid = [(n, u) for n in n_list for u in u_list]

    def config(n, u):
        return default_normalized_config(n, args.coherence, u, sizes)

    rows = [[args.figure, prec, n, u, args.groups, args.group_size, args.drops,
             mean, feasible]
            for (n, u), cell in zip(grid, _drop_means(args, seed, grid, config,
                                                      allocation._sse_pieces))
            for prec, mean, feasible in cell]
    header = ["figure", "precoder", "n_antennas", "n_unicast", "n_groups",
              "group_size", "drops", "sse", "feasible"]
    return header, rows


def _figure_rows_fig4(args, seed):
    """Trade-off boundaries for each antenna count and both precoders."""
    n_list = _int_list(args.antennas_list, "--antennas-list")
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    sizes = (args.group_size,) * _group_count(args.groups, "--groups")
    fading = _place(args.unicast, sizes, [seed]).drop(0)
    rows = []
    for n in n_list:
        cfg = default_normalized_config(n, args.coherence, args.unicast, sizes)
        for prec in PRECODERS:
            try:
                boundary = pareto.sweep_boundary(cfg, fading, prec, args.points)
            except ZfInfeasibleError:
                continue
            for p in boundary.points:
                rows.append([args.figure, prec, n, _fmt(p.p_unicast),
                             _fmt(p.p_multicast), _fmt(p.mmf_objective),
                             _fmt(p.sse_objective)])
    header = ["figure", "precoder", "n_antennas", "p_un", "p_mu", "mmf_se", "sse"]
    return header, rows


def cmd_figure(args) -> int:
    seed = _ensure_seed(args.seed)
    builders = {"fig2": _figure_rows_fig2, "fig3": _figure_rows_fig3,
                "fig4": _figure_rows_fig4}
    try:
        builder = builders[args.figure]
    except KeyError:
        raise UsageError(f"unknown figure id {args.figure!r}; "
                         f"expected one of {sorted(builders)}")
    header, rows = builder(args, seed)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _write_text(args.out, buf.getvalue())
    _write_manifest([args.out], "figure", args, {"drops": seed})
    return EXIT_OK


# ------------------------------------------------------------------ parsing


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mimocast",
                description="Joint unicast / multi-group multicast massive MIMO "
                            "downlink: allocation solvers, trade-off sweeps, and "
                            "Monte Carlo validation.")
    p.add_argument("--version", action="version", version=f"mimocast {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="generate a cell scenario JSON")
    sc.add_argument("--unicast", type=int, default=50)
    sc.add_argument("--groups", type=int, default=10)
    sc.add_argument("--group-size", type=int, default=100)
    sc.add_argument("--group-sizes", type=str, default=None,
                    help="comma-separated per-group sizes (overrides --groups/--group-size)")
    sc.add_argument("--antennas", type=int, default=100)
    sc.add_argument("--coherence", type=int, default=200)
    sc.add_argument("--cell-radius", type=float, default=500.0)
    sc.add_argument("--exclusion-radius", type=float, default=35.0)
    sc.add_argument("--pathloss-exponent", type=float, default=3.76)
    sc.add_argument("--attenuation-const", type=float, default=10.0 ** -3.5)
    sc.add_argument("--bandwidth", type=float, default=20e6)
    sc.add_argument("--noise-psd", type=float, default=-174.0)
    sc.add_argument("--tx-power", type=float, default=10.0)
    sc.add_argument("--seed", type=int, default=None)
    sc.add_argument("--out", required=True)
    sc.set_defaults(func=cmd_scenario)

    for name, fn, help_ in (("mmf", cmd_mmf, "max-min multicast allocation"),
                            ("sse", cmd_sse, "weighted sum-SE unicast allocation")):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--scenario", required=True)
        q.add_argument("--precoder", choices=PRECODERS, required=True)
        q.add_argument("--p-un", type=float, default=None,
                       help="unicast downlink power (normalized)")
        q.add_argument("--split-ratio", type=str, default=None,
                       help="unicast:multicast power ratio, e.g. 1:1")
        q.add_argument("--out", required=True)
        q.set_defaults(func=fn)

    pa = sub.add_parser("pareto", help="trade-off boundary sweep to CSV")
    pa.add_argument("--scenario", required=True)
    pa.add_argument("--precoder", choices=PRECODERS, required=True)
    pa.add_argument("--points", type=int, default=21)
    pa.add_argument("--convexity-out", type=str, default=None)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=cmd_pareto)

    va = sub.add_parser("validate", help="Monte Carlo vs closed-form SINR check")
    va.add_argument("--scenario", required=True)
    va.add_argument("--precoder", choices=PRECODERS, required=True)
    va.add_argument("--trials", type=int, default=10000)
    va.add_argument("--seed", type=int, default=None)
    va.add_argument("--p-un", type=float, default=None,
                    help="unicast downlink power (default: half the budget)")
    va.add_argument("--split-ratio", type=str, default=None,
                    help="unicast:multicast power ratio, e.g. 1:1")
    va.add_argument("--out", required=True)
    va.set_defaults(func=cmd_validate)

    fg = sub.add_parser("figure", help="grid sweep CSVs")
    fg.add_argument("figure", choices=["fig2", "fig3", "fig4"])
    fg.add_argument("--antennas-list", type=str, default="100,250,500")
    fg.add_argument("--g-list", type=str, default="2,4,6,8,10")
    fg.add_argument("--k-list", type=str, default="10,20,30,40,50,60,70,80,90,100")
    fg.add_argument("--u-list", type=str, default="10,20,30,40,50,60,70,80,90,100")
    fg.add_argument("--unicast", type=int, default=50)
    fg.add_argument("--groups", type=int, default=10)
    fg.add_argument("--group-size", type=int, default=100)
    fg.add_argument("--coherence", type=int, default=200)
    fg.add_argument("--drops", type=int, default=10)
    fg.add_argument("--points", type=int, default=21)
    fg.add_argument("--seed", type=int, default=None)
    fg.add_argument("--out", required=True)
    fg.set_defaults(func=cmd_figure)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, MimocastError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
