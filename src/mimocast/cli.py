"""Command-line front end: it parses the flags, calls the library and
formats what it returns.

Subcommands: ``scenario`` (generate a cell drop), ``mmf`` / ``sse`` (run one
allocation solver), ``pareto`` (trade-off sweep to CSV), ``validate``
(Monte Carlo vs closed form), and ``figure`` (the grids of
``mimocast.figures`` to CSV).  Every output file gets a sibling
``<name>.manifest.json`` holding the resolved arguments, seeds, and a
config hash, enough to re-run it bit-identically.

Exit codes: 0 success, 1 validation or infeasibility, 2 I/O, 3 internal.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import secrets
import sys
import traceback
from datetime import datetime, timezone

from . import __version__, allocation, figures, montecarlo, pareto
from .closed_form import PRECODERS, DownlinkPowers
from .errors import MimocastError
from .model import FadingProfile, PowerSplit, SystemConfig, require_valid
from .scenario import CellGeometry, RadioParams, default_normalized_config, place_users

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad command line or bad input values; maps to exit code 1.

    Library calls that check user input raise ValueError; the CLI turns
    those into UsageError where it makes them, so a ValueError that reaches
    ``main`` is a bug and exits 3, unless it is also a MimocastError (a
    ``PlacementError``), which exits 1.
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


def _write_manifest(outputs: list, command: str, args: argparse.Namespace, seeds: dict):
    """One reproducibility record listing every output of the run, written
    next to each of them.  Its config hash covers the command, the resolved
    arguments and the seeds, which determine the output bytes; the
    timestamp is informational only."""
    body = {"command": command,
            "args": {k: v for k, v in vars(args).items() if k != "func"},
            "seeds": seeds}
    text = _json_text({
        **body,
        "outputs": [str(o) for o in outputs],
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    })
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


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as e:
        raise UsageError(f"{flag} must be comma-separated integers: {e}") from e


def _group_count(count: int, flag: str) -> int:
    """A group count from the command line.  A negative one would silently
    mean no groups at all, since (k,) * -1 == ()."""
    if count < 0:
        raise UsageError(f"{flag} must be non-negative, got {count}")
    return count


def _group_sizes_from_args(args) -> tuple[int, ...]:
    if args.group_sizes:
        return tuple(_int_list(args.group_sizes, "--group-sizes"))
    return (args.group_size,) * _group_count(args.groups, "--groups")


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


def _require_sides(cfg: SystemConfig, p_un: float, p_mu: float):
    """A scenario needs UTs, and a side it lacks must get no power."""
    if cfg.n_unicast == 0 and cfg.n_groups == 0:
        raise UsageError("scenario has no UTs: it needs unicast UTs or multicast groups")
    if cfg.n_unicast == 0 and p_un != 0.0:
        raise UsageError("scenario has no unicast UTs; --p-un must be 0")
    if cfg.n_groups == 0 and p_mu != 0.0:
        raise UsageError("scenario has no multicast groups; the full budget "
                         "must go to unicast (--split-ratio 1:0)")


def cmd_solve(args) -> int:
    """``mmf`` or ``sse``: solve the problem for the other side's fixed
    power, then score the solution."""
    cfg, fading, _ = _load_scenario(args.scenario)
    p_un = _resolve_p_un(args, cfg.total_power)
    p_mu = max(0.0, cfg.total_power - p_un)
    if args.command == "mmf":
        _require_sides(cfg, p_un, 0.0)
        fixed, solve, score = p_un, allocation.solve_mmf, allocation.mmf_se_report
    else:
        _require_sides(cfg, 0.0, p_mu)
        fixed, solve, score = p_mu, allocation.solve_sse, allocation.sse_se_report
    sol = solve(cfg, fading, fixed, args.precoder)
    doc = {
        "problem": args.command,
        "precoder": args.precoder,
        "p_unicast": p_un,
        "p_multicast": p_mu,
        "solution": sol.to_dict(),
        "se_report": score(cfg, fading, sol, fixed).to_dict(),
    }
    _write_text(args.out, _json_text(doc))
    _write_manifest([args.out], args.command, args, {})
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
    if not montecarlo.MIN_TRIALS <= args.trials <= montecarlo.MAX_TRIALS:
        raise UsageError(f"--trials must lie in [{montecarlo.MIN_TRIALS}, "
                         f"{montecarlo.MAX_TRIALS}], got {args.trials}")
    seed = _ensure_seed(args.seed)
    if args.p_un is not None or args.split_ratio is not None:
        p_un = _resolve_p_un(args, cfg.total_power)
    else:   # an equal share for each side the scenario has
        sides = (cfg.n_unicast > 0) + (cfg.n_groups > 0)
        p_un = cfg.total_power / sides if cfg.n_unicast else 0.0
    p_mu = cfg.total_power - p_un
    _require_sides(cfg, p_un, p_mu)
    powers = DownlinkPowers.equal_split(p_un, cfg.n_unicast, p_mu, cfg.n_groups)
    tau = cfg.pilot_length
    report = montecarlo.validate_closed_form(
        cfg, fading,
        cfg.unicast_energy_caps / tau,
        [caps / tau for caps in cfg.multicast_energy_caps],
        powers, args.precoder, args.trials, seed)
    _write_text(args.out, _json_text(report.to_dict()))
    _write_manifest([args.out], "validate", args, {"trials": seed})
    if not report.passed:
        print(f"validation FAILED: pass rate {report.pass_rate:.4f} < {montecarlo.PASS_RATE}",
              file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# ------------------------------------------------------------------- figure


def _grid_rows(args, seed, cells, objective):
    """Per cell (N, U, G, K) and precoder: the cell, the precoder, and the
    formatted drop mean and feasibility of ``figures.drop_means``."""
    if args.drops < 1:
        raise UsageError(f"--drops must be at least 1, got {args.drops}")
    configs = [default_normalized_config(n, args.coherence, u, (k,) * g)
               for n, u, g, k in cells]
    means, feasible = figures.drop_means(configs, objective, args.drops, seed)
    return [(cell, prec, _fmt(mean), ok)
            for cell, cell_means, cell_ok in zip(cells, means.tolist(), feasible.tolist())
            for prec, mean, ok in zip(PRECODERS, cell_means, cell_ok)]


def _figure_rows_fig2(args, seed):
    """Max-min multicast SE over a (groups x group size x antennas) grid."""
    n_list = _int_list(args.antennas_list, "--antennas-list")
    g_list = [_group_count(g, "--g-list") for g in _int_list(args.g_list, "--g-list")]
    k_list = _int_list(args.k_list, "--k-list")
    cells = [(n, args.unicast, g, k) for n in n_list for g in g_list for k in k_list]
    rows = [[args.figure, prec, n, g, k, u, args.drops, mean, ok]
            for (n, u, g, k), prec, mean, ok in _grid_rows(args, seed, cells, "mmf")]
    header = ["figure", "precoder", "n_antennas", "n_groups", "group_size",
              "n_unicast", "drops", "mmf_se", "feasible"]
    return header, rows


def _figure_rows_fig3(args, seed):
    """Unicast sum SE over a (unicast count x antennas) grid."""
    n_list = _int_list(args.antennas_list, "--antennas-list")
    u_list = _int_list(args.u_list, "--u-list")
    g = _group_count(args.groups, "--groups")
    cells = [(n, u, g, args.group_size) for n in n_list for u in u_list]
    rows = [[args.figure, prec, n, u, g, k, args.drops, mean, ok]
            for (n, u, g, k), prec, mean, ok in _grid_rows(args, seed, cells, "sse")]
    header = ["figure", "precoder", "n_antennas", "n_unicast", "n_groups",
              "group_size", "drops", "sse", "feasible"]
    return header, rows


def _figure_rows_fig4(args, seed):
    """Trade-off boundaries for each antenna count and both precoders."""
    n_list = _int_list(args.antennas_list, "--antennas-list")
    if args.points < 2:
        raise UsageError(f"--points must be at least 2, got {args.points}")
    sizes = (args.group_size,) * _group_count(args.groups, "--groups")
    configs = [default_normalized_config(n, args.coherence, args.unicast, sizes)
               for n in n_list]
    rows = [[args.figure, b.precoder, b.cfg.n_antennas, _fmt(p.p_unicast),
             _fmt(p.p_multicast), _fmt(p.mmf_objective), _fmt(p.sse_objective)]
            for b in figures.boundaries(configs, args.points, seed) for p in b.points]
    header = ["figure", "precoder", "n_antennas", "p_un", "p_mu", "mmf_se", "sse"]
    return header, rows


_FIGURES = {"fig2": _figure_rows_fig2, "fig3": _figure_rows_fig3, "fig4": _figure_rows_fig4}


def cmd_figure(args) -> int:
    seed = _ensure_seed(args.seed)
    header, rows = _FIGURES[args.figure](args, seed)
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

    for name, help_ in (("mmf", "max-min multicast allocation"),
                        ("sse", "weighted sum-SE unicast allocation")):
        q = sub.add_parser(name, help=help_)
        q.add_argument("--scenario", required=True)
        q.add_argument("--precoder", choices=PRECODERS, required=True)
        q.add_argument("--p-un", type=float, default=None,
                       help="unicast downlink power (normalized)")
        q.add_argument("--split-ratio", type=str, default=None,
                       help="unicast:multicast power ratio, e.g. 1:1")
        q.add_argument("--out", required=True)
        q.set_defaults(func=cmd_solve)

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
                    help="unicast downlink power (default: half the budget, or "
                         "all of it to the only side the scenario has)")
    va.add_argument("--split-ratio", type=str, default=None,
                    help="unicast:multicast power ratio, e.g. 1:1")
    va.add_argument("--out", required=True)
    va.set_defaults(func=cmd_validate)

    fg = sub.add_parser("figure", help="grid sweep CSVs")
    fg.add_argument("figure", choices=sorted(_FIGURES))
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


_parser = functools.cache(build_parser)   # built on the process's first call, then reused


def main(argv=None) -> int:
    parser = _parser()
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
