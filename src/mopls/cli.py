"""Command-line interface.

Subcommands mirror the library: ``construct`` builds squares, ``verify``
checks properties of squares read from files, ``search min`` runs the
exhaustive ascending-size scan, ``code`` analyzes or exports the word
code of a square, and ``export graph`` writes the complement graph.
Only ``verify maximal`` takes several files; with ``--json`` it prints
one object per file, in argument order.

Every invocation that writes an output file also writes a
``<out>.manifest.json`` next to it recording the command line, parsed
parameters, SHA-256 digests of inputs and outputs, tool version, and
wall time.  Outputs and manifests alike are written with
:func:`mopls.formats.write_atomic`, so a failed write leaves the previous
file whole.

Exit codes: 0 success; 1 a verification failed (or a built square or a
printed certificate failed its own check); 2 usage error (including
``--n`` or ``--k`` below 1 or above :data:`mopls.formats.MAX_ORDER` or
:data:`mopls.formats.MAX_LAYERS` on ``construct`` and ``search``, a
``--budget`` below 0, a second square file on any ``verify`` but
``verify maximal``, and an empty or missing ``--out`` on ``code
export`` and ``export graph``; an empty ``--out`` elsewhere means stdout),
or an output file that cannot be written
(including a text grid above :data:`mopls.formats.MAX_TEXT_ORDER`); 3
malformed input file or search checkpoint, including a missing
checkpoint for ``--resume``; 4 parameters are infeasible (for example a
minimum construction at an order whose blocks do not exist).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any

from . import __version__
from .codes import check_code_equivalence, code_to_json, to_code
from .construct import ConstructionError, k_mopls_diagonal, k_ols, min_mopls, min_mpls
from .core import KPartialSquare, SquareError
from .formats import MAX_LAYERS, MAX_ORDER, MAX_TEXT_ORDER, ParseError, json_document, load_square, save_square, to_json, to_text_grid, write_atomic
from .graphview import complement
from .maximality import find_extension, maximalize
from .search import min_maximal
from .verify import check_lemma2, verify_bound, verify_hr_structure, verify_min_structure

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_INFEASIBLE = 4


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RunContext:
    """Collects file reads/writes so a manifest can be emitted at the end."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.started = time.time()
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def read_square(self, path: str) -> KPartialSquare:
        p = Path(path)
        square = load_square(p)
        self.inputs.append(p)
        return square

    def write_text(self, path: Path, text: str) -> None:
        write_atomic(path, text)
        self.outputs.append(path)

    def write_manifests(self, parameters: dict[str, Any]) -> None:
        if not self.outputs:
            return
        doc = {
            "tool": "mopls",
            "version": __version__,
            "argv": self.argv,
            "parameters": parameters,
            "inputs": [
                {"path": str(p), "sha256": _sha256(p)} for p in self.inputs
            ],
            "outputs": [
                {"path": str(p), "sha256": _sha256(p)} for p in self.outputs
            ],
            "wall_time_seconds": round(time.time() - self.started, 3),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        for out in self.outputs:
            manifest = out.with_name(out.name + ".manifest.json")
            write_atomic(manifest, json.dumps(doc, indent=2) + "\n")


def _json_default(value: Any) -> Any:
    """``json.dumps``'s hook for reports: a square as its file document, a
    dataclass as its fields."""
    if isinstance(value, KPartialSquare):
        return json_document(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(args: argparse.Namespace, report: Any, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, default=_json_default))
    else:
        for line in lines:
            print(line)


def _write_square(ctx: RunContext, args: argparse.Namespace, square: KPartialSquare) -> None:
    fmt = args.format
    if args.out:
        out = Path(args.out)
        save_square(square, out, fmt)
        ctx.outputs.append(out)
        print(f"wrote {out} ({square.filled_count} filled cells, n={square.n}, k={square.k})")
    else:
        if fmt == "text" or fmt == "auto" and square.n <= MAX_TEXT_ORDER:
            print(to_text_grid(square), end="")
        else:
            print(to_json(square), end="")


def _check_positive(args: argparse.Namespace) -> None:
    """Reject ``--n`` or ``--k`` below 1 as a usage error before anything is built."""
    for flag in ("n", "k"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be at least 1, got {getattr(args, flag)}")


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ParseError(f"{flag} expects comma-separated integers, got {text!r}") from None


# -- construct -----------------------------------------------------------------


def cmd_construct(ctx: RunContext, args: argparse.Namespace) -> int:
    _check_positive(args)
    kind = args.what
    if kind == "min-mopls":
        square = min_mopls(args.n)
    elif kind == "min-mpls":
        square = min_mpls(args.n)
    elif kind == "k-mopls":
        if args.blocks is None:
            raise ConstructionError("k-mopls requires --blocks")
        square = k_mopls_diagonal(args.n, args.k, _parse_int_list(args.blocks, "--blocks"))
    elif kind == "k-ols":
        square = k_ols(args.k, args.n)
    elif kind == "maximal":
        policy = "random" if args.seed is not None else "lex"
        square = maximalize(KPartialSquare.empty(args.n, args.k), policy=policy, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(kind)
    _write_square(ctx, args, square)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


def _verify_one_maximal(path: str) -> tuple[dict[str, Any], str]:
    """The JSON report object and the report line of one file."""
    report = {"path": path, "exit_code": EXIT_OK, "witness": None, "error": None}
    try:
        square = load_square(path)
    except ParseError as exc:
        report.update(exit_code=EXIT_MALFORMED, error=str(exc))
        return report, f"{path}: malformed: {exc}"
    witness = find_extension(square)
    if witness is None:
        return report, f"{path}: maximal (n={square.n}, k={square.k}, filled={square.filled_count})"
    report.update(exit_code=EXIT_VERIFY_FAILED, witness=witness)
    return report, f"{path}: extendable at {witness.cell} with {witness.entries}"


def cmd_verify(ctx: RunContext, args: argparse.Namespace) -> int:
    what = args.what
    if what == "maximal":
        paths = args.files
        # the CPUs this process may run on, where the platform tells
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(args.threads or 1, len(paths), cpus)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_verify_one_maximal, paths))
        else:
            results = [_verify_one_maximal(p) for p in paths]
        _emit(args, [report for report, _ in results], [line for _, line in results])
        ctx.inputs.extend(Path(p) for p in paths)
        return max(report["exit_code"] for report, _ in results)

    if len(args.files) > 1:
        raise ValueError(f"verify {what} takes one square file, got {len(args.files)}")
    square = ctx.read_square(args.files[0])
    if what == "bound":
        report = verify_bound(square)
        lines = [
            f"filled={report.filled} min_frequency={report.min_frequency} "
            f"({report.family} {report.index}) transversal={report.transversal}",
            f"required>={report.required} lower_bound_hit={report.attains_lower_bound} "
            f"tight={report.tight} ok={report.ok}",
        ]
    elif what in ("structure", "hr"):
        report = (verify_min_structure if what == "structure" else verify_hr_structure)(square)
        lines = [f"ok={report.ok} block_orders={report.block_orders}"]
        if report.reason:
            lines.append(f"reason: {report.reason}")
        if report.note:
            lines.append(f"note: {report.note}")
    else:  # lemma2; argparse restricts choices
        if args.rows is None or args.cols is None:
            print("verify lemma2 requires --rows and --cols", file=sys.stderr)
            return EXIT_USAGE
        rows = _parse_int_list(args.rows, "--rows")
        cols = _parse_int_list(args.cols, "--cols")
        report = check_lemma2(square, rows, cols)
        lines = [
            f"d={report.d} t={report.t} residual_filled={report.residual_filled} "
            f"freq_ok={report.freq_ok} ok={report.ok}",
        ]
    _emit(args, report, lines)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


# -- search ----------------------------------------------------------------------


def cmd_search(ctx: RunContext, args: argparse.Namespace) -> int:
    _check_positive(args)
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be at least 0, got {args.budget}")
    result = min_maximal(
        args.n,
        args.k,
        budget=args.budget,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    lines = [
        f"n={result.n} k={result.k} nodes={result.nodes} levels_completed={result.levels_completed}",
        f"min_size={result.min_size} exact={result.exact} no_maximal_below={result.no_maximal_below}",
    ]
    if result.exhausted_budget:
        lines.append(f"budget of {result.budget} nodes exhausted; resume with --resume")
    _emit(args, result, lines)
    if args.out:
        ctx.write_text(Path(args.out), json.dumps(result, indent=2, default=_json_default) + "\n")
    return EXIT_OK


# -- code and graph ---------------------------------------------------------------


def cmd_code(ctx: RunContext, args: argparse.Namespace) -> int:
    square = ctx.read_square(args.file)
    if args.what == "analyze":
        report = check_code_equivalence(square)
        _emit(args, report, [
            f"{report.size} words of length {report.length} over {report.n} letters",
            f"min_distance={report.min_distance} covering_radius={report.covering_radius}",
            f"maximal={report.maximal} rule='{report.rule}' consistent={report.consistent}",
        ])
        return EXIT_OK if report.consistent else EXIT_VERIFY_FAILED
    if args.what == "export":
        if not args.out:
            print("code export requires --out", file=sys.stderr)
            return EXIT_USAGE
        ctx.write_text(Path(args.out), code_to_json(to_code(square)))
        print(f"wrote {args.out}")
        return EXIT_OK
    raise AssertionError(args.what)  # pragma: no cover


def cmd_export(ctx: RunContext, args: argparse.Namespace) -> int:
    if not args.out:
        print("export graph requires --out", file=sys.stderr)
        return EXIT_USAGE
    square = ctx.read_square(args.file)
    graph = complement(square)
    out = Path(args.out)
    if args.format == "edges":
        edges = [[a, b] for a, b in graph.to_edge_list()]
        doc = {
            "format": "complement-graph",
            "version": 1,
            "n": square.n,
            "k": square.k,
            "groups": graph.groups,
            "edges": edges,
        }
        ctx.write_text(out, json.dumps(doc, indent=2) + "\n")
    else:
        ctx.write_text(out, graph.to_dot())
    print(f"wrote {out}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _at_most(limit: int):
    """An argparse type: an int no larger than ``limit``, so that ``--n`` and
    ``--k`` above the file formats' limits are usage errors before anything
    is built."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds the supported maximum {limit}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mopls",
        description="Maximal orthogonal partial Latin squares: construct, verify, search, export.",
    )
    parser.add_argument("--version", action="version", version=f"mopls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build squares")
    p_con.add_argument(
        "what", choices=["min-mopls", "min-mpls", "k-mopls", "k-ols", "maximal"]
    )
    p_con.add_argument("--n", type=_at_most(MAX_ORDER), required=True, help="order of the square")
    p_con.add_argument("--k", type=_at_most(MAX_LAYERS), default=2, help="number of entry layers")
    p_con.add_argument("--blocks", help="comma-separated block orders (k-mopls)")
    p_con.add_argument("--seed", type=int, help="randomized completion seed (maximal)")
    p_con.add_argument("--out", help="output file (text grid or JSON by suffix)")
    p_con.add_argument("--format", choices=["auto", "text", "json"], default="auto")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="check properties of square files")
    p_ver.add_argument("what", choices=["maximal", "bound", "structure", "hr", "lemma2"])
    p_ver.add_argument("files", nargs="+", help="square file(s): several for maximal, one otherwise")
    p_ver.add_argument("--rows", help="comma-separated region rows (lemma2)")
    p_ver.add_argument("--cols", help="comma-separated region cols (lemma2)")
    p_ver.add_argument("--threads", type=int,
                       help="parallel workers for maximal batches, at most one per file and one per usable CPU")
    p_ver.add_argument("--json", action="store_true", help="machine-readable report")
    p_ver.set_defaults(func=cmd_verify)

    p_sea = sub.add_parser("search", help="exhaustive ascending-size search")
    p_sea_sub = p_sea.add_subparsers(dest="what", required=True)
    p_min = p_sea_sub.add_parser("min", help="minimum size of a maximal square")
    p_min.add_argument("--n", type=_at_most(MAX_ORDER), required=True)
    p_min.add_argument("--k", type=_at_most(MAX_LAYERS), default=2)
    p_min.add_argument("--budget", type=int,
                       help="cap on the canonical squares accepted in this run; "
                            "nodes= counts only the squares of completed levels")
    p_min.add_argument("--checkpoint", help="checkpoint file (JSON)")
    p_min.add_argument("--resume", action="store_true", help="resume from checkpoint")
    p_min.add_argument("--out", help="write the result as JSON")
    p_min.add_argument("--json", action="store_true")
    p_min.set_defaults(func=cmd_search)

    p_code = sub.add_parser("code", help="word-code view of a square")
    p_code.add_argument("what", choices=["analyze", "export"])
    p_code.add_argument("file", help="square file")
    p_code.add_argument("--out", help="output file (export)")
    p_code.add_argument("--json", action="store_true")
    p_code.set_defaults(func=cmd_code)

    p_exp = sub.add_parser("export", help="export derived structures")
    p_exp_sub = p_exp.add_subparsers(dest="what", required=True)
    p_gra = p_exp_sub.add_parser("graph", help="complement graph of a square")
    p_gra.add_argument("file", help="square file")
    p_gra.add_argument("--out", required=True, help="output file")
    p_gra.add_argument("--format", choices=["dot", "edges"], default="dot")
    p_gra.set_defaults(func=cmd_export)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares: parsing leaves a parser unchanged,
    and building one per call costs a millisecond and leaves cyclic garbage."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    ctx = RunContext(argv=["mopls"] + argv)
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key != "func" and not key.startswith("_")
    }
    try:
        status = args.func(ctx, args)
        ctx.write_manifests(parameters)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SquareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
