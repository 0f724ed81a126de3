"""The benchmark's workloads: one round of user commands each, and its oracle.

A round runs the commands a user types, through ``mopls.cli.main(argv)``
in this process with stdout captured.  File names are relative: the
runner works in a private directory.
Inputs come from the round's ``random.Random`` stream, which the
workload seed drives; the program only ever sees the generated files and
flags.  :meth:`Workload.check` is the correctness oracle.  It runs on
every round, outside the timed span, and returns the round's errors.

Every public function and module of the program is looked up at call
time (``self.program.cli.main``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Any

from tracer import CountHook, Probe


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it printed."""

    argv: tuple[str, ...]
    rc: int
    out: str
    err: str


@dataclass
class RoundResult:
    commands: dict[str, Command] = field(default_factory=dict)
    values: dict[str, Any] = field(default_factory=dict)


class Program:
    """The program under test, imported from the checkout's ``src`` tree."""

    def __init__(self) -> None:
        import mopls
        import mopls.cli
        import mopls.formats
        import mopls.graphview
        import mopls.search

        self.mopls = mopls
        self.cli = mopls.cli
        self.formats = mopls.formats
        self.graphview = mopls.graphview
        self.search = mopls.search

    def run(self, *argv: object) -> Command:
        args = tuple(str(a) for a in argv)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(list(args))
            except SystemExit as exc:  # argparse rejects a command line this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return Command(args, rc, out.getvalue(), err.getvalue())

    def clique_free(self, path: str) -> bool:
        """The clique checker, the one maximality check no CLI command runs."""
        square = self.formats.load_square(path)
        return self.graphview.has_clique(self.graphview.complement(square)) is None


def fields(text: str) -> dict[str, str]:
    """``key=value`` tokens of a CLI report; values stop at whitespace."""
    return dict(re.findall(r"(\w+)>?=([^\s']+)", text))


def expect(errors: list[str], what: str, got: object, want: object) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


class Workload:
    """Base class: ``round`` runs the timed work, ``check`` is the oracle."""

    why = ""
    seed_used = True
    #: layers whose traced time must be positive / must be zero on this workload
    active: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()

    def __init__(self, program: Program, **size: Any):
        self.program = program
        self.size = size

    def round(self, rng: random.Random) -> RoundResult:
        raise NotImplementedError

    def check(self, result: RoundResult) -> list[str]:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Checks run once after the timed rounds, on the last round's files."""
        return []

    def _check_exit_codes(self, result: RoundResult, errors: list[str], failing: tuple[str, ...] = ()) -> None:
        for key, cmd in result.commands.items():
            expect(errors, f"{' '.join(cmd.argv)} exit code", cmd.rc, 1 if key in failing else 0)


WROTE = re.compile(r"wrote (\S+) \((\d+) filled cells, n=(\d+), k=(\d+)\)")
CONJUGATES = list(itertools.permutations(range(4)))


def relabel_file(src: str, dst: str, rng: random.Random) -> None:
    """Write ``src`` to ``dst`` with random row, column and symbol permutations
    and a random one of the 24 coordinate conjugates of a two-layer square.

    Done on the JSON document itself, so the input does not depend on the
    program's own relabeling code.
    """
    doc = json.loads(Path(src).read_text())
    n, k = doc["n"], doc["k"]
    perms = [rng.sample(range(n), n) for _ in range(k + 2)]
    order = rng.choice(CONJUGATES)
    cells = []
    for cell in doc["cells"]:
        word = [cell["row"], cell["col"], *cell["entries"]]
        word = [perms[i][x] for i, x in enumerate(word)]
        word = [word[i] for i in order]
        cells.append({"row": word[0], "col": word[1], "entries": word[2:]})
    cells.sort(key=lambda c: (c["row"], c["col"]))
    Path(dst).write_text(json.dumps(dict(doc, cells=cells), indent=2) + "\n")


class Certify(Workload):
    why = ("builds a sparse minimum square and certifies a seeded relabeling of it: "
           "construction, load validation, candidate scan, bound, structure, covering radius")
    active = ("cli", "formats.load", "formats.dump", "core.validate", "construct.build",
              "maximality.scan", "graphview.build", "graphview.clique", "codes.radius",
              "codes.distance", "verify.bound", "verify.transversal", "verify.structure")
    idle = ("maximality.complete", "search.canonical", "search.census", "search.driver")

    def round(self, rng: random.Random) -> RoundResult:
        n, p = self.size["n"], self.program
        r = RoundResult()
        r.commands["construct"] = p.run("construct", "min-mopls", "--n", n, "--out", "raw.json")
        relabel_file("raw.json", "sq.json", rng)
        for what in ("maximal", "bound", "structure"):
            r.commands[what] = p.run("verify", what, "sq.json")
        r.commands["analyze"] = p.run("code", "analyze", "sq.json")
        r.values["clique_free"] = p.clique_free("sq.json")
        return r

    def check(self, result: RoundResult) -> list[str]:
        n, filled, blocks = self.size["n"], self.size["filled"], self.size["blocks"]
        errors: list[str] = []
        self._check_exit_codes(result, errors)
        c = result.commands
        wrote = WROTE.search(c["construct"].out)
        expect(errors, "construct reports", wrote and wrote.groups(), ("raw.json", str(filled), str(n), "2"))
        expect(errors, "verify maximal", c["maximal"].out.strip(),
               f"sq.json: maximal (n={n}, k=2, filled={filled})")
        bound = fields(c["bound"].out)
        for key, want in (("filled", str(filled)), ("ok", "True"), ("lower_bound_hit", "True")):
            expect(errors, f"verify bound {key}", bound.get(key), want)
        expect(errors, "verify structure", c["structure"].out.splitlines()[:1],
               [f"ok=True block_orders={tuple(blocks)}"])
        code = fields(c["analyze"].out)
        for key, want in (("min_distance", "3"), ("covering_radius", "2"),
                          ("maximal", "True"), ("consistent", "True")):
            expect(errors, f"code analyze {key}", code.get(key), want)
        expect(errors, "clique free", result.values["clique_free"], True)
        return errors


class Complete(Workload):
    why = ("greedy random completion of dense unstructured squares (k=2 and k=3): "
           "insertion-time constraints and load validation dominate, the scan is nearly free")
    active = ("cli", "formats.load", "formats.dump", "core.validate", "maximality.scan",
              "maximality.complete", "graphview.build", "graphview.clique", "codes.radius",
              "codes.distance", "verify.bound", "verify.transversal", "verify.structure")
    idle = ("construct.build", "search.canonical", "search.census", "search.driver")

    def round(self, rng: random.Random) -> RoundResult:
        p = self.program
        r = RoundResult()
        for k, key, path in ((2, "n2", "a.json"), (3, "n3", "b.json")):
            seed = rng.randrange(2**31)
            r.commands[f"construct{k}"] = p.run(
                "construct", "maximal", "--n", self.size[key], "--k", k, "--seed", seed, "--out", path)
            r.commands[f"maximal{k}"] = p.run("verify", "maximal", path)
            r.commands[f"analyze{k}"] = p.run("code", "analyze", path)
            if k == 2:
                r.commands["bound2"] = p.run("verify", "bound", path)
                r.commands["structure2"] = p.run("verify", "structure", path)
            r.values[f"clique_free{k}"] = p.clique_free(path)
        return r

    def check(self, result: RoundResult) -> list[str]:
        errors: list[str] = []
        self._check_exit_codes(result, errors, failing=("structure2",))
        c = result.commands
        for k, key, path in ((2, "n2", "a.json"), (3, "n3", "b.json")):
            n = self.size[key]
            wrote = WROTE.search(c[f"construct{k}"].out)
            if not wrote or (wrote.group(1), wrote.group(3), wrote.group(4)) != (path, str(n), str(k)):
                errors.append(f"construct k={k} reports {c[f'construct{k}'].out.strip()!r}")
                continue
            filled = int(wrote.group(2))
            if k == 2 and filled < ceil(n * n / 3):  # the fill bound of maximal pairs
                errors.append(f"completion filled {filled} < ceil(n^2/3)")
            expect(errors, f"verify maximal k={k}", c[f"maximal{k}"].out.strip(),
                   f"{path}: maximal (n={n}, k={k}, filled={filled})")
            code = fields(c[f"analyze{k}"].out)
            expect(errors, f"code analyze k={k} maximal", code.get("maximal"), "True")
            expect(errors, f"code analyze k={k} consistent", code.get("consistent"), "True")
            radius = int(code.get("covering_radius", k + 1))
            if radius > k:
                errors.append(f"k={k} covering radius {radius} > {k}")
            expect(errors, f"clique free k={k}", result.values[f"clique_free{k}"], True)
        bound = fields(c["bound2"].out)
        expect(errors, "verify bound ok", bound.get("ok"), "True")
        expect(errors, "verify structure ok", fields(c["structure2"].out).get("ok"), "False")
        return errors


class Search(Workload):
    why = ("the small-order survey: census at n=2,3 and the order-4 exhaustive search; "
           "is_canonical dominates, checkpoints are its output path")
    seed_used = False
    active = ("cli", "core.validate", "search.canonical", "search.census", "search.driver")
    idle = ("construct.build", "maximality.scan", "maximality.complete", "graphview.build",
            "graphview.clique", "codes.radius", "codes.distance", "verify.bound",
            "verify.transversal", "verify.structure")

    @staticmethod
    def _search_argv(n: int, budget: int | None, *extra: object) -> list[object]:
        argv: list[object] = ["search", "min", "--n", n]
        if budget is not None:
            argv += ["--budget", budget]
        return argv + list(extra)

    def round(self, rng: random.Random) -> RoundResult:
        p = self.program
        r = RoundResult()
        for n in sorted(self.size["census"]):
            r.values[f"census{n}"] = p.search.verify_bound_exhaustive(n, 2)
        for stale in ("cp.json", "result.json"):  # every round starts a fresh search
            Path(stale).unlink(missing_ok=True)
        r.commands["search"] = p.run(*self._search_argv(
            self.size["n"], self.size["budget"], "--checkpoint", "cp.json", "--out", "result.json"))
        return r

    def _result_fields(self, path: str) -> dict[str, Any]:
        doc = json.loads(Path(path).read_text())
        witness = doc.get("witness")
        return {
            "min_size": doc["min_size"], "exact": doc["exact"], "nodes": doc["nodes"],
            "levels_completed": doc["levels_completed"],
            "no_maximal_below": doc["no_maximal_below"],
            "exhausted_budget": doc["exhausted_budget"],
            "witness_filled": None if witness is None else len(witness["cells"]),
        }

    def check(self, result: RoundResult) -> list[str]:
        errors: list[str] = []
        self._check_exit_codes(result, errors)
        for n, histogram in self.size["census"].items():
            report = result.values[f"census{n}"]
            expect(errors, f"census n={n} histogram", report.histogram, histogram)
            expect(errors, f"census n={n} bound holds", report.all_satisfy_bound, True)
        got = self._result_fields("result.json")
        for key, want in self.size["expect"].items():
            expect(errors, f"search {key}", got[key], want)
        return errors

    def final_check(self) -> list[str]:
        """Two resume checks, each across a level boundary.

        The last round's checkpoint is resumed for ``resume["budget"]``
        more nodes and must give ``resume["expect"]``.  A full order-3
        search, stopped by its budget after level 2 and then resumed,
        must reproduce the uninterrupted search's minimum and witness.
        """
        errors: list[str] = []
        p, resume = self.program, self.size["resume"]
        cmd = p.run(*self._search_argv(self.size["n"], resume["budget"], "--checkpoint", "cp.json",
                                       "--resume", "--out", "resumed.json"))
        expect(errors, "resumed search exit code", cmd.rc, 0)
        if cmd.rc == 0:
            got = self._result_fields("resumed.json")
            for key, want in resume["expect"].items():
                expect(errors, f"resumed search {key}", got[key], want)

        whole = p.run(*self._search_argv(3, None, "--out", "whole3.json"))
        part = p.run(*self._search_argv(3, 6, "--checkpoint", "cp3.json", "--out", "part3.json"))
        rest = p.run(*self._search_argv(3, None, "--checkpoint", "cp3.json", "--resume", "--out", "rest3.json"))
        failed = [what for what, cmd in (("whole", whole), ("stopped", part), ("resumed", rest)) if cmd.rc]
        if failed:
            return errors + [f"order-3 {what} search exited non-zero" for what in failed]
        expect(errors, "stopped order-3 search levels", self._result_fields("part3.json")["levels_completed"], 2)
        want = json.loads(Path("whole3.json").read_text())
        got = json.loads(Path("rest3.json").read_text())
        expect(errors, "order-3 min_size", want["min_size"], 3)
        for key in ("min_size", "exact", "witness", "levels_completed", "no_maximal_below", "nodes"):
            expect(errors, f"resumed order-3 search {key}", got.get(key), want.get(key))
        return errors


#: name -> (class, full size, self-check size)
WORKLOADS: dict[str, tuple[type[Workload], dict, dict]] = {
    "certify": (Certify, {"n": 30, "filled": 300, "blocks": (10, 10, 10)},
                {"n": 9, "filled": 27, "blocks": (3, 3, 3)}),
    "complete": (Complete, {"n2": 20, "n3": 11}, {"n2": 9, "n3": 5}),
    "search": (
        Search,
        # the budget stops the order-4 search once levels 1..5 are complete,
        # which proves exhaustively that no maximal order-4 pair has < 6 cells;
        # the resume check then completes level 6 (6,330 more nodes)
        {"n": 4, "budget": 1219, "census": {2: {2: 5}, 3: {3: 1, 6: 5, 9: 1}},
         "expect": {"min_size": None, "exact": False, "nodes": 1219, "levels_completed": 5,
                    "no_maximal_below": 6, "exhausted_budget": True, "witness_filled": None},
         "resume": {"budget": 6330,
                    "expect": {"min_size": None, "exact": False, "nodes": 7549, "levels_completed": 6,
                               "no_maximal_below": 7, "exhausted_budget": True, "witness_filled": None}}},
        {"n": 3, "budget": None, "census": {2: {2: 5}},
         "expect": {"min_size": 3, "exact": True, "no_maximal_below": 3,
                    "exhausted_budget": False, "witness_filled": 3},
         "resume": {"budget": None,
                    "expect": {"min_size": 3, "exact": True, "nodes": 25, "levels_completed": 3,
                               "no_maximal_below": 3, "exhausted_budget": False, "witness_filled": 3}}},
    ),
}


# -- tracing -------------------------------------------------------------------


def _count(key: str, amount=lambda args, result: 1) -> CountHook:
    def hook(totals, args, kwargs, result) -> None:
        totals[key] += amount(args, result)
    return hook


def _validated(totals, args, kwargs, result) -> None:
    totals["core.validate_calls"] += 1
    totals["core.words_validated"] += args[0].filled_count


def _scanned(totals, args, kwargs, result) -> None:
    square = args[0]
    totals["maximality.scan_calls"] += 1
    totals["maximality.empty_cells"] += square.n * square.n - square.filled_count


def _checkpoint_written(totals, args, kwargs, result) -> None:
    totals["search.checkpoint_bytes"] += Path(args[0]).stat().st_size


def probes() -> list[Probe]:
    """The traced functions of every layer, and the counts taken at each."""
    text_read = _count("formats.bytes", lambda args, result: len(args[0]))
    text_written = _count("formats.bytes", lambda args, result: len(result))
    def nodes(args, result):
        return result.nodes

    specs = [
        ("mopls.cli", "main", "cli", _count("cli.calls")),
        ("mopls.formats", "load_square", "formats.load", None),
        ("mopls.formats", "from_json", "formats.load", text_read),
        ("mopls.formats", "from_text_grid", "formats.load", text_read),
        ("mopls.formats", "to_json", "formats.dump", text_written),
        ("mopls.formats", "to_text_grid", "formats.dump", text_written),
        ("mopls.core", "KPartialSquare.validate", "core.validate", _validated),
        *[("mopls.construct", name, "construct.build", None)
          for name in ("min_mopls", "min_mpls", "k_mopls_diagonal", "k_ols", "k_mols_field", "product")],
        ("mopls.maximality", "is_maximal", "maximality.scan", None),  # calls find_extension
        ("mopls.maximality", "find_extension", "maximality.scan", _scanned),
        ("mopls.maximality", "maximalize", "maximality.complete",
         _count("maximality.cells_inserted", lambda args, result: result.filled_count - args[0].filled_count)),
        ("mopls.graphview", "complement", "graphview.build", None),
        ("mopls.graphview", "has_clique", "graphview.clique", None),
        ("mopls.codes", "check_code_equivalence", "codes.analyze", None),
        ("mopls.codes", "to_code", "codes.analyze", None),
        ("mopls.codes", "covering_radius", "codes.radius",
         _count("codes.word_space", lambda args, result: args[0].alphabet_size ** args[0].length)),
        ("mopls.codes", "min_distance", "codes.distance", None),
        ("mopls.verify", "verify_bound", "verify.bound", None),
        ("mopls.verify", "max_empty_transversal", "verify.transversal", None),
        ("mopls.verify", "verify_min_structure", "verify.structure", None),
        ("mopls.verify", "verify_hr_structure", "verify.structure", None),
        ("mopls.search", "is_canonical", "search.canonical", _count("search.canonical_calls")),
        ("mopls.search", "verify_bound_exhaustive", "search.census", _count("search.census_nodes", nodes)),
        ("mopls.search", "min_maximal", "search.driver", _count("search.nodes", nodes)),
        # a private helper, hooked for its byte count only: its time stays in
        # min_maximal's self time, as checkpoint writes are part of its level loop
        ("mopls.search", "_save_checkpoint", None, _checkpoint_written),
    ]
    return [Probe(*spec) for spec in specs]
