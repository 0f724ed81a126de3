"""Every file ``mopls`` reads or writes goes through this module.

Two square formats:

* **text grid**: n lines of n whitespace-separated tokens; a token is
  ``-`` for an empty cell or k base-36 digits giving the cell's entry
  tuple with 1-based symbols (1..9 then A=10, B=11, ...).  Human-facing
  and limited to n <= 35.  An all-empty grid does not determine k, so
  parsing accepts an optional explicit ``k``.
* **structured JSON**: a versioned, self-describing document with
  explicit ``n`` and ``k`` and 0-based cells.  Lossless for every square
  including the empty one; preferred for machine interchange.  Orders
  above :data:`MAX_ORDER` and layer counts above :data:`MAX_LAYERS` are
  rejected before anything is built.

:func:`load_square` is the one square reader: it tells JSON from a grid
by a leading brace.  Both parsers type-check the cells, hand them to the
square without a second conversion and re-validate it, and every
malformed, unreadable or undecodable input raises :class:`ParseError`.
:func:`save_square` is the one square writer and picks the format by
suffix.  :func:`to_json` fills a string template rather than running the
pure-Python indented encoder; a test pins its output to the bytes of
``json.dumps(json_document(square), indent=2)``.  Squares, the CLI's
other outputs, their manifests and search checkpoints are all written by
:func:`write_atomic`, which replaces the target whole, and checkpoints
are read by :func:`read_json`.
"""

from __future__ import annotations

import json
import operator
import os
from itertools import chain
from pathlib import Path
from typing import Any

from .core import Cell, EntryTuple, KPartialSquare, SquareError

DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_TEXT_ORDER = 35  # one base-36 digit per 1-based symbol
#: Largest order either parser accepts.  Checking a square costs time and
#: memory that grow with n (the candidate scan visits all n^2 cells), so a
#: tiny file must not be able to declare n = 10^8; 2000 is well above the
#: orders the constructions are checked at (n = 300 takes seconds).
MAX_ORDER = 2000
#: Largest layer count k either parser accepts.  A square's constraint
#: index holds (k + 2)^2 lists of n masks and the candidate scan packs
#: k(k - 1)/2 pair tables of n * ceil(n / 64) words, so a tiny file must
#: not be able to declare k = 10^5 either; at k = 32 and n = 2000 those
#: tables take about 250 MB.
MAX_LAYERS = 32

JSON_FORMAT = "kpls"
JSON_VERSION = 1


class ParseError(ValueError):
    """Malformed or inconsistent serialized square."""


def _symbol_to_digit(v: int) -> str:
    return DIGITS[v + 1]


def _digit_to_symbol(ch: str, n: int) -> int:
    # str.upper maps some non-ASCII letters onto digits: "\u017f" to "S", "\ufb06" to "ST"
    v = DIGITS.find(ch.upper()) if ch.isascii() else -1
    if v < 1 or v > n:
        raise ParseError(f"digit {ch!r} is not a symbol in 1..{n}")
    return v - 1


def to_text_grid(square: KPartialSquare) -> str:
    """Render as an n x n grid of tokens, one row per line."""
    if square.n > MAX_TEXT_ORDER:
        raise ValueError(
            f"text grid supports n <= {MAX_TEXT_ORDER}, got n={square.n}; use JSON"
        )
    lines = []
    for r in range(square.n):
        tokens = []
        for c in range(square.n):
            entries = square.entries_at((r, c))
            if entries is None:
                tokens.append("-")
            else:
                tokens.append("".join(_symbol_to_digit(e) for e in entries))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def from_text_grid(text: str, k: int | None = None) -> KPartialSquare:
    """Parse a text grid.

    ``k`` may be omitted when at least one cell is filled (the token
    length determines it); an entirely empty grid needs it explicitly.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ParseError("empty input")
    n = len(rows)
    if n > MAX_TEXT_ORDER:
        raise ParseError(f"text grid supports n <= {MAX_TEXT_ORDER}, got {n} rows")
    for r, tokens in enumerate(rows):
        if len(tokens) != n:
            raise ParseError(f"row {r + 1} has {len(tokens)} tokens, expected {n}")
    seen_k: int | None = None
    cells: dict[Cell, EntryTuple] = {}
    for r, tokens in enumerate(rows):
        for c, token in enumerate(tokens):
            if token == "-":
                continue
            if seen_k is None:
                seen_k = len(token)
            elif len(token) != seen_k:
                raise ParseError(
                    f"token {token!r} at row {r + 1} col {c + 1} has {len(token)} digits, "
                    f"expected {seen_k}"
                )
            cells[(r, c)] = tuple(_digit_to_symbol(ch, n) for ch in token)
    if seen_k is None:
        if k is None:
            raise ParseError("grid has no filled cells; pass k explicitly")
        seen_k = k
    elif k is not None and k != seen_k:
        raise ParseError(f"grid tokens have {seen_k} digits but k={k} was requested")
    if seen_k > MAX_LAYERS:
        raise ParseError(f"layer count k={seen_k} exceeds the supported maximum {MAX_LAYERS}")
    try:
        square = KPartialSquare(n, seen_k, cells)
        square.projections()  # validates
    except SquareError as exc:
        raise ParseError(f"grid is not a valid square: {exc}") from exc
    return square


def json_document(square: KPartialSquare) -> dict[str, Any]:
    """The structured JSON document of a square, as :func:`to_json` writes it:
    every value a plain int, so a ``bool`` or numpy integer is written as a number."""
    return {
        "format": JSON_FORMAT,
        "version": JSON_VERSION,
        "n": operator.index(square.n),
        "k": operator.index(square.k),
        "cells": [
            {"row": operator.index(r), "col": operator.index(c), "entries": list(map(operator.index, entries))}
            for (r, c), entries in sorted(square.cells.items())
        ],
    }


def to_json(square: KPartialSquare) -> str:
    """``json.dumps(json_document(square), indent=2) + "\\n"``, byte for byte, from
    a string template: one ``%d`` record per cell in sorted order."""
    head = '{\n  "format": "%s",\n  "version": %d,\n  "n": %d,\n  "k": %d,\n  "cells": [' % (
        JSON_FORMAT, JSON_VERSION, square.n, square.k,
    )
    entries = ",\n".join(["        %d"] * square.k)
    record = '    {\n      "row": %d,\n      "col": %d,\n      "entries": [\n' + entries + "\n      ]\n    }"
    body = ",\n".join([record % (cell + values) for cell, values in sorted(square.cells.items())])
    return f"{head}\n{body}\n  ]\n}}\n" if body else f"{head}]\n}}\n"


def from_json(text: str) -> KPartialSquare:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != JSON_FORMAT:
        raise ParseError(f"not a {JSON_FORMAT} document")
    if type(doc.get("version")) is not int or doc["version"] != JSON_VERSION:  # True == 1.0 == 1
        raise ParseError(f"unsupported version {doc.get('version')!r}")
    try:
        n, k, raw_cells = doc["n"], doc["k"], doc["cells"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    # fields must be JSON integers: no float, string or bool is converted
    if type(n) is not int or type(k) is not int:
        raise ParseError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if n > MAX_ORDER:
        raise ParseError(f"order n={n} exceeds the supported maximum {MAX_ORDER}")
    if k > MAX_LAYERS:
        raise ParseError(f"layer count k={k} exceeds the supported maximum {MAX_LAYERS}")
    if not isinstance(raw_cells, list):
        raise ParseError("'cells' must be a list")
    cells: dict[Cell, EntryTuple] = {}
    for item in raw_cells:
        try:
            row, col, entries = item["row"], item["col"], item["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed cell record {item!r}: {exc}") from exc
        if type(row) is not int or type(col) is not int or type(entries) is not list:
            raise ParseError(f"malformed cell record {item!r}: row and col must be integers, entries a list")
        if (row, col) in cells:
            raise ParseError(f"duplicate cell {(row, col)}")
        cells[row, col] = tuple(entries)
    # one pass over all entries; a check per cell would slow large files
    if set(map(type, chain.from_iterable(cells.values()))) - {int}:
        raise ParseError("every entry must be an integer")
    try:
        square = KPartialSquare(n, k, cells)
        square.projections()  # validates
    except SquareError as exc:
        raise ParseError(f"document is not a valid square: {exc}") from exc
    return square


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so that a failed or interrupted write leaves
    the previous file whole: through ``<path>.tmp`` and ``os.replace``, with
    the temporary file removed on any failure (no fsync, so a power loss is
    not covered).  A failed write raises an :class:`OSError` naming ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def save_square(square: KPartialSquare, path: str | Path, fmt: str = "auto") -> None:
    """Write to ``path``; ``fmt`` is ``json``, ``text`` or ``auto`` (by suffix)."""
    path = Path(path)
    if fmt == "auto":
        fmt = "json" if path.suffix.lower() == ".json" else "text"
    if fmt == "json":
        write_atomic(path, to_json(square))
    elif fmt == "text":
        write_atomic(path, to_text_grid(square))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_square(path: str | Path, k: int | None = None) -> KPartialSquare:
    """Read a square in either format, sniffing JSON by a leading brace."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_text_grid(text, k=k)


def read_json(path: Path, what: str) -> Any:
    """The JSON value in the file at ``path``; ``what`` names the file in errors."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{what} {path} is not readable JSON: {exc}") from exc
