"""Span tracing of the program's layers, installed from outside the program.

A :class:`Probe` names one public function by its defining module and
attribute (``"KPartialSquare.validate"`` for a method) and the layer its
time belongs to.  :meth:`Tracer.install` replaces that function in every
``mopls`` module namespace that binds it (``from .maximality import
is_maximal`` makes ``construct``, ``verify`` and ``codes`` bind their own
reference), so calls made inside the program are caught as well as calls
made by the benchmark.  :meth:`Tracer.uninstall` puts the originals back,
so untraced rounds run the program unmodified.

Every call is a span (layer, start, end, parent).  A layer's self time is
its spans' durations minus the time covered by their child spans, and
the benchmark's own work in a round is the root span's self time under
the layer ``bench``, so the self times of one round sum exactly to the
round's traced wall time.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Adds a call's counts to the round totals: (totals, args, kwargs, result).
CountHook = Callable[[Counter, tuple, dict, Any], None]

ROOT_LAYER = "bench"


@dataclass(frozen=True)
class Probe:
    """One traced function; ``layer=None`` records counts but no span."""

    module: str
    name: str
    layer: str | None
    count: CountHook | None = None


def _resolve(module: str, name: str) -> tuple[Any, str]:
    """(owner object, attribute) for ``name``, which may be ``Class.attr``."""
    owner: Any = sys.modules[module]
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and per-round layer totals while installed."""

    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.layers: list[str] = [ROOT_LAYER] + sorted({p.layer for p in probes if p.layer})
        self._layer_index = {layer: i for i, layer in enumerate(self.layers)}
        self._installed: list[tuple[Any, str, Any]] = []
        #: [round, span id, parent id, layer index, start ns, end ns]; -1 = no parent
        self.spans: list[list[int]] = []
        #: one Counter per traced round: "<layer>_ns" self times and named counts
        self.rounds: list[Counter] = []
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]
        self._totals: Counter = Counter()
        self._round = -1
        self._root: list[int] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for key, m in sys.modules.items() if key == "mopls" or key.startswith("mopls.")]
        for probe in self.probes:
            owner, attr = _resolve(probe.module, probe.name)
            original = getattr(owner, attr)
            wrapper = self._wrap(probe, original)
            if "." in probe.name:  # a method lives on its class alone
                targets = [(owner, attr)]
            else:
                targets = [(ns, attr) for ns in namespaces if getattr(ns, attr, None) is original]
            for target, name in targets:
                setattr(target, name, wrapper)
                self._installed.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._installed):
            setattr(target, name, original)
        self._installed.clear()

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        count = probe.count
        if probe.layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self._totals, args, kwargs, result)
                return result

            return counted

        layer = self._layer_index[probe.layer]
        key = probe.layer + "_ns"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, layer, key)
            if count is not None:
                count(self._totals, args, kwargs, result)
            return result

        return traced

    # -- spans ---------------------------------------------------------

    def _open(self) -> list[int]:
        frame = [len(self.spans), 0, 0]
        self.spans.append([self._round, frame[0], self._stack[-1][0] if self._stack else -1, 0, 0, 0])
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list[int], layer: int, key: str) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[1]
        self._totals[key] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        span = self.spans[frame[0]]
        span[3], span[4], span[5] = layer, frame[1], end

    def begin_round(self, index: int) -> None:
        """Open the root span of a traced round."""
        if self._stack:
            raise RuntimeError("a traced round is already open")
        self._round = index
        self._totals = Counter()
        self._root = self._open()

    def end_round(self) -> int:
        """Close the root span; returns the round's traced wall nanoseconds."""
        self._close(self._root, 0, ROOT_LAYER + "_ns")
        if self._stack:
            raise RuntimeError("spans left open at the end of a round")
        self.rounds.append(self._totals)
        span = self.spans[self._root[0]]
        return span[5] - span[4]

    def write(self, path: Path, header: dict) -> None:
        doc = dict(header, layers=self.layers,
                   span_fields=["round", "id", "parent", "layer", "start_ns", "end_ns"],
                   spans=self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
