"""Complement-graph view of a k-layer square.

Take k + 2 vertex groups of size n: rows, columns, and one group per
entry layer.  Each filled cell marks the complete graph on its k + 2
coordinate vertices as used; distinct cells mark edge-disjoint cliques
because their words share at most one coordinate.  The complement graph
keeps every cross-group edge that no cell uses, as one boolean n x n
matrix per group pair a < b: the complement of that pair's plane of the
square's kept ``Projections`` index.

A legal insertion is exactly a set of k + 2 pairwise-adjacent complement
vertices, one per group; vertices in the same group are never adjacent,
so this is just a (k+2)-clique.  Hence a square is maximal if and only
if its complement graph has no (k+2)-clique, which makes clique search
an independent maximality check.

The search fixes the layers before the last two depth first, then takes
every allowed vertex s of the second-last layer at once: with the rows,
columns and last-layer vertices narrowed to R_s, C_s and T_s, a clique
is a nonzero of ``((E01 & C_s) @ E1L > 0) & E0L`` in R_s x T_s (triangle
detection by matrix multiplication, as float32 products in slices of
about ``_PRODUCT_CELLS`` entries).  Its witness is checked by adding it to
a copy of the index, which must find no clash.

Bookkeeping facts, checked from the edge list by
``tests/test_graphview.py::test_density_identity`` and
``test_degree_splits_evenly`` and by
``tests/test_acceptance.py::test_randomized_property_sweep``: every group
pair carries n^2 - F complement edges (F = filled cells), so each pair's
edge density is (n^2 - F) / n^2, and each vertex's complement degree
splits evenly, deg / (k+1) to every other group.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import KPartialSquare, SelfCheckError

#: About the most entries (products or masks) one slice of the search holds.
_PRODUCT_CELLS = 1 << 20


class ComplementGraph:
    """Boolean adjacency matrices of the complement graph, per group pair a < b."""

    __slots__ = ("n", "k", "groups", "_projections", "_adj")

    def __init__(self, square: KPartialSquare):
        self.n = square.n
        self.k = square.k
        self.groups = square.k + 2
        index = self._projections = square.projections()
        # _adj[a, b][x, y]: no word has w[a] = x and w[b] = y
        self._adj = {(a, b): ~index.plane(a, b) for a, b in combinations(range(self.groups), 2)}

    def find_clique(self) -> list[tuple[int, int]] | None:
        """A (k+2)-clique as [(group, vertex), ...], or None.

        Any clique here has at most one vertex per group, so a clique of
        size k + 2 is automatically a transversal of the groups and reads
        back as a legal insertion word; :class:`SelfCheckError` is raised
        when the one found does not.
        """
        n, k, adj = self.n, self.k, self._adj
        last = k + 1
        e01, e0l, e1l = adj[0, 1], adj[0, last], adj[1, last]
        paths_to_last = e1l.astype(np.float32)

        def search(g: int, chosen: np.ndarray, rows: np.ndarray, cols: np.ndarray, later: np.ndarray):
            """Extend a clique ``chosen[i]`` on groups 2..g-1 to groups g..last;
            ``rows[i]``, ``cols[i]`` and ``later[i, h - g]`` mask the vertices of
            groups 0, 1 and h adjacent to all of its vertices."""
            if g == last:
                owner, row = np.nonzero(rows)
                step = max(1, _PRODUCT_CELLS // n)
                for start in range(0, len(row), step):
                    o, r = owner[start:start + step], row[start:start + step]
                    paths = (e01[r] & cols[o]).astype(np.float32) @ paths_to_last
                    hit = (paths > 0) & e0l[r] & later[o, 0]
                    if hit.any():
                        j, t = divmod(int(hit.argmax()), n)
                        i, x = o[j], r[j]
                        return [int(v) for v in (x, (e01[x] & e1l[:, t] & cols[i]).argmax(), *chosen[i], t)]
                return None
            # a clique no row, column or later vertex extends has no descendants
            alive = rows.any(axis=1) & cols.any(axis=1) & later.any(axis=2).all(axis=1)
            chosen, rows, cols, later = chosen[alive], rows[alive], cols[alive], later[alive]
            onward = np.stack([adj[g, h] for h in range(g + 1, last + 1)], axis=1)
            step = max(1, _PRODUCT_CELLS // (n * n * (last - g + 2)))
            for start in range(0, len(rows), step):
                owner, v = np.nonzero(later[start:start + step, 0])
                owner += start
                found = search(
                    g + 1, np.column_stack([chosen[owner], v]), rows[owner] & adj[0, g].T[v],
                    cols[owner] & adj[1, g].T[v], later[owner, 1:] & onward[v],
                )
                if found is not None:
                    return found
            return None

        ones = np.ones((1, n), dtype=bool)
        vertices = search(2, np.zeros((1, 0), np.intp), ones, ones, np.ones((1, k, n), dtype=bool))
        if vertices is not None and self._projections.copy().add(vertices):
            raise SelfCheckError(f"clique {vertices} is not a legal insertion into the square")
        return None if vertices is None else list(enumerate(vertices))

    # -- export -------------------------------------------------------

    def vertex_label(self, group: int, vertex: int) -> str:
        if group == 0:
            return f"r{vertex}"
        if group == 1:
            return f"c{vertex}"
        return f"s{group - 2}_{vertex}"

    def to_edge_list(self) -> list[tuple[str, str]]:
        return [
            (self.vertex_label(a, x), self.vertex_label(b, y))
            for (a, b), adj in self._adj.items()
            for x, y in zip(*(axis.tolist() for axis in np.nonzero(adj)))
        ]

    def to_dot(self) -> str:
        lines = ["graph complement {"]
        for g in range(self.groups):
            members = " ".join(f'"{self.vertex_label(g, v)}";' for v in range(self.n))
            lines.append(f"  subgraph cluster_{g} {{ {members} }}")
        for x, y in self.to_edge_list():
            lines.append(f'  "{x}" -- "{y}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def complement(square: KPartialSquare) -> ComplementGraph:
    return ComplementGraph(square)


def has_clique(graph: ComplementGraph) -> "list[tuple[int, int]] | None":
    """Clique witness with one vertex per part, or None when clique-free."""
    return graph.find_clique()
