"""Complement-graph view of a k-layer square.

Take k + 2 vertex groups of size n: rows, columns, and one group per
entry layer.  Each filled cell marks the complete graph on its k + 2
coordinate vertices as used; distinct cells mark edge-disjoint cliques
because their words share at most one coordinate.  The complement graph
keeps every cross-group edge that no cell uses.

A legal insertion is exactly a set of k + 2 pairwise-adjacent complement
vertices, one per group; vertices in the same group are never adjacent,
so this is just a (k+2)-clique.  Hence a square is maximal if and only
if its complement graph has no (k+2)-clique, which makes clique search
an independent maximality check.

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

from .core import KPartialSquare, bits_above


class ComplementGraph:
    """Adjacency bitmasks of the complement graph, per group pair a < b."""

    __slots__ = ("n", "k", "groups", "_adj")

    def __init__(self, square: KPartialSquare):
        self.n = square.n
        self.k = square.k
        self.groups = square.k + 2
        full = (1 << square.n) - 1
        # _adj[a][b][x] for a < b = bitmask of group-b vertices adjacent to
        # vertex x of group a: every value pair that no word projects onto (a, b)
        self._adj = [
            row[:a + 1] + [[full & ~used for used in column] for column in row[a + 1:]]
            for a, row in enumerate(square.projections().table)
        ]

    def find_clique(self) -> list[tuple[int, int]] | None:
        """A (k+2)-clique as [(group, vertex), ...], or None.

        Any clique here has at most one vertex per group, so a clique of
        size k + 2 is automatically a transversal of the groups and reads
        back as a legal insertion word.
        """
        n, groups = self.n, self.groups
        for r in range(n):
            for c in bits_above(self._adj[0][1][r], -1):
                masks = [
                    self._adj[0][g][r] & self._adj[1][g][c]
                    for g in range(2, groups)
                ]
                chosen: list[int] = []

                def extend(depth: int, masks: list[int]) -> bool:
                    if depth == len(masks):
                        return True
                    for v in bits_above(masks[depth], -1):
                        narrowed = [
                            m & self._adj[2 + depth][2 + depth + 1 + i][v]
                            for i, m in enumerate(masks[depth + 1 :])
                        ]
                        chosen.append(v)
                        if extend(depth + 1, masks[: depth + 1] + narrowed):
                            return True
                        chosen.pop()
                    return False

                if extend(0, masks):
                    return [(0, r), (1, c)] + [(2 + j, v) for j, v in enumerate(chosen)]
        return None

    # -- export -------------------------------------------------------

    def vertex_label(self, group: int, vertex: int) -> str:
        if group == 0:
            return f"r{vertex}"
        if group == 1:
            return f"c{vertex}"
        return f"s{group - 2}_{vertex}"

    def to_edge_list(self) -> list[tuple[str, str]]:
        edges = []
        for a, b in combinations(range(self.groups), 2):
            for x in range(self.n):
                for y in bits_above(self._adj[a][b][x], -1):
                    edges.append((self.vertex_label(a, x), self.vertex_label(b, y)))
        return edges

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
