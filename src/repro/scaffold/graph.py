"""Scaffold graph: contig *ends* as nodes, links as edges.

Modelling each contig as two nodes (head, tail) joined by an implicit
"contig edge" is the standard scaffolding formulation: a valid scaffold is
a path alternating contig edges and link edges, and the orientation of
every contig falls out of which end the path enters through.

Link selection is greedy by support: a link is kept iff both of its
endpoint *ends* are still free and joining them does not close a cycle —
yielding a maximal set of consistent, linear joins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MappingError
from .links import ContigLink

__all__ = ["ScaffoldPath", "ScaffoldGraph"]


@dataclass
class ScaffoldPath:
    """An ordered, oriented chain of contigs with per-junction gaps.

    ``orientations[i]`` is +1 when contig ``order[i]`` appears forward
    (head to tail) in the scaffold, -1 when reversed.  ``gaps[i]`` is the
    estimated gap after the i-th contig (length = len(order) - 1).
    """

    order: list[int]
    orientations: list[int]
    gaps: list[int]

    def __len__(self) -> int:
        return len(self.order)


class ScaffoldGraph:
    """End-graph over contigs with union-find cycle prevention."""

    def __init__(self, n_contigs: int) -> None:
        if n_contigs < 1:
            raise MappingError("scaffold graph needs at least one contig")
        self.n = n_contigs
        # joins[(contig, end)] = (other contig, other end, gap)
        self.joins: dict[tuple[int, str], tuple[int, str, int]] = {}
        self._parent = list(range(n_contigs))

    def _find(self, x: int) -> int:
        while self._parent[x] != x:
            self._parent[x] = self._parent[self._parent[x]]
            x = self._parent[x]
        return x

    def add_links(self, links: list[ContigLink]) -> int:
        """Greedily accept links (strongest first); returns accepted count."""
        accepted = 0
        for link in sorted(links, key=lambda l: -l.support):
            if not (0 <= link.a < self.n and 0 <= link.b < self.n):
                raise MappingError(f"link references unknown contig: {link}")
            end_a = (link.a, link.a_end)
            end_b = (link.b, link.b_end)
            if end_a in self.joins or end_b in self.joins:
                continue  # that end is already joined
            ra, rb = self._find(link.a), self._find(link.b)
            if ra == rb:
                continue  # would close a cycle
            self.joins[end_a] = (link.b, link.b_end, link.gap)
            self.joins[end_b] = (link.a, link.a_end, link.gap)
            self._parent[ra] = rb
            accepted += 1
        return accepted

    def _other_end(self, end: str) -> str:
        return "tail" if end == "head" else "head"

    def paths(self, *, include_singletons: bool = False) -> list[ScaffoldPath]:
        """Walk every scaffold chain once, assigning orientations.

        A contig entered through its *head* reads forward (+1); entered
        through its *tail* it reads reverse-complemented (-1).
        """
        visited = [False] * self.n
        out: list[ScaffoldPath] = []
        # chain terminals: a contig with at least one un-joined end
        for start in range(self.n):
            if visited[start]:
                continue
            free_ends = [e for e in ("head", "tail") if (start, e) not in self.joins]
            if not free_ends:
                continue  # interior of a chain (or isolated cycle-free by construction)
            if len(free_ends) == 2:
                visited[start] = True
                if include_singletons:
                    out.append(ScaffoldPath([start], [1], []))
                continue
            # walk from the free end through the chain; entering through the
            # free end reads the terminal contig toward its joined end
            order, orients, gaps = [], [], []
            contig, entered_via = start, free_ends[0]
            while True:
                visited[contig] = True
                order.append(contig)
                orients.append(1 if entered_via == "head" else -1)
                exit_end = self._other_end(entered_via)
                nxt = self.joins.get((contig, exit_end))
                if nxt is None:
                    break
                nxt_contig, nxt_end, gap = nxt
                gaps.append(gap)
                contig, entered_via = nxt_contig, nxt_end
                if visited[contig]:  # safety: malformed input
                    break
            if len(order) >= 2:
                # each chain is found from both terminals; keep one copy
                if order[0] <= order[-1]:
                    out.append(ScaffoldPath(order, orients, gaps))
            elif include_singletons:
                out.append(ScaffoldPath(order, orients, gaps))
        return out
