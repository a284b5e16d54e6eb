"""Verification of proper edge colorings (Definition 1 of the paper).

A coloring is *proper* when no two edges sharing an endpoint carry the
same color; it is *complete* (for a graph) when every edge is colored.
The checks work directly from the definition — group the colored edges
by endpoint and look for duplicates — with no reliance on the coloring
algorithm's bookkeeping.

Each public check first asks :func:`repro.verify.array_verdict.edge_verdict`,
which accepts a valid coloring in a few numpy passes.  Anything it does
not accept goes to the per-item reference code below, which explains
every violation; the tests keep that code as the oracle for the arrays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.errors import VerificationError
from repro.graphs.adjacency import Graph
from repro.types import Color, Edge, canonical_edge
from repro.verify.array_verdict import edge_verdict

__all__ = [
    "check_proper_edge_coloring",
    "check_edge_coloring_complete",
    "assert_proper_edge_coloring",
]


def check_proper_edge_coloring(
    graph: Graph, colors: Mapping[Edge, Color]
) -> List[str]:
    """Return violations of properness (empty list = proper).

    Checks, for the given (possibly partial) coloring:

    1. every key is a pair of vertices, exists in ``graph`` and is
       canonical;
    2. colors are non-negative integers;
    3. no vertex has two incident edges of equal color.
    """
    if edge_verdict(graph, colors):
        return []
    return _proper_violations(graph, colors)


def check_edge_coloring_complete(
    graph: Graph, colors: Mapping[Edge, Color]
) -> List[str]:
    """Return the graph edges missing from ``colors`` (as violations)."""
    if edge_verdict(graph, colors, proper=False, complete=True):
        return []
    return _missing_edges(graph, colors)


def _proper_violations(graph: Graph, colors: Mapping[Edge, Color]) -> List[str]:
    """Reference properness check: one violation string per defect."""
    violations: List[str] = []
    well_formed: Dict[Edge, Color] = {}
    for edge, color in colors.items():
        try:
            u, v = edge
            canonical = canonical_edge(u, v)
        except (TypeError, ValueError):
            violations.append(f"edge key {edge!r} is malformed")
            continue
        well_formed[edge] = color
        if canonical != edge:
            violations.append(f"edge key {edge} is not canonical (low, high)")
            continue
        if not graph.has_edge(u, v):
            violations.append(f"colored edge {edge} is not in the graph")
        if not isinstance(color, int) or isinstance(color, bool) or color < 0:
            violations.append(f"edge {edge} has invalid color {color!r}")

    per_vertex: Dict[int, Dict[Color, Edge]] = {}
    for edge, color in well_formed.items():
        for endpoint in edge:
            seen = per_vertex.setdefault(endpoint, {})
            if color in seen:
                violations.append(
                    f"vertex {endpoint}: edges {seen[color]} and {edge} "
                    f"both colored {color}"
                )
            else:
                seen[color] = edge
    return violations


def _missing_edges(graph: Graph, colors: Mapping[Edge, Color]) -> List[str]:
    """Reference completeness check: the uncolored graph edges."""
    return [
        f"edge {edge} is uncolored"
        for edge in graph.edges()
        if edge not in colors
    ]


def assert_proper_edge_coloring(
    graph: Graph, colors: Mapping[Edge, Color], *, complete: bool = True
) -> None:
    """Raise :class:`VerificationError` unless ``colors`` is proper.

    With ``complete=True`` (default) also requires every edge colored.
    """
    if edge_verdict(graph, colors, complete=complete):
        return
    violations = _proper_violations(graph, colors)
    if complete:
        violations += _missing_edges(graph, colors)
    if violations:
        preview = "; ".join(violations[:5])
        raise VerificationError(
            f"invalid edge coloring ({len(violations)} violations): {preview}"
        )
