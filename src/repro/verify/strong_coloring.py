"""Verification of strong directed edge colorings (Definition 2).

Conflict semantics (DESIGN.md, "Strong-coloring conflict model"): two
distinct arcs ``a=(u,v)`` and ``b=(w,x)`` may not share a channel when

1. they share an endpoint (covers the reverse arc ``(v,u)``), or
2. ``w`` is an underlying neighbor of ``v``  (pattern e''(w,v)/e'''(w,x):
   transmitter w interferes at receiver v), or
3. ``u`` is an underlying neighbor of ``x``  (the symmetric pattern).

The check enumerates, for every colored arc, only the arcs anchored
within one hop of its endpoints (O(m·Δ²) overall) and compares channels
— independent of both the DiMa2Ed implementation and the conflict-graph
construction in :mod:`repro.graphs.linegraph` (which the test-suite
cross-checks against this module).

:func:`check_strong_arc_coloring` first asks
:func:`repro.verify.array_verdict.strong_verdict`, which accepts a valid
coloring in a few numpy passes; anything it does not accept goes to the
per-item reference code below, which explains every violation and stays
the tests' oracle for the arrays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

from repro.errors import VerificationError
from repro.graphs.adjacency import DiGraph
from repro.types import Arc, Color
from repro.verify.array_verdict import strong_verdict

__all__ = ["check_strong_arc_coloring", "assert_strong_arc_coloring"]


def _underlying_neighbors(d: DiGraph, u: int) -> Set[int]:
    return d.successors(u) | d.predecessors(u)


def check_strong_arc_coloring(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool = True
) -> List[str]:
    """Return violations of the strong-coloring property (empty = valid)."""
    if strong_verdict(digraph, colors, complete=complete):
        return []
    return _strong_violations(digraph, colors, complete=complete)


def _strong_violations(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool
) -> List[str]:
    """Reference strong-coloring check: one violation string per defect."""
    violations: List[str] = []

    well_formed: Dict[Arc, Color] = {}
    for arc, color in colors.items():
        try:
            u, v = arc
        except (TypeError, ValueError):
            violations.append(f"arc key {arc!r} is malformed")
            continue
        well_formed[arc] = color
        if not digraph.has_arc(u, v):
            violations.append(f"colored arc {arc} is not in the digraph")
        if not isinstance(color, int) or isinstance(color, bool) or color < 0:
            violations.append(f"arc {arc} has invalid channel {color!r}")

    if complete:
        violations += [
            f"arc {arc} is uncolored" for arc in digraph.arcs() if arc not in colors
        ]

    reported = set()
    for a, ca in well_formed.items():
        u, v = a
        if not digraph.has_arc(u, v):
            continue
        # Candidate conflicting arcs anchored within one hop.
        candidates: Set[Arc] = set()
        for z in (u, v):  # shared endpoint
            for w in digraph.successors(z):
                candidates.add((z, w))
            for w in digraph.predecessors(z):
                candidates.add((w, z))
        for w in _underlying_neighbors(digraph, v):  # w transmits near v
            for x in digraph.successors(w):
                candidates.add((w, x))
        for x in _underlying_neighbors(digraph, u):  # u transmits near x
            for w in digraph.predecessors(x):
                candidates.add((w, x))
        candidates.discard(a)

        for b in candidates:
            cb = colors.get(b)
            if cb is None or cb != ca:
                continue
            key = (min(a, b), max(a, b))
            if key in reported:
                continue
            reported.add(key)
            violations.append(
                f"arcs {a} and {b} both use channel {ca} but conflict"
            )
    return violations


def assert_strong_arc_coloring(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool = True
) -> None:
    """Raise :class:`VerificationError` unless ``colors`` is a strong coloring."""
    violations = check_strong_arc_coloring(digraph, colors, complete=complete)
    if violations:
        preview = "; ".join(violations[:5])
        raise VerificationError(
            f"invalid strong arc coloring ({len(violations)} violations): {preview}"
        )
