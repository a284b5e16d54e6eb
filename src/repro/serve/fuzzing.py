"""Incremental-vs-scratch validity fuzzing (``repro fuzz --tiers serve``).

Each iteration builds a base graph from one of three families, wraps it
in a verifying :class:`~repro.serve.session.ColoringSession`, and runs a
random sequence of mutation batches — single-edge insertions (the
incremental path's bread and butter, tracked separately for the hit
ratio), mixed insert/delete batches, and vertex churn.  After every
batch two things must hold:

* the session's coloring passes the full properness checkers
  (independently re-checked here, not trusting the session's own
  verify), and
* a *scratch* rerun of the full algorithm on the current graph is
  proper too — incremental-vs-scratch **validity** equivalence: the
  colorings may differ, properness may not.

The served coloring is judged by the per-item reference verifier, and
the array verdict that the checkers consult first must agree with it:
"valid" exactly when the reference finds nothing.  A disagreement is
recorded as a violation like any other.

Any violation is recorded verbatim; the ISSUE-level acceptance bar is
zero violations and an incremental hit ratio ≥ 0.9 on single-edge
insertions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.adjacency import Graph
from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    random_regular,
    small_world,
)
from repro.serve.session import ColoringSession, Mutation
from repro.verify.array_verdict import edge_verdict, strong_verdict
from repro.verify.edge_coloring import (
    _missing_edges,
    _proper_violations,
    check_edge_coloring_complete,
    check_proper_edge_coloring,
)
from repro.verify.strong_coloring import (
    _strong_violations,
    check_strong_arc_coloring,
)

__all__ = ["SERVE_FAMILIES", "ServeFuzzResult", "fuzz_serve"]


def _sample_er(rng: random.Random) -> Graph:
    n = rng.randint(8, 28)
    avg = rng.uniform(1.5, min(6.0, n - 1))
    return erdos_renyi_avg_degree(n, avg, seed=rng.randrange(2**31))


def _sample_ws(rng: random.Random) -> Graph:
    n = rng.randint(8, 24)
    k = min(rng.choice([2, 4]), (n - 1) // 2 * 2)
    return small_world(n, max(2, k), rng.uniform(0.0, 0.5), seed=rng.randrange(2**31))


def _sample_regular(rng: random.Random) -> Graph:
    n = rng.randint(8, 24)
    d = rng.randint(2, 4)
    if (n * d) % 2:
        n += 1
    return random_regular(n, d, seed=rng.randrange(2**31))


#: family name -> sampler; three structurally distinct families.
SERVE_FAMILIES = {
    "er": _sample_er,
    "ws": _sample_ws,
    "regular": _sample_regular,
}


@dataclass
class ServeFuzzResult:
    """Aggregate outcome of one serve-fuzz campaign."""

    iterations: int = 0
    batches: int = 0
    mutations: int = 0
    incremental_batches: int = 0
    fallback_batches: int = 0
    single_insert_attempts: int = 0
    single_insert_hits: int = 0
    scratch_runs: int = 0
    violations: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def single_insert_hit_ratio(self) -> Optional[float]:
        if not self.single_insert_attempts:
            return None
        return self.single_insert_hits / self.single_insert_attempts

    def summary(self) -> str:
        ratio = self.single_insert_hit_ratio
        ratio_s = "n/a" if ratio is None else f"{100.0 * ratio:.1f}%"
        return (
            f"serve fuzz: {self.iterations} iterations, {self.batches} "
            f"batches ({self.mutations} mutations) in {self.elapsed_s:.1f}s; "
            f"incremental {self.incremental_batches}, fallback "
            f"{self.fallback_batches}; single-insert hit ratio {ratio_s}; "
            f"{len(self.violations)} violations"
        )


def _random_mutations(
    rng: random.Random, graph: Graph, count: int
) -> List[Mutation]:
    """``count`` mutations valid against ``graph`` as the batch unfolds."""
    sim = graph.copy()
    mutations: List[Mutation] = []
    while len(mutations) < count:
        roll = rng.random()
        nodes = sim.nodes()
        if roll < 0.55 and len(nodes) >= 2:
            u, v = rng.sample(nodes, 2)
            for _ in range(20):
                if not sim.has_edge(u, v):
                    break
                u, v = rng.sample(nodes, 2)
            if sim.has_edge(u, v):
                continue  # graph (locally) dense; try another op
            sim.add_edge(u, v)
            mutations.append(Mutation("add_edge", u, v))
        elif roll < 0.75 and sim.num_edges:
            u, v = rng.choice(sim.edge_list())
            sim.remove_edge(u, v)
            mutations.append(Mutation("remove_edge", u, v))
        elif roll < 0.88:
            u = (max(nodes) + 1) if nodes else 0
            sim.add_node(u)
            mutations.append(Mutation("add_vertex", u))
        elif len(nodes) > 4:
            u = rng.choice(nodes)
            sim.remove_node(u)
            mutations.append(Mutation("remove_vertex", u))
    return mutations


def _single_insert(rng: random.Random, graph: Graph) -> Optional[Mutation]:
    nodes = graph.nodes()
    if len(nodes) < 2:
        return None
    for _ in range(40):
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            return Mutation("add_edge", u, v)
    return None


def _scratch_violations(session: ColoringSession, seed: int) -> List[str]:
    """Properness of a from-scratch rerun on the session's current graph."""
    graph = session.graph
    if not graph.num_edges:
        return []
    if session.algorithm == "dima2ed":
        digraph = graph.to_directed()
        result = strong_color_arcs(digraph, seed=seed)
        return check_strong_arc_coloring(digraph, result.colors, complete=True)
    result = color_edges(graph, seed=seed)
    return check_proper_edge_coloring(
        graph, result.colors
    ) + check_edge_coloring_complete(graph, result.colors)


def _session_violations(session: ColoringSession) -> List[str]:
    """The reference verdict on the served coloring, cross-checked
    against the array verdict."""
    if session.algorithm == "dima2ed":
        digraph = session.graph.to_directed()
        violations = _strong_violations(digraph, session.colors, complete=True)
        verdict = strong_verdict(digraph, session.colors, complete=True)
    else:
        violations = _proper_violations(
            session.graph, session.colors
        ) + _missing_edges(session.graph, session.colors)
        verdict = edge_verdict(session.graph, session.colors, complete=True)
    reference_valid = not violations
    if verdict is not reference_valid:
        violations.append(
            f"array verdict {verdict} disagrees with the reference "
            f"({len(violations)} violations)"
        )
    return violations


def fuzz_serve(
    *,
    budget_seconds: Optional[float] = None,
    max_iterations: Optional[int] = None,
    seed: int = 0,
    algorithms: Sequence[str] = ("alg1", "dima2ed"),
    scratch_check: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> ServeFuzzResult:
    """Run the serve-tier fuzz campaign; see the module docstring."""
    if budget_seconds is None and max_iterations is None:
        budget_seconds = 5.0
    rng = random.Random(seed)
    result = ServeFuzzResult()
    t0 = time.monotonic()
    families = sorted(SERVE_FAMILIES)
    iteration = 0
    while True:
        if max_iterations is not None and iteration >= max_iterations:
            break
        if (
            budget_seconds is not None
            and time.monotonic() - t0 >= budget_seconds
        ):
            break
        family = families[iteration % len(families)]
        algorithm = algorithms[(iteration // len(families)) % len(algorithms)]
        base = SERVE_FAMILIES[family](rng)
        session = ColoringSession(
            f"fuzz-{iteration}",
            algorithm=algorithm,
            seed=rng.randrange(2**31),
            verify=True,
        )
        session.load_edges(base.edge_list(), base.num_nodes)
        batches = rng.randint(3, 6)
        for b in range(batches):
            if rng.random() < 0.5:
                mutation = _single_insert(rng, session.graph)
                if mutation is None:
                    continue
                batch = [mutation]
                single = True
            else:
                batch = _random_mutations(rng, session.graph, rng.randint(1, 4))
                single = False
            outcome = session.apply(batch)
            result.batches += 1
            result.mutations += outcome.applied
            if outcome.incremental and outcome.new_edges:
                result.incremental_batches += 1
            if outcome.fallback:
                result.fallback_batches += 1
            if single:
                result.single_insert_attempts += 1
                if outcome.incremental and not outcome.fallback:
                    result.single_insert_hits += 1
            for violation in _session_violations(session):
                result.violations.append(
                    f"iter {iteration} ({family}/{algorithm}) batch {b}: "
                    f"served coloring: {violation}"
                )
            if scratch_check:
                result.scratch_runs += 1
                for violation in _scratch_violations(
                    session, rng.randrange(2**31)
                ):
                    result.violations.append(
                        f"iter {iteration} ({family}/{algorithm}) batch {b}: "
                        f"scratch coloring: {violation}"
                    )
        iteration += 1
        result.iterations = iteration
        if log is not None:
            log(
                f"serve fuzz iter {iteration}: {family}/{algorithm} "
                f"n={session.graph.num_nodes} m={session.graph.num_edges} "
                f"batches={batches} fallbacks={result.fallback_batches} "
                f"violations={len(result.violations)}"
            )
    result.elapsed_s = time.monotonic() - t0
    return result
