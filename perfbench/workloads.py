"""The benchmark's three workloads, each run as repeated identical passes.

A pass builds its inputs from the run seed (set-up), then solves them
(solve): every coloring is verified, every served answer is checked.
Calls into the library's layers are wrapped in spans named after the
layer function; a disabled tracer makes those wrappers free.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.experiments import (
    fig3_erdos_renyi,
    fig4_scale_free,
    fig5_small_world,
    fig6_dima2ed,
)
from repro.experiments.workloads import materialize
from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.serve.protocol import ServeClient
from repro.serve.server import ServerThread
from repro.verify import assert_proper_edge_coloring, assert_strong_arc_coloring
from repro.verify.differential import colors_digest

from harness import Calibrator, Tally, Tracer, derive_seed

perf = time.perf_counter

#: Per algorithm: the core span and call, the verify span and checker.
_ALGORITHMS = {
    "alg1": ("core.color_edges", color_edges, "verify.proper", assert_proper_edge_coloring),
    "dima2ed": (
        "core.strong_color_arcs",
        strong_color_arcs,
        "verify.strong",
        assert_strong_arc_coloring,
    ),
}


@dataclass
class PassResult:
    """What one pass measured and counted."""

    #: Raw seconds; ``scale`` converts them to reference seconds.
    setup_s: float = 0.0
    solve_s: float = 0.0
    scale: float = 1.0
    #: Coloring id -> latency: a graph's CSR + color + verify, or one
    #: recoloring (edge-insert) request.
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    #: Coloring id -> ``(start, end)`` of its latency, for the calibrator.
    latency_at: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    rounds_per_delta: List[float] = field(default_factory=list)
    colors_per_delta: List[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: Combined ``colors_digest`` of every coloring, when asked for.
    digest: Optional[str] = None

    def count_graph(self, graph) -> None:
        self.counts["graphs.nodes"] += graph.num_nodes
        self.counts["graphs.edges"] += graph.num_edges


def _combine(digests: List[str]) -> str:
    h = blake2b(digest_size=16)
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def _color(
    graph, algorithm: str, seed: int, unit: str,
    tracer: Tracer, tally: Tally, cal: Calibrator, res: PassResult,
):
    """CSR, color and verify one graph; returns the coloring, or None if it failed.

    The calibrator ticks between the stages; its time is not latency.
    """
    core_span, run, verify_span, check = _ALGORITHMS[algorithm]
    with tally.attempt(unit):
        spent = cal.spent
        t0 = perf()
        with tracer.span("graphs.to_csr", unit):
            graph.to_csr()
        cal.tick(tracer)
        with tracer.span(core_span, unit):
            result = run(graph, seed=seed)
        cal.tick(tracer)
        with tracer.span(verify_span, unit):
            check(graph, result.colors)
        t1 = perf()
        res.latencies_ms[unit] = (t1 - t0 - (cal.spent - spent)) * 1e3
        res.latency_at[unit] = (t0, t1)
        res.rounds_per_delta.append(result.rounds / result.delta)
        res.colors_per_delta.append(result.num_colors / result.delta)
        res.counts["core.calls"] += 1
        res.counts["core.rounds"] += result.rounds
        res.counts["core.supersteps"] += result.supersteps
        res.counts["core.messages_delivered"] += result.metrics.messages_delivered
        return result.colors
    return None


class Alg1Er100k:
    """One Erdős–Rényi graph, n=10^5, average degree 8, Algorithm 1."""

    name = "alg1-er-100k"

    def run_pass(
        self, seed: int, tracer: Tracer, tally: Tally, cal: Calibrator, digest: bool
    ) -> PassResult:
        res = PassResult()
        t0 = perf()
        with tracer.span("setup"), tracer.span("graphs.generate"):
            graph = erdos_renyi_avg_degree(100_000, 8.0, seed=derive_seed(seed, "graph"))
        res.setup_s = perf() - t0
        res.count_graph(graph)
        spent = cal.spent
        t0 = perf()
        with tracer.span("solve"):
            cal.tick(tracer)
            colors = _color(graph, "alg1", derive_seed(seed, "alg1"), "er-100k", tracer, tally, cal, res)
            cal.tick(tracer)
        res.solve_s = perf() - t0 - (cal.spent - spent)
        if digest and colors is not None:
            res.digest = _combine([colors_digest(colors)])
        return res


class PaperGrid:
    """The paper's fig3–fig6 grids at a reduced replicate scale."""

    name = "paper-grid"
    #: 5 graphs per cell, 22 cells: 110 colorings, so the tail figure
    #: is p90 (11 colorings beyond it).
    scale = 0.1
    figures = (
        (fig3_erdos_renyi, "alg1"),
        (fig4_scale_free, "alg1"),
        (fig5_small_world, "alg1"),
        (fig6_dima2ed, "dima2ed"),
    )

    def run_pass(
        self, seed: int, tracer: Tracer, tally: Tally, cal: Calibrator, digest: bool
    ) -> PassResult:
        res = PassResult()
        t0 = perf()
        jobs = []
        with tracer.span("setup"):
            for fig, algorithm in self.figures:
                cells = fig.configure(self.scale)
                with tracer.span("graphs.generate"):
                    items = list(materialize(cells, derive_seed(seed, fig.NAME)))
                for *_, graph in items:
                    res.count_graph(graph)
                if algorithm == "dima2ed":
                    with tracer.span("graphs.to_directed"):
                        items = [(c, i, g.to_directed()) for c, i, g in items]
                jobs += [(fig.NAME, algorithm, c.label, i, g) for c, i, g in items]
        res.setup_s = perf() - t0
        found = []
        spent = cal.spent
        t0 = perf()
        with tracer.span("solve"):
            for fig_name, algorithm, label, i, graph in jobs:
                cal.tick(tracer)
                unit = f"{fig_name}/{label}/{i}"
                colors = _color(
                    graph, algorithm, derive_seed(seed, fig_name, label, i), unit,
                    tracer, tally, cal, res,
                )
                if digest and colors is not None:
                    found.append(colors)
        res.solve_s = perf() - t0 - (cal.spent - spent)
        if digest:
            res.digest = _combine([colors_digest(c) for c in found])
        return res


@dataclass
class _Session:
    """The client's own copy of one session's graph; sessions are named by algorithm."""

    algorithm: str
    n: int
    edges: List[Tuple[int, int]]
    present: set
    degree: List[int]

    @classmethod
    def of(cls, algorithm: str, graph: Graph) -> "_Session":
        edges = sorted(graph.edges())
        degree = [graph.degree(u) for u in range(graph.num_nodes)]
        return cls(algorithm, graph.num_nodes, edges, set(edges), degree)

    def pick_non_edge(self, rng: random.Random) -> Tuple[int, int]:
        while True:
            u, v = rng.sample(range(self.n), 2)
            e = (min(u, v), max(u, v))
            if e not in self.present:
                return e

    def add(self, e: Tuple[int, int]) -> None:
        self.edges.append(e)
        self.present.add(e)
        self.degree[e[0]] += 1
        self.degree[e[1]] += 1

    def pop(self, rng: random.Random) -> Tuple[int, int]:
        i = rng.randrange(len(self.edges))
        self.edges[i], self.edges[-1] = self.edges[-1], self.edges[i]
        e = self.edges.pop()
        self.present.discard(e)
        self.degree[e[0]] -= 1
        self.degree[e[1]] -= 1
        return e

    def graph(self) -> Graph:
        g = Graph.from_num_nodes(self.n)
        g.add_edges_from(self.edges)
        return g


class ServeMixed:
    """Closed loop, one blocking client against an in-process server."""

    name = "serve-mixed"
    #: (algorithm, nodes); both sessions start from ER graphs of degree 4.
    sessions = (("alg1", 1000), ("dima2ed", 200))
    avg_degree = 4.0
    #: The starting graphs are the same for every run seed, as in
    #: benchmarks/bench_serve.py; the seed drives the request mix and the
    #: sessions' coloring seeds.  With seeded graphs the figures followed
    #: the graph drawn: over ten seeds the insert tail ranged 25-41 ms,
    #: the same way on every repeat.
    graph_seed = 11
    requests = 1200
    #: Percent of a session's requests by op: the mix of
    #: benchmarks/bench_serve.py (55% single-edge inserts, 15% removals,
    #: 30% ``color`` queries).
    op_mix = {"insert": 55, "remove": 15, "query": 30}

    def schedule(self, rng: random.Random, edge_counts: Dict[str, int]) -> List[Tuple[str, str]]:
        """The epoch's ``(session, op)`` requests in a seeded order.

        Requests go to the sessions in proportion to their starting edge
        counts, so every starting edge is equally likely to be the target
        (1000:200 for alg1:dima2ed).  Within a session the ops follow
        ``op_mix``; shares are rounded to multiples of 20 requests so the
        mix is exact.  The counts are the same for every seed: 660 of the
        1200 requests are inserts, which puts the tail at p95 with 33
        beyond it.
        """
        total = sum(edge_counts.values())
        ops: List[Tuple[str, str]] = []
        for algorithm, edges in edge_counts.items():
            share = 20 * round(self.requests * edges / total / 20)
            ops += [(algorithm, op) for op, pct in self.op_mix.items() for _ in range(share * pct // 100)]
        rng.shuffle(ops)
        return ops

    def run_pass(
        self, seed: int, tracer: Tracer, tally: Tally, cal: Calibrator, digest: bool
    ) -> PassResult:
        res = PassResult()
        with ExitStack() as stack:
            t0 = perf()
            with tracer.span("setup"):
                graphs = {}
                for algorithm, n in self.sessions:
                    with tracer.span("graphs.generate"):
                        graphs[algorithm] = erdos_renyi_avg_degree(
                            n, self.avg_degree, seed=derive_seed(self.graph_seed, algorithm)
                        )
                with tracer.span("serve.start"):
                    srv = stack.enter_context(ServerThread())
                    client = stack.enter_context(ServeClient(srv.host, srv.port))
                for algorithm, graph in graphs.items():
                    with tracer.span("serve.create"):
                        client.request(
                            "create",
                            name=algorithm,
                            algorithm=algorithm,
                            seed=derive_seed(seed, algorithm, "session"),
                            edges=[list(e) for e in graph.edges()],
                            num_nodes=graph.num_nodes,
                        )
            res.setup_s = perf() - t0
            for graph in graphs.values():
                res.count_graph(graph)
            mirrors = {a: _Session.of(a, g) for a, g in graphs.items()}
            spent = cal.spent
            t0 = perf()
            with tracer.span("solve"):
                self._drive(seed, srv, client, mirrors, tracer, tally, cal, res)
            res.solve_s = perf() - t0 - (cal.spent - spent)
            digests = [self._check_final(client, m, tracer, tally, res) for m in mirrors.values()]
        if digest:
            res.digest = _combine([d for d in digests if d is not None])
        return res

    def _drive(self, seed, srv, client, mirrors, tracer, tally, cal, res) -> None:
        rng = random.Random(derive_seed(seed, "mix"))
        ops = self.schedule(rng, {a: len(m.edges) for a, m in mirrors.items()})
        for k, (algorithm, op) in enumerate(ops):
            cal.tick(tracer)
            s = mirrors[algorithm]
            unit = f"req{k}"
            with tally.attempt(unit):
                if op == "query":
                    u, v = rng.choice(s.edges)
                    if algorithm == "dima2ed" and rng.random() < 0.5:
                        u, v = v, u
                    with tracer.span("serve.request", unit):
                        answer = client.request("color", name=s.algorithm, u=u, v=v)["color"]
                    res.counts["serve.query_requests"] += 1
                    key = (u, v) if algorithm == "dima2ed" else (min(u, v), max(u, v))
                    held = srv.server.manager.get(s.algorithm).colors.get(key)
                    if answer is None:
                        raise AssertionError(f"no color served for {key}, an edge of the graph")
                    if answer != held:
                        raise AssertionError(f"served color {answer} for {key}, session holds {held}")
                    continue
                if op == "insert":
                    e = s.pick_non_edge(rng)
                    mutation = {"op": "add_edge", "u": e[0], "v": e[1]}
                else:
                    e = s.pop(rng)
                    mutation = {"op": "remove_edge", "u": e[0], "v": e[1]}
                with tracer.span("serve.request", unit):
                    t0 = perf()
                    out = client.request("mutate", name=s.algorithm, mutations=[mutation])["outcome"]
                    latency_ms = (perf() - t0) * 1e3
                    tracer.add("serve.session", t0, t0 + out["wall_s"], unit)
                res.counts["serve.mutate_requests"] += 1
                res.counts["serve.fallbacks"] += out["fallback"]
                res.counts["serve.violations_healed"] += len(out["violations"])
                res.counts["serve.recolor_rounds"] += out["rounds"]
                if op == "insert":
                    s.add(e)
                    res.latencies_ms[unit] = latency_ms
                    res.latency_at[unit] = (t0, t0 + latency_ms / 1e3)
                    res.rounds_per_delta.append(out["rounds"] / max(s.degree))
                    res.counts["serve.inserts"] += 1
                    res.counts["serve.incremental_hits"] += out["incremental"] and not out["fallback"]

    @staticmethod
    def _check_final(client, s: _Session, tracer, tally, res) -> Optional[str]:
        """Fetch a session's coloring and verify it on the client's graph."""
        _, _, verify_span, check = _ALGORITHMS[s.algorithm]
        with tally.attempt(f"{s.algorithm}/colors"):
            served = client.request("colors", name=s.algorithm)["colors"]
            colors = {(u, v): c for u, v, c in served}
            graph = s.graph()
            if s.algorithm == "dima2ed":
                graph = graph.to_directed()
            with tracer.span(verify_span, s.algorithm):
                check(graph, colors)
            res.colors_per_delta.append(len(set(colors.values())) / max(s.degree))
            return colors_digest(colors)
        return None


WORKLOADS = {w.name: w for w in (Alg1Er100k(), PaperGrid(), ServeMixed())}


def warm_up() -> None:
    """Run each algorithm once on a small graph, so lazy imports finish untimed."""
    graph = erdos_renyi_avg_degree(60, 4.0, seed=1)
    for algorithm, g in (("alg1", graph), ("dima2ed", graph.to_directed())):
        _color(g, algorithm, 1, "warm-up", Tracer(False), Tally(), Calibrator(), PassResult())
