"""Named coloring sessions: mutation batches, verification, persistence.

A :class:`ColoringSession` owns one mutable graph plus a coloring that
is kept proper across mutation batches.  Removals are free (dropping an
edge or vertex can never break properness); additions go through the
incremental path of :mod:`repro.serve.incremental`, falling back to a
full :func:`~repro.core.edge_coloring.color_edges` /
:func:`~repro.core.dima2ed.strong_color_arcs` rerun whenever the
localized run fails to converge or the post-batch properness check
finds a violation.  Every batch is **atomic**: mutations are applied to
a working copy and committed only after the whole batch validates, so a
bad mutation mid-batch leaves the session untouched.

The :class:`SessionManager` adds the namespace (create/get/drop),
aggregate statistics, and JSON persistence under a state directory so
``repro serve`` restarts resume with their sessions intact (rides the
same philosophy as the checkpoint/restart subsystem: state on disk,
observability reattached by the caller at thaw time).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.errors import ConvergenceError, ServeError, VerificationError
from repro.graphs.adjacency import Graph
from repro.serve.incremental import (
    FallbackRequired,
    incremental_arc_colors,
    incremental_edge_colors,
)
from repro.types import Color, Edge, canonical_edge
from repro.verify.array_verdict import edge_verdict
from repro.verify.edge_coloring import (
    check_edge_coloring_complete,
    check_proper_edge_coloring,
)
from repro.verify.strong_coloring import check_strong_arc_coloring

__all__ = [
    "ALGORITHMS",
    "MUTATION_OPS",
    "Mutation",
    "BatchOutcome",
    "ColoringSession",
    "SessionManager",
]

ALGORITHMS = ("alg1", "dima2ed")
MUTATION_OPS = ("add_edge", "remove_edge", "add_vertex", "remove_vertex")

#: Session names are file-name and log safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Session state file format version (bump on incompatible change).
_STATE_FORMAT = 1

#: Multiplier deriving per-batch seeds from (session seed, batch index)
#: — a fixed odd constant so batch seeds never collide across the batch
#: counts any realistic session reaches.
_BATCH_SEED_STRIDE = 7919


@dataclass(frozen=True)
class Mutation:
    """One graph mutation. ``v`` is unused for the vertex ops."""

    op: str
    u: int
    v: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise ServeError(
                f"unknown mutation op {self.op!r}; expected one of "
                f"{MUTATION_OPS}"
            )
        if not isinstance(self.u, int) or isinstance(self.u, bool):
            raise ServeError(f"mutation endpoint u must be an int, got {self.u!r}")
        needs_v = self.op in ("add_edge", "remove_edge")
        if needs_v and (not isinstance(self.v, int) or isinstance(self.v, bool)):
            raise ServeError(
                f"mutation {self.op!r} needs integer endpoints, got v={self.v!r}"
            )
        if not needs_v and self.v is not None:
            raise ServeError(f"mutation {self.op!r} takes no second endpoint")

    @classmethod
    def from_dict(cls, raw: object) -> "Mutation":
        if not isinstance(raw, dict):
            raise ServeError(f"mutation must be an object, got {type(raw).__name__}")
        unknown = set(raw) - {"op", "u", "v"}
        if unknown:
            raise ServeError(f"unknown mutation fields {sorted(unknown)}")
        if "op" not in raw or "u" not in raw:
            raise ServeError("mutation needs at least 'op' and 'u'")
        return cls(op=raw["op"], u=raw["u"], v=raw.get("v"))

    def to_dict(self) -> dict:
        d = {"op": self.op, "u": self.u}
        if self.v is not None:
            d["v"] = self.v
        return d


@dataclass
class BatchOutcome:
    """What one mutation batch did to a session."""

    applied: int
    new_edges: int
    removed_edges: int
    #: The localized seeded rerun produced the batch's colors (always
    #: True for pure-removal batches — nothing needed recoloring).
    incremental: bool
    #: A full-graph rerun was needed (non-convergence or a verification
    #: failure of the localized result).
    fallback: bool
    #: Computation rounds spent recoloring (localized or full).
    rounds: int
    #: Properness violations found *and healed* by falling back; a
    #: batch never commits a violating coloring.
    violations: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "applied": self.applied,
            "new_edges": self.new_edges,
            "removed_edges": self.removed_edges,
            "incremental": self.incremental,
            "fallback": self.fallback,
            "rounds": self.rounds,
            "violations": list(self.violations),
            "wall_s": round(self.wall_s, 6),
        }


def _zero_stats() -> Dict[str, int]:
    return {
        "mutations": 0,
        "batches": 0,
        "incremental_batches": 0,
        "fallback_batches": 0,
        "full_runs": 0,
        "queries": 0,
        "violations_healed": 0,
    }


class ColoringSession:
    """One named graph kept properly colored across mutations."""

    def __init__(
        self,
        name: str,
        *,
        algorithm: str = "alg1",
        seed: int = 0,
        verify: bool = True,
        incremental: bool = True,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ServeError(
                f"invalid session name {name!r} (want [A-Za-z0-9_.-], "
                "leading alphanumeric, at most 64 chars)"
            )
        if algorithm not in ALGORITHMS:
            raise ServeError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        self.name = name
        self.algorithm = algorithm
        self.seed = seed
        self.verify = verify
        self.incremental = incremental
        self.graph = Graph()
        #: alg1: canonical edge -> color.  dima2ed: arc -> channel, both
        #: directions of every edge present.
        self.colors: Dict = {}
        self.batches = 0
        self.stats = _zero_stats()

    # -- bootstrap -------------------------------------------------------

    def load_edges(
        self, edges: Iterable[Tuple[int, int]], num_nodes: Optional[int] = None
    ) -> None:
        """Populate the initial graph and run the first full coloring."""
        if self.graph.num_nodes or self.colors:
            raise ServeError(f"session {self.name!r} is already populated")
        if num_nodes is not None:
            for u in range(num_nodes):
                self.graph.add_node(u)
        for u, v in edges:
            if not self.graph.has_edge(u, v):
                self.graph.add_edge(u, v)
        self._recolor_full(self.seed)
        self._check_or_raise()

    # -- queries ---------------------------------------------------------

    def color_of(self, u: int, v: int) -> Optional[Color]:
        """The color/channel on edge (arc) ``(u, v)``, or None."""
        self.stats["queries"] += 1
        if self.algorithm == "dima2ed":
            return self.colors.get((u, v))
        return self.colors.get(canonical_edge(u, v))

    def palette(self) -> List[Color]:
        return sorted(set(self.colors.values()))

    def info(self) -> dict:
        return {
            "name": self.name,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "nodes": self.graph.num_nodes,
            "edges": self.graph.num_edges,
            "colors": len(self.palette()),
            "batches": self.batches,
            "verify": self.verify,
            "incremental": self.incremental,
            "stats": dict(self.stats),
        }

    # -- mutation batches ------------------------------------------------

    def apply(self, mutations: List[Mutation]) -> BatchOutcome:
        """Apply one atomic batch and restore a proper coloring.

        Raises :class:`~repro.errors.ServeError` (and changes nothing)
        when any mutation in the batch is invalid against the state the
        batch itself builds up.
        """
        t0 = time.perf_counter()
        work, colors, new_edges, removed = self._stage(mutations)
        # Staged cleanly: commit, then recolor what the batch uncolored.
        self.graph = work
        self.colors = colors
        batch_seed = self.seed + _BATCH_SEED_STRIDE * (self.batches + 1)
        self.batches += 1
        outcome = self._recolor(sorted(new_edges), batch_seed)
        outcome.applied = len(mutations)
        outcome.removed_edges = removed
        self.stats["mutations"] += len(mutations)
        self.stats["batches"] += 1
        if outcome.incremental:
            self.stats["incremental_batches"] += 1
        if outcome.fallback:
            self.stats["fallback_batches"] += 1
        self.stats["violations_healed"] += len(outcome.violations)
        outcome.wall_s = time.perf_counter() - t0
        return outcome

    def _stage(self, mutations: List[Mutation]):
        """Validate and apply ``mutations`` to copies of graph+colors."""
        work = self.graph.copy()
        colors = dict(self.colors)
        new_edges: set = set()
        removed = 0
        arcs = self.algorithm == "dima2ed"
        for m in mutations:
            if m.op == "add_vertex":
                work.add_node(m.u)
            elif m.op == "remove_vertex":
                if not work.has_node(m.u):
                    raise ServeError(f"vertex {m.u} is not in session {self.name!r}")
                for u, v in work.incident_edges(m.u):
                    self._drop_color(colors, u, v, arcs)
                    new_edges.discard(canonical_edge(u, v))
                    removed += 1
                work.remove_node(m.u)
            elif m.op == "add_edge":
                if m.u == m.v:
                    raise ServeError(f"self-loop ({m.u}, {m.v}) cannot be colored")
                if not work.has_edge(m.u, m.v):
                    work.add_edge(m.u, m.v)
                    new_edges.add(canonical_edge(m.u, m.v))
            elif m.op == "remove_edge":
                if not work.has_edge(m.u, m.v):
                    raise ServeError(
                        f"edge ({m.u}, {m.v}) is not in session {self.name!r}"
                    )
                work.remove_edge(m.u, m.v)
                self._drop_color(colors, m.u, m.v, arcs)
                edge = canonical_edge(m.u, m.v)
                if edge in new_edges:
                    new_edges.discard(edge)
                else:
                    removed += 1
        return work, colors, new_edges, removed

    @staticmethod
    def _drop_color(colors: dict, u: int, v: int, arcs: bool) -> None:
        if arcs:
            colors.pop((u, v), None)
            colors.pop((v, u), None)
        else:
            colors.pop(canonical_edge(u, v), None)

    def _recolor(self, new_edges: List[Edge], batch_seed: int) -> BatchOutcome:
        outcome = BatchOutcome(
            applied=0,
            new_edges=len(new_edges),
            removed_edges=0,
            incremental=True,
            fallback=False,
            rounds=0,
        )
        if not new_edges:
            # Removal-only batch: dropping colors cannot break
            # properness, so there is nothing to recolor (or verify).
            return outcome
        if self.incremental:
            try:
                outcome.rounds = self._recolor_incremental(new_edges, batch_seed)
            except FallbackRequired:
                outcome.incremental = False
        else:
            outcome.incremental = False
        if outcome.incremental and self.verify:
            outcome.violations = self._violations()
            if outcome.violations:
                outcome.incremental = False
        if not outcome.incremental:
            outcome.fallback = bool(self.incremental)
            outcome.rounds = self._recolor_full(batch_seed)
            self._check_or_raise()
        return outcome

    def _recolor_incremental(self, new_edges: List[Edge], seed: int) -> int:
        if self.algorithm == "dima2ed":
            out = incremental_arc_colors(
                self.graph, self.colors, new_edges, seed=seed
            )
        else:
            out = incremental_edge_colors(
                self.graph, self.colors, new_edges, seed=seed
            )
        self.colors.update(out.colors)
        return out.rounds

    def _recolor_full(self, seed: int) -> int:
        self.stats["full_runs"] += 1
        if not self.graph.num_edges:
            self.colors = {}
            return 0
        try:
            if self.algorithm == "dima2ed":
                result = strong_color_arcs(self.graph.to_directed(), seed=seed)
            else:
                result = color_edges(self.graph, seed=seed)
        except ConvergenceError as exc:  # pragma: no cover - huge budgets
            raise ServeError(
                f"full recoloring of session {self.name!r} did not "
                f"converge: {exc}"
            ) from exc
        self.colors = dict(result.colors)
        return result.rounds

    # -- verification ----------------------------------------------------

    def _violations(self) -> List[str]:
        if self.algorithm == "dima2ed":
            return check_strong_arc_coloring(
                self.graph.to_directed(), self.colors, complete=True
            )
        # One array pass accepts a proper and complete coloring; the two
        # checks below would each repeat it before explaining a failure.
        if edge_verdict(self.graph, self.colors, complete=True):
            return []
        return check_proper_edge_coloring(
            self.graph, self.colors
        ) + check_edge_coloring_complete(self.graph, self.colors)

    def _check_or_raise(self) -> None:
        if not self.verify:
            return
        violations = self._violations()
        if violations:  # pragma: no cover - full runs verify upstream
            raise VerificationError(
                f"session {self.name!r} coloring is invalid after a full "
                f"rerun: {violations[:3]}"
            )

    # -- persistence -----------------------------------------------------

    def to_state(self) -> dict:
        colored = [[u, v, c] for (u, v), c in sorted(self.colors.items())]
        return {
            "format": _STATE_FORMAT,
            "name": self.name,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "verify": self.verify,
            "incremental": self.incremental,
            "batches": self.batches,
            "nodes": sorted(self.graph.nodes()),
            "edges": sorted(self.graph.edge_list()),
            "colors": colored,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ColoringSession":
        fmt = state.get("format", 1)
        if fmt > _STATE_FORMAT:
            raise ServeError(
                f"session state format {fmt} is newer than this checkout "
                f"understands ({_STATE_FORMAT})"
            )
        session = cls(
            state["name"],
            algorithm=state.get("algorithm", "alg1"),
            seed=state.get("seed", 0),
            verify=state.get("verify", True),
            incremental=state.get("incremental", True),
        )
        for u in state.get("nodes", ()):
            session.graph.add_node(u)
        for u, v in state.get("edges", ()):
            session.graph.add_edge(u, v)
        arcs = session.algorithm == "dima2ed"
        for u, v, c in state.get("colors", ()):
            session.colors[(u, v) if arcs else canonical_edge(u, v)] = c
        session.batches = state.get("batches", 0)
        stats = _zero_stats()
        stats.update(state.get("stats", {}))
        session.stats = stats
        # A tampered or stale state file must not serve improper colors.
        session._check_or_raise()
        return session


class SessionManager:
    """Namespace, aggregate stats, and persistence for sessions."""

    def __init__(
        self,
        *,
        state_dir=None,
        default_seed: int = 0,
        verify: bool = True,
        incremental: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.default_seed = default_seed
        self.verify = verify
        self.incremental = incremental
        self._sessions: Dict[str, ColoringSession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def names(self) -> List[str]:
        return sorted(self._sessions)

    def create(
        self,
        name: str,
        *,
        algorithm: str = "alg1",
        seed: Optional[int] = None,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
        num_nodes: Optional[int] = None,
    ) -> ColoringSession:
        if name in self._sessions:
            raise ServeError(f"session {name!r} already exists")
        session = ColoringSession(
            name,
            algorithm=algorithm,
            seed=self.default_seed if seed is None else seed,
            verify=self.verify,
            incremental=self.incremental,
        )
        if edges is not None or num_nodes is not None:
            session.load_edges(edges or (), num_nodes)
        self._sessions[name] = session
        return session

    def get(self, name: str) -> ColoringSession:
        try:
            return self._sessions[name]
        except KeyError:
            raise ServeError(f"no session named {name!r}") from None

    def drop(self, name: str) -> None:
        self.get(name)
        del self._sessions[name]
        if self.state_dir is not None:
            path = self.state_dir / f"{name}.session.json"
            if path.exists():
                path.unlink()

    def totals(self) -> Dict[str, int]:
        totals = _zero_stats()
        for session in self._sessions.values():
            for key, value in session.stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["sessions"] = len(self._sessions)
        return totals

    # -- persistence -----------------------------------------------------

    def save(self) -> int:
        """Persist every session; returns how many files were written."""
        if self.state_dir is None:
            return 0
        self.state_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for name, session in self._sessions.items():
            path = self.state_dir / f"{name}.session.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(session.to_state(), sort_keys=True), encoding="utf-8"
            )
            tmp.replace(path)
            written += 1
        return written

    def load(self) -> int:
        """Restore sessions from the state directory; returns the count."""
        if self.state_dir is None or not self.state_dir.exists():
            return 0
        loaded = 0
        for path in sorted(self.state_dir.glob("*.session.json")):
            state = json.loads(path.read_text(encoding="utf-8"))
            session = ColoringSession.from_state(state)
            self._sessions[session.name] = session
            loaded += 1
        return loaded
