"""Seeded input generation for every phase of one benchmark run.

Everything a run feeds the program is built here, before any timing
starts, from ``(workload, seed)`` alone: the same pair always gives the
same arrays.  Generation goes through the program's ``repro.workloads``
generators; the time it takes counts in ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.rmat import rmat_edges, rmat_edges_unique
from repro.workloads.streams import highest_degree_roots, symmetrize

#: Quadrant probabilities per workload: Graph500's skewed RMAT, and the
#: flat split that makes every (src, dst) pair equally likely.
QUADRANTS = {
    "rmat": dict(a=0.57, b=0.19, c=0.19, d=0.05, noise=0.1),
    "uniform": dict(a=0.25, b=0.25, c=0.25, d=0.25, noise=0.0),
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run (``FULL`` is the benchmark; ``TINY`` smoke-tests it)."""

    ingest_scale: int
    ingest_edges: int
    ingest_deletes: int
    ingest_batch: int
    analytics_scale: int
    analytics_undirected: int     # preloaded undirected edges (x2 directed)
    analytics_step_inserts: int   # new undirected edges per step
    analytics_step_deletes: int   # deleted undirected edges per step
    analytics_steps: int
    serve_scale: int
    serve_preload: int
    serve_preload_batch: int
    serve_read_rate: float
    serve_write_rate: float
    serve_write_edges: int
    serve_window_s: float         # seconds of one open-loop window
    max_rounds: int


FULL = Sizes(
    ingest_scale=16, ingest_edges=300_000, ingest_deletes=100_000,
    ingest_batch=10_000,
    analytics_scale=15, analytics_undirected=60_000,
    analytics_step_inserts=500, analytics_step_deletes=250,
    analytics_steps=12,
    serve_scale=14, serve_preload=100_000, serve_preload_batch=2048,
    serve_read_rate=900.0, serve_write_rate=100.0, serve_write_edges=16,
    serve_window_s=1.5, max_rounds=8,
)

#: Open-loop windows per round: one after the analytics phase, one after
#: ingest, so a run's windows are spread over its whole length.
SERVE_WINDOWS_PER_ROUND = 2

TINY = Sizes(
    ingest_scale=10, ingest_edges=4_000, ingest_deletes=1_000,
    ingest_batch=500,
    analytics_scale=9, analytics_undirected=1_000,
    analytics_step_inserts=20, analytics_step_deletes=10,
    analytics_steps=4,
    serve_scale=9, serve_preload=2_000, serve_preload_batch=500,
    serve_read_rate=200.0, serve_write_rate=20.0, serve_write_edges=4,
    serve_window_s=0.5, max_rounds=4,
)


@dataclass
class IngestInputs:
    inserts: np.ndarray          # (n, 2) in arrival order, duplicates kept
    deletes: np.ndarray          # (m, 2) distinct edges present after inserts
    batch: int


@dataclass
class AnalyticsInputs:
    preload: np.ndarray          # symmetrized directed edges
    root: int
    n_vertices: int
    step_inserts: list[np.ndarray]   # symmetrized, per step
    step_deletes: list[np.ndarray]   # symmetrized, per step


@dataclass
class ServeInputs:
    preload: np.ndarray
    preload_batch: int
    writes: np.ndarray           # (n_writes, edges_per_write, 2)
    read_ops: np.ndarray         # 0 degree, 1 neighbors, 2 khop
    read_keys: np.ndarray
    read_rate: float
    write_rate: float


@dataclass
class Inputs:
    ingest: IngestInputs
    analytics: AnalyticsInputs
    serve: ServeInputs


def _ingest(rng, quad: dict, sizes: Sizes) -> IngestInputs:
    inserts = rmat_edges(sizes.ingest_scale, sizes.ingest_edges,
                         seed=rng, **quad)
    distinct = np.unique(inserts, axis=0)
    pick = rng.choice(distinct.shape[0], sizes.ingest_deletes, replace=False)
    return IngestInputs(inserts=inserts, deletes=distinct[pick],
                        batch=sizes.ingest_batch)


def _analytics(rng, quad: dict, sizes: Sizes) -> AnalyticsInputs:
    need = (sizes.analytics_undirected
            + sizes.analytics_step_inserts * sizes.analytics_steps)
    drawn = rmat_edges_unique(sizes.analytics_scale, need * 2, seed=rng,
                              **quad)
    # One direction per unordered pair, so a pair is never drawn twice
    # as (u, v) and (v, u); first appearance keeps the draw order.
    pairs = np.sort(drawn, axis=1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    undirected = pairs[np.sort(first)][:need]
    if undirected.shape[0] < need:
        raise ValueError(f"drew {undirected.shape[0]} distinct pairs, "
                         f"need {need}")
    base = undirected[: sizes.analytics_undirected]
    fresh = undirected[sizes.analytics_undirected:]
    preload = symmetrize(base)
    live = [tuple(e) for e in base.tolist()]
    step_inserts, step_deletes = [], []
    k = sizes.analytics_step_inserts
    for step in range(sizes.analytics_steps):
        new = fresh[step * k:(step + 1) * k]
        live.extend(tuple(e) for e in new.tolist())
        # Delete live pairs chosen uniformly; swap-remove keeps it O(1).
        gone = []
        for _ in range(sizes.analytics_step_deletes):
            i = int(rng.integers(len(live)))
            gone.append(live[i])
            live[i] = live[-1]
            live.pop()
        step_inserts.append(symmetrize(new))
        step_deletes.append(symmetrize(np.array(gone, dtype=np.int64)))
    root = int(highest_degree_roots(preload, 1)[0])
    return AnalyticsInputs(preload=preload, root=root,
                           n_vertices=2 ** sizes.analytics_scale,
                           step_inserts=step_inserts,
                           step_deletes=step_deletes)


def _serve(rng, quad: dict, sizes: Sizes) -> ServeInputs:
    preload = rmat_edges(sizes.serve_scale, sizes.serve_preload,
                         seed=rng, **quad)
    seconds = (sizes.serve_window_s * SERVE_WINDOWS_PER_ROUND
               * sizes.max_rounds)
    n_writes = int(sizes.serve_write_rate * seconds) + 1
    writes = rmat_edges(sizes.serve_scale, n_writes * sizes.serve_write_edges,
                        seed=rng, **quad)
    n_reads = int(sizes.serve_read_rate * seconds) + 1
    # The loadgen read mix: 55% degree, 35% neighbors, 10% 2-hop khop.
    read_ops = np.searchsorted(np.array([0.55, 0.90]), rng.random(n_reads),
                               side="right")
    # Read keys are uniform over the id space, as loadgen draws them.
    read_keys = rng.integers(0, 2 ** sizes.serve_scale, n_reads)
    return ServeInputs(
        preload=preload, preload_batch=sizes.serve_preload_batch,
        writes=writes.reshape(n_writes, sizes.serve_write_edges, 2),
        read_ops=read_ops, read_keys=read_keys,
        read_rate=sizes.serve_read_rate, write_rate=sizes.serve_write_rate)


def make_inputs(workload: str, seed: int, sizes: Sizes) -> Inputs:
    quad = QUADRANTS[workload]
    rng = np.random.default_rng([seed, 0x9E37])
    return Inputs(ingest=_ingest(rng, quad, sizes),
                  analytics=_analytics(rng, quad, sizes),
                  serve=_serve(rng, quad, sizes))
