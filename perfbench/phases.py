"""The in-process phases: bulk ingest and analytics after churn.

Both drive the default backend (GraphTinker, vector kernel) directly,
one thread, no WAL.  Each timed call is one public call of the program;
input slicing, bookkeeping and checks happen outside the timed regions.

A run repeats both phases once per round on fresh stores with the same
inputs, so every round does identical work: times are combined per batch
or step position across rounds, and every round must reproduce the
first round's exact counts.  A host-speed probe (``hostspeed``) runs
before the first and after every timed batch or step, outside the timed
region, and the metrics rescale each time by the probes around it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.core.store import store_digest
from repro.engine import BFS, INCREMENTAL, ConnectedComponents, HybridEngine

import checks
import hostspeed
from hostspeed import normalize, probe
from inputs import AnalyticsInputs, IngestInputs


def _split(edges: np.ndarray, batch: int) -> list[np.ndarray]:
    return [np.ascontiguousarray(edges[i:i + batch])
            for i in range(0, edges.shape[0], batch)]


# --------------------------------------------------------------------- #
# ingest: 10k-edge insert batches, then 10k-edge delete batches
# --------------------------------------------------------------------- #
@dataclass
class IngestResult:
    insert_s: list[list[float]] = field(default_factory=list)  # [round][batch]
    delete_s: list[list[float]] = field(default_factory=list)
    insert_probe_s: list[list[float]] = field(default_factory=list)
    delete_probe_s: list[list[float]] = field(default_factory=list)
    probing_s: list[float] = field(default_factory=list)   # per round
    insert_edges: list[int] = field(default_factory=list)      # per batch
    delete_edges: list[int] = field(default_factory=list)
    counts: dict = field(default_factory=dict)   # exact counts of one round
    windows: list[tuple[float, float]] = field(default_factory=list)
    error: str | None = None

    @property
    def rounds(self) -> int:
        return len(self.insert_s)


class Ingest:
    """One ingest round per :meth:`run_round` call, on a fresh store."""

    def __init__(self, inp: IngestInputs):
        self.inserts = _split(inp.inserts, inp.batch)
        self.deletes = _split(inp.deletes, inp.batch)
        self.want = checks.edge_set_digest(
            checks.live_edges(inp.inserts, inp.deletes))
        self.result = IngestResult(
            insert_edges=[b.shape[0] for b in self.inserts],
            delete_edges=[b.shape[0] for b in self.deletes])

    def run_round(self) -> None:
        res = self.result
        clock = time.perf_counter
        gc.collect()
        store = GraphTinker()
        ins_t, del_t = [], []
        ins_p = [probe()]
        new = deleted = 0
        spent0 = hostspeed.spent_s
        w0 = clock()
        for batch in self.inserts:
            t0 = clock()
            new += store.insert_batch(batch)
            ins_t.append(clock() - t0)
            ins_p.append(probe())
        del_p = [ins_p[-1]]
        for batch in self.deletes:
            t0 = clock()
            deleted += store.delete_batch(batch)
            del_t.append(clock() - t0)
            del_p.append(probe())
        res.windows.append((w0, clock()))
        res.insert_s.append(ins_t)
        res.delete_s.append(del_t)
        res.insert_probe_s.append(ins_p)
        res.delete_probe_s.append(del_p)
        res.probing_s.append(hostspeed.spent_s - spent0)
        counts = {"new": new, "deleted": deleted, **store.stats.as_dict()}
        if res.rounds == 1:
            res.counts = counts
            res.error = checks.check_digest(store_digest(store), self.want,
                                            "ingest")
        elif counts != res.counts and res.error is None:
            res.error = (f"ingest: round {res.rounds} counts differ from "
                         f"round 1 on the same inputs")


def ingest_metrics(res: IngestResult) -> dict[str, float]:
    """Throughputs from each batch's host-normalized median across rounds.

    Rounds replay identical batches on identical stores; each batch time
    is rescaled by the probes around it (see ``hostspeed``), which
    removes the host's drift, and the median of the rounds removes a
    disturbance that hit one of them.
    """
    ins = np.median(normalize(res.insert_s, res.insert_probe_s), axis=0)
    dels = np.median(normalize(res.delete_s, res.delete_probe_s), axis=0)
    n_ins = np.array(res.insert_edges)
    loaded = max(1, ins.shape[0] // 4)
    return {
        "insert_edges_per_s": float(n_ins.sum() / ins.sum()),
        "insert_edges_per_s_loaded":
            float(n_ins[-loaded:].sum() / ins[-loaded:].sum()),
        "delete_edges_per_s": float(sum(res.delete_edges) / dels.sum()),
    }


# --------------------------------------------------------------------- #
# analytics: churn steps, each followed by BFS and CC through the engine
# --------------------------------------------------------------------- #
def preload_analytics(inp: AnalyticsInputs) -> GraphTinker:
    """The snapshot-enabled store an analytics round starts from.

    One gather from the root builds the CSR snapshot, so the first
    measured step does not pay for that one-time construction.
    """
    store = GraphTinker(GTConfig(snapshot=True))
    store.insert_batch(inp.preload)
    store.neighbors_many(np.array([inp.root], dtype=np.int64))
    return store


@dataclass
class AnalyticsResult:
    update_s: list[list[float]] = field(default_factory=list)  # [round][step]
    bfs_s: list[list[float]] = field(default_factory=list)
    cc_s: list[list[float]] = field(default_factory=list)
    probe_s: list[list[float]] = field(default_factory=list)   # [round][step+1]
    probing_s: list[float] = field(default_factory=list)      # per round
    counts: dict = field(default_factory=dict)   # exact counts of one round
    windows: list[tuple[float, float]] = field(default_factory=list)
    error: str | None = None

    @property
    def rounds(self) -> int:
        return len(self.update_s)

    @property
    def steps(self) -> int:
        return len(self.update_s[0])


class Analytics:
    """One analytics round per :meth:`run_round` call (store preloaded by caller)."""

    def __init__(self, inp: AnalyticsInputs):
        self.inp = inp
        self.live = checks.live_edges(
            np.concatenate([inp.preload, *inp.step_inserts]),
            np.concatenate(inp.step_deletes))
        self.result = AnalyticsResult()

    def run_round(self, store: GraphTinker) -> None:
        inp, res = self.inp, self.result
        bfs = HybridEngine(store, BFS(), policy="hybrid")
        cc = HybridEngine(store, ConnectedComponents(), policy="hybrid")
        snap = store.analytics_snapshot
        patched0 = snap.patched_rows
        before = store.stats.snapshot()
        update_s, bfs_s, cc_s = [], [], []
        processed = iterations = incremental = 0
        clock = time.perf_counter
        gc.collect()
        probes = [probe()]
        spent0 = hostspeed.spent_s
        w0 = clock()
        for ins, dels in zip(inp.step_inserts, inp.step_deletes):
            t0 = clock()
            store.insert_batch(ins)
            store.delete_batch(dels)
            t1 = clock()
            bfs.reset(roots=[inp.root])
            r_bfs = bfs.compute()
            t2 = clock()
            cc.reset()
            r_cc = cc.compute()
            t3 = clock()
            update_s.append(t1 - t0)
            bfs_s.append(t2 - t1)
            cc_s.append(t3 - t2)
            probes.append(probe())
            for r in (r_bfs, r_cc):
                processed += r.edges_processed
                iterations += r.n_iterations
                incremental += r.modes_used().count(INCREMENTAL)
        res.windows.append((w0, clock()))
        res.update_s.append(update_s)
        res.bfs_s.append(bfs_s)
        res.cc_s.append(cc_s)
        res.probe_s.append(probes)
        res.probing_s.append(hostspeed.spent_s - spent0)
        counts = {"edges_processed": processed, "iterations": iterations,
                  "incremental_iterations": incremental,
                  "rows_patched": snap.patched_rows - patched0,
                  **store.stats.delta(before).as_dict()}
        if res.rounds == 1:
            res.counts = counts
            res.error = (
                checks.check_digest(store_digest(store),
                                    checks.edge_set_digest(self.live),
                                    "analytics")
                or checks.check_bfs(bfs.values, self.live, inp.root,
                                    inp.n_vertices)
                or checks.check_cc(cc.values, self.live, inp.n_vertices))
        elif counts != res.counts and res.error is None:
            res.error = (f"analytics: round {res.rounds} counts differ from "
                         f"round 1 on the same inputs")


def analytics_metrics(res: AnalyticsResult) -> dict[str, float]:
    """Per-step host-normalized median across rounds, then the median over steps.

    As for ingest, each step's times are rescaled by the probes taken
    before and after the step.
    """
    def per_step(times):
        return np.median(normalize(times, res.probe_s), axis=0)

    bfs, cc, update = per_step(res.bfs_s), per_step(res.cc_s), \
        per_step(res.update_s)
    return {
        "update_p50_ms": float(np.median(update)) * 1e3,
        "bfs_p50_ms": float(np.median(bfs)) * 1e3,
        "cc_p50_ms": float(np.median(cc)) * 1e3,
        "analytics_edges_per_s":
            res.counts["edges_processed"] / float(bfs.sum() + cc.sum()),
    }
