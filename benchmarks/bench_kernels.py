"""Kernel bench — vectorized vs scalar batch-update wall-clock.

The vector kernels (``repro.core.kernels``) must be *behaviourally
invisible*: bit-identical store state and bit-identical ``AccessStats``
versus the scalar reference for any input stream.  Their only licensed
effect is wall-clock speed.  This bench pins both halves of that
contract on the acceptance workload — a 100k-edge RMAT stream inserted
batch-by-batch, then half of its distinct edges deleted batch-by-batch:

* **equivalence**: after the inserts and again after the deletes, the
  edge sets and the full stats dict must be equal — a fast wrong kernel
  fails here, before any timing is looked at;
* **speed**: the vector kernel must beat the scalar kernel by at least
  ``SPEEDUP_FLOOR`` (3x by default; override with
  ``REPRO_KERNEL_SPEEDUP_FLOOR`` for noisy shared runners) on inserts
  and on deletes alike.
"""

import gc
import os
import time

import numpy as np
import pytest

from repro.bench.harness import make_store
from repro.bench.reporting import Table
from repro.workloads import rmat_edges
from repro.workloads.streams import EdgeStream

from _common import emit, record_bench

N_EDGES = 100_000
SCALE = 16
N_BATCHES = 4
SPEEDUP_FLOOR = float(os.environ.get("REPRO_KERNEL_SPEEDUP_FLOOR", "3.0"))


def _timed(apply, batches) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for batch in batches:
            apply(batch)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _run(kernel: str) -> dict:
    edges = rmat_edges(SCALE, N_EDGES, seed=7)
    store = make_store("graphtinker", kernel=kernel)
    t_ins = _timed(store.insert_batch,
                   EdgeStream(edges, max(1, N_EDGES // N_BATCHES)).insert_batches())
    inserted = (store.stats.as_dict(), _edge_list(store))
    # Half of the distinct edges, shuffled, in N_BATCHES batches.
    live = np.unique(edges, axis=0)
    doomed = EdgeStream(live, max(1, live.shape[0] // (2 * N_BATCHES)))
    t_del = _timed(store.delete_batch, list(doomed.delete_batches(seed=11))[:N_BATCHES])
    return {
        "t_insert": t_ins,
        "t_delete": t_del,
        "n_deleted": store.stats.edges_deleted,
        "inserted": inserted,
        "deleted": (store.stats.as_dict(), _edge_list(store)),
    }


def _edge_list(store) -> list:
    return sorted(zip(*(a.tolist() for a in store.edge_arrays())))


def run_all():
    # Warm both code paths (allocator pools, lazy imports, branch caches)
    # on a small prefix so the timed runs compare kernels, not cold starts.
    for kernel in ("scalar", "vector"):
        warm = make_store("graphtinker", kernel=kernel)
        warm_edges = rmat_edges(SCALE, 5_000, seed=3)
        warm.insert_batch(warm_edges)
        warm.delete_batch(warm_edges[::2])
    return {kernel: _run(kernel) for kernel in ("scalar", "vector")}


@pytest.mark.benchmark(group="kernels")
def test_vector_kernel_speedup_and_equivalence(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    scalar, vector = results["scalar"], results["vector"]
    n_deleted = vector["n_deleted"]
    speedup = scalar["t_insert"] / vector["t_insert"]
    delete_speedup = scalar["t_delete"] / vector["t_delete"]

    table = Table(
        f"batch-update kernels ({N_EDGES} RMAT edges inserted, "
        f"{n_deleted} deleted, {N_BATCHES} batches each)",
        ["op", "kernel", "wall seconds", "edges/s", "speedup"],
    )
    for op, key, n, gain in (("insert", "t_insert", N_EDGES, speedup),
                             ("delete", "t_delete", n_deleted, delete_speedup)):
        table.add_row([op, "scalar", scalar[key], n / scalar[key], 1.0])
        table.add_row([op, "vector", vector[key], n / vector[key], gain])
    emit(table)
    record_bench(
        "kernels",
        config={"n_edges": N_EDGES, "scale": SCALE, "n_batches": N_BATCHES,
                "n_deleted": n_deleted},
        wall_s=vector["t_insert"],
        throughput_edges_per_s=N_EDGES / vector["t_insert"],
        metrics={"scalar_wall_s": scalar["t_insert"], "speedup": speedup,
                 "delete_wall_s": vector["t_delete"],
                 "scalar_delete_wall_s": scalar["t_delete"],
                 "delete_speedup": delete_speedup},
    )

    # Equivalence first: a fast-but-wrong kernel must not pass.
    assert vector["inserted"] == scalar["inserted"]
    assert vector["deleted"] == scalar["deleted"]
    assert scalar["n_deleted"] == n_deleted
    # Then the acceptance speedups on the interpreter clock.
    assert speedup >= SPEEDUP_FLOOR, (
        f"vector insert kernel speedup {speedup:.2f}x below floor {SPEEDUP_FLOOR}x"
    )
    assert delete_speedup >= SPEEDUP_FLOOR, (
        f"vector delete kernel speedup {delete_speedup:.2f}x below floor {SPEEDUP_FLOOR}x"
    )
