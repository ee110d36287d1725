"""The repository benchmark: one command, three phases, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rmat --seed 1 --seconds 30 --trace 0

Every run repeats rounds of identical work on inputs generated from
``--workload`` and ``--seed``, one round per 10 of ``--seconds`` (see
``perfbench/README.md``).  A round has three phases:

1. analytics: a snapshot-enabled GraphTinker preloaded with a
   symmetrized graph takes a fixed sequence of churn steps, each
   followed by BFS and CC through ``HybridEngine`` (hybrid policy);
2. ingest: 10k-edge insert batches then 10k-edge delete batches on a
   fresh store;
3. serve: an open-loop window of reads and durable writes against one
   ``repro serve-net`` subprocess, started and preloaded once per run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed
correctness check prints ``"correct": false`` and exits with code 1; a
checkout without the program's sources exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

# NumPy advises huge pages for large arrays, and whether the kernel backs
# an array with them depends on free memory at the moment it is made:
# gather-heavy steps then ran up to 20% apart between rounds of identical
# work.  Small pages make the layout the same every round; the server
# inherits the setting.  This must precede the first NumPy import.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

from hostspeed import normalize, probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("rmat", "uniform")

#: name -> unit, in output order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "insert_edges_per_s": "1/s",
    "insert_edges_per_s_loaded": "1/s",
    "delete_edges_per_s": "1/s",
    "update_p50_ms": "ms",
    "bfs_p50_ms": "ms",
    "cc_p50_ms": "ms",
    "analytics_edges_per_s": "1/s",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
}

PER_LAYER = {
    "core.insert_batch.busy_s": "s",
    "core.insert_batch.us_per_edge": "us",
    "core.insert_batch.new_ratio": "ratio",
    "core.delete_batch.busy_s": "s",
    "core.delete_batch.hit_ratio": "ratio",
    "core.workblock_fetches": "count",
    "core.cells_scanned": "count",
    "core.rhh_swaps": "count",
    "core.branch_descents": "count",
    "core.random_block_reads": "count",
    "core.seq_block_reads": "count",
    "core.analytics_edges.busy_s": "s",
    "engine.compute.busy_s": "s",
    "engine.iterations": "count",
    "engine.edges_processed": "count",
    "engine.incremental_share": "ratio",
    "engine.gather.busy_s": "s",
    "engine.snapshot_sync.busy_s": "s",
    "engine.snapshot_sync.calls": "count",
    "engine.snapshot.rows_patched": "count",
    "service.ticket_wait_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.requests_per_append": "ratio",
    "wal.append.busy_ms": "ms",
    "wal.append.calls": "1/s",
    "wal.sync.busy_ms": "ms",
    "wal.sync.calls": "1/s",
    "wal.bytes_per_edge": "B",
    "net.view_capture.busy_ms": "ms",
    "net.view_capture.calls": "1/s",
    "net.view.pending_rows": "count",
    "net.readview.degree_us": "us",
    "net.readview.neighbors_us": "us",
    "net.readview.khop_us": "us",
    "net.encode_frame.busy_us": "us",
    "net.bytes_per_response": "B",
    "net.read_residue_us": "us",
    "loadgen.late_p99_ms": "ms",
    "loadgen.achieved_ops_per_s": "1/s",
    "loadgen.invalid_windows": "count",
    "loadgen.read_p99_ms": "ms",
    "loadgen.write_p99_ms": "ms",
    "trace.attributed_frac.ingest": "ratio",
    "trace.attributed_frac.analytics": "ratio",
    "trace.overhead_pct": "%",
}

#: Input generation is repeated and its median reported, so one slow
#: repetition does not move ``setup_s``.
SETUP_REPEATS = 3
#: ``--seconds`` buys one round per this many seconds.  The round count
#: is fixed up front, not by the clock, so a run's estimators combine
#: the same number of repetitions however fast the machine is.
SECONDS_PER_ROUND = 10.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def _median_timed(repeats: int, fn):
    """Run ``fn`` ``repeats`` times; return (median seconds, last result).

    Each time is rescaled by the host-speed probes around it, as the
    in-process phase times are.
    """
    times, probes, result = [], [probe()], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        probes.append(probe())
    return float(np.median(normalize(times, probes))), result


def run(args, run_dir: Path) -> dict:
    import checks
    import inputs as inputs_mod
    import layers
    import phases
    import serve
    from tracing import SpanSet, Tracer, load_spans, wrapper_cost_s

    sizes = inputs_mod.TINY if args.size == "tiny" else inputs_mod.FULL
    rounds = min(sizes.max_rounds,
                 max(1, int(args.seconds // SECONDS_PER_ROUND)))
    tracer = Tracer().install() if args.trace else None

    gen_s, inp = _median_timed(
        SETUP_REPEATS,
        lambda: inputs_mod.make_inputs(args.workload, args.seed, sizes))
    ingest = phases.Ingest(inp.ingest)
    analytics = phases.Analytics(inp.analytics)
    spans_path = run_dir / "server-spans.json" if args.trace else None
    server = serve.ServerProcess(ROOT, run_dir, spans_path)
    try:
        def start_server():
            server.start()
            serve.preload(server.port, inp.serve)

        serve_setup_s, _ = _median_timed(1, start_server)
        loop = serve.OpenLoop(server, inp.serve)
        try:
            # Rounds of identical work; each round's analytics store is
            # preloaded first (set-up, not measured).
            preload_s = []
            for _ in range(rounds):
                s, store = _median_timed(
                    1, lambda: phases.preload_analytics(inp.analytics))
                preload_s.append(s)
                analytics.run_round(store)
                del store
                loop.run_window(sizes.serve_window_s)
                ingest.run_round()
                loop.run_window(sizes.serve_window_s)
            digest = loop.writer.digest()
        finally:
            loop.close()
        server_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    errors = [e for e in (analytics.result.error, ingest.result.error) if e]
    # An invalid window means the offered load was not delivered: its
    # latencies describe a stalled or saturated server.  That is flagged,
    # not treated as a wrong answer.
    for why in loop.invalid:
        print(f"serve: window invalid: {why}", file=sys.stderr)
    want = checks.edge_set_digest(
        np.concatenate([inp.serve.preload, loop.acked_edges()]))
    err = checks.check_digest(digest, want, "serve")
    if err:
        errors.append(err)
    failures = loop.reads.errors + loop.writes.errors
    for message in failures[:5]:
        print(f"serve request failed: {message}", file=sys.stderr)

    ing, ana = ingest.result, analytics.result
    n_preload = -(-inp.serve.preload.shape[0] // inp.serve.preload_batch)
    attempted = (ing.rounds * (len(ing.insert_edges) + len(ing.delete_edges))
                 + 3 * ana.rounds * ana.steps + n_preload
                 + len(loop.reads.latency_s) + len(loop.writes.latency_s))

    if args.trace:
        tracer.uninstall()
        (run_dir / "client-spans.json").write_text(json.dumps(tracer.spans))
        client_spans = SpanSet(tracer.spans)
        metrics = {
            **layers.core_engine_metrics(client_spans, ing, ana,
                                         wrapper_cost_s()),
            **layers.serve_metrics(SpanSet(load_spans(spans_path)),
                                   client_spans, loop),
        }
        units = PER_LAYER
    else:
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": gen_s + statistics.median(preload_s) + serve_setup_s,
            "peak_rss_mb": self_rss + server_rss_mb,
            **phases.ingest_metrics(ing),
            **phases.analytics_metrics(ana),
            **loop.latency_metrics(),
        }
        units = END_TO_END
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def _terminate(signum, frame):
    # Unwind through the ``finally`` blocks, which stop the server.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, run_dir)
    finally:
        # Traced runs keep their span files for inspection.
        shutil.rmtree(run_dir / "serve-data" if args.trace else run_dir,
                      ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
