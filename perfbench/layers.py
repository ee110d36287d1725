"""Per-layer metrics of a traced run, from its spans and phase results.

Busy times come from spans, so they need the tracer; exact counts
(``AccessStats`` deltas, engine iterations, snapshot rows) come from
the phase results and repeat exactly for the same seed.
"""

from __future__ import annotations

import numpy as np

from tracing import SpanSet


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _in_windows(spans: SpanSet, windows) -> SpanSet:
    out = []
    for start, end in windows:
        out.extend(spans.window(start, end).spans)
    return SpanSet(out)


def _wall(windows) -> float:
    return sum(end - start for start, end in windows)


def _phase_wall(result) -> float:
    """Seconds a phase spent in its windows, host-speed probes excluded."""
    return _wall(result.windows) - sum(result.probing_s)


def core_engine_metrics(spans: SpanSet, ingest, analytics,
                        span_cost_s: float) -> dict[str, float]:
    """Ingest values are per round; analytics values per churn step.

    Exact counts are those of one round, which every round reproduces.
    """
    ing = _in_windows(spans, ingest.windows)
    ana = _in_windows(spans, analytics.windows)
    rounds, steps = ingest.rounds, analytics.rounds * analytics.steps
    ins_s = sum(ing.durations("core.insert_batch"))
    ic, ac = ingest.counts, analytics.counts
    wall = _phase_wall(ingest) + _phase_wall(analytics)
    n_spans = len(ing.spans) + len(ana.spans)
    return {
        "core.insert_batch.busy_s": ins_s / rounds,
        "core.insert_batch.us_per_edge":
            ins_s / (rounds * sum(ingest.insert_edges)) * 1e6,
        "core.insert_batch.new_ratio": ic["new"] / sum(ingest.insert_edges),
        "core.delete_batch.busy_s":
            sum(ing.durations("core.delete_batch")) / rounds,
        "core.delete_batch.hit_ratio":
            ic["deleted"] / sum(ingest.delete_edges),
        "core.workblock_fetches": ic["workblock_fetches"],
        "core.cells_scanned": ic["cells_scanned"],
        "core.rhh_swaps": ic["rhh_swaps"],
        "core.branch_descents": ic["branch_descents"],
        "core.random_block_reads": ac["random_block_reads"],
        "core.seq_block_reads": ac["seq_block_reads"],
        "core.analytics_edges.busy_s":
            sum(ana.durations("core.analytics_edges")) / steps,
        "engine.compute.busy_s":
            sum(ana.durations("engine.compute")) / steps,
        "engine.iterations": ac["iterations"],
        "engine.edges_processed": ac["edges_processed"],
        "engine.incremental_share":
            ac["incremental_iterations"] / ac["iterations"],
        "engine.gather.busy_s": sum(ana.durations("engine.gather")) / steps,
        "engine.snapshot_sync.busy_s":
            sum(ana.durations("engine.snapshot_sync")) / steps,
        "engine.snapshot_sync.calls":
            len(ana.named("engine.snapshot_sync")) // analytics.rounds,
        "engine.snapshot.rows_patched": ac["rows_patched"],
        "trace.attributed_frac.ingest":
            ing.top_level_busy() / _phase_wall(ingest),
        "trace.attributed_frac.analytics":
            ana.top_level_busy() / _phase_wall(analytics),
        "trace.overhead_pct": span_cost_s * n_spans / wall * 100.0,
    }


def serve_metrics(server_spans: SpanSet, client_spans: SpanSet,
                  loop) -> dict[str, float]:
    """Serve values over the open-loop windows only (preload excluded)."""
    srv = _in_windows(server_spans, loop.windows)
    cli = _in_windows(client_spans, loop.windows)
    window = _wall(loop.windows)

    # Each ticket is resolved by the flush that was running when its
    # wait returned; the rest of the wait is queueing behind the
    # micro-batch trigger and earlier flushes.
    flushes = sorted((s[3], s[4]) for s in srv.named("service.flush"))
    flush_starts = np.array([f[0] for f in flushes])
    waits, queued = [], []
    for s in srv.named("service.ticket_wait"):
        waited = s[4] - s[3]
        waits.append(waited)
        i = int(np.searchsorted(flush_starts, s[4], side="right")) - 1
        flush = flushes[i][1] - flushes[i][0] if i >= 0 else 0.0
        queued.append(max(0.0, waited - flush))

    appends = srv.durations("wal.append")
    syncs = srv.durations("wal.sync")
    captures = srv.named("net.view_capture")
    encodes = srv.named("net.encode_frame")
    reads = {op: srv.durations(f"net.readview.{op}")
             for op in ("degree", "neighbors", "khop")}
    client_reads = [s[4] - s[3] for s in cli.named("net.client.call")
                    if s[5] in ("degree", "neighbors", "khop")]
    server_read = _p50(reads["degree"] + reads["neighbors"] + reads["khop"])
    encode_p50 = _p50([s[4] - s[3] for s in encodes])
    late = np.array(loop.reads.late_s + loop.writes.late_s)
    return {
        "service.ticket_wait_ms": _p50(waits) * 1e3,
        "service.queue_wait_ms": _p50(queued) * 1e3,
        "service.requests_per_append":
            len(srv.named("service.submit_insert")) / max(1, len(appends)),
        "wal.append.busy_ms": _mean(appends) * 1e3,
        "wal.append.calls": len(appends) / window,
        "wal.sync.busy_ms": _mean(syncs) * 1e3,
        "wal.sync.calls": len(syncs) / window,
        "wal.bytes_per_edge":
            loop.wal_bytes / max(1, loop.acked_edges().shape[0]),
        "net.view_capture.busy_ms":
            _mean([s[4] - s[3] for s in captures]) * 1e3,
        "net.view_capture.calls": len(captures) / window,
        "net.view.pending_rows": _mean([s[5] for s in captures]),
        "net.readview.degree_us": _p50(reads["degree"]) * 1e6,
        "net.readview.neighbors_us": _p50(reads["neighbors"]) * 1e6,
        "net.readview.khop_us": _p50(reads["khop"]) * 1e6,
        "net.encode_frame.busy_us": encode_p50 * 1e6,
        "net.bytes_per_response": _mean([s[5] for s in encodes]),
        "net.read_residue_us":
            (_p50(client_reads) - server_read - encode_p50) * 1e6,
        "loadgen.late_p99_ms": float(np.percentile(late, 99)) * 1e3,
        "loadgen.achieved_ops_per_s": float(np.median(loop.achieved)),
        "loadgen.invalid_windows": len(loop.invalid),
        "loadgen.read_p99_ms":
            float(np.percentile(loop.reads.latency_s, 99)) * 1e3,
        "loadgen.write_p99_ms":
            float(np.percentile(loop.writes.latency_s, 99)) * 1e3,
    }
