"""The serve phase: ``repro serve-net`` in a subprocess, driven open-loop.

The server is started through ``serve_launcher.py`` with the CLI's
default flags; only its data directory and port file are placed inside
the run directory.  Reads (round-robin over two connections) and writes
(one connection) follow fixed schedules (request ``i`` is due at
``t0 + i / rate``), so a slow server cannot slow the offered load down:
a request that cannot be sent on time is sent late, and its latency is
counted from when it was due.
"""

from __future__ import annotations

import ctypes
import gc
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.net.client import GraphClient

from hostspeed import normalize, probe
from inputs import ServeInputs

#: 2-hop expansions are capped at this many vertices (the loadgen limit).
KHOP_LIMIT = 128
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: Reads are spread round-robin over this many connections.  On one
#: connection a read due while the one before it (a 2-hop ``khop``, say)
#: is still in flight waits for it, and that queueing behind the
#: generator's own connection made the read median swing between runs.
READ_CONNECTIONS = 2
#: A driver thread sleeps until each due time with its timer slack set to
#: 1 ns: with the default 50 us slack it woke 90 us late at the median,
#: with 1 ns 40 us, and that wake-up would count as latency of the server.
PR_SET_TIMERSLACK = 29


class ServerProcess:
    """One ``serve-net`` subprocess, owned and always reaped by the caller."""

    def __init__(self, root: Path, run_dir: Path, spans_path: Path | None):
        self.root = root
        self.run_dir = run_dir
        self.data_dir = run_dir / "serve-data"
        self.port_file = run_dir / "serve.port"
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> int:
        launcher = self.root / "perfbench" / "serve_launcher.py"
        cmd = [sys.executable, str(launcher)]
        if self.spans_path is not None:
            cmd += ["--spans", str(self.spans_path)]
        cmd += ["serve-net", "--data-dir", str(self.data_dir),
                "--port-file", str(self.port_file)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(self.run_dir / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(cmd, env=env, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         cwd=self.root)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve-net exited with {self.proc.returncode}: "
                    f"{self.log_tail()}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                return self.port
            if time.monotonic() > deadline:
                raise RuntimeError("serve-net did not publish its port")
            time.sleep(0.01)

    def log_tail(self) -> str:
        path = self.run_dir / "serve.log"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def wal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.data_dir.rglob("wal-*"))

    def stop(self) -> None:
        """Interrupt (clean shutdown), then kill if it hangs; always reap."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("serve-net ignored SIGINT; killed it")


@dataclass
class Stream:
    """What one open-loop connection saw: per-request due-relative times."""

    latency_s: list[float] = field(default_factory=list)   # done - due
    late_s: list[float] = field(default_factory=list)      # sent - due
    due_s: list[float] = field(default_factory=list)       # due - t0
    errors: list[str] = field(default_factory=list)
    ok: list[int] = field(default_factory=list)            # indices acked


def _precise_wakeups() -> None:
    """Set the calling thread's timer slack to 1 ns (Linux; else no-op)."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _drive(indices, first: int, rate: float, t0: float, send,
           out: Stream) -> None:
    """Send request ``i`` of ``indices`` at ``t0 + (i - first) / rate``."""
    clock = time.perf_counter
    _precise_wakeups()
    for i in indices:
        due = t0 + (i - first) / rate
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock()
        try:
            send(i)
        except Exception as exc:  # noqa: BLE001 - counted as failed, not fatal
            out.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            out.ok.append(i)
        done = clock()
        out.latency_s.append(done - due)
        out.late_s.append(sent - due)
        out.due_s.append(due - t0)


def preload(port: int, inp: ServeInputs) -> None:
    """Insert the preload, then wait until the read view reflects all of it.

    The server re-measures at most 512 dirty rows per view capture, so
    without the blocking ``refresh`` the first window would still be
    draining the preload's backlog and measure a different state than
    the windows after it.
    """
    with GraphClient("127.0.0.1", port, retries=0) as client:
        for i in range(0, inp.preload.shape[0], inp.preload_batch):
            client.insert_edges(inp.preload[i:i + inp.preload_batch].tolist())
        client.refresh()


class OpenLoop:
    """Two connections that replay the seeded read and write schedules.

    Each :meth:`run_window` drives the next slice of both schedules for a
    fixed number of seconds; latency metrics combine per-window medians.
    """

    def __init__(self, server: ServerProcess, inp: ServeInputs):
        self.server = server
        self.inp = inp
        self.keys = inp.read_keys.tolist()
        self.ops = inp.read_ops.tolist()
        self.batches = [w.tolist() for w in inp.writes]
        self.readers = [GraphClient("127.0.0.1", server.port, retries=0)
                        for _ in range(READ_CONNECTIONS)]
        self.writer = GraphClient("127.0.0.1", server.port, retries=0)
        self.reads, self.writes = Stream(), Stream()
        self.windows: list[tuple[float, float]] = []
        # Per window: its first read and write sample, and the host-speed
        # probes taken just before and just after it.
        self.starts: list[tuple[int, int]] = []
        self.probes: list[tuple[float, float]] = []
        self.next_read = self.next_write = 0
        self.wal_bytes = 0
        self.achieved: list[float] = []
        self.invalid: list[str] = []

    def _read(self, i: int) -> None:
        reader = self.readers[i % READ_CONNECTIONS]
        op, src = self.ops[i], self.keys[i]
        if op == 0:
            reader.degree(src)
        elif op == 1:
            reader.neighbors(src)
        else:
            reader.khop(src, 2, limit=KHOP_LIMIT)

    def _write(self, i: int) -> None:
        self.writer.insert_edges(self.batches[i])

    def run_window(self, window_s: float) -> None:
        inp = self.inp
        n_reads = int(inp.read_rate * window_s)
        n_writes = int(inp.write_rate * window_s)
        if (self.next_read + n_reads > len(self.keys)
                or self.next_write + n_writes > len(self.batches)):
            raise ValueError("serve schedule exhausted; generate more inputs")
        for client in (*self.readers, self.writer):
            client.connect()
        wal_before = self.server.wal_bytes()
        r0, w0 = len(self.reads.late_s), len(self.writes.late_s)
        before = probe()
        t0 = time.perf_counter() + 0.05
        first, end = self.next_read, self.next_read + n_reads
        parts = [Stream() for _ in range(READ_CONNECTIONS)]
        threads = [
            threading.Thread(target=_drive, name=f"perfbench-reads-{j}",
                             args=(range(first + j, end, READ_CONNECTIONS),
                                   first, inp.read_rate, t0, self._read,
                                   part))
            for j, part in enumerate(parts)]
        threads.append(threading.Thread(
            target=_drive, name="perfbench-writes",
            args=(range(self.next_write, self.next_write + n_writes),
                  self.next_write, inp.write_rate, t0, self._write,
                  self.writes)))
        # The generator's own garbage collection would stall every
        # connection at once; that pause is not the server's.
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
        _merge_by_due(parts, self.reads)
        self.windows.append((t0, time.perf_counter()))
        self.starts.append((r0, w0))
        self.probes.append((before, probe()))
        achieved, invalid = window_validity(
            self.reads, self.writes, r0, w0, window_s,
            inp.read_rate + inp.write_rate)
        self.achieved.append(achieved)
        if invalid:
            self.invalid.append(invalid)
        self.wal_bytes += self.server.wal_bytes() - wal_before
        self.next_read += n_reads
        self.next_write += n_writes

    def latency_metrics(self) -> dict[str, float]:
        """Median over windows of each window's host-normalized p50.

        A window's median latency is rescaled by the probes taken just
        before and after it, as the in-process phase times are.
        """
        bounds = self.starts + [(len(self.reads.latency_s),
                                 len(self.writes.latency_s))]
        out = {}
        for name, stream, k in (("read_p50_ms", self.reads, 0),
                                ("write_p50_ms", self.writes, 1)):
            p50 = [np.median(stream.latency_s[a[k]:b[k]])
                   for a, b in zip(bounds, bounds[1:])]
            scaled = [normalize([t], pair)[0]
                      for t, pair in zip(p50, self.probes)]
            out[name] = float(np.median(scaled)) * 1e3
        return out

    def acked_edges(self) -> np.ndarray:
        return self.inp.writes[self.writes.ok].reshape(-1, 2)

    def close(self) -> None:
        for reader in self.readers:
            reader.close()
        self.writer.close()


def _merge_by_due(parts: list[Stream], out: Stream) -> None:
    """Append the samples of ``parts`` to ``out`` in due order."""
    rows = sorted((due, lat, late) for part in parts
                  for due, lat, late in zip(part.due_s, part.latency_s,
                                            part.late_s))
    for due, lat, late in rows:
        out.due_s.append(due)
        out.latency_s.append(lat)
        out.late_s.append(late)
    for part in parts:
        out.errors.extend(part.errors)
        out.ok.extend(part.ok)
    out.ok.sort()


def window_validity(reads: Stream, writes: Stream, r0: int, w0: int,
                    window_s: float,
                    offered_per_s: float) -> tuple[float, str | None]:
    """Achieved send rate of one window, and why it is invalid (or None).

    A window is invalid when the load generator fell behind: requests
    due in the window's last third went out more than 10 ms later (by
    median) than those due in its first third (a backlog), or the
    achieved rate — all requests over the window stretched by that
    last-third lateness — is under 98% of the offered rate.  One slow
    request at the end does not stretch the window; a sustained lag
    does.
    ``r0``/``w0`` index the window's first samples.
    """
    late = np.array(reads.late_s[r0:] + writes.late_s[w0:])
    due = np.array(reads.due_s[r0:] + writes.due_s[w0:])
    edge = window_s / 3.0
    first = float(np.median(late[due < edge]))
    last = float(np.median(late[due >= due.max() - edge]))
    achieved = late.shape[0] / (window_s + max(0.0, last))
    if achieved < 0.98 * offered_per_s:
        return achieved, (f"sent {achieved:.0f} requests/s of "
                          f"{offered_per_s:.0f} offered")
    if (last - first) * 1e3 > 10.0:
        return achieved, (f"median lateness grew {(last - first) * 1e3:.1f}"
                          f" ms from the first to the last third (backlog)")
    return achieved, None
