"""The closed-loop load generator and the server processes it drives.

:class:`ServerProcess` starts ``python -m repro.server`` (or the traced
launcher) as a child process, waits for its ``listening`` line, and stops it
with SIGTERM — the server's graceful drain — waiting until it has exited.

:func:`run_closed_loop` runs one thread per connection.  Each thread sends
its next operation only after the previous one completed, times it at the
client (request sent to reply decoded, retries included) and keeps it if it
started and ended inside the measured window.  A failed operation is kept
with an infinite latency, so it misses every latency limit.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.client import GraphClient

__all__ = [
    "ConnectionLog", "ServerProcess", "TimedClient", "cpu_times", "percentile",
    "run_closed_loop", "sliced", "steal_share",
]


class TimedClient(GraphClient):
    """A :class:`GraphClient` that sums the round-trip time of its requests."""

    def __init__(self, *args, **kwargs) -> None:
        self.requests = 0
        self.request_seconds = 0.0
        super().__init__(*args, **kwargs)

    def _roundtrip(self, request: dict) -> dict:
        started = time.perf_counter()
        try:
            return super()._roundtrip(request)
        finally:
            self.request_seconds += time.perf_counter() - started
            self.requests += 1


class ServerProcess:
    """One server child process (started in :meth:`start`, ended in :meth:`stop`)."""

    def __init__(self, argv: Sequence[str], log_path: str, env: dict, cwd: str) -> None:
        self.argv = list(argv)
        self._log_path = log_path
        self._env = env
        self._cwd = cwd
        self._proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 60.0) -> int:
        """Launch and wait for the ``listening host:port`` line; returns the port."""
        with open(self._log_path, "ab") as log:
            self._proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, env=self._env, cwd=self._cwd
            )
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self._proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError(f"server did not report listening within {timeout}s")
            chunk = os.read(self._proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"server exited before listening; see {self._log_path}")
            line += chunk
        if not line.startswith(b"listening "):
            raise RuntimeError(f"unexpected server output {line!r}")
        self.port = int(line.rsplit(b":", 1)[1])
        return self.port

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self._proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def send(self, signum: int) -> None:
        self._proc.send_signal(signum)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain) and wait; kill if it overstays. Returns the exit code."""
        proc = self._proc
        if proc is None:
            return 0
        self._proc = None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    return proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
            return proc.wait()
        finally:
            proc.stdout.close()


@dataclass
class ConnectionLog:
    """What one connection did inside the measured window.

    ``reads`` and ``writes`` hold one ``(seconds into the window at which it
    ended, latency in ms)`` pair per operation.
    """

    reads: List[Tuple[float, float]] = field(default_factory=list)
    writes: List[Tuple[float, float]] = field(default_factory=list)
    attempts: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def run_closed_loop(
    clients: Sequence[TimedClient],
    drivers: Sequence[Callable],
    seeds: Sequence[int],
    warmup: float,
    seconds: float,
    slices: int = 1,
) -> dict:
    """Drive each client with its driver, closed loop, for ``warmup + seconds``.

    Returns the per-connection logs, the window's wall time, the
    generator's CPU time over it and the host's CPU steal share in each of
    ``slices`` equal slices of the window.  Failures outside the window are
    still counted (they fail the run) but carry no latency sample.  The
    generator's own garbage collector is off during the load, so its pauses
    are not timed as server latency.
    """
    logs = [ConnectionLog() for _ in clients]
    window = {"start": math.inf, "end": math.inf}
    stop = threading.Event()
    outside_failures: List[str] = []
    lock = threading.Lock()

    def loop(client, step, log: ConnectionLog, seed: int) -> None:
        rng = random.Random(seed)
        while not stop.is_set():
            started = time.perf_counter()
            try:
                outcome = step(client, rng)
                error = outcome.error
            except Exception as exc:  # noqa: BLE001 - a dropped connection is a failure
                outcome = None
                error = f"{type(exc).__name__}: {exc}"
            ended = time.perf_counter()
            inside = window["start"] <= started and ended <= window["end"]
            if inside:
                kind = outcome.kind if outcome is not None else "read"
                latency = math.inf if error else (ended - started) * 1000.0
                sample = (ended - window["start"], latency)
                (log.reads if kind == "read" else log.writes).append(sample)
                if kind == "write":
                    log.attempts += outcome.attempts if outcome is not None else 1
            if error:
                if inside:
                    log.failed += 1
                    if len(log.errors) < 5:
                        log.errors.append(error)
                else:
                    with lock:
                        outside_failures.append(error)
            if outcome is None or client.is_closed:
                return  # the connection is gone

    threads = [
        threading.Thread(target=loop, args=(c, d, log, s), name=f"conn-{i}", daemon=True)
        for i, (c, d, log, s) in enumerate(zip(clients, drivers, logs, seeds))
    ]
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        time.sleep(warmup)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_start = usage.ru_utime + usage.ru_stime
        slice_steal = []
        edge = cpu_times()
        window["start"] = time.perf_counter()
        for index in range(1, slices + 1):
            time.sleep(max(0.0, window["start"] + seconds * index / slices - time.perf_counter()))
            previous, edge = edge, cpu_times()
            slice_steal.append(steal_share(previous, edge))
        window["end"] = time.perf_counter()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu = usage.ru_utime + usage.ru_stime - cpu_start
        stop.set()
        for thread in threads:
            thread.join(120)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop")
    finally:
        stop.set()
        gc.enable()
    return {
        "logs": logs,
        "wall": window["end"] - window["start"],
        "cpu": cpu,
        "slice_steal": slice_steal,
        "outside_failures": outside_failures,
    }


def cpu_times() -> Tuple[int, int]:
    """(total, steal) jiffies of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:9]]
    return sum(fields), fields[7]


def steal_share(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    """Share of CPU time the host stole between two :func:`cpu_times` readings."""
    total = end[0] - start[0]
    return (end[1] - start[1]) / total if total else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of unsorted samples."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def sliced(samples: Sequence[Tuple[float, float]], wall: float, slices: int):
    """Latencies of ``(end offset, latency)`` samples, split into ``slices``
    equal slices of the window by when each operation ended."""
    out: List[List[float]] = [[] for _ in range(slices)]
    for ended, latency in samples:
        out[min(int(ended / wall * slices), slices - 1)].append(latency)
    return out
