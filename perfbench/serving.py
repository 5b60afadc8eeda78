"""A real ``repro serve`` process and the load generator that drives it.

One load-generator process (the benchmark itself) opens at most
``clients`` unix-socket connections; each connection runs a closed
loop: it sends its next op only after the previous reply arrived.
Request lines are encoded before timing starts and replies are decoded
and checked after the timed loop, so the clock covers the wire round
trip and the server's work, not the client's JSON handling.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.stats import percentile
from perfbench.workloads import Workload, check_answer

#: Environment variables that change routes, inject faults or disable
#: disk traffic; a benchmark child never inherits them.
SCRUBBED_ENV = ("REPRO_ROUTER", "REPRO_FAULTS", "REPRO_ILP_NORM_V", "REPRO_TRACE")

_READY_SECONDS = 60.0
_EXIT_SECONDS = 30.0
_REPLY_SECONDS = 120.0


def hermetic_env(
    inherited: dict[str, str], src: Path, trace_dir: Path
) -> dict[str, str]:
    """The environment for ``repro`` code: ``inherited`` scrubbed of
    route, fault and trace switches, with a fresh trace-store directory."""
    env = {k: v for k, v in inherited.items() if k not in SCRUBBED_ENV}
    env["REPRO_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def shm_segments() -> set[str]:
    """Names of the program's POSIX shared-memory segments right now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro_")}
    except FileNotFoundError:
        return set()


def encode(message: dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


class Connection:
    """One blocking JSON-lines connection to the server."""

    def __init__(self, path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(_REPLY_SECONDS)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def roundtrip(self, line: bytes) -> tuple[bytes, float]:
        """Send one request line; return the raw reply line and the
        seconds from send to the reply's last byte."""
        start = time.perf_counter()
        self._sock.sendall(line)
        reply = self._reader.readline()
        seconds = time.perf_counter() - start
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply, seconds

    def call(self, message: dict) -> tuple[dict, float]:
        reply, seconds = self.roundtrip(encode(message))
        return json.loads(reply), seconds

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class ServerProcess:
    """``python -m repro.cli serve`` on a unix socket, owned by this object."""

    def __init__(self, run_dir: Path, env: dict[str, str], state_dir: Path | None):
        self.socket_path = os.path.relpath(run_dir / "serve.sock")
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--unix", self.socket_path
        ]
        if state_dir is not None:
            command += ["--state-dir", str(state_dir)]
        self._log = open(run_dir / "serve.log", "ab")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self._wait_ready()

    def _wait_ready(self) -> None:
        box: dict = {}

        def read() -> None:
            for line in self.process.stdout:
                if line.startswith(b"repro serve: listening"):
                    box["ready"] = True
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(_READY_SECONDS)
        if not box.get("ready"):
            self.kill()
            raise RuntimeError("server did not report listening")

    def connect(self) -> Connection:
        return Connection(self.socket_path)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def shutdown(self) -> bool:
        """Ask the server to stop; True when it exited cleanly."""
        clean = False
        try:
            conn = self.connect()
            try:
                reply, _ = conn.call({"op": "shutdown"})
            finally:
                conn.close()
            self.process.wait(_EXIT_SECONDS)
            clean = bool(reply.get("ok")) and self.process.returncode == 0
        except (OSError, subprocess.TimeoutExpired, ValueError):
            clean = False
        finally:
            self.kill()
        return clean

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


@dataclass
class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


@dataclass
class Samples:
    """Latency samples (seconds) of one run against the server."""

    solve: list[float] = field(default_factory=list)
    first_solve: list[float] = field(default_factory=list)
    register: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    #: client latency minus the server's summed ``wall_seconds``, per op.
    overhead: list[float] = field(default_factory=list)
    requests_done: int = 0
    elapsed: float = 0.0


def check_solve_reply(
    workload: Workload, doc_index: int, first: int, reply: dict
) -> tuple[str | None, float]:
    """Check one ``solve``/``solve_batch`` reply whose requests start at
    ``first`` in the document's request list; return (failure reason,
    summed server ``wall_seconds``)."""
    doc = workload.docs[doc_index]
    if not reply.get("ok"):
        return f"error reply: {reply.get('error')}", 0.0
    results = reply["results"] if workload.batch > 1 else [reply]
    wall = 0.0
    for offset, result in enumerate(results):
        wall += result.get("wall_seconds", 0.0)
        reason = check_answer(
            doc, first + offset, result.get("route"), result.get("solution")
        )
        if reason is not None:
            return f"{doc.label} request {first + offset}: {reason}", wall
    return None, wall


def solve_line(instance: str, requests: list[dict]) -> bytes:
    if len(requests) == 1:
        return encode({"op": "solve", "instance": instance, "deletions": requests[0]})
    return encode({"op": "solve_batch", "instance": instance, "requests": requests})


def register(
    conn: Connection,
    workload: Workload,
    doc_index: int,
    samples: Samples,
    tally: Tally,
) -> str | None:
    """Register one document; returns its instance id (None on failure)."""
    document = workload.docs[doc_index].document
    reply, seconds = conn.call({"op": "register", "problem": document})
    ok = bool(reply.get("ok")) and not reply.get("cached")
    tally.record(None if ok else f"register failed: {reply}")
    if not ok:
        return None
    samples.register.append(seconds)
    return reply["instance"]


def unregister(conn: Connection, instance: str, tally: Tally) -> None:
    reply, _ = conn.call({"op": "unregister", "instance": instance})
    tally.record(None if reply.get("ok") else f"unregister failed: {reply}")


def solve_op(
    conn: Connection,
    workload: Workload,
    doc_index: int,
    instance: str,
    op_index: int,
    tally: Tally,
) -> tuple[float, float, bool]:
    """One checked solve op outside the timed loop; (latency, overhead,
    answer correct)."""
    ops = workload.ops(doc_index)
    op_index %= len(ops)
    raw, seconds = conn.roundtrip(solve_line(instance, ops[op_index]))
    reason, wall = check_solve_reply(
        workload, doc_index, op_index * workload.batch, json.loads(raw)
    )
    tally.record(reason)
    return seconds, seconds - wall, reason is None


def closed_loop(
    server: ServerProcess,
    workload: Workload,
    instance: str,
    seconds: float,
    samples: Samples,
    tally: Tally,
) -> None:
    """``workload.clients`` connections, each sending its next op only
    after the previous reply, until ``seconds`` have passed."""
    ops = workload.ops(0)
    lines = [solve_line(instance, op) for op in ops]
    connections = [server.connect() for _ in range(workload.clients)]
    lock = threading.Lock()
    cursor = [0]
    replies: list[list[tuple[int, bytes, float]]] = [[] for _ in connections]
    errors: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def drive(conn: Connection, out: list) -> None:
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = cursor[0] % len(lines)
                    cursor[0] += 1
                raw, latency = conn.roundtrip(lines[index])
                out.append((index, raw, latency))
        except BaseException as exc:  # reported after join
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(conn, out))
        for conn, out in zip(connections, replies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.elapsed += time.perf_counter() - start
    for conn in connections:
        conn.close()
    if errors:
        raise errors[0]
    for out in replies:
        for index, raw, latency in out:
            reason, wall = check_solve_reply(
                workload, 0, index * workload.batch, json.loads(raw)
            )
            tally.record(reason)
            samples.solve.append(latency)
            samples.overhead.append(latency - wall)
            if reason is None:
                samples.requests_done += len(ops[index])


def churn_loop(
    server: ServerProcess,
    workload: Workload,
    seconds: float,
    samples: Samples,
    tally: Tally,
) -> None:
    """One sequential client: whole passes over the document list, each
    document registered, solved twice and unregistered, until
    ``seconds`` have passed (the last pass is finished)."""
    conn = server.connect()
    start = time.perf_counter()
    passes = 0
    try:
        while passes == 0 or time.perf_counter() - start < seconds:
            for doc_index in range(len(workload.docs)):
                instance = register(conn, workload, doc_index, samples, tally)
                if instance is None:
                    continue
                for k in range(2):
                    latency, overhead, correct = solve_op(
                        conn, workload, doc_index, instance, 2 * passes + k, tally
                    )
                    samples.solve.append(latency)
                    samples.overhead.append(overhead)
                    samples.requests_done += correct
                    if k == 0:
                        samples.first_solve.append(latency)
                unregister(conn, instance, tally)
            passes += 1
    finally:
        conn.close()
    samples.elapsed += time.perf_counter() - start


def stats(server: ServerProcess) -> dict:
    conn = server.connect()
    try:
        reply, _ = conn.call({"op": "stats"})
    finally:
        conn.close()
    return reply["stats"]


def end_to_end_metrics(samples: Samples, rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one untraced run, as (value, unit)."""
    ms = 1e3
    return {
        "solves_per_s": (samples.requests_done / samples.elapsed, "1/s"),
        "solve_p50_ms": (percentile(samples.solve, 50) * ms, "ms"),
        "solve_p90_ms": (percentile(samples.solve, 90) * ms, "ms"),
        "register_p50_ms": (percentile(samples.register, 50) * ms, "ms"),
        "register_p90_ms": (percentile(samples.register, 90) * ms, "ms"),
        "first_solve_p50_ms": (percentile(samples.first_solve, 50) * ms, "ms"),
        "setup_s": (percentile(samples.setup, 50), "s"),
        "server_rss_mb": (rss_mb, "MB"),
    }
