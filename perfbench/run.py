"""Served-ΔV benchmark: one workload against a real ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain-dp-solve --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics against a real server
process.  ``--trace 1`` measures the per-layer metrics: a shorter run
against the server (serve-tier fields, ``fail_ratio``) followed by the
traced in-process replay (see ``perfbench/replay.py``).  ``--workload
all`` runs every workload in turn.  Every answer is checked against a
reference; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artifacts (result files, span dumps, scratch directories).
OUT = ROOT / ".perfbench"

#: Server spawns per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Unregister → register → first-solve probes after each set-up of a
#: resident-instance workload (more registration samples per run).
REGISTER_PROBES = 5
#: ΔV requests, after the first solve op, that warm a fresh server.
WARMUP_REQUESTS = 3

_UNCLEAN_EXIT = "server did not exit cleanly on shutdown"


def provenance() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "host_probe_ms": host_probe_ms(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: recorded with every
    result so that host speed drift can be told apart from a change in
    the program.  Nothing is normalized by it."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[2]


def set_up(workload, run_dir, env, samples, tally, probes):
    """Spawn a server, register the resident instance and warm it;
    appends the set-up time (and registration samples) to ``samples``.
    Returns ``(server, instance)``; ``instance`` is None for churn."""
    from perfbench import serving

    start = time.perf_counter()
    state_dir = None
    if workload.journaled:
        state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=run_dir))
    server = serving.ServerProcess(run_dir, env, state_dir)
    try:
        conn = server.connect()
        try:
            if workload.churn:
                # Warm both families once (imports, ILP model, rooting).
                scratch = serving.Samples()
                for doc_index in (0, 1):
                    instance = serving.register(
                        conn, workload, doc_index, scratch, tally
                    )
                    if instance is not None:
                        serving.solve_op(conn, workload, doc_index, instance, 0, tally)
                        serving.unregister(conn, instance, tally)
                samples.setup.append(time.perf_counter() - start)
                return server, None
            instance = serving.register(conn, workload, 0, samples, tally)
            if instance is None:
                raise RuntimeError(f"registration failed: {tally.reasons}")
            latency, _, _ = serving.solve_op(conn, workload, 0, instance, 0, tally)
            samples.first_solve.append(latency)
            warmup_ops = -(-WARMUP_REQUESTS // workload.batch)
            for op_index in range(1, 1 + warmup_ops):
                serving.solve_op(conn, workload, 0, instance, op_index, tally)
            samples.setup.append(time.perf_counter() - start)
            for _ in range(probes):
                serving.unregister(conn, instance, tally)
                instance = serving.register(conn, workload, 0, samples, tally)
                if instance is None:
                    raise RuntimeError(f"registration failed: {tally.reasons}")
                latency, _, _ = serving.solve_op(conn, workload, 0, instance, 0, tally)
                samples.first_solve.append(latency)
            return server, instance
        finally:
            conn.close()
    except BaseException:
        server.kill()
        raise


def serve_phase(workload, run_dir, env, seconds, setups, probes, tally):
    """Set up ``setups`` times, then run the timed loop against the last
    server.  Returns (samples, stats delta, peak RSS in MB)."""
    from perfbench import serving

    samples = serving.Samples()
    server = None
    try:
        for attempt in range(setups):
            server, instance = set_up(workload, run_dir, env, samples, tally, probes)
            if attempt < setups - 1:
                clean = server.shutdown()
                server = None
                tally.record(None if clean else _UNCLEAN_EXIT)
        before = serving.stats(server)
        if workload.churn:
            serving.churn_loop(server, workload, seconds, samples, tally)
        else:
            serving.closed_loop(server, workload, instance, seconds, samples, tally)
        after = serving.stats(server)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            clean = server.shutdown()
            tally.record(None if clean else _UNCLEAN_EXIT)
    delta = {
        key: after[key] - before[key]
        for key in ("solves", "batches", "pooled_batches", "rejected")
    }
    return samples, delta, rss


def measure(workload, seed, run_dir, env, seconds, trace, tally):
    from perfbench import serving

    if not trace:
        samples, _, rss = serve_phase(
            workload, run_dir, env, seconds, SETUPS,
            0 if workload.churn else REGISTER_PROBES, tally,
        )
        return serving.end_to_end_metrics(samples, rss)

    from perfbench.replay import Replay, layer_metrics, touched_ratio
    from perfbench.stats import percentile
    from perfbench.tracing import Tracer
    from repro.serve.journal import RegistrationJournal

    samples, delta, _ = serve_phase(workload, run_dir, env, seconds / 2, 1, 0, tally)
    serve_tally = serving.Tally(tally.attempted, tally.failed)
    spool = run_dir / "spool"
    spool.mkdir()
    journal = RegistrationJournal(run_dir / "journal") if workload.journaled else None
    replay = Replay(workload, Tracer(spool), journal)
    try:
        replay.run(seconds / 2)
    finally:
        if journal is not None:
            journal.close()
        tally.attempted += replay.tally.attempted
        tally.failed += replay.tally.failed
        tally.reasons += replay.tally.reasons
    OUT.mkdir(exist_ok=True)
    replay.tracer.write(OUT / f"{workload.name}-seed{seed}.spans.jsonl")
    batches = max(1, delta["batches"])
    metrics = {
        "fail_ratio": (serve_tally.failed / max(1, serve_tally.attempted), "1"),
        "serve.overhead_ms": (percentile(samples.overhead, 50) * 1e3, "ms"),
        "serve.batch_size_mean": (delta["solves"] / batches, "requests"),
        "serve.pooled_share": (delta["pooled_batches"] / batches, "1"),
        "serve.shed_count": (delta["rejected"], "count"),
    }
    metrics.update(layer_metrics(replay, touched_ratio(workload)))
    return metrics


def run_workload(name, seed, seconds, trace, tiny, inherited) -> dict:
    from perfbench import serving, workloads

    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    env = serving.hermetic_env(inherited, SRC, run_dir / "traces")
    os.environ.clear()
    os.environ.update(env)
    tally = serving.Tally()
    segments_before = serving.shm_segments()
    try:
        workload = workloads.build(name, seed, tiny=tiny)
        workloads.compute_references(workload)
        metrics = measure(workload, seed, run_dir, env, seconds, trace, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    leaked = sorted(serving.shm_segments() - segments_before)
    tally.record(f"leaked shared-memory segments: {leaked}" if leaked else None)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {
            key: {"value": float(value), "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny instances and streams (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    from perfbench.workloads import NAMES

    names = NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(NAMES):
        parser.error(
            f"unknown workload {args.workload!r}; known: {', '.join(NAMES)}, all"
        )
    inherited = dict(os.environ)
    info = provenance()
    print(json.dumps({"provenance": info}))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(
            name, args.seed, args.seconds, args.trace, args.tiny, inherited
        )
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": info, **result}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        for key, metric in result["metrics"].items():
            print(f"{name:16} {key:32} {metric['value']:14.4f} {metric['unit']}")
        for reason in result["failures"]:
            print(f"{name:16} FAILED: {reason}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        combined["metrics"].update(
            {prefix + key: metric for key, metric in result["metrics"].items()}
        )
    # The replay's shared-memory exports started multiprocessing's
    # resource tracker; stop it and wait for it before exiting.
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
