"""The traced run: the workload's seeded op stream replayed in process.

Each op runs through the same public functions, in the same order, as
the server runs it (``SolveServer.register_document``, ``_execute``):
wire decode → registration or ``run_delta_batch`` → serialization →
wire encode.  The replay opens spans around those calls, and
:class:`~perfbench.tracing.Tracer` wraps the public functions the
program calls internally (route plan, solver stages, objective, trace
store, journal, shared-memory attach).  Nothing in the program changes.

Ops alternate between an untraced and a traced execution, the order
swapped every pair, so ``trace.overhead_ratio`` compares the same ops.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.core import registry as registry_module
from repro.core.portfolio import run_delta_batch
from repro.core.problem import DeletionPropagationProblem
from repro.core.router import StaticRouter
from repro.core.session import SolveSession
from repro.core.shm import document_hash
from repro.core.solution import Propagation
from repro.core.tracestore import TraceStore
from repro.io.serialize import problem_from_dict, solution_to_dict
from repro.relational.views import ViewTuple
from repro.serve.journal import RegistrationJournal
from repro.serve.protocol import decode_line, encode_message
from repro.serve.server import SolveServer

import repro.core.shm as shm_module

from perfbench.serving import Tally, check_solve_reply, encode, solve_line
from perfbench.stats import percentile
from perfbench.tracing import Tracer, self_times
from perfbench.workloads import Workload

def _annotate_report(record: dict, report) -> None:
    record["route"] = report.route
    record["stage_seconds"] = sum(stage.seconds for stage in report.trace)
    record["chosen_seconds"] = sum(
        stage.seconds for stage in report.trace if stage.chosen
    )
    counters = report.counters
    record["counters"] = None if counters is None else counters.as_dict()


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions the program calls internally."""
    tracer.instrument(
        DeletionPropagationProblem, "with_deletions", "problem.with_deletions"
    )
    tracer.instrument(
        registry_module, "solve_report", "registry.solve_report", _annotate_report
    )
    tracer.instrument(registry_module, "solve_dp_tree", "dp_tree.stage")
    tracer.instrument(registry_module, "solve_primal_dual", "primal_dual.stage")
    tracer.instrument(registry_module, "solve_lowdeg_tree_sweep", "lowdeg_tree.stage")
    tracer.instrument(registry_module, "solve_exact_ilp", "ilp.stage")
    tracer.instrument(StaticRouter, "plan", "router.plan")
    tracer.instrument(Propagation, "objective", "solution.objective")
    tracer.instrument(TraceStore, "append", "tracestore.append")
    tracer.instrument(RegistrationJournal, "append", "journal.append")
    tracer.instrument(shm_module, "attach_session", "shm.attach")


@dataclass
class _Resident:
    problem: DeletionPropagationProblem
    session: SolveSession
    instance: str


@dataclass
class Replay:
    workload: Workload
    tracer: Tracer
    journal: RegistrationJournal | None
    tally: Tally = field(default_factory=Tally)
    #: a never-started server: the defaults ``repro serve`` runs with.
    defaults: SolveServer = field(default_factory=SolveServer)
    #: (untraced seconds, traced seconds) of each op replayed twice.
    pairs: list[tuple[float, float]] = field(default_factory=list)
    _request: int = 0

    def _op(self, kind: str, run, traced: bool):
        """Run one op, as the root span of a fresh request when traced;
        returns (result, seconds)."""
        tracer = self.tracer
        if traced:
            self._request += 1
            tracer.request = self._request
            instrument(tracer)
            tracer.enabled = True
        try:
            start = time.perf_counter()
            with tracer.span(f"op.{kind}"):
                result = run()
            seconds = time.perf_counter() - start
        finally:
            tracer.enabled = False
            tracer.uninstrument()
        return result, seconds

    def register(self, doc_index: int) -> _Resident:
        """``SolveServer.register_document`` step by step."""
        span = self.tracer.span
        document = self.workload.docs[doc_index].document
        line = encode({"op": "register", "problem": document})
        with span("protocol.decode"):
            message = decode_line(line)
        with span("shm.document_hash"):
            document_hash(message["problem"])
        with span("serialize.problem_from_dict"):
            problem = problem_from_dict(message["problem"])
        with span("session.profile"):
            session = SolveSession.of(problem)
            profile = session.profile
        with span("arena.compile"):
            if profile.key_preserving:
                session.arena
        with span("session.content_hash"):
            instance = session.content_hash
            profile_doc = profile.as_dict()
            pinned = None
            if self.journal is not None:
                pinned = self.defaults._segment_name(document_hash(session.document))
        if self.journal is not None:
            self.journal.append_register(
                instance, session.document, profile_doc,
                options=self.defaults._registration_options(), segments=(pinned,),
            )
        with span("shm.export") as record:
            manifest = session.export_shm(name=pinned)
            if record is not None:
                segment = f"/dev/shm/{manifest['segment']}"
                record["segment_bytes"] = os.stat(segment).st_size
        response = {
            "ok": True,
            "instance": instance,
            "cached": False,
            "shared": True,
            "profile": profile_doc,
        }
        with span("protocol.encode") as record:
            data = encode_message(response)
            if record is not None:
                record["bytes"] = len(data)
        self.tally.record(None)
        return _Resident(problem, session, instance)

    def unregister(self, resident: _Resident) -> None:
        with self.tracer.span("session.close"):
            resident.session.close()
        if self.journal is not None:
            self.journal.append_unregister(resident.instance)
        self.tally.record(None)

    def solve(self, doc_index: int, resident: _Resident, op_index: int) -> None:
        """``SolveServer._execute`` for one op, answer checked."""
        tracer = self.tracer
        ops = self.workload.ops(doc_index)
        op_index %= len(ops)
        with tracer.span("protocol.decode"):
            message = decode_line(solve_line(resident.instance, ops[op_index]))
        requests = message.get("requests") or [message["deletions"]]
        pooled = len(requests) >= self.defaults.pool_threshold
        workers = min(len(requests), os.cpu_count() or 1) if pooled else 1
        with tracer.span("portfolio.batch", workers=workers) as batch:
            outcomes = run_delta_batch(
                resident.problem, requests, method="auto",
                max_workers=None if pooled else 0,
            )
            if batch is not None:
                batch["task_seconds"] = sum(o.wall_seconds for o in outcomes)
        if batch is not None and pooled:
            tracer.collect(batch)
        results = []
        for outcome in outcomes:
            doc = {
                "wall_seconds": outcome.wall_seconds,
                "route": outcome.route,
                "attempts": [record.as_dict() for record in outcome.attempts],
            }
            with tracer.span("serialize.solution_to_dict"):
                if outcome.ok:
                    doc["solution"] = solution_to_dict(outcome.propagation)
                else:
                    doc["error"] = outcome.error
            results.append(doc)
        if len(requests) > 1:
            response = {"ok": True, "results": results}
        else:
            response = {"ok": True, **results[0]}
        with tracer.span("protocol.encode") as record:
            data = encode_message(response)
            if record is not None:
                record["bytes"] = len(data)
        reason, _ = check_solve_reply(
            self.workload, doc_index, op_index * self.workload.batch, json.loads(data)
        )
        self.tally.record(reason)

    def run(self, seconds: float) -> None:
        """Replay op pairs (untraced and traced, order alternating)
        until ``seconds`` have passed, at least one pair."""
        if self.workload.churn:
            self._run_churn(seconds)
        else:
            self._run_stream(seconds)

    def _order(self, index: int) -> tuple[bool, bool]:
        return (False, True) if index % 2 == 0 else (True, False)

    def _run_stream(self, seconds: float) -> None:
        resident, _ = self._op("register", lambda: self.register(0), traced=True)
        kind = "solve_batch" if self.workload.batch > 1 else "solve"
        # Warm-up: the first solves pay lazy set-up (rooted components,
        # imports); the server run times those as first_solve.
        for index in range(2):
            self._op(kind, lambda: self.solve(0, resident, index), traced=False)
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            timings = {}
            for traced in self._order(index):
                _, timings[traced] = self._op(
                    kind, lambda: self.solve(0, resident, index), traced
                )
            self.pairs.append((timings[False], timings[True]))
            index += 1
        self.unregister(resident)

    def _run_churn(self, seconds: float) -> None:
        # An instance cannot be registered twice, so each mode of a
        # pair registers, solves and unregisters on its own.
        steps = ("register", "solve0", "solve1", "unregister")
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            for doc_index in range(len(self.workload.docs)):
                timings = {}
                for traced in self._order(passes):
                    resident, timings["register", traced] = self._op(
                        "register", lambda: self.register(doc_index), traced
                    )
                    for k in range(2):
                        _, timings[f"solve{k}", traced] = self._op(
                            "solve",
                            lambda: self.solve(doc_index, resident, 2 * passes + k),
                            traced,
                        )
                    _, timings["unregister", traced] = self._op(
                        "unregister", lambda: self.unregister(resident), traced
                    )
                for step in steps:
                    self.pairs.append((timings[step, False], timings[step, True]))
            passes += 1


def touched_ratio(workload: Workload) -> float:
    """Mean share of rooted components that hold a ΔV tuple, over the
    requests on ``dp-tree`` documents (0 when the workload has none)."""
    ratios = []
    for doc in workload.docs:
        if doc.route != "dp-tree":
            continue
        problem = problem_from_dict(doc.document)
        components = SolveSession.of(problem).rooted_components()
        owner = {
            fact: index
            for index, component in enumerate(components)
            for fact in component.parent
        }
        for request in doc.requests:
            touched = {
                owner[fact]
                for view, rows in request.items()
                for values in rows
                for fact in problem.witness(ViewTuple(view, values))
                if fact in owner
            }
            ratios.append(len(touched) / len(components))
    return sum(ratios) / len(ratios) if ratios else 0.0


def layer_metrics(replay: Replay, touched: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced ops' span self times."""
    spans = replay.tracer.spans
    own = self_times(spans)
    named: dict[str, list[dict]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def median_self(name: str, scale: float) -> float:
        values = [own[span["id"]] for span in named.get(name, [])]
        return percentile(values, 50) * scale if values else 0.0

    def median_of(name: str, value, scale: float) -> float:
        values = [value(span) for span in named.get(name, [])]
        return percentile(values, 50) * scale if values else 0.0

    def mean_attr(name: str, attr: str) -> float:
        values = [span[attr] for span in named.get(name, [])]
        return sum(values) / len(values) if values else 0.0

    reports = named.get("registry.solve_report", [])
    stage_total = sum(span["stage_seconds"] for span in reports)
    counters = {"oracle_hits": 0, "full_reevaluations": 0, "delta_evaluations": 0}
    for span in reports:
        for key in counters:
            counters[key] += (span["counters"] or {}).get(key, 0)
    n_reports = max(1, len(reports))

    roots = [
        span
        for span in spans
        if span["parent"] is None and span["name"].startswith("op.")
    ]
    root_ids = {span["id"] for span in roots}
    main_pid = os.getpid()
    covered = sum(
        own[span["id"]]
        for span in spans
        if span["id"] not in root_ids and span["pid"] == main_pid
    )
    wall = sum(span["end"] - span["start"] for span in roots)
    untraced = sum(pair[0] for pair in replay.pairs)
    traced = sum(pair[1] for pair in replay.pairs)

    ms, us = 1e3, 1e6
    return {
        "protocol.decode_us": (median_self("protocol.decode", us), "us"),
        "protocol.encode_us": (median_self("protocol.encode", us), "us"),
        "protocol.response_bytes": (mean_attr("protocol.encode", "bytes"), "B"),
        "portfolio.batch_ms": (
            median_of("portfolio.batch", lambda s: s["end"] - s["start"], ms),
            "ms",
        ),
        "portfolio.dispatch_ms": (
            median_of(
                "portfolio.batch",
                lambda s: s["end"] - s["start"] - s["task_seconds"] / s["workers"],
                ms,
            ),
            "ms",
        ),
        "shm.export_ms": (median_self("shm.export", ms), "ms"),
        "shm.attach_ms": (median_self("shm.attach", ms), "ms"),
        "shm.segment_bytes": (mean_attr("shm.export", "segment_bytes"), "B"),
        "serialize.problem_from_dict_ms": (
            median_self("serialize.problem_from_dict", ms),
            "ms",
        ),
        "serialize.solution_to_dict_ms": (
            median_self("serialize.solution_to_dict", ms),
            "ms",
        ),
        "problem.with_deletions_ms": (median_self("problem.with_deletions", ms), "ms"),
        "session.profile_ms": (median_self("session.profile", ms), "ms"),
        "arena.compile_ms": (median_self("arena.compile", ms), "ms"),
        "router.plan_us": (median_self("router.plan", us), "us"),
        "registry.dispatch_ms": (
            median_of(
                "registry.solve_report",
                lambda s: s["end"] - s["start"] - s["stage_seconds"],
                ms,
            ),
            "ms",
        ),
        "registry.duel_useful_ratio": (
            sum(span["chosen_seconds"] for span in reports) / stage_total
            if stage_total > 0 else 0.0,
            "1",
        ),
        "dp_tree.stage_ms": (median_self("dp_tree.stage", ms), "ms"),
        "dp_tree.touched_ratio": (touched, "1"),
        "primal_dual.stage_ms": (median_self("primal_dual.stage", ms), "ms"),
        "lowdeg_tree.stage_ms": (median_self("lowdeg_tree.stage", ms), "ms"),
        "ilp.stage_ms": (median_self("ilp.stage", ms), "ms"),
        "oracle.hits": (counters["oracle_hits"] / n_reports, "count"),
        "oracle.full_reevaluations": (
            counters["full_reevaluations"] / n_reports,
            "count",
        ),
        "oracle.delta_evaluations": (
            counters["delta_evaluations"] / n_reports,
            "count",
        ),
        "solution.objective_ms": (median_self("solution.objective", ms), "ms"),
        "tracestore.append_us": (median_self("tracestore.append", us), "us"),
        "journal.append_ms": (median_self("journal.append", ms), "ms"),
        "trace.overhead_ratio": (traced / untraced if untraced > 0 else 0.0, "1"),
        "trace.coverage": (covered / wall if wall > 0 else 0.0, "1"),
    }

