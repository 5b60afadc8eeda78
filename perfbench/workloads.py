"""Seeded workloads: problem documents, request streams, declared
routes and reference answers.

The problem documents are fixed per workload, so every seed measures
the same instances; ``--seed`` drives the ΔV request streams.  The
server receives only these generated documents and requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.core.registry import solve_report
from repro.io.serialize import problem_from_dict, problem_to_dict, solution_to_dict
from repro.workloads import (
    random_star_problem,
    random_triangle_problem,
    scaling_problem,
)

NAMES = ("chain-dp-solve", "star-duel-batch", "register-churn")


@dataclass
class Doc:
    """One problem document and the route every request on it must take."""

    label: str
    document: dict
    route: str
    #: ΔV requests; a stream cycles through them.
    requests: list[dict] = field(default_factory=list)
    #: reference answer per request: (route, sorted deleted facts).
    references: list[tuple[str, list]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    docs: list[Doc]
    clients: int
    #: ΔV requests per op: 1 sends ``solve``, more sends ``solve_batch``.
    batch: int
    #: registration journal on (``--state-dir``).
    journaled: bool
    #: register → 2 solves → unregister per document, instead of a
    #: solve stream against one resident instance.
    churn: bool

    def ops(self, doc_index: int) -> list[list[dict]]:
        """The op stream on one document: groups of ``batch`` requests."""
        requests = self.docs[doc_index].requests
        return [
            requests[i : i + self.batch]
            for i in range(0, len(requests), self.batch)
        ]


def _sample_requests(problem, rng: random.Random, count: int, size: int) -> list[dict]:
    pool = sorted(problem.all_view_tuples())
    requests = []
    for _ in range(count):
        request: dict[str, list] = {}
        for vt in rng.sample(pool, size):
            request.setdefault(vt.view, []).append(list(vt.values))
        requests.append(request)
    return requests


def _doc(
    label: str, problem, route: str, rng: random.Random, count: int, size: int
) -> Doc:
    return Doc(
        label=label,
        document=problem_to_dict(problem),
        route=route,
        requests=_sample_requests(problem, rng, count, size),
    )


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` with request streams drawn from ``seed``.

    ``tiny`` shrinks instances and streams so the whole benchmark runs
    in seconds (the benchmark's own tests use it).
    """
    rng = random.Random(seed)
    if name == "chain-dp-solve":
        problem = scaling_problem(
            random.Random(0), facts_per_relation=40 if tiny else 700
        )
        docs = [_doc("chain", problem, "dp-tree", rng, 8 if tiny else 96, 3)]
        return Workload(name, docs, clients=2, batch=1, journaled=False, churn=False)
    if name == "star-duel-batch":
        problem = random_star_problem(
            random.Random(3),
            num_leaves=3,
            center_facts=8 if tiny else 30,
            leaf_facts=12 if tiny else 60,
        )
        docs = [
            _doc("star", problem, "forest-duel", rng, 16 if tiny else 128, 6)
        ]
        return Workload(name, docs, clients=2, batch=8, journaled=False, churn=False)
    if name == "register-churn":
        sizes = (20, 30, 40) if tiny else (200, 400, 700)
        docs = []
        for i, size in enumerate(sizes):
            chain = scaling_problem(random.Random(10 + i), facts_per_relation=size)
            docs.append(_doc(f"chain-{size}", chain, "dp-tree", rng, 4, 3))
            if i < 2:
                triangle = random_triangle_problem(
                    random.Random(20 + i), center_facts=8, leaf_facts=14
                )
                docs.append(_doc(f"triangle-{i}", triangle, "exact-ilp", rng, 4, 3))
        return Workload(name, docs, clients=1, batch=1, journaled=True, churn=True)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def deleted_facts(solution: dict) -> list:
    """The deleted-fact set of a ``solution_to_dict`` document, in a
    canonical JSON-comparable form."""
    return sorted(
        [fact["relation"], fact["values"]] for fact in solution["deleted_facts"]
    )


def compute_references(workload: Workload) -> None:
    """Solve every request in process, on an independently parsed copy
    of its document, and store (route, deleted facts) per request."""
    for doc in workload.docs:
        problem = problem_from_dict(json.loads(json.dumps(doc.document)))
        doc.references = []
        for request in doc.requests:
            report = solve_report(problem.with_deletions(request))
            solution = json.loads(json.dumps(solution_to_dict(report.propagation)))
            doc.references.append((report.route, deleted_facts(solution)))


def check_answer(
    doc: Doc, index: int, route: str | None, solution: dict | None
) -> str | None:
    """``None`` when a served answer matches the reference and the
    declared route, else the reason it does not."""
    expected_route, expected_facts = doc.references[index]
    if expected_route != doc.route:
        return f"reference took route {expected_route!r}, declared {doc.route!r}"
    if route != doc.route:
        return f"route {route!r}, declared {doc.route!r}"
    if solution is None:
        return "no solution"
    if deleted_facts(solution) != expected_facts:
        return "deleted-fact set differs from the reference"
    return None
