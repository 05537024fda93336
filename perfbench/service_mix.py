"""The ``service-mix`` workload, untraced and traced.

Untraced: until ``--seconds`` have passed, and at least ``MIN_SERVERS``
times, start a server, wait for ``/healthz`` and prime it with pass 0 (with
the input generation, the set-up a user pays), send the measured passes,
and read the server's peak RSS before stopping it.

Traced: one server answers pass 1 over HTTP; then this process replays pass
1 layer by layer (``ScenarioSpec.from_dict`` -> ``ScenarioCache.get_or_compile``
-> universe -> engine -> each analysis -> ``to_dict``/``json.dumps``),
``TRACE_PAIRS`` times without and with spans, alternating, each replay on
fresh caches primed by pass 0.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Tuple

import gate
import workloads
from gate import GateFailure
from layers import (TRACE_PAIRS, add_scenario_counts, by_layer, layer_metrics,
                    new_counts, run_analyses, write_spans)
from service import PassResult, Server, rejected_total, run_pass
from stats import Outcomes, digest

MIN_SERVERS = 3
#: Nominal pass length that turns ``--seconds`` into passes per server.
NOMINAL_PASS_S = 2.5

Op = Tuple[str, bytes, int]


class Inputs:
    """The generated documents and the ops of every pass."""

    def __init__(self, seed: int) -> None:
        generated = workloads.service_inputs(seed)
        self.seed = seed
        self.catalogue: List[Dict[str, Any]] = generated["catalogue"]
        self.churn: List[Dict[str, Any]] = generated["churn"]
        self._requests: Dict[int, List[Tuple[str, int]]] = {}
        self._bodies = {
            "analyze": [json.dumps(doc).encode("utf-8") for doc in self.catalogue],
            "churn": [json.dumps(doc).encode("utf-8") for doc in self.churn],
        }

    def requests(self, pass_index: int) -> List[Tuple[str, int]]:
        if pass_index not in self._requests:
            self._requests[pass_index] = workloads.service_requests(
                self.seed, pass_index, len(self.catalogue))
        return self._requests[pass_index]

    def source(self, pass_index: int, op: int) -> Tuple[str, int]:
        """(kind, catalogue or churn-pool index) of one op of a pass."""
        kind, index = self.requests(pass_index)[op]
        if kind == "churn":
            index = workloads.churn_for(pass_index, index)
        return kind, index

    def ops(self, pass_index: int) -> List[Op]:
        """(kind, body, attempted operations) of every op of a pass."""
        ops = []
        for op in range(len(self.requests(pass_index))):
            kind, index = self.source(pass_index, op)
            steps = 1 if kind == "analyze" else len(self.churn[index]["deltas"]) + 1
            ops.append((kind, self._bodies[kind][index], steps))
        return ops


class Expected:
    """In-process answers that every served body and stream must equal."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.reports = [gate.inprocess_reports(doc) for doc in inputs.catalogue]
        self._churn: Dict[int, List[Dict[str, Any]]] = {}
        problems = []
        for document, reports in zip(inputs.catalogue, self.reports):
            problems += gate.check_reports(document, reports)
        if problems:
            raise GateFailure("; ".join(problems))

    def churn_steps(self, index: int) -> List[Dict[str, Any]]:
        if index not in self._churn:
            self._churn[index] = gate.replay_churn(self.inputs.churn[index])
        return self._churn[index]

    def check(self, pass_index: int, bodies: Dict[int, Any],
              streams: Dict[int, List[Dict[str, Any]]]) -> None:
        problems = []
        for op, body in bodies.items():
            _, index = self.inputs.source(pass_index, op)
            problems += gate.check_served(
                self.inputs.catalogue[index], self.reports[index], body)
        for op, lines in streams.items():
            _, index = self.inputs.source(pass_index, op)
            problems += gate.check_stream(lines, self.churn_steps(index))
        if problems:
            raise GateFailure("; ".join(sorted(set(problems))))

    def digest(self) -> str:
        """Digest of every catalogue report and churn step; pinned at the
        default seed by ``digests.json``."""
        payload = {
            "catalogue": self.reports,
            "churn": [self.churn_steps(i) for i in range(len(self.inputs.churn))],
        }
        if self.inputs.seed == workloads.DEFAULT_SEED:
            problems = gate.check_digest("service-mix", payload)
            if problems:
                raise GateFailure("; ".join(problems))
        return digest(payload)


def start_primed(root: str, inputs: Inputs) -> Tuple[Server, float, PassResult]:
    """Spawn, wait for /healthz, prime with pass 0: the set-up a user pays."""
    started = time.perf_counter()
    server = Server(root, workloads.SERVICE_CACHE_SIZE)
    server.start()
    try:
        priming = run_pass(server, inputs.ops(0))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, priming


def run(root: str, seed: int, seconds: float, traced: bool, outcomes: Outcomes):
    started = time.perf_counter()
    inputs = Inputs(seed)
    generate_s = time.perf_counter() - started
    if traced:
        return _run_traced(root, inputs, generate_s, outcomes)
    # A fixed number of passes per server (servers, not passes, repeat until
    # the time is up), so the server's peak RSS, which grows with the churn
    # transitions it has cached, does not depend on how fast this host is.
    passes = max(1, round(seconds / MIN_SERVERS / NOMINAL_PASS_S))
    setups, walls, rss = [], [], []
    latencies: List[float] = []
    steps: List[float] = []
    checked: List[Tuple[int, PassResult]] = []
    measured = 0.0
    started = time.perf_counter()
    while len(rss) < MIN_SERVERS or time.perf_counter() - started < seconds:
        server, setup_s, priming = start_primed(root, inputs)
        try:
            setups.append(generate_s + setup_s)
            checked.append((0, priming))
            for pass_index in range(1, passes + 1):
                result = run_pass(server, inputs.ops(pass_index))
                walls.append(result.wall_s)
                latencies += [1000 * s for _, s in result.analyze]
                steps += [1000 * s for s in result.churn_steps]
                measured += result.wall_s
                checked.append((pass_index, result))
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
    for _, result in checked:
        outcomes.merge(result.outcomes)
    expected = Expected(inputs)
    for pass_index, result in checked:
        expected.check(pass_index, result.bodies, result.streams)
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "peak_rss_mb": rss,
        "requests_per_s": [len(latencies), measured],
        "request_p50_ms": latencies,
        "request_p95_ms": latencies,
        "churn_step_p50_ms": steps,
        "churn_step_p95_ms": steps,
    }
    return samples, expected.digest(), None


# -- traced run ----------------------------------------------------------------------

class Replay:
    """Answers the ops of a pass in this process, as the server would."""

    def __init__(self, inputs: Inputs, tracer=None) -> None:
        from repro.engine.cache import clear_pathset_cache
        from repro.service.cache import ScenarioCache

        clear_pathset_cache()
        gc.collect()
        self.inputs = inputs
        self.cache = ScenarioCache(maxsize=workloads.SERVICE_CACHE_SIZE)
        self.tracer = tracer
        self.counts = new_counts()

    def span(self, name: str, request=None):
        return self.tracer.span(name, request) if self.tracer else nullcontext()

    def _compiled(self, scenario) -> None:
        with self.span("failures.universe"):
            scenario.universe  # noqa: B018
        with self.span("engine.build"):
            scenario.engine  # noqa: B018
        add_scenario_counts(self.counts, scenario)

    def analyze(self, body: bytes) -> Dict[str, Any]:
        from repro import ScenarioSpec

        with self.span("api.parse"):
            spec = ScenarioSpec.from_dict(json.loads(body))
        with self.span("service.get_or_compile"):
            scenario, _, _ = self.cache.get_or_compile(spec)
        self._compiled(scenario)
        reports = run_analyses(scenario, self.span)
        with self.span("api.serialize"):
            answer = {"spec": spec.to_dict(),
                      "analyses": {n: r.to_dict() for n, r in reports.items()}}
            self.counts["api.response_bytes"] += len(json.dumps(answer))
        return answer

    def churn(self, body: bytes) -> List[Dict[str, Any]]:
        from repro import DeltaSpec, Scenario, ScenarioSpec

        with self.span("api.parse"):
            document = json.loads(body)
            base = ScenarioSpec.from_dict(document["base"])
            deltas = [DeltaSpec.from_dict(delta) for delta in document["deltas"]]
        scenario = Scenario(base)
        with self.span("topology.build"):
            scenario.graph  # noqa: B018
        with self.span("routing.enumerate"):
            scenario.pathset  # noqa: B018
        lines = []
        for step in range(len(deltas) + 1):
            if step:
                with self.span("routing.evolve"):
                    scenario = scenario.evolve(deltas[step - 1])
            self._compiled(scenario)
            with self.span("core.search"):
                mu = scenario.mu()
            with self.span("api.serialize"):
                line = {"step": step, "mu": mu.value, "searched_up_to": mu.searched_up_to,
                        "n_paths": mu.n_paths, "spec": scenario.spec.to_dict()}
                self.counts["api.response_bytes"] += len(json.dumps(line))
            lines.append(line)
        return lines + [{"done": True}]

    def run_pass(self, pass_index: int) -> Tuple[float, Dict[int, float], Dict[int, Any]]:
        """(wall seconds, per-op seconds, per-op answers) of one pass."""
        times, answers = {}, {}
        started = time.perf_counter()
        for op, (kind, body, _) in enumerate(self.inputs.ops(pass_index)):
            op_started = time.perf_counter()
            with self.span(f"replay.{kind}", request=f"pass{pass_index}.op{op}"):
                answers[op] = self.analyze(body) if kind == "analyze" else self.churn(body)
            times[op] = time.perf_counter() - op_started
        return time.perf_counter() - started, times, answers


def _untraced_replay(inputs: Inputs) -> Tuple[float, Dict[int, float], Dict[int, Any]]:
    """Replay pass 1 without spans, on fresh caches primed by pass 0."""
    replay = Replay(inputs)
    replay.run_pass(0)
    return replay.run_pass(1)


def _traced_replay(inputs: Inputs) -> Dict[str, Any]:
    """Replay pass 1 with spans, on fresh caches primed by pass 0.  Only the
    counts leave, so no replay's caches outlive it into the next one."""
    from repro.engine.cache import PathSetCache, cache_stats
    from repro.engine.signatures import search_counters
    from repro.tomography.scenario import TomographySession
    from spans import Tracer

    tracer = Tracer()
    replay = Replay(inputs, tracer)
    replay.run_pass(0)
    tracer.spans.clear()
    wrapped = [(PathSetCache, "get_or_enumerate", "routing.enumerate"),
               (TomographySession, "measure", "tomography.measure"),
               (TomographySession, "localize", "tomography.localize")]
    for owner, attribute, name in wrapped:
        tracer.wrap(owner, attribute, name)
    try:
        search_before, cache_before = search_counters().as_dict(), cache_stats()
        started = time.perf_counter()
        wall, _, answers = replay.run_pass(1)
        ended = time.perf_counter()
        search_after, cache_after = search_counters().as_dict(), cache_stats()
    finally:
        for owner, attribute, _ in wrapped:
            setattr(owner, attribute, getattr(owner, attribute).__wrapped__)
    return {
        "counts": replay.counts, "spans": tracer.spans, "wall": wall, "answers": answers,
        "started": started, "ended": ended,
        "search": {k: search_after[k] - search_before[k] for k in search_after},
        "hits": cache_after.hits - cache_before.hits,
        "misses": cache_after.misses - cache_before.misses,
    }


def _run_traced(root: str, inputs: Inputs, generate_s: float, outcomes: Outcomes):
    from spans import self_time_by_name, uncovered

    server, setup_s, priming = start_primed(root, inputs)
    try:
        before = server.scrape()
        http = run_pass(server, inputs.ops(1))
        after = server.scrape()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    outcomes.merge(priming.outcomes)
    outcomes.merge(http.outcomes)
    expected = Expected(inputs)
    expected.check(0, priming.bodies, priming.streams)
    expected.check(1, http.bodies, http.streams)

    # Untraced and traced replays alternate, so that a drift of the host's
    # speed during the run weighs on both sides of the overhead ratio.
    drives, traces = [], []
    for _ in range(TRACE_PAIRS):
        drives.append(_untraced_replay(inputs))
        traces.append(_traced_replay(inputs))
    _, untraced_times, untraced_answers = drives[0]
    if any(answers != untraced_answers for _, _, answers in drives[1:]) or any(
            traced["answers"] != untraced_answers for traced in traces):
        raise GateFailure("the replays of the traced run answered differently")
    expected.check(
        1,
        {op: a for op, a in untraced_answers.items() if isinstance(a, dict)},
        {op: a for op, a in untraced_answers.items() if isinstance(a, list)},
    )

    traced = traces[0]
    self_s = self_time_by_name(traced["spans"])
    metrics = layer_metrics(
        self_s, traced["wall"], traced["counts"], traced["search"],
        traced["hits"], traced["misses"],
        sum(1 for span in traced["spans"] if span.name == "tomography.localize"),
        [answer["analyses"]["localization"] for answer in untraced_answers.values()
         if isinstance(answer, dict) and "localization" in answer["analyses"]],
    )

    def delta(name: str) -> float:
        return after[name] - before[name]

    hits = delta("repro_scenario_cache_hits_total")
    lookups = hits + delta("repro_scenario_cache_misses_total")
    metrics.update({
        "service.cache_hit_rate": hits / lookups if lookups else 0.0,
        "service.cache_evictions": delta("repro_scenario_cache_evictions_total"),
        "service.rejected": rejected_total(after) - rejected_total(before),
        "service.transport_ms": 1000 * statistics.median(
            seconds - untraced_times[op] for op, seconds in http.analyze),
        "trace.uncovered_s": uncovered(traced["spans"], traced["started"], traced["ended"]),
        "trace.overhead_ratio": (statistics.median(t["wall"] for t in traces)
                                 / statistics.median(wall for wall, _, _ in drives)),
    })
    write_spans(traced["spans"], f"service-mix-{inputs.seed}")
    samples = {"setup_s": [generate_s + setup_s], "wall_s": [http.wall_s],
               "peak_rss_mb": [rss]}
    layers = {"metrics": metrics, "layer_self_s": by_layer(self_s)}
    return samples, expected.digest(), layers
