"""The traced run: per-layer costs, from spans around each layer call.

The benchmark's own code records a span around every call it makes
into a layer of the program (kernel packages, ``runner.cache``,
``runner.engine``, ``runner.executors``, ``runner.distributed``,
``obs`` and ``service``), keeps the spans in memory and writes them
out at the end, together with the spans of the program's own
:class:`~repro.obs.trace.Tracer` from the traced jobs=1 pass.

Every traced run measures every layer, whichever workload it is given:
the workload's seed orders the kernels and draws the service jobs.
The passes, in order:

1. set-up: ``Benchmark.prepare`` and ``WorkloadCache.store`` per kernel;
2. ``WorkloadCache.load`` and bare ``Benchmark.execute`` per kernel;
3. ``repro.api.run`` at jobs=1, untraced and with the program's
   ``Tracer`` attached, in turn for each kernel;
4. jobs=2 on a 2-worker local pool whose open, submit, collect and
   shutdown are timed by a :class:`~repro.runner.executors.LocalExecutor`
   subclass, which also keeps the shard results;
5. jobs=2 on the distributed executor against two ``repro worker``
   daemons, timed by a ``DistributedExecutor`` subclass;
6. twelve new and twelve deduplicated jobs through ``repro serve``.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro import api
from repro.api import ObsOptions
from repro.core.benchmark import load_benchmark
from repro.core.datasets import DatasetSize
from repro.obs.trace import Tracer
from repro.runner.cache import WorkloadCache
from repro.runner.distributed import DistributedExecutor
from repro.runner.executors import LocalExecutor

import checks
from common import (
    CHEAP_KERNELS,
    KERNELS,
    STATE,
    prepare_and_store,
    run_dir,
    start_server,
    start_workers,
    stop_all,
)
from workloads import ClientLog, Outcome, client_round, job_mix, kernel_order, load_all

#: Per-layer metric name -> unit, in report order.
PER_LAYER: dict[str, str] = {}
for _k in KERNELS:
    PER_LAYER[f"kernel.{_k}.prepare_s"] = "s"
    PER_LAYER[f"kernel.{_k}.execute_s"] = "s"
    PER_LAYER[f"kernel.{_k}.work"] = "count"
for _k in KERNELS:
    PER_LAYER[f"cache.{_k}.bytes"] = "bytes"
PER_LAYER.update({"cache.store_s": "s", "cache.load_s": "s", "engine.serial_overhead_s": "s"})
PER_LAYER.update({"executors.open_s": "s", "executors.shutdown_s": "s"})
for _k in KERNELS:
    PER_LAYER[f"executors.{_k}.execute_s"] = "s"
    PER_LAYER[f"executors.{_k}.chunks"] = "count"
    PER_LAYER[f"executors.{_k}.shard_inflation"] = "ratio"
    PER_LAYER[f"executors.{_k}.merge_s"] = "s"
PER_LAYER.update({"executors.result_bytes": "bytes"})
PER_LAYER.update({"distributed.open_s": "s", "distributed.steals": "count"})
for _k in KERNELS:
    PER_LAYER[f"distributed.{_k}.execute_s"] = "s"
PER_LAYER.update({"obs.events": "count", "obs.record_bytes": "bytes", "obs.trace_overhead_s": "s"})
for _name in ("submit_s", "queue_wait_s", "run_s", "record_get_s", "dedup_s"):
    PER_LAYER[f"service.{_name}"] = "s"

#: New jobs the traced service pass submits (each is resubmitted once).
SERVICE_JOBS = 2 * len(CHEAP_KERNELS)


class Spans:
    """In-memory span recorder; spans nest through a stack of open ones."""

    def __init__(self, epoch: float) -> None:
        self.epoch = epoch
        self.items: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **args: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.items), "name": name, "layer": layer,
            "parent": self._open[-1] if self._open else None, "args": args,
        }
        self.items.append(record)
        self._open.append(record["id"])
        record["begin"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["seconds"] = record["end"] - record["begin"]
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["seconds"] for s in self.items if s["name"] == name)

    def chrome_events(self) -> list[dict[str, Any]]:
        """The spans as Chrome trace events, on a track of their own."""
        return [
            {
                "name": s["name"], "cat": s["layer"], "ph": "X", "pid": 0, "tid": 1,
                "ts": (s["begin"] - self.epoch) * 1e6, "dur": s["seconds"] * 1e6,
                "args": {**s["args"], "id": s["id"], "parent": s["parent"]},
            }
            for s in self.items
        ]


class TimedLocal(LocalExecutor):
    """A 2-worker local pool that times ``open`` plus the first ``jobs``
    submits (they fork the workers) and ``shutdown``, and keeps each
    chunk's shard result."""

    def __init__(self, jobs: int) -> None:
        super().__init__(jobs=jobs)
        self.open_s = self.shutdown_s = 0.0
        self.results: dict[tuple[int, int], Any] = {}
        self.n_submits = 0

    def open(self, context):
        t0 = time.perf_counter()
        super().open(context)
        self.open_s += time.perf_counter() - t0

    def submit(self, start, stop, ordinal, attempt, deadline=None):
        t0 = time.perf_counter()
        super().submit(start, stop, ordinal, attempt, deadline)
        if self.n_submits < self.jobs:
            self.open_s += time.perf_counter() - t0
        self.n_submits += 1

    def collect(self, timeout):
        events = super().collect(timeout)
        for event in events:
            if event.kind == "ok":
                self.results[event.chunk] = event.payload[2]
        return events

    def shutdown(self):
        t0 = time.perf_counter()
        super().shutdown()
        self.shutdown_s += time.perf_counter() - t0


class TimedDistributed(DistributedExecutor):
    """Times ``open``: connect, handshake and the workload frame."""

    def __init__(self, hosts: list[str]) -> None:
        super().__init__(hosts=hosts)
        self.open_s = 0.0

    def open(self, context):
        t0 = time.perf_counter()
        try:
            super().open(context)
        finally:
            self.open_s += time.perf_counter() - t0


def _engine_pass(
    out: Outcome, spans: Spans, label: str, layer: str, order: list[str], **options: Any
) -> dict[str, tuple[Any, dict[str, Any], Any]]:
    """``repro.api.run`` over every kernel; kernel -> (run, span, executor).

    ``executor``, when given, is a factory called once per kernel.
    """
    make_executor = options.pop("executor", None)
    done = {}
    for kernel in order:
        executor = make_executor() if make_executor is not None else None
        with spans.span(f"{label} {kernel}", layer, kernel=kernel) as span:
            run = api.run(kernel, "small", measure_serial=False, executor=executor, **options)
        ok = run.record.complete and not run.record.degraded
        out.count("kernel run", failed=int(not ok))
        if not ok:
            continue
        done[kernel] = (run, span, executor)
    return done


def run_traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Measure every per-layer metric once; ``seconds`` is not used."""
    small = DatasetSize.SMALL
    out = Outcome()
    m: dict[str, float] = {}
    tracer = Tracer()
    spans = Spans(tracer.epoch)
    order = kernel_order(seed)
    with run_dir() as scratch:
        cache = WorkloadCache(scratch / "cache")
        with spans.span("setup", "perfbench"):
            prepare_and_store(KERNELS, cache, spans)
        for k in KERNELS:
            m[f"kernel.{k}.prepare_s"] = spans.seconds(f"prepare {k}")
            m[f"cache.{k}.bytes"] = cache.path_for(k, small).stat().st_size
        m["cache.store_s"] = sum(spans.seconds(f"store {k}") for k in KERNELS)

        bare: dict[str, float] = {}
        with spans.span("bare pass", "perfbench"):
            for k in order:
                bench = load_benchmark(k)
                with spans.span(f"load {k}", "runner.cache", kernel=k):
                    loaded = cache.load(k, small)
                with spans.span(f"execute {k}", "kernel", kernel=k) as span:
                    result = bench.execute(loaded)
                bare[k] = span["seconds"]
                m[f"kernel.{k}.execute_s"] = bare[k]
                m[f"kernel.{k}.work"] = result.total_work
                del loaded, result
        m["cache.load_s"] = sum(spans.seconds(f"load {k}") for k in KERNELS)

        # untraced and traced runs of each kernel in turn, so that drift
        # in machine speed falls on both sides of the trace overhead
        serial, traced = {}, {}
        with spans.span("jobs=1 pass, untraced and traced in turn", "perfbench"):
            for k in order:
                serial.update(_engine_pass(out, spans, "api.run jobs=1", "runner.engine",
                                           [k], jobs=1, cache=cache))
                traced.update(_engine_pass(out, spans, "api.run jobs=1 traced", "obs",
                                           [k], jobs=1, cache=cache,
                                           obs=ObsOptions(tracer=tracer)))
        m["engine.serial_overhead_s"] = sum(
            span["seconds"] - run.record.execute_seconds - run.record.prepare_seconds
            for run, span, _ in serial.values()
        )
        m["obs.trace_overhead_s"] = sum(
            traced[k][1]["seconds"] - serial[k][1]["seconds"] for k in KERNELS
        )
        del traced

        with spans.span("local jobs=2 pass", "perfbench"):
            local = _engine_pass(out, spans, "api.run local jobs=2", "runner.executors",
                                 order, jobs=2, cache=cache,
                                 executor=lambda: TimedLocal(2))
        m["executors.open_s"] = sum(ex.open_s for _, _, ex in local.values())
        m["executors.shutdown_s"] = sum(ex.shutdown_s for _, _, ex in local.values())
        result_bytes = events = record_bytes = 0
        for k in KERNELS:
            run, span, ex = local[k]
            record = run.record
            m[f"executors.{k}.execute_s"] = record.execute_seconds
            m[f"executors.{k}.chunks"] = len(record.chunks)
            busy = sum(w.busy_seconds for w in record.workers)
            m[f"executors.{k}.shard_inflation"] = busy / bare[k]
            shards = [ex.results[chunk] for chunk in sorted(ex.results)]
            result_bytes += sum(
                len(pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL)) for s in shards
            )
            bench = load_benchmark(k)
            with spans.span(f"merge_shards {k}", "runner.executors", shards=len(shards)) as s:
                bench.merge_shards(shards)
            m[f"executors.{k}.merge_s"] = s["seconds"]
            events += len(record.events)
            record_bytes += len(record.to_json())
            ex.results.clear()
        m["executors.result_bytes"] = result_bytes
        m["obs.events"] = events
        m["obs.record_bytes"] = record_bytes

        with spans.span("start worker daemons", "runner.distributed"):
            daemons = start_workers(2, scratch)
        try:
            hosts = [d.address for d in daemons]
            with spans.span("distributed jobs=2 pass", "perfbench"):
                remote = _engine_pass(out, spans, "api.run distributed jobs=2",
                                      "runner.distributed", order, jobs=2, cache=cache,
                                      executor=lambda: TimedDistributed(hosts))
        finally:
            stop_all(daemons)
        m["distributed.open_s"] = sum(ex.open_s for _, _, ex in remote.values())
        m["distributed.steals"] = sum(
            1 for run, _, _ in remote.values()
            for e in run.record.events if e["name"] == "chunk_stolen"
        )
        for k in KERNELS:
            m[f"distributed.{k}.execute_s"] = remote[k][0].record.execute_seconds

        try:
            outputs = {k: r.output for k, (r, _, _) in local.items()}
            checks.check_outputs(load_all(cache, outputs), outputs)
            for k in KERNELS:
                digests = {
                    mode: checks.output_digest(runs[k][0].output)
                    for mode, runs in (("jobs=1", serial), ("local jobs=2", local),
                                       ("distributed jobs=2", remote))
                }
                if len(set(digests.values())) != 1:
                    raise checks.CheckError(f"{k}: outputs differ across {digests}")
        except checks.CheckError as exc:
            out.fail_check(str(exc))
        del serial, local, remote  # free the outputs before the service pass

        _service_pass(out, spans, m, scratch, seed, cache)

    path = STATE / f"spans-{workload}-{seed}.json"
    doc = tracer.to_chrome()
    doc["traceEvents"].extend(spans.chrome_events())
    doc["perfbenchSpans"] = spans.items
    path.write_text(json.dumps(doc))
    print(f"spans written to {path.relative_to(STATE.parent)}")
    out.metrics = {name: m[name] for name in PER_LAYER}
    return out


def _service_pass(out, spans, m, scratch, seed, cache) -> None:
    """New and deduplicated jobs through ``repro serve``, one client."""
    counts = {
        k: load_benchmark(k).task_count(w) for k, w in load_all(cache, CHEAP_KERNELS).items()
    }
    with spans.span("start server", "service"):
        server = start_server(scratch / "state", cache.root, scratch / "serve.log")
    log = ClientLog()
    jobs = []
    try:
        mix = job_mix(seed, 0, counts)
        with spans.span("service pass", "service"):
            for _ in range(SERVICE_JOBS):
                doc = next(mix)
                with spans.span(f"job {doc['kernel']}", "service", **doc["config"]):
                    job = client_round(log, server.address, doc, "traced")
                if job is not None:
                    jobs.append(job)
    finally:
        server.stop()
    log.add_to(out)
    if not jobs:
        out.fail_check("no service job completed")
        jobs = [{"submitted_unix": 0.0, "started_unix": 0.0, "finished_unix": 0.0}]

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    m["service.submit_s"] = median(log.timings.get("submit", []))
    m["service.record_get_s"] = median(log.timings.get("record_get", []))
    m["service.dedup_s"] = median(log.timings.get("dedup", []))
    m["service.queue_wait_s"] = median([j["started_unix"] - j["submitted_unix"] for j in jobs])
    m["service.run_s"] = median([j["finished_unix"] - j["started_unix"] for j in jobs])
