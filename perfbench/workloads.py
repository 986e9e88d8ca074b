"""The end-to-end workloads, measured with tracing off.

* ``suite-local2`` runs whole passes of ``repro.api.run`` over all
  twelve kernels (small size, warm workload cache) at jobs=2 on the
  default local supervised pool.
* ``serve-closed`` drives a ``repro serve`` daemon with two closed-loop
  HTTP clients.

Each function returns an :class:`Outcome`: operation counts, the metrics
of ``BENCHMARK.json``'s ``end_to_end`` list and whether every check
passed.  Every workload reports every metric; the README says what each
one means on each workload.
"""

from __future__ import annotations

import random
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import api
from repro.core.benchmark import load_benchmark
from repro.runner.cache import WorkloadCache

import checks
from common import (
    CHEAP_KERNELS,
    KERNELS,
    cpu_seconds,
    peak_rss_mb,
    prepare_and_store,
    request,
    run_dir,
    start_server,
)

#: The end-to-end metrics every workload reports, in report order.
END_TO_END = ("setup_s", "suite_s", "suite_cpu_s", "jobs_per_s", "job_p50_s", "peak_rss_mb")

#: Set-ups per serve-closed run; the reported ``setup_s`` is their median.
SERVE_SETUPS = 3

#: Seconds a client waits between polls of a running job.
POLL_SECONDS = 0.02

#: Kernels in one pass of the service mix (``suite_s`` on serve-closed).
SERVE_PASS = len(CHEAP_KERNELS)


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: operation kind -> [attempted, failed]
    ops: dict[str, list[int]] = field(default_factory=dict)

    def count(self, kind: str, attempted: int = 1, failed: int = 0) -> None:
        entry = self.ops.setdefault(kind, [0, 0])
        entry[0] += attempted
        entry[1] += failed
        self.attempted += attempted
        self.failed += failed

    def fail_check(self, message: str) -> None:
        self.correct = False
        self.errors.append(message)


def kernel_order(seed: int) -> list[str]:
    """The pass order of the twelve kernels, drawn from the seed."""
    order = list(KERNELS)
    random.Random(seed).shuffle(order)
    return order


def run_suite(seed: int, seconds: float) -> Outcome:
    """Whole passes over the twelve kernels at jobs=2 until ``seconds``
    have passed.

    Pass metrics are built from each kernel's median over the passes, so
    a slow spell of the machine during one kernel's run in one pass does
    not move them.
    """
    out = Outcome()
    order = kernel_order(seed)
    with run_dir() as scratch:
        t0 = time.perf_counter()
        cache = WorkloadCache(scratch / "cache")
        # the prepared workloads are not kept: holding them through the
        # passes would make every garbage collection in a pass slower
        prepare_and_store(KERNELS, cache)
        setup_s = time.perf_counter() - t0
        wall: dict[str, list[float]] = {k: [] for k in KERNELS}
        cpu: dict[str, list[float]] = {k: [] for k in KERNELS}
        outputs: dict[str, Any] = {}
        passes, start = 0, time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            passes += 1
            outputs = {}
            for kernel in order:
                c0, r0 = cpu_seconds(), time.perf_counter()
                try:
                    # no serial baseline: it would add a whole jobs=1 run
                    run = api.run(kernel, "small", jobs=2, cache=cache, measure_serial=False)
                except Exception:  # noqa: BLE001 - a failed kernel run is data
                    out.count("kernel run", failed=1)
                    traceback.print_exc()
                    continue
                wall[kernel].append(time.perf_counter() - r0)
                cpu[kernel].append(cpu_seconds() - c0)
                ok = run.record.complete and not run.record.degraded
                out.count("kernel run", failed=int(not ok))
                if not ok:
                    print(f"{kernel}: incomplete or degraded run", file=sys.stderr)
                    continue
                outputs[kernel] = run.output
        try:
            checks.check_outputs(load_all(cache, outputs), outputs)
        except checks.CheckError as exc:
            out.fail_check(str(exc))
    kernel_s = [statistics.median(v) for v in wall.values() if v]
    suite_s = sum(kernel_s)
    out.metrics = {
        "setup_s": setup_s,
        "suite_s": suite_s,
        "suite_cpu_s": sum(statistics.median(v) for v in cpu.values() if v),
        "jobs_per_s": len(kernel_s) / suite_s,
        "job_p50_s": statistics.median(kernel_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    return out


def load_all(cache: Any, kernels: Any) -> dict[str, Any]:
    """The cached workload of each kernel, for the checks."""
    return {k: cache.load(k, "small") for k in kernels}


# -- serve-closed ---------------------------------------------------------


def job_mix(seed: int, client: int, task_counts: dict[str, int]):
    """Endless distinct run-job documents for one client.

    Each client cycles through the six kernels in a seeded order, at
    jobs=2 with a chunk size drawn next to the engine's default.  The
    ``retries`` knob takes a value no other job of the run uses, so
    every document is a new job; with no failing chunk it changes no
    work.
    """
    rng = random.Random(seed * 2 + client)
    order = list(CHEAP_KERNELS)
    rng.shuffle(order)
    r = 0
    while True:
        kernel = order[r % len(order)]
        n = task_counts[kernel]
        chunk = min(n, max(1, -(-n // 16)) + rng.randrange(2))
        yield {
            "type": "run", "kernel": kernel, "size": "small",
            "config": {"jobs": 2, "chunk_size": chunk, "retries": 2 * r + client},
        }
        r += 1


@dataclass
class ClientLog:
    """What one closed-loop client did."""

    executed: int = 0
    deduped: int = 0
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    check_errors: list[str] = field(default_factory=list)
    timings: dict[str, list[float]] = field(default_factory=dict)
    #: operation kind -> [attempted, failed]
    ops: dict[str, list[int]] = field(default_factory=dict)

    def fail(self, kind: str, message: str) -> None:
        """Count one more failure of an operation already attempted."""
        self.ops.setdefault(kind, [0, 0])[1] += 1
        self.errors.append(message)

    def call(self, kind: str, address: str, method: str, path: str, body: Any = None,
             tenant: str | None = None, label: str | None = None) -> tuple[int, Any]:
        self.ops.setdefault(kind, [0, 0])[0] += 1
        t0 = time.perf_counter()
        try:
            status, doc = request(address, method, path, body, tenant)
        except OSError as exc:
            status, doc = 0, str(exc)
        if label is not None:
            self.timings.setdefault(label, []).append(time.perf_counter() - t0)
        if not 200 <= status < 300:
            self.fail(kind, f"{method} {path}: {status} {str(doc)[:200]}")
        return status, doc

    def add_to(self, out: Outcome) -> None:
        for kind, (attempted, failed) in self.ops.items():
            out.count(kind, attempted, failed)
        for message in self.errors:
            print(message, file=sys.stderr)
        for message in self.check_errors:
            out.fail_check(message)


def client_round(log: ClientLog, address: str, doc: dict[str, Any], tenant: str) -> dict | None:
    """Submit a new job, poll it, fetch its record, then resubmit it.

    Returns the job document of the executed job, or ``None`` when an
    operation failed.
    """
    t0 = time.perf_counter()
    status, job = log.call("submit", address, "POST", "/jobs", doc, tenant, label="submit")
    if status != 202:
        if 200 <= status < 300:
            log.fail("submit", f"new {doc['kernel']} job answered {status}, not 202")
        return None
    job_id = job["id"]
    log.ops.setdefault("job", [0, 0])[0] += 1
    while job["status"] in ("queued", "running"):
        time.sleep(POLL_SECONDS)
        status, job = log.call("poll", address, "GET", f"/jobs/{job_id}")
        if status != 200:
            return None
    if job["status"] != "done":
        log.fail("job", f"job {job_id} {job['status']}: {job.get('error')}")
        return None
    status, record = log.call(
        "fetch", address, "GET", f"/jobs/{job_id}/record", label="record_get"
    )
    if status != 200:
        return None
    log.latencies.append(time.perf_counter() - t0)
    log.executed += 1
    try:
        check_record(doc, record)
    except checks.CheckError as exc:
        log.check_errors.append(str(exc))
    status, again = log.call("submit", address, "POST", "/jobs", doc, tenant, label="dedup")
    if status != 200 or not again.get("deduped"):
        if status == 200:
            log.fail("submit", f"resubmitted {doc['kernel']} was not deduplicated")
        return None
    log.ops["job"][0] += 1
    status, again_record = log.call("fetch", address, "GET", f"/jobs/{again['id']}/record")
    if status != 200:
        return None
    log.deduped += 1
    try:
        checks.check_same_records(record, again_record, f"{doc['kernel']} job {job_id}")
    except checks.CheckError as exc:
        log.check_errors.append(str(exc))
    return job


def check_record(doc: dict[str, Any], record: dict[str, Any]) -> None:
    """The record is a complete run of the submitted kernel and knobs."""
    data = record.get("data", record)
    config = doc["config"]
    if data.get("kernel") != doc["kernel"]:
        raise checks.CheckError(f"record is for {data.get('kernel')}, not {doc['kernel']}")
    if data.get("quarantined") or data.get("degraded"):
        raise checks.CheckError(f"{doc['kernel']} record is incomplete or degraded")
    if data.get("chunk_size") != config["chunk_size"] or data.get("jobs") != config["jobs"]:
        raise checks.CheckError(
            f"{doc['kernel']} record ran chunk_size={data.get('chunk_size')} "
            f"jobs={data.get('jobs')}, submitted {config}"
        )
    if len(data.get("task_work", ())) != data.get("n_tasks"):
        raise checks.CheckError(f"{doc['kernel']} record lacks per-task work")


def serve_setup(scratch: Path, index: int):
    """Empty cache and state dir to a healthy server with warm workloads."""
    root = scratch / f"serve-{index}"
    cache = WorkloadCache(root / "cache")
    workloads = prepare_and_store(CHEAP_KERNELS, cache)
    server = start_server(root / "state", root / "cache", root / "serve.log")
    counts = {k: load_benchmark(k).task_count(w) for k, w in workloads.items()}
    return server, counts


def run_serve(seed: int, seconds: float) -> Outcome:
    """Two closed-loop clients against one ``repro serve`` daemon."""
    out = Outcome()
    setups: list[float] = []
    with run_dir() as scratch:
        server = None
        try:
            for i in range(SERVE_SETUPS):
                if server is not None:
                    server.stop()
                t0 = time.perf_counter()
                server, counts = serve_setup(scratch, i)
                setups.append(time.perf_counter() - t0)
            logs = [ClientLog(), ClientLog()]
            mixes = [job_mix(seed, c, counts) for c in range(2)]
            start = time.perf_counter()
            deadline = start + seconds

            def client(c: int) -> None:
                while time.perf_counter() < deadline:
                    try:
                        client_round(logs[c], server.address, next(mixes[c]), f"client-{c}")
                    except (KeyError, TypeError, AttributeError) as exc:
                        # a malformed answer: count it and go on with the next job
                        logs[c].fail("job", f"malformed answer: {exc!r}")

            c0 = cpu_seconds([server.pid])
            threads = [threading.Thread(target=client, args=(c,)) for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            cpu = cpu_seconds([server.pid]) - c0
        finally:
            if server is not None:
                server.stop()
    for log in logs:
        log.add_to(out)
    executed = sum(log.executed for log in logs)
    deduped = sum(log.deduped for log in logs)
    latencies = [x for log in logs for x in log.latencies]
    if not executed:
        out.fail_check("no job completed")
        executed = 1
    out.metrics = {
        "setup_s": statistics.median(setups),
        "suite_s": wall * SERVE_PASS / executed,
        "suite_cpu_s": cpu * SERVE_PASS / executed,
        "jobs_per_s": (executed + deduped) / wall,
        "job_p50_s": statistics.median(latencies) if latencies else wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    return out


#: Workload name -> function(seed, seconds) measuring it.
WORKLOADS = {"suite-local2": run_suite, "serve-closed": run_serve}
