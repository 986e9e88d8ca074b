"""Shared pieces of the benchmark: paths, the kernel set, process and
resource accounting, daemons and a small HTTP client.

The benchmark runs from the root of a source checkout and imports the
program from its ``src`` directory.  Everything it writes goes under
``.perfbench/`` in that checkout.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: The twelve kernels a suite pass runs, by registry name.
KERNELS = (
    "fmi", "bsw", "dbg", "phmm", "chain", "poa",
    "kmer-cnt", "abea", "grm", "nn-base", "pileup", "nn-variant",
)

#: The six cheapest kernels at small size; the service mix draws from them.
CHEAP_KERNELS = ("grm", "nn-base", "kmer-cnt", "chain", "dbg", "nn-variant")

#: Seconds a daemon or server gets to report its address.
START_TIMEOUT = 30.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ProgramMissing(RuntimeError):
    """The program's source tree is not where the benchmark expects it."""


def import_program() -> None:
    """Put ``src`` on the import path and check the kernel set is there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core.registry import kernel_names

    missing = set(KERNELS) - set(kernel_names())
    if missing:
        raise ProgramMissing(f"kernels missing from the registry: {sorted(missing)}")


@contextmanager
def run_dir() -> Iterator[Path]:
    """A fresh scratch directory for one run, removed afterwards."""
    path = STATE / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- workloads ----------------------------------------------------------


def prepare_and_store(kernels: tuple[str, ...], cache: Any, spans: Any = None) -> dict[str, Any]:
    """Generate each kernel's small workload and store it in ``cache``.

    With a span recorder, each call into a layer gets its own span.
    """
    # imported here: this module loads before ``src`` is on the path
    from repro.core.benchmark import load_benchmark
    from repro.core.datasets import DatasetSize

    workloads = {}
    for kernel in kernels:
        bench = load_benchmark(kernel)
        with _maybe_span(spans, f"prepare {kernel}", "kernel", kernel=kernel):
            workloads[kernel] = bench.prepare(DatasetSize.SMALL)
        with _maybe_span(spans, f"store {kernel}", "runner.cache", kernel=kernel):
            cache.store(kernel, DatasetSize.SMALL, workloads[kernel])
    return workloads


def _maybe_span(spans: Any, name: str, layer: str, **args: Any):
    return nullcontext() if spans is None else spans.span(name, layer, **args)


# -- resources ----------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """CPU seconds of a live process and its reaped children, from /proc."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[11:15] are utime, stime, cutime, cstime
    return sum(int(v) for v in fields[11:15]) / _CLK_TCK


def cpu_seconds(pids: list[int] = ()) -> float:
    """CPU seconds of this process, its reaped children and ``pids``."""
    own = sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )
    return own + sum(proc_cpu_seconds(pid) for pid in pids)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# -- daemons ------------------------------------------------------------


class Daemon:
    """A ``python -m repro`` subprocess whose output goes to a log file."""

    def __init__(self, args: list[str], log: Path, ready: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log = log
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=ROOT,
            )
        self.address = self._wait_for(re.compile(ready))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_for(self, pattern: re.Pattern[str]) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            f"{self.proc.args[3:]} did not start: {self.log.read_text(errors='replace')[-400:]}"
        )

    def stop(self, timeout: float = 30.0) -> None:
        """Terminate the process and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_workers(count: int, logdir: Path) -> list[Daemon]:
    """``count`` loopback ``repro worker`` daemons on ephemeral ports."""
    daemons: list[Daemon] = []
    try:
        for i in range(count):
            daemons.append(
                Daemon(
                    ["worker", "--bind", "127.0.0.1:0"],
                    logdir / f"worker-{i}.log",
                    r"worker listening on (\S+:\d+)",
                )
            )
    except BaseException:
        stop_all(daemons)
        raise
    return daemons


def stop_all(daemons: list[Daemon]) -> None:
    for daemon in daemons:
        daemon.stop()


def start_server(state: Path, cache: Path, log: Path) -> Daemon:
    """A ``repro serve`` daemon with one job worker and a fresh state dir.

    The tenant quota admits far more than two closed-loop clients can
    offer, since the quota is charged before dedup.
    """
    daemon = Daemon(
        [
            "serve", "--port", "0", "--workers", "1", "--queue-depth", "16",
            "--tenant-tokens", "1000000", "--tenant-refill", "0",
            "--state-dir", str(state), "--cache-dir", str(cache),
            "--drain-timeout", "60",
        ],
        log,
        r"repro serve listening on http://(\S+:\d+)",
    )
    try:
        status, _ = request(daemon.address, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


# -- HTTP ---------------------------------------------------------------


def request(
    address: str, method: str, path: str, body: Any = None, tenant: str | None = None
) -> tuple[int, Any]:
    """One JSON request; returns ``(status, decoded body)``."""
    host, port = address.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        headers = {"Content-Type": "application/json"}
        if tenant:
            headers["X-Tenant"] = tenant
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    try:
        doc = json.loads(data) if data else None
    except ValueError:
        doc = data.decode(errors="replace")
    return response.status, doc
