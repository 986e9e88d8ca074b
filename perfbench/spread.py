"""Run sets of benchmark runs and report each metric's spread.

Runs ``perfbench/run.py`` on each workload once per seed, in one or
more sets of the same code, then reports for every end-to-end metric:

* the spread of each set: the distance between the first and third
  quartile (``statistics.quantiles(values, n=4)``) as a share of the
  median, against the metric's bound in ``BENCHMARK.json``
  (``setup_s`` excepted, it is held by the median rule alone);
* how far the second set's median is worse than the first's, against
  the same bound;
* whether the share of failed operations is the same in every set.

Run from the root of the checkout::

    python3 perfbench/spread.py --runs 10 --sets 2
    python3 perfbench/spread.py --workloads suite-local2 --runs 5 --sets 1

Raw results go to ``.perfbench/spread-<time>.json``.  The exit status
is 1 when any spread or median shift is over its bound or a failed
share differs between sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import ROOT, STATE


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10, help="runs per set (seeds)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for _ in range(args.runs):
                result = run_once(w, seed, args.seconds)
                seed += 1
                runs.append(result)
                print(f"set {s} {w} seed {result['seed']}: {result['wall_s']:.1f} s, "
                      f"correct={result['correct']}, failed {result['failed']}"
                      f"/{result['attempted']}", file=sys.stderr, flush=True)
            results[w].append(runs)
    STATE.mkdir(exist_ok=True)
    out = STATE / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':<14} {'metric':<12} " + " ".join(
        f"{'median' + str(s):>10} {'iqr' + str(s):>7}" for s in range(args.sets))
        + f" {'bound':>6} {'shift':>7}  verdict")
    for w in workloads:
        sets = results[w]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) > 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{w}: failed shares {sorted(shares)} or a failed check")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in values]
            medians = [statistics.median(v) for v in values]
            shift = max(
                (worse_by(medians[0], x, m["better"]) for x in medians[1:]), default=0.0
            )
            bad = shift > bound or (name != "setup_s" and max(spreads) > bound)
            tight = name == "setup_s" or max(spreads) < bound / 3
            ok &= not bad
            verdict = "OVER" if bad else ("ok" if tight else "ok, spread > bound/3")
            print(f"{w:<14} {name:<12} " + " ".join(
                f"{md:>10.4f} {sp:>7.3f}" for md, sp in zip(medians, spreads))
                + f" {bound:>6.3f} {shift:>7.3f}  {verdict}")
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"{w:<14} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
