"""Benchmark command: run one workload and print its metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload suite-local2 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing
off; ``--trace 1`` makes the traced run that reports the per-layer
metrics and writes its span file under ``.perfbench/``.  Metric names
and units come from ``BENCHMARK.json``; the command refuses to print a
metric that file does not list.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, ProgramMissing, import_program

EXIT_SETUP = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit for the mode, as ``BENCHMARK.json`` lists them."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        import_program()
    except (OSError, ValueError, ProgramMissing) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return EXIT_SETUP
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return EXIT_SETUP

    if args.trace:
        from layers import run_traced

        outcome = run_traced(args.workload, args.seed, args.seconds)
    else:
        from workloads import WORKLOADS

        outcome = WORKLOADS[args.workload](args.seed, args.seconds)

    units = declared(spec, bool(args.trace))
    if set(outcome.metrics) != set(units):
        extra = sorted(set(outcome.metrics) - set(units))
        missing = sorted(set(units) - set(outcome.metrics))
        print(f"perfbench: metrics differ from BENCHMARK.json: extra {extra}, "
              f"missing {missing}", file=sys.stderr)
        return EXIT_SETUP
    for message in outcome.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    width = max(len(n) for n in units)
    for name, value in outcome.metrics.items():
        print(f"{name:<{width}}  {value:>16.6f}  {units[name]}")
    kinds = ", ".join(f"{kind} {a}/{f}" for kind, (a, f) in outcome.ops.items())
    print(f"operations (attempted/failed): {kinds}; total {outcome.attempted}/"
          f"{outcome.failed}; checks {'passed' if outcome.correct else 'FAILED'}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
