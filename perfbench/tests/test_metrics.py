"""The metrics the command prints are the ones ``BENCHMARK.json`` lists,
and the file keeps its fixed form."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from conftest import BENCH, REPO

import layers
import workloads

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_file_has_exactly_the_fixed_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][1] == "perfbench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_bounds_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match_the_command():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)


def test_per_layer_metrics_match_the_command():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == layers.PER_LAYER
    assert len(declared) <= 128


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits
    non-zero and prints no result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "suite-local2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
