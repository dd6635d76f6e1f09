"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_same_seed_gives_identical_inputs():
    for make in (inputs.census_order, inputs.giants, inputs.harmonic_stream, inputs.cli_commands):
        assert make(7, 2) == make(7, 2)
        assert make(7, 2) != make(8, 2)
        assert make(7, 2) != make(7, 3)  # every pass draws fresh inputs


def test_passes_draw_fresh_distinct_traffic():
    # giants and the large-c tail are distinct traffic, so a later pass of
    # the traced run, which keeps one interpreter, draws new members.  A
    # few bins hold only one or two members (the amphicheiral fibonacci
    # and kn bins), and those may repeat.
    first, second = inputs.giants(5, 0), inputs.giants(5, 1)
    shared = {k[:2] for k in first} & {k[:2] for k in second}
    assert inputs.GIANT_FIXED in shared and len(shared) <= 6
    tails = [{(b, c) for b, c, large in inputs.harmonic_stream(5, k) if large} for k in (0, 1)]
    assert tails[0] & tails[1] == {inputs.LARGE_C_FIXED}


def test_census_enumeration_is_independent_of_the_library():
    assert "chebknot" not in _imports(HERE / "inputs.py")
    assert "chebknot" not in _imports(HERE / "checks.py")
    knots = inputs.census_knots()
    assert len(knots) == inputs.CENSUS_SIZE == len({(a, b) for a, b, _ in knots})
    # Brute force over all fractions: the largest numerator with N <= 12 is
    # the Fibonacci number F_13 = 233 (all quotients 1 but the last).
    brute = set()
    for alpha in range(3, 234, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) == 1:
                a, b, n = alpha, beta, 0
                while b:
                    n += a // b
                    a, b = b, a % b
                if n <= inputs.CENSUS_MAX_N:
                    brute.add((alpha, beta, n))
    assert brute == set(knots)


def test_giants_are_capped_and_stratified():
    pool = inputs.giants(3)
    assert inputs.GIANT_FIXED in {(a, b) for a, b, _, _ in pool}
    assert len(pool) == inputs.GIANT_BINS + 1
    for alpha, beta, n, _ in pool:
        assert alpha % 2 == 1 and gcd(alpha, beta) == 1 and alpha > beta
        assert inputs.GIANT_MIN_N <= n <= inputs.GIANT_MAX_N
        assert n == inputs.crossing_number(alpha, beta)


def test_harmonic_stream_shape():
    stream = inputs.harmonic_stream(2)
    grid = [e for e in stream if not e[2]]
    tail = [e for e in stream if e[2]]
    assert len(grid) == inputs.HARMONIC_GRID_SIZE
    assert (4, 1000003, True) in tail and len(tail) == round(len(grid) / 100)
    assert all(inputs.admissible(b, c) for b, c, _ in stream)


def test_checker_rejects_planted_wrong_answers():
    # trefoil 3/1: N = 3, b = 4, deg C = 5
    assert checks.construction(3, 4, 5, 3) is None
    assert checks.construction(3, 4, 6, 3)  # b + deg C != 3N
    assert checks.construction(3, 5, 4, 3)  # b outside N < b < 3N/2
    assert checks.construction(3, 4, 5, 4)  # wrong crossing number
    assert checks.canonical_pair(4, 5, 3) is None
    assert checks.canonical_pair(4, 8, 4)  # c' = 2b'
    assert checks.canonical_pair(4, 7, 4)  # 3 does not divide b' + c'
    # flipped mirror bit on a chiral knot
    assert checks.same_knot((3, 1, True), (3, 1, False), mirrored=True) is None
    assert checks.same_knot((3, 1, False), (3, 1, False), mirrored=True)
    # the figure-eight is amphicheiral: either bit is right
    assert checks.same_knot((5, 2, True), (5, 2, False), mirrored=False) is None
    assert checks.fields({"b": 8, "mirrored": True}, {"b": 8, "mirrored": False})


def test_oracle_check_rejects_a_flipped_classification():
    import workloads
    from chebknot import HarmonicSpec, classify
    from dataclasses import replace

    right = classify(HarmonicSpec(3, 4, 5))
    tally = workloads.Tally()
    workloads._oracle_check(tally, 4, 5, right)
    assert tally.failed == 0
    workloads._oracle_check(tally, 4, 5, replace(right, mirror=not right.mirror))
    workloads._oracle_check(tally, 4, 5, workloads.UNKNOT)
    assert tally.failed == 2


def test_a_violated_identity_in_classify_fails_the_run(monkeypatch):
    import workloads
    from chebknot.errors import ChebknotError

    def wrong(spec):
        raise ChebknotError("crossing number identity violated")

    monkeypatch.setattr(workloads, "classify", wrong)
    tally = workloads.Tally()
    assert workloads._classify_op(tally, 4, 5, False) is None
    assert tally.failed == 1 and not tally.refused


def test_the_give_up_is_a_refusal_not_a_failure():
    import workloads

    tally = workloads.Tally()
    outcome, _ = workloads._classify_op(tally, *inputs.LARGE_C_FIXED, True)
    assert str(outcome) == workloads.GIVE_UP
    assert tally.failed == 0 and tally.refused["ChebknotError"] == 1


def test_a_fresh_interpreter_pass_is_checked():
    # Each untraced pass of an in-process workload runs in its own
    # interpreter, so a cache that one pass fills is gone when the next
    # pass starts, and the pass reports the same checked outcome as an
    # in-process one.
    import workloads

    fresh = workloads._fresh_pass("giants", 3, 1)
    assert fresh["tally"]["failed"] == 0
    assert len(fresh["ns"]) == inputs.GIANT_BINS + 1 and all(t > 0 for t in fresh["ns"])
    assert fresh["answered"] == inputs.GIANT_BINS + 1
    assert fresh["rss_mb"] > 0


def test_atlas_checker_rejects_a_changed_record():
    lines = [json.dumps({"b": 4, "c": 5, "b_canon": 4, "c_canon": 5, "mirror": False,
                         "alpha": 3, "beta": 1, "N": 3, "amphicheiral": False})]
    count, digest, bad = checks.atlas_digest(lines)
    assert count == 1 and bad is None
    flipped = [lines[0].replace('"mirror": false', '"mirror": true')]
    assert checks.atlas_digest(flipped)[1] != digest
    assert checks.atlas(lines)  # wrong count


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert [w["name"] for w in SPEC["workloads"]] == ["census", "giants", "harmonic", "cli"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_printed_metric_is_declared(trace):
    proc = _run(ROOT, "--workload", "census", "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    lines = proc.stdout.splitlines()
    printed = [line.split() for line in lines if line.startswith("metric ")]
    assert printed
    for _, name, value, unit in printed:
        assert declared[name]["unit"] == unit, name
        float(value)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    mode = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[mode]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "census", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
