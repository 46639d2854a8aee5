"""Tests of the benchmark itself: oracle, tracer, and the run contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sympair = worker.import_library()


def _answer(item):
    return workloads.answer_of(sympair, item, workloads.run_item(sympair, item))


# ----------------------------------------------------------------------
# oracle

def test_brute_force_sides_agree_with_known_distances():
    # [15,11,3] repeated-root code (x-1)(x^3-1) over GF(5): d_H 3, d_p 6
    f5 = oracle.Field(5)
    assert oracle.distances(f5, [1, 4, 0, 4, 1], 15, 1) == (3, 6)
    # every sweep code over GF(4) up to n = 7, both brute-force sides
    for spec in workloads.sweep_specs():
        if spec["p"] ** spec["m"] == 4 and spec["n"] <= 7:
            F = oracle.Field(4)
            g, n = spec["generator"], spec["n"]
            k = n - len(g) + 1
            assert oracle._message_side(F, g, n, k) == oracle._parity_side(F, g, n, k), spec


@pytest.mark.parametrize(
    "item", [it for it in workloads.LOW_RATE
             if (it.call[1]["p"] ** it.call[1]["m"]) ** it.expected["k"] <= 5 ** 8],
    ids=lambda it: it.name)
def test_low_rate_frozen_distances_match_exhaustive_enumeration(item):
    code = sympair.report.code_from_spec_dict(item.call[1])
    assert sympair.code.min_hamming_distance(code, "exhaustive").value == item.expected["d_hamming"]
    assert sympair.code.min_pair_distance(code, "exhaustive").value == item.expected["d_pair"]


def test_oracle_field_modulus_matches_the_library():
    for q in oracle.SWEEP_MAX_N:
        p, m = oracle._prime_power(q)
        assert tuple(oracle.Field(q).modulus) == sympair.gf.extension_field(p, m).modulus


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_a_correct_answer_and_rejects_corrupted_ones(workload):
    if workload == "mds-families":
        items = [it for it in workloads.MDS_FAMILIES if it.name == "mds_3p_6(5)"]
    elif workload == "low-rate":
        items = [it for it in workloads.LOW_RATE if it.name == "q4-n17-l1-k8"]
    else:
        items = [it for it in workloads.build_items(workload, 0)
                 if it.call[1]["n"] == 15 and it.call[1]["p"] == 2][:3]
    expected = workloads.expected_answers(workload, items)
    for item in items:
        good = _answer(item)
        assert workloads.problems(expected[item.name], good) == []
        for key, delta in (("d_pair", 1), ("d_hamming", -1), ("k", 1)):
            bad = dict(good, **{key: good[key] + delta})
            assert workloads.problems(expected[item.name], bad), key
        assert workloads.problems(expected[item.name], dict(good, mds_pair=not good["mds_pair"]))
        assert workloads.problems(expected[item.name], dict(good, certified=False))


def test_theorem_checks():
    assert oracle.theorem_violations(15, 11, 3, 6) == []
    assert "sandwich" in oracle.theorem_violations(15, 11, 3, 7)
    assert "pair-singleton" in oracle.theorem_violations(15, 11, 4, 7)
    assert "floor-iff" in oracle.theorem_violations(15, 10, 4, 5)  # d_H + 1 needs k = 12
    assert "floor" in oracle.theorem_violations(20, 4, 5, 7)       # needs d_H + 3


# ----------------------------------------------------------------------
# tracer

def test_tracer_raises_on_a_missing_target():
    for where in ("code:no_such_function", "code:ConstacyclicCode.no_such_method",
                  "no_such_module:f"):
        tracer = tracing.Tracer()
        with pytest.raises(tracing.MissingTargetError):
            tracer.install("sympair", [("x", where, None)])
        tracer.uninstall()


def test_tracer_wraps_every_binding_and_restores_them():
    original = sympair.code.min_hamming_distance
    tracer = tracing.Tracer()
    tracer.install("sympair", [("h", "code:min_hamming_distance", None)])
    try:
        for module in (sympair, sympair.code, sympair.bounds, sympair.report,
                       sympair.constructions, sympair.verify):
            assert module.min_hamming_distance is not original
            assert module.min_hamming_distance.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert sympair.report.min_hamming_distance is original


def test_every_target_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install("sympair", worker.TARGETS)
    finally:
        tracer.uninstall()


def test_traced_self_times_sum_to_traced_wall(monkeypatch):
    tiny = workloads.build_items("small-sweep", 0)[:40] + list(workloads.LOW_RATE[2:3])
    monkeypatch.setattr(workloads, "build_items", lambda workload, seed: tiny)
    result = worker.run_pass(sympair, "small-sweep", 0, True, time.monotonic())
    layers = result["layers"]
    assert layers["trace.self_sum_s"] == pytest.approx(result["wall_s"], rel=0.02)
    assert layers["code.encodings"] > 0 and layers["code.construct_calls"] >= len(tiny)
    spans_self = [v for k, v in layers.items() if k.endswith("_s")]
    assert all(v >= 0 for v in spans_self)


# ----------------------------------------------------------------------
# the run contract

def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "low-rate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_computed_metrics(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tiny = list(workloads.LOW_RATE[2:4])
    monkeypatch.setattr(workloads, "build_items", lambda workload, seed: tiny)
    plain, traced = (worker.run_pass(sympair, "low-rate", 0, t, time.monotonic())
                     for t in (False, True))
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.end_to_end([plain], [0.1]))
    assert {m["name"] for m in spec["per_layer"]} <= set(run.per_layer([plain], [traced]))
