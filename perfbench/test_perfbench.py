"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calib
import inputs
import oracle
import run
import tracing

HERE = Path(__file__).resolve().parent

# d1 = 1, d2 = 1 + r1 at beta = (-1, +1), tau = 1, p = 4:
# E|F|^4 = 21 and E(|G|^2 + |F|^2)^2 = 52.
EXPLICIT_TABLES = [np.array([[1.0], [1.0]], dtype=complex),
                   np.array([[2.0], [0.0], [2.0], [0.0]], dtype=complex)]
EXPLICIT_RATIO = (52.0 / 21.0) ** 0.25


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    for make in (inputs.certify_inputs, inputs.deep_inputs, inputs.store_inputs,
                 inputs.gauss_inputs, inputs.shear_inputs, inputs.deviation_inputs):
        assert _same(make(7), make(7))
        assert not _same(make(7), make(8))
    first, again = inputs.batch_inputs(7), inputs.batch_inputs(7)
    assert len(first) == inputs.BATCH_SIZE and _same(first[:200], again[:200])
    assert not _same(first[:200], inputs.batch_inputs(8)[:200])


def test_oracle_matches_hand_enumeration_and_p2_identity():
    assert abs(oracle.ratio(EXPLICIT_TABLES, [-1, 1], 1.0, 4.0) - EXPLICIT_RATIO) < 1e-12
    rng = np.random.default_rng(0)
    for N in (1, 3, 6):
        tables = inputs.random_tables(rng, N, 2)
        beta = inputs.random_beta(rng, N)
        assert abs(oracle.ratio(tables, beta, 0.5, 2.0) - math.hypot(1.0, 0.5)) < 1e-12
        assert oracle.ratio(tables, beta, 0.5, 4.0) <= oracle.ceiling(4.0, 0.5)


def test_oracle_rejects_a_perturbed_ratio():
    rec = inputs.record(EXPLICIT_TABLES, [-1, 1], 1.0, 4.0, EXPLICIT_RATIO)
    assert abs(oracle.check_record(rec) - EXPLICIT_RATIO) < 1e-12
    for bad in (EXPLICIT_RATIO * (1 + 1e-9), EXPLICIT_RATIO - 1e-9, float("nan")):
        assert oracle.check_record(dict(rec, ratio=bad)) is None
        assert not oracle.close(bad, EXPLICIT_RATIO)
    assert not oracle.close(None, EXPLICIT_RATIO)


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, "op", None],
        ["a", 1.0, 4.0, 0, "op", None],
        ["a", 2.0, 3.0, 1, "op", None],      # nested in a same-named span
        ["b", 3.5, 6.0, 0, "op", None],      # overlaps a's tail
        ["c", 9.0, 12.0, 0, "op", None],     # runs past the root's end
    ]
    # The root's children cover [1, 6] and [9, 10] of it.
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 2.5, 3.0]
    summary = tracing.summarize(spans)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["busy_s"] == 3.0          # the inner call is not counted twice
    assert summary["a"]["self_s"] == 3.0


def test_tracer_records_parents_ops_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda ctx, args, out: {"n": out})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op = "op-1"
    assert outer(1) == 4
    (o, i) = tracer.spans
    assert o[0] == "outer" and o[3] == -1 and i[3] == 0 and i[4] == "op-1"
    assert i[5] == {"n": 2} and o[1] <= i[1] <= i[2] <= o[2]


class _Kernels:
    """Stands in for calib.Reference with fixed kernel times."""

    def __init__(self, times):
        self.times = iter(times)

    def time(self, kind):
        return next(self.times)


def test_timeline_scales_ops_by_the_mean_kernel_time():
    timeline = calib.Timeline(_Kernels([0.03, 0.05, 0.04, 0.5, 0.5]))
    timeline.ref("interp", "p")
    timeline.add("round0:a", "p", 2.0)
    timeline.ref("interp", "p")
    timeline.add("round0:a", "p", 1.0)
    timeline.close()                  # the third kernel timing, after the last op
    timeline.close()                  # nothing left open: no fourth timing
    timeline.measure("round0:b", "fft", "q", lambda: None)
    timeline.close()
    assert timeline.samples == {"p": [0.03, 0.05, 0.04], "q": [0.5, 0.5]}
    factor = calib.NOMINAL_S["interp"] / 0.04
    assert timeline.factor("p") == pytest.approx(factor)
    assert timeline.scaled("round0:a") == pytest.approx(3.0 * factor)
    assert timeline.raw("round0:a") == 3.0
    merged = calib.Timeline()
    merged.merge(timeline.export(), "w/")
    assert merged.scaled("w/round0:a") == pytest.approx(3.0 * factor)
    assert merged.factor("w/q") == pytest.approx(calib.NOMINAL_S["fft"] / 0.5)


def test_kernel_server_answers_and_stops():
    server = calib.Server(dict(os.environ, OMP_NUM_THREADS="1"))
    try:
        assert server.time("interp") > 0.0
    finally:
        server.close()
    assert server.proc.returncode == 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_refuses_to_run_without_lpmult_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-store",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
