"""Command-line interface: subcommands, exit codes, and determinism."""

import copy
import csv
import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpmult
from lpmult.catalog import beurling_real, family_symbol
from lpmult.cli import main
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig,
                               perturbed_ratio_exact, search_extremal)
from lpmult.report import (StoreError, load_store, lookup_store, sequence_from_record,
                           sequence_to_record, store_key, verify_record, write_json)
from test_report import listed


def _scalar(tables):
    """A sequence of scalar tables of shape (2,)*k, the component axis added."""
    return MartingaleDifferenceSequence(tuple(np.asarray(t, dtype=complex)[..., None]
                                              for t in tables))


def _run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def _load_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_search_p2_example(tmp_path):
    code, out = _run(["search-martingale", "--p", "2", "--tau", "0.5", "--n", "4",
                      "--seed", "1", "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["achieved_ratio"] == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert rep["target_constant"] == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_search_determinism(tmp_path):
    args = ["search-martingale", "--p", "4", "--tau", "0.5", "--n", "2",
            "--seed", "7", "--iters", "150", "--restarts", "4"]
    _, a = _run(args + ["--store-dir", str(tmp_path / "sa")], tmp_path, "a.json")
    _, b = _run(args + ["--store-dir", str(tmp_path / "sb")], tmp_path, "b.json")
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    for volatile in ("timestamp", "wall_time_s"):
        ra.pop(volatile), rb.pop(volatile)
    assert ra == rb


def test_certify_explicit_instance(tmp_path):
    d1 = np.ones((2, 1), dtype=complex)
    d2 = np.zeros((2, 2, 1), dtype=complex)
    d2[:, 0, 0] = 2.0
    seq = MartingaleDifferenceSequence((d1, d2))
    rec = sequence_to_record(seq, (-1, 1), 1.0, ExponentConfig(4.0),
                             (52.0 / 21.0) ** 0.25, 0, "def2")
    inst = tmp_path / "inst.json"
    write_json(inst, rec)

    code, out = _run(["certify", "beurling-real", "--p", "4", "--tau", "1",
                      "--n", "2", "--martingale", str(inst),
                      "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certified_lower_bound"] == pytest.approx((52.0 / 21.0) ** 0.25,
                                                         abs=1e-9)
    assert rep["target_constant"] == pytest.approx(math.sqrt(10.0))
    assert rep["notes"]["reduction"]["angle"] == 0.0


def test_certify_matrix_trivial(tmp_path):
    code, out = _run(["certify", "beurling-matrix", "--p", "2", "--tau", "0",
                      "--n", "1", "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certified_lower_bound"] == pytest.approx(1.0, abs=1e-10)
    assert rep["target_constant"] == pytest.approx(1.0)
    assert abs(rep["gap"]) < 1e-9


def test_certify_vector_depth_one(tmp_path):
    code, out = _run(["certify", "vector", "--p", "4", "--tau", "0", "--n", "1",
                      "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certified_lower_bound"] == pytest.approx(1.0, abs=1e-10)
    assert rep["target_constant"] == pytest.approx(3.0)


def test_certify_every_family_through_re_b(tmp_path):
    # Im B and rotated(theta) are rotations of +-Re B, so every family
    # certifies the same martingale at the same bound.
    rng = np.random.default_rng(np.random.PCG64(11))
    seq = _scalar(rng.standard_normal((2,) * k) + 1j * rng.standard_normal((2,) * k)
                  for k in range(1, 4))
    beta = (1, -1, 1)
    exps = ExponentConfig(4.0)
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
    inst = tmp_path / "inst.json"
    write_json(inst, sequence_to_record(seq, beta, 0.5, exps, ratio, 0, "def2"))

    # The recorded reduction symbol(xi) = s * Re B(R_a xi) must hold.
    xi = rng.standard_normal((100, 2))
    bounds = {}
    for family, symbol in ((["beurling-real"], beurling_real()),
                           (["beurling-imag"], family_symbol("beurling-imag")),
                           (["vector"], beurling_real()),
                           (["rotated", "--theta", "0"], family_symbol("rotated", 0.0)),
                           (["rotated", "--theta", "0.7"], family_symbol("rotated", 0.7))):
        code, out = _run(["certify", *family, "--p", "4", "--tau", "0.5", "--n", "3",
                          "--martingale", str(inst),
                          "--store-dir", str(tmp_path / "store")], tmp_path)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["certified_lower_bound"] == rep["achieved_ratio"]
        bounds[" ".join(family)] = rep["certified_lower_bound"]
        s, a = rep["notes"]["reduction"]["sign"], rep["notes"]["reduction"]["angle"]
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        reduced = s * beurling_real().evaluate(xi @ rot.T)
        assert np.max(np.abs(symbol.evaluate(xi) - reduced)) <= 1e-14
    assert max(bounds.values()) - min(bounds.values()) <= 1e-12
    assert bounds["beurling-real"] == pytest.approx(ratio, abs=1e-10)


def test_transference_deviation_table(tmp_path):
    code, out = _run(["transference", "deviation", "--symbol", "beurling-real",
                      "--support", "1,0:0,1", "--n-start", "10",
                      "--n-doubling", "2"], tmp_path, "dev.csv")
    assert code == 0
    rows = _load_csv(out)
    assert rows[0] == ["N", "deviation", "ratio_to_previous"]
    assert float(rows[1][1]) == pytest.approx(0.019802, abs=1e-6)
    assert 3.8 <= float(rows[2][2]) <= 4.2
    assert 3.8 <= float(rows[3][2]) <= 4.2


def test_transference_deviation_of_constant_symbol(tmp_path):
    # The identity has zero deviation, so no ratio to the previous row exists.
    code, out = _run(["transference", "deviation", "--symbol", "identity"],
                     tmp_path, "dev.csv")
    assert code == 0
    rows = _load_csv(out)
    assert [r[1:] for r in rows[1:]] == [["0.0", ""]] * 3


def test_transference_gaussian_resolved_eps(tmp_path):
    # At |center| = 1 the node step at eps = 1e-16 is above 2^20 float spacings.
    code, out = _run(["transference", "gaussian", "--symbol", "identity",
                      "--eps-start", "1e-16", "--halvings", "0"], tmp_path, "gauss.csv")
    assert code == 0
    assert float(_load_csv(out)[1][3]) < 1e-8


@pytest.mark.parametrize("eps", ["1e-20", "1e-28", "1e-34"])
def test_transference_gaussian_unresolved_eps_is_refused(tmp_path, eps):
    code, out = _run(["transference", "gaussian", "--symbol", "identity",
                      "--eps-start", eps, "--halvings", "0"], tmp_path, "gauss.csv")
    assert code == 2
    assert not out.exists()


def test_transference_gaussian_identity(tmp_path):
    code, out = _run(["transference", "gaussian", "--symbol", "identity",
                      "--j", "0,1", "--k", "0,1", "--eps-start", "1",
                      "--halvings", "3"], tmp_path, "gauss.csv")
    assert code == 0
    rows = _load_csv(out)
    for row in rows[1:]:
        assert float(row[3]) < 1e-8


def test_transference_shear(tmp_path):
    code, out = _run(["transference", "shear", "--grid", "8", "--blocks", "2",
                      "--n-shift", "2", "--p", "4", "--seed", "3"],
                     tmp_path, "shear.csv")
    assert code == 0
    rows = _load_csv(out)
    assert rows[1][3] == "True"
    assert float(rows[1][2]) <= 1e-9 * max(1.0, float(rows[1][1]))


def test_transference_shear_memory_does_not_grow_with_blocks(tmp_path):
    # Every shift moves all summands alike, so the command keeps only their
    # sum: its peak stays at a few arrays of 16 * 4^8 bytes (1 MiB) each, where
    # holding and rolling the 8 summands apart took 14, and scaling each draw
    # after its inverse FFT, with the last draw still held, took 6.
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code, _ = _run(["transference", "shear", "--grid", "4", "--blocks", "8"],
                       tmp_path, "shear.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5.5 * 16 * 4**8, peak


def test_search_restarts_beyond_beta_patterns(tmp_path):
    # 40 restarts at N = 5 ask for more betas than the 32 patterns there are.
    code, out = _run(["search-martingale", "--p", "4", "--n", "5", "--restarts", "40",
                      "--iters", "2", "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    assert len(json.loads(out.read_text())["notes"]["beta"]) == 5


def test_norms_tables(tmp_path):
    code, out = _run(["norms", "--family", "F", "--p", "4", "--z", "0,1"],
                     tmp_path, "norms.csv")
    assert code == 0
    rows = _load_csv(out)
    assert float(rows[1][3]) == pytest.approx(3.0)
    assert float(rows[2][3]) == pytest.approx(3.0 * math.sqrt(2.0))

    code, out = _run(["norms", "--family", "scaled", "--p", "4", "--c", "0.5,2"],
                     tmp_path, "scaled.csv")
    rows = _load_csv(out)
    assert float(rows[1][3]) == pytest.approx(3.0)
    assert float(rows[2][3]) == pytest.approx(6.0)
    assert rows[1][6] == "True" and rows[2][6] == "True"

    # The paper's family over a p = 4, tau = 1 store: certified_so_far is the best
    # stored ratio, re-verified, at p = 4 and empty at p = 1.5.
    store = tmp_path / "store"
    for n in ("2", "3"):
        assert main(["search-martingale", "--p", "4", "--tau", "1", "--n", n,
                     "--iters", "30", "--restarts", "2", "--store-dir", str(store)]) == 0
    best = max(verify_record(lookup_store(store, 4.0, 4.0, 1.0, N, "def2")) for N in (2, 3))
    code, out = _run(["norms", "--family", "vector", "--p", "4,1.5", "--tau", "1",
                      "--store-dir", str(store)], tmp_path, "vector.csv")
    assert code == 0
    rows = _load_csv(out)
    assert [float(r[3]) for r in rows[1:]] == [math.sqrt(10.0), math.sqrt(5.0)]
    assert float(rows[1][4]) == best
    assert float(rows[1][5]) == float(rows[1][3]) - best
    assert rows[2][4] == rows[2][5] == ""


def test_norms_prints_an_empty_target_outside_def2(tmp_path):
    # tau^2 = 2.25 is above p* - 1 = 2 at p = 1.5: no vector target, so empty
    # target and gap cells, as certify reports a null target_constant there.
    code, out = _run(["norms", "--family", "vector", "--p", "1.5", "--tau", "1.5"],
                     tmp_path, "no-target.csv")
    assert code == 0
    assert _load_csv(out)[1:] == [["vector", "1.5", "1.5", "", "", "", "False"]]


_NORMS_HEADER = ["family", "parameter", "p", "target", "certified_so_far", "gap",
                 "external_assumption"]


@pytest.mark.parametrize("family, flags, values, at_4, at_1_5, external", [
    *(pytest.param(fam, [], [""], [3.0], [2.0], ["False"], id=fam)
      for fam in ("beurling", "beurling-real", "beurling-imag", "beurling-matrix")),
    pytest.param("rotated", ["--theta", "0,0.4,-2"], ["0.0", "0.4", "-2.0"],
                 [3.0] * 3, [2.0] * 3, ["False"] * 3, id="rotated"),
    pytest.param("scaled", ["--c", "0.5,2"], ["0.5", "2.0"], [3.0, 6.0], [2.0, 4.0],
                 ["True"] * 2, id="scaled"),
    pytest.param("F", ["--z", "1,2j"], ["(1+0j)", "2j"], [3.0 * math.sqrt(2.0), 6.0],
                 [2.0 * math.sqrt(2.0), 4.0], ["False", "True"], id="F"),
    pytest.param("vector", ["--tau", "1"], ["1.0"], [math.sqrt(10.0)], [math.sqrt(5.0)],
                 ["False"], id="vector"),
])
def test_norms_row_per_family_value_and_p(tmp_path, family, flags, values, at_4, at_1_5,
                                          external):
    # p* - 1 is 3 at p = 4 and 2 at p = 1.5; the rows go p by p, value by value,
    # and with no store nothing is certified.
    code, out = _run(["norms", "--family", family, "--p", "4,1.5", *flags],
                     tmp_path, "norms.csv")
    assert code == 0
    header, *rows = _load_csv(out)
    assert header == _NORMS_HEADER
    assert [r[:3] for r in rows] == [[family, v, p] for p in ("4.0", "1.5") for v in values]
    assert [float(r[3]) for r in rows] == pytest.approx(at_4 + at_1_5, abs=1e-12)
    assert [r[4:6] for r in rows] == [["", ""]] * len(rows)
    assert [r[6] for r in rows] == external * 2


@pytest.mark.parametrize("args", [
    pytest.param(["--family", "scaled", "--c", "0"], id="scaled-c-0"),
    pytest.param(["--family", "F", "--z", "1+1j"], id="F-z-1+1j"),
])
def test_norms_refuses_a_parameter_before_reading_the_store(tmp_path, capsys, args):
    # A store file that is not JSON would exit 4 when read: a refused parameter
    # exits 2 first.
    store = tmp_path / "store"
    store.mkdir()
    (store / f"{store_key(4.0, 4.0, 0.0, 2, 'def2')}.json").write_text("{not json")
    code, out = _run(["norms", *args, "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and "store" not in err


def test_exit_code_invalid_config(tmp_path):
    code = main(["search-martingale", "--p", "0.5", "--n", "2",
                 "--store-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("args", [
    pytest.param(["certify", "beurling-real", "--p", "4", "--tau", "nan", "--n", "2"],
                 id="certify-tau-nan"),
    pytest.param(["certify", "rotated", "--p", "4", "--theta", "nan", "--n", "2"],
                 id="certify-theta-nan"),
    pytest.param(["certify", "beurling-real", "--p", "4", "--tau", "1e200", "--n", "2"],
                 id="certify-tau-1e200"),
    pytest.param(["search-martingale", "--p", "4", "--tau", "inf", "--n", "2"],
                 id="search-tau-inf"),
    pytest.param(["search-martingale", "--p", "4", "--tau", "nan", "--n", "2"],
                 id="search-tau-nan"),
    pytest.param(["search-martingale", "--p", "4", "--tau", "1e200", "--n", "2"],
                 id="search-tau-1e200"),
    pytest.param(["search-martingale", "--p", "4", "--n", "2", "--wall-cap", "nan"],
                 id="search-wall-cap-nan"),
    pytest.param(["transference", "shear", "--p", "nan"], id="shear-p-nan"),
    pytest.param(["transference", "gaussian", "--eps-start", "nan"], id="gaussian-eps-nan"),
    pytest.param(["transference", "gaussian", "--eps-start", "inf"], id="gaussian-eps-inf"),
    pytest.param(["transference", "gaussian", "--p0", "nan"], id="gaussian-p0-nan"),
    pytest.param(["transference", "gaussian", "--eps-start", "1e-320"],
                 id="gaussian-eps-subnormal"),
    pytest.param(["norms", "--family", "beurling", "--tau", "nan"], id="norms-tau-nan"),
    pytest.param(["norms", "--family", "vector", "--tau", "inf"], id="norms-vector-tau-inf"),
    pytest.param(["transference", "gaussian", "--halvings", "-1"],
                 id="gaussian-halvings-negative"),
    pytest.param(["transference", "deviation", "--n-doubling", "-3"],
                 id="deviation-doublings-negative"),
    # 64^8 points, 2 PiB of summands: refused before the first draw.
    pytest.param(["transference", "shear", "--grid", "64", "--blocks", "8"],
                 id="shear-oversized"),
])
def test_nonfinite_input_is_refused(tmp_path, args, capsys):
    store = tmp_path / "store"
    if args[0] != "transference":
        args = args + ["--store-dir", str(store)]
    code, out = _run(args, tmp_path)
    assert code == 2
    assert not out.exists()
    assert not list(store.glob("*.json"))
    if "--tau" in args:
        assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("scale, beta, p0", [
    # |d|^2 overflows to inf, so both moments are infinite.
    pytest.param(1e200, (1, 1), 4.0, id="1e200"),
    # Only ||F_N||_p^p overflows: the finite numerator over it would read 0.0.
    pytest.param(1e100, (1, -1), 1.2, id="1e100-p0-1.2"),
])
def test_certify_refuses_overflowing_tables(tmp_path, capsys, scale, beta, p0):
    # A moment out of floating-point range is refused without a numpy warning.
    seq = _scalar([np.full(2, scale), np.full((2, 2), scale)])
    inst, store = tmp_path / "inst.json", tmp_path / "store"
    write_json(inst, sequence_to_record(seq, beta, 0.0, ExponentConfig(4.0, p0), 0.0, 0,
                                        "def2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(["certify", "beurling-real", "--p", "4", "--p0", str(p0),
                          "--martingale", str(inst), "--store-dir", str(store)], tmp_path)
    assert code == 2
    assert not out.exists()
    assert not list(store.glob("*.json"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "not finite" in err and "RuntimeWarning" not in err


def test_warm_start_refuses_overflowing_tables(tmp_path, capsys):
    # The same tables stored at N = 3 warm-start an N = 4 search: the stored
    # record is re-verified before any ascent step and refused as a bad store
    # naming its file, without a numpy warning.
    seq = _scalar([np.full((2,) * k, 1e200) for k in (1, 2, 3)])
    store = tmp_path / "store"
    _store_record(store, sequence_to_record(seq, (1, 1, 1), 0.0, ExponentConfig(4.0),
                                            0.0, 0, "def2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(["search-martingale", "--p", "4", "--n", "4", "--iters", "30",
                          "--restarts", "2", "--store-dir", str(store)], tmp_path)
    assert code == 4
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "out of range" in err and "RuntimeWarning" not in err
    assert str(store / f"{store_key(4.0, 4.0, 0.0, 3, 'def2')}.json") in err
    assert lookup_store(store, 4.0, 4.0, 0.0, 4, "def2") is None


def test_certify_refuses_underflowing_tables(tmp_path, capsys):
    # |d|^2 underflows to 0, so ||F_N||_p is zero: refused before dividing.
    seq = _scalar([np.full(2, 1e-170), np.full((2, 2), 1e-170)])
    inst = tmp_path / "inst.json"
    write_json(inst, sequence_to_record(seq, (1, 1), 0.0, ExponentConfig(4.0), 0.0, 0, "def2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(["certify", "beurling-real", "--p", "4", "--martingale", str(inst),
                          "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 2
    assert not out.exists()
    assert "zero L^p norm" in capsys.readouterr().err


def _corrupt_search_n2(store, corrupt_n):
    (store / f"{store_key(4.0, 4.0, 0.0, corrupt_n, 'def2')}.json").write_text("{corrupt")
    return main(["search-martingale", "--p", "4", "--n", "2",
                 "--iters", "50", "--restarts", "2", "--store-dir", str(store)])


def test_exit_code_store_error(tmp_path):
    # An N = 2 search first reads the N = 1 record for its warm start.
    assert _corrupt_search_n2(tmp_path, 1) == 4


def test_exit_code_store_error_on_write(tmp_path):
    # It reads the N = 2 record to compare before it writes.
    assert _corrupt_search_n2(tmp_path, 2) == 4


def test_corrupt_key_fails_only_what_reads_it(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    # A corrupt record for tau = 1 at N = 2; the search below uses tau = 0.
    (store / f"{store_key(4.0, 4.0, 1.0, 2, 'def2')}.json").write_text("{corrupt")
    search = ["search-martingale", "--p", "4", "--iters", "50", "--restarts", "2",
              "--store-dir", str(store)]
    assert _run(search + ["--n", "2"], tmp_path, "n2.json")[0] == 0
    assert _run(search + ["--n", "3"], tmp_path, "n3.json")[0] == 0
    assert lookup_store(store, 4.0, 4.0, 0.0, 3, "def2") is not None
    assert _run(["norms", "--family", "beurling", "--p", "4", "--store-dir", str(store)],
                tmp_path, "norms.csv")[0] == 4


def test_old_single_file_store_is_refused(tmp_path):
    store = tmp_path / "store"
    for n in ("2", "3"):
        assert main(["search-martingale", "--p", "4", "--n", n, "--iters", "50",
                     "--restarts", "2", "--store-dir", str(store),
                     "--out", str(tmp_path / "s.json")]) == 0
    # The old layout: every record in one extremizers.json.
    records = dict(load_store(store))
    for path in store.glob("*.json"):
        path.unlink()
    write_json(store / "extremizers.json", records)
    code, out = _run(["norms", "--family", "beurling", "--p", "4",
                      "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 4
    assert not out.exists()


def test_certify_warm_start_from_store(tmp_path):
    store = tmp_path / "store"
    code = main(["search-martingale", "--p", "4", "--tau", "1", "--n", "2",
                 "--seed", "0", "--iters", "400", "--restarts", "8",
                 "--store-dir", str(store), "--out", str(tmp_path / "s.json")])
    assert code == 0
    code, out = _run(["certify", "beurling-real", "--p", "4", "--tau", "1",
                      "--n", "2", "--store-dir", str(store)],
                     tmp_path, "c.json")
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["notes"]["martingale_source"] == "store"
    assert rep["certified_lower_bound"] >= (52.0 / 21.0) ** 0.25 - 1e-6


def test_certify_invariant_guard_exits_crosscheck(tmp_path, monkeypatch):
    # A target below the certified bound is refused before the report is written
    # or the store touched: a cross-check failure, not a configuration error.
    monkeypatch.setattr("lpmult.cli.c_tau", lambda *a: 1.0)
    store = tmp_path / "store"
    code, _ = _run(["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", "2",
                    "--store-dir", str(store)], tmp_path)
    assert code == 3
    assert not list(store.glob("*.json"))


@pytest.mark.parametrize("command", [["search-martingale"], ["certify", "beurling-real"]])
def test_p0_above_p_is_refused(tmp_path, monkeypatch, command):
    # The witness transference needs p0 <= p, for a searched martingale too,
    # and the premise is refused before any search.
    def no_search(*args, **kwargs):
        raise AssertionError("search_extremal ran before p0 > p was refused")

    monkeypatch.setattr("lpmult.cli.search_extremal", no_search)
    store = tmp_path / "store"
    code, out = _run([*command, "--p", "4", "--p0", "8", "--n", "6",
                      "--store-dir", str(store)], tmp_path)
    assert code == 2
    assert not out.exists()
    assert not list(store.glob("*.json"))


def test_certify_search_warm_starts_and_stores(tmp_path):
    store = tmp_path / "store"
    flags = ["--p", "4", "--tau", "0.5", "--iters", "40", "--restarts", "2",
             "--store-dir", str(store)]
    code, out = _run(["search-martingale", *flags, "--n", "2"], tmp_path, "n2.json")
    assert code == 0
    n2 = json.loads(out.read_text())["achieved_ratio"]
    certify = ["certify", "beurling-real", *flags, "--n", "3"]
    code, out = _run(certify, tmp_path, "n3.json")
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["notes"]["martingale_source"] == "search"
    assert rep["certified_lower_bound"] >= n2 - 1e-12
    rec = lookup_store(store, 4.0, 4.0, 0.5, 3, "def2")
    assert rec["ratio"] == rep["certified_lower_bound"]
    code, out = _run(certify, tmp_path, "again.json")
    assert code == 0
    again = json.loads(out.read_text())
    assert again["notes"]["martingale_source"] == "store"
    assert again["certified_lower_bound"] == rep["certified_lower_bound"]


@pytest.mark.parametrize("payload", [{"tables": []}, [1, 2]], ids=["missing-m", "list"])
def test_malformed_martingale_file_is_refused(tmp_path, payload):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    code, out = _run(["certify", "beurling-real", "--p", "4", "--n", "2",
                      "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                     tmp_path)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [
    pytest.param(["search-martingale", "--n", "3", "--iters", "30", "--restarts", "2"],
                 id="warm-start"),
    pytest.param(["certify", "beurling-real", "--n", "2"], id="certify"),
    pytest.param(["norms", "--family", "beurling"], id="norms"),
])
def test_store_record_missing_field_exits_store_error(tmp_path, command):
    seq = _scalar([np.ones(2), np.ones((2, 2))])
    rec = sequence_to_record(seq, (1, 1), 0.0, ExponentConfig(4.0), 1.0, 0, "def2")
    del rec["ratio"]
    store = tmp_path / "store"
    store.mkdir()
    key = store_key(4.0, 4.0, 0.0, 2, "def2")
    write_json(store / f"{key}.json", {key: rec})
    code, out = _run([*command, "--p", "4", "--store-dir", str(store)], tmp_path)
    assert code == 4
    assert not out.exists()


def _store_record(store, rec, **changes):
    """Write rec with changes under rec's key, in update_store's layout, unchecked."""
    key = store_key(rec["p"], rec["p0"], rec["tau"], rec["N"], rec["predicate"])
    store.mkdir(exist_ok=True)
    write_json(store / f"{key}.json", {key: dict(rec, **changes)})


def _random_record(rng, N, tau=0.0):
    """A store record of random scalar tables and beta at p = 4, with its ratio."""
    seq = _scalar(rng.standard_normal((2,) * k) + 1j * rng.standard_normal((2,) * k)
                  for k in range(1, N + 1))
    beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
    exps = ExponentConfig(4.0)
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
    return sequence_to_record(seq, beta, tau, exps, ratio, 0, "def2")


def test_norms_refuses_a_tampered_ratio(tmp_path, capsys):
    store = tmp_path / "store"
    rng = np.random.default_rng(np.random.PCG64(3))
    good, tampered = _random_record(rng, 2), _random_record(rng, 3)
    _store_record(store, good)
    _store_record(store, tampered, ratio=2.99)
    code, out = _run(["norms", "--family", "beurling", "--p", "4",
                      "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 4
    assert not out.exists()
    assert "does not reproduce" in capsys.readouterr().err
    # The same store with the record as written prints its ratio.
    _store_record(store, tampered)
    code, out = _run(["norms", "--family", "beurling", "--p", "4",
                      "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 0
    best = max(good["ratio"], tampered["ratio"])
    assert _load_csv(out)[1][4] == repr(best)
    # A tampered ratio below the good record's, so never its cell's best, fails
    # as well: every record norms reads is re-verified.
    out.unlink()
    capsys.readouterr()
    _store_record(store, tampered, ratio=min(good["ratio"], tampered["ratio"]) / 2)
    [path] = store.glob("*,N=3,*.json")
    code, out = _run(["norms", "--family", "beurling", "--p", "4",
                      "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(path) in err and "does not reproduce" in err


@pytest.mark.parametrize("damage", ["ratio", "corrupt"])
def test_store_write_refuses_a_record_it_cannot_re_verify(tmp_path, capsys, damage):
    # The N = 3 record the search would be compared with has its ratio set to
    # 2.99, which its tables do not give, or its file is corrupt: exit 4 naming
    # the file, which stays byte for byte, and no --out file.
    store = tmp_path / "store"
    _store_record(store, _random_record(np.random.default_rng(np.random.PCG64(5)), 3),
                  ratio=2.99)
    [path] = store.glob("*.json")
    if damage == "corrupt":
        path.write_text("{corrupt")
    before = path.read_bytes()
    code, out = _run(["search-martingale", "--p", "4", "--n", "3", "--iters", "200",
                      "--restarts", "8", "--seed", "5", "--store-dir", str(store)], tmp_path)
    assert code == 4
    assert str(path) in capsys.readouterr().err
    assert path.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("entry", [pytest.param(1e200, id="1e200"),
                                   pytest.param(0.0, id="zero")])
@pytest.mark.parametrize("command", [
    pytest.param(["norms", "--family", "beurling"], id="norms"),
    pytest.param(["search-martingale", "--n", "2", "--iters", "30", "--restarts", "2"],
                 id="store-write"),
    pytest.param(["certify", "beurling-real", "--n", "2"], id="certify"),
    pytest.param(["search-martingale", "--n", "3", "--iters", "30", "--restarts", "2"],
                 id="warm-start"),
])
def test_stored_record_out_of_range_exits_store_error(tmp_path, capsys, command, entry):
    # An N = 2 record whose moments overflow (1e200) or vanish (zeros) makes no
    # ratio: norms, the store write that re-verifies it, certify from the store
    # and the warm start from it exit 4 naming its file, which stays byte for
    # byte, and leave no --out file.
    store = tmp_path / "store"
    seq = _scalar([np.full(2, entry), np.full((2, 2), entry)])
    _store_record(store, sequence_to_record(seq, (1, 1), 0.0, ExponentConfig(4.0), 1.0, 0,
                                            "def2"))
    [path] = store.glob("*.json")
    before = path.read_bytes()
    code, out = _run([*command, "--p", "4", "--store-dir", str(store)], tmp_path)
    assert code == 4
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    assert path.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("command", [
    pytest.param(["certify", "beurling-real", "--n", "3"], id="certify"),
    pytest.param(["search-martingale", "--n", "4", "--iters", "30", "--restarts", "2"],
                 id="warm-start"),
])
def test_stored_ratio_that_does_not_reproduce_exits_store_error(tmp_path, capsys, command):
    # certify from the store and the warm start re-verify the N = 3 record they
    # read: a ratio of 2.99, which its tables do not give, exits 4 naming the
    # file, which stays byte for byte, and leaves no --out file.
    store = tmp_path / "store"
    _store_record(store, _random_record(np.random.default_rng(np.random.PCG64(5)), 3),
                  ratio=2.99)
    [path] = store.glob("*.json")
    before = path.read_bytes()
    code, out = _run([*command, "--p", "4", "--store-dir", str(store)], tmp_path)
    assert code == 4
    err = capsys.readouterr().err
    assert str(path) in err and "does not reproduce" in err
    assert path.read_bytes() == before
    assert not out.exists()
    assert lookup_store(store, 4.0, 4.0, 0.0, 4, "def2") is None


def test_unwritable_out_writes_no_store_record(tmp_path, capsys):
    # --out is opened before the store write, so a directory there stores nothing.
    store, out = tmp_path / "store", tmp_path / "out"
    out.mkdir()
    assert main(["certify", "beurling-real", "--p", "4", "--n", "3", "--iters", "20",
                 "--restarts", "2", "--store-dir", str(store), "--out", str(out)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert not list(store.glob("*.json"))


@pytest.mark.parametrize("command", [
    ["norms", "--family", "beurling", "--p", "4"],
    ["transference", "gaussian", "--symbol", "identity", "--halvings", "2"],
], ids=["norms", "transference-gaussian"])
def test_out_gets_its_directories_made(tmp_path, capsys, command):
    assert main(command) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "new" / "dir" / "x.csv"
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("field, value", [
    ("ratio", "x"), ("ratio", True), ("p", "4"), ("p0", None), ("tau", [0.0]),
    ("N", 3.0), ("N", True), ("m", "1"), ("predicate", 1), ("tables", {}),
    ("beta", "++-"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_store_record_of_wrong_type_is_refused(tmp_path, capsys, field, value):
    store = tmp_path / "store"
    rng = np.random.default_rng(np.random.PCG64(4))
    _store_record(store, _random_record(rng, 2))
    bad = _random_record(rng, 3)
    _store_record(store, bad, **{field: value})
    code, out = _run(["norms", "--family", "beurling", "--p", "4",
                      "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 4
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(StoreError):
        lookup_store(store, 4.0, 4.0, 0.0, 3, "def2")


def _cut_table(rec):
    rec["tables"][2] = rec["tables"][2][:5]


def _letter(rec):
    rec["tables"][2][0][0] = "x"


def _nan(rec):
    rec["tables"][2][0][0] = math.nan


def _beta_cut(rec):
    rec["beta"] = rec["beta"][:2]


def _beta_entry_2(rec):
    rec["beta"][1] = 2


def _fourth_table(rec):
    rec["tables"].append([[0.0, 0.0]] * 16)


def _N_5(rec):
    rec["N"] = 5


def _beta_true(rec):
    rec["beta"] = [True if b == 1 else b for b in rec["beta"]]
    assert True in rec["beta"]


def _table_object(rec):
    rec["tables"][2][0][0] = {"re": 1.0}


def _N_5_record(rec):
    # A complete record, but of another key: only a store file can hold it.
    rec.update(_random_record(np.random.default_rng(np.random.PCG64(7)), 5))


# Each changes an N = 3 record in place so that it makes no martingale of its key.
_MALFORMED_RECORDS = [pytest.param(f, id=f.__name__.strip("_"))
                      for f in (_cut_table, _letter, _nan, _beta_cut, _beta_entry_2,
                                _fourth_table, _N_5, _beta_true, _table_object,
                                _N_5_record)]


@pytest.mark.parametrize("malform", _MALFORMED_RECORDS)
@pytest.mark.parametrize("command", [
    pytest.param(["norms", "--family", "beurling"], id="norms"),
    pytest.param(["certify", "beurling-real", "--n", "3"], id="certify"),
    pytest.param(["search-martingale", "--n", "4", "--iters", "30", "--restarts", "2"],
                 id="warm-start"),
])
def test_stored_record_that_makes_no_martingale_exits_store_error(tmp_path, capsys,
                                                                   command, malform):
    # An N = 3 record that makes no martingale of its key is a bad store,
    # refused with exit 4 and the record's file named, whichever flow reads it.
    store = tmp_path / "store"
    rec = _random_record(np.random.default_rng(np.random.PCG64(6)), 3)
    bad = copy.deepcopy(listed(rec))
    malform(bad)
    _store_record(store, rec, **bad)
    code, out = _run([*command, "--p", "4", "--store-dir", str(store)], tmp_path)
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(store / f"{store_key(4.0, 4.0, 0.0, 3, 'def2')}.json") in err
    assert "Traceback" not in err
    assert lookup_store(store, 4.0, 4.0, 0.0, 4, "def2") is None


def _beta_int(rec):
    rec["beta"] = 5


def _tables_int(rec):
    rec["tables"] = 7


@pytest.mark.parametrize("malform", [
    *_MALFORMED_RECORDS[:-1],  # N_5_record is valid here
    # A store file of these fails its field types; a --martingale file has none.
    *(pytest.param(f, id=f.__name__.strip("_")) for f in (_beta_int, _tables_int)),
])
def test_martingale_file_that_makes_no_martingale_exits_config_error(tmp_path, capsys,
                                                                     malform):
    rec = listed(_random_record(np.random.default_rng(np.random.PCG64(6)), 3))
    malform(rec)
    inst = tmp_path / "inst.json"
    write_json(inst, rec)
    code, out = _run(["certify", "beurling-real", "--p", "4", "--n", "3",
                      "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                     tmp_path)
    assert code == 2
    assert not out.exists()
    assert "invalid configuration" in capsys.readouterr().err


def test_norms_holds_one_record_at_a_time(tmp_path):
    # N = 11..14 records of one cell, each better than the last, so norms
    # verifies every one of them as it reads it.  Its peak over them all is its
    # peak over the N = 14 record alone: it holds no earlier record.
    store, alone = tmp_path / "store", tmp_path / "alone"
    rng = np.random.default_rng(np.random.PCG64(5))
    best = 0.0
    for N in range(11, 15):
        rec = _random_record(rng, N)
        while rec["ratio"] <= best:
            rec = _random_record(rng, N)
        best = rec["ratio"]
        _store_record(store, rec)
    _store_record(alone, rec)
    earlier = sum(t.nbytes for _, r in load_store(store) if r["N"] < 14 for t in r["tables"])

    def peak(store_dir):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = _run(["norms", "--family", "beurling", "--p", "4",
                           "--store-dir", str(store_dir)], tmp_path, "norms.csv")
            return tracemalloc.get_traced_memory()[1] - base, result
        finally:
            tracemalloc.stop()

    peak(store)  # first-call caches are not the records' memory
    used_alone, (code, _) = peak(alone)
    assert code == 0
    used, (code, out) = peak(store)
    assert code == 0
    assert _load_csv(out)[1][4] == repr(best)
    assert used - used_alone < 0.5 * earlier, (used, used_alone, earlier)


def test_certify_wall_time_covers_search(tmp_path, monkeypatch):
    def slow_search(*args, **kwargs):
        time.sleep(0.2)
        return search_extremal(*args, **kwargs)

    monkeypatch.setattr("lpmult.cli.search_extremal", slow_search)
    code, out = _run(["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", "2",
                      "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["wall_time_s"] >= 0.2


def _scalar_record(tmp_path, N, seed):
    """A random scalar martingale file and its enumerated ratio at p = 4, tau = 1."""
    rec = _random_record(np.random.default_rng(np.random.PCG64(seed)), N, tau=1.0)
    inst = tmp_path / "inst.json"
    write_json(inst, rec)
    return inst, rec["ratio"]


def test_certify_matrix_family_from_scalar_record(tmp_path):
    # Scalar tables certify the matrix form as their zero-padded C^2 embedding,
    # whose enumerated ratio is the scalar one bit for bit.
    inst, ratio = _scalar_record(tmp_path, 6, 13)
    for family in ("beurling-real", "beurling-matrix"):
        code, out = _run(["certify", family, "--p", "4", "--tau", "1", "--n", "6",
                          "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                         tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["achieved_ratio"] == ratio


def _vector_instance(tmp_path):
    """A C^2-valued N = 2 martingale file and its enumerated ratio at p = 4, tau = 1."""
    rng = np.random.default_rng(np.random.PCG64(5))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (2,)) + 1j * rng.standard_normal((2,) * k + (2,))
        for k in (1, 2)))
    exps = ExponentConfig(4.0)
    ratio = perturbed_ratio_exact(seq, TransformConfig((1, -1), 1.0), exps)
    inst = tmp_path / "inst.json"
    write_json(inst, sequence_to_record(seq, (1, -1), 1.0, exps, ratio, 0, "def2"))
    return inst, ratio


@pytest.mark.parametrize("family", ["beurling-real", "beurling-imag", "rotated", "vector"])
def test_scalar_family_refuses_vector_tables(tmp_path, capsys, family):
    inst, _ = _vector_instance(tmp_path)
    store = tmp_path / "store"
    code, out = _run(["certify", family, "--p", "4", "--tau", "1", "--martingale", str(inst),
                      "--store-dir", str(store)], tmp_path)
    assert code == 2
    assert "scalar witnesses need scalar (m = 1) martingale tables" in capsys.readouterr().err
    assert not out.exists()
    assert not list(store.glob("*.json"))


def test_matrix_family_certifies_vector_tables(tmp_path):
    inst, ratio = _vector_instance(tmp_path)
    code, out = _run(["certify", "beurling-matrix", "--p", "4", "--tau", "1",
                      "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                     tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["achieved_ratio"] == ratio


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_nonfinite_tau_with_martingale_file_is_refused(tmp_path, capsys, tau):
    # No search runs, so the refusal is the transform's own check of tau.
    inst, _ = _scalar_record(tmp_path, 2, 3)
    code, out = _run(["certify", "beurling-real", "--p", "4", "--tau", tau,
                      "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                     tmp_path)
    assert code == 2
    assert "tau must be finite with a finite square" in capsys.readouterr().err
    assert not out.exists()


def test_search_records_what_stopped_it(tmp_path):
    args = ["search-martingale", "--p", "4", "--tau", "0.5", "--n", "3",
            "--seed", "5", "--iters", "30", "--restarts", "2"]
    code, out = _run(args + ["--wall-cap", "1e-9", "--store-dir", str(tmp_path / "s1")],
                     tmp_path, "wall.json")
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["notes"]["stopped_by"] == "wall"
    seq, beta = sequence_from_record(lookup_store(tmp_path / "s1", 4.0, 4.0, 0.5, 3, "def2"))
    assert list(beta) == rep["notes"]["beta"]
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), ExponentConfig(4.0))
    assert ratio == rep["achieved_ratio"]
    code, out = _run(args + ["--store-dir", str(tmp_path / "s2")], tmp_path, "iters.json")
    assert code == 0
    assert json.loads(out.read_text())["notes"]["stopped_by"] == "iters"


def test_certify_records_what_stopped_the_search(tmp_path):
    args = ["certify", "beurling-real", "--p", "4", "--tau", "0.5", "--n", "3",
            "--seed", "5", "--iters", "30", "--restarts", "2"]
    for extra, stopped_by in ((["--wall-cap", "1e-9"], "wall"), ([], "iters")):
        code, out = _run(args + extra + ["--store-dir", str(tmp_path / stopped_by)],
                         tmp_path, f"{stopped_by}.json")
        assert code == 0
        notes = json.loads(out.read_text())["notes"]
        assert notes["martingale_source"] == "search"
        assert notes["stopped_by"] == stopped_by


def test_certify_depth_12_from_file(tmp_path):
    # 4^13 torus points would be 1 GiB per complex array; the factored
    # certificate enumerates the 2^13 sign patterns instead.
    N = 12
    inst, ratio = _scalar_record(tmp_path, N, 12)
    code, out = _run(["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", str(N),
                      "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                     tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["N"] == N
    assert rep["achieved_ratio"] == rep["certified_lower_bound"] == ratio
    assert rep["notes"]["certificate"] == "factored"
    assert "stopped_by" not in rep["notes"]


def _process(tmp_path, code):
    """Run Python code in a fresh process that imports this lpmult; (exit code, stdout)."""
    src = str(Path(lpmult.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, *code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_in_process_main_leaves_the_collector_as_it_was(tmp_path, enabled):
    # Only the process entry (argv None) freezes; main(argv) changes no GC state,
    # not even through the paused collector of the --martingale decode.
    inst, _ = _scalar_record(tmp_path, 4, 19)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        code, _ = _run(["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", "4",
                        "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                       tmp_path)
        assert code == 0
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_process_entry_freezes_the_imports(tmp_path):
    # The console script calls main() with no argv; so does python -m lpmult.cli.
    inst, _ = _scalar_record(tmp_path, 2, 19)
    script = ("import gc, sys\n"
              "from lpmult.cli import main\n"
              "sys.argv = ['lpmult', 'certify', 'beurling-real', '--p', '4', '--tau', '1',\n"
              f"            '--n', '2', '--martingale', {str(inst)!r}, '--out', 'rep.json']\n"
              "print(main(), gc.get_freeze_count())\n")
    code, stdout = _process(tmp_path, ["-c", script])
    assert code == 0
    exit_code, frozen = map(int, stdout.split())
    assert exit_code == 0
    assert frozen > 0
    assert (tmp_path / "rep.json").exists()


def test_module_entry_writes_the_in_process_report(tmp_path):
    inst, ratio = _scalar_record(tmp_path, 4, 19)
    args = ["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", "4",
            "--martingale", str(inst), "--store-dir", str(tmp_path / "store")]
    code, _ = _process(tmp_path, ["-m", "lpmult.cli", *args, "--out", "process.json"])
    assert code == 0
    assert _run(args, tmp_path, "in_process.json")[0] == 0
    reports = [json.loads((tmp_path / name).read_text())
               for name in ("process.json", "in_process.json")]
    for rep in reports:
        rep.pop("timestamp"), rep.pop("wall_time_s")
    assert reports[0] == reports[1]
    assert reports[0]["certified_lower_bound"] == ratio
