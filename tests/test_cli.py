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
from lpmult import cli, martingale, report, witness
from lpmult.catalog import beurling_real, ceiling, family_symbol
from lpmult.cli import main
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig,
                               perturbed_ratio_exact, search_extremal)
from lpmult.policy import solve_policy
from lpmult.report import (StoreError, load_store, lookup_store, sequence_from_record,
                           sequence_to_record, store_key, verify_record, write_json)
from test_report import den_overflow, listed


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
                      "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["achieved_ratio"] == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert rep["target_constant"] == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_search_determinism(tmp_path):
    args = ["search-martingale", "--p", "4", "--tau", "0.5", "--n", "2", "--iters", "150"]
    _, a = _run(args + ["--store-dir", str(tmp_path / "sa")], tmp_path, "a.json")
    _, b = _run(args + ["--store-dir", str(tmp_path / "sb")], tmp_path, "b.json")
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    for volatile in ("timestamp", "wall_time_s"):
        ra.pop(volatile), rb.pop(volatile)
    assert ra == rb


def test_ignored_search_flags_change_nothing(tmp_path, capsys):
    # --seed and --restarts stay accepted, unlisted in --help, until perfbench stops
    # passing them; they change no report field, and one stderr line says so.
    args = ["search-martingale", "--p", "4", "--tau", "0.5", "--n", "3", "--iters", "200"]
    reports = []
    for tag, extra in (("plain", []), ("flags", ["--seed", "9", "--restarts", "4"])):
        code, out = _run(args + extra + ["--store-dir", str(tmp_path / tag)], tmp_path,
                         f"{tag}.json")
        assert code == 0
        rep = json.loads(out.read_text())
        rep.pop("timestamp"), rep.pop("wall_time_s")
        reports.append((rep, capsys.readouterr().err))
    (plain, quiet), (flagged, note) = reports
    assert plain == flagged
    assert quiet == ""
    assert note == "note: --seed and --restarts are ignored: the search has no random starts\n"
    with pytest.raises(SystemExit):
        main(["search-martingale", "--help"])
    assert "--seed" not in capsys.readouterr().out


def test_search_process_imports_no_numpy_random(tmp_path):
    # The search draws no random number, so a search process never loads numpy.random.
    script = ("import sys\n"
              "from lpmult.cli import main\n"
              "sys.argv = ['lpmult', 'search-martingale', '--p', '4', '--n', '3',\n"
              "            '--iters', '30', '--store-dir', 'store', '--out', 'rep.json']\n"
              "print(main(), 'numpy.random' in sys.modules)\n")
    code, stdout = _process(tmp_path, ["-c", script])
    assert code == 0
    assert stdout.split() == ["0", "False"]


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


def test_norms_tables(tmp_path):
    code, out = _run(["norms", "--family", "F", "--p", "4", "--value", "0,1"],
                     tmp_path, "norms.csv")
    assert code == 0
    rows = _load_csv(out)
    assert float(rows[1][3]) == pytest.approx(3.0)
    assert float(rows[2][3]) == pytest.approx(3.0 * math.sqrt(2.0))

    code, out = _run(["norms", "--family", "scaled", "--p", "4", "--value", "0.5,2"],
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
                     "--iters", "30", "--store-dir", str(store)]) == 0
    best = max(verify_record(lookup_store(store, 4.0, 4.0, 1.0, N, "def2")) for N in (2, 3))
    code, out = _run(["norms", "--family", "vector", "--p", "4,1.5", "--value", "1",
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
    code, out = _run(["norms", "--family", "vector", "--p", "1.5", "--value", "1.5"],
                     tmp_path, "no-target.csv")
    assert code == 0
    assert _load_csv(out)[1:] == [["vector", "1.5", "1.5", "", "", "", "False"]]


_NORMS_HEADER = ["family", "parameter", "p", "target", "certified_so_far", "gap",
                 "external_assumption"]


@pytest.mark.parametrize("family, flags, values, at_4, at_1_5, external", [
    *(pytest.param(fam, [], [""], [3.0], [2.0], ["False"], id=fam)
      for fam in ("beurling", "beurling-real", "beurling-imag", "beurling-matrix")),
    pytest.param("rotated", ["--value", "0,0.4,-2"], ["0.0", "0.4", "-2.0"],
                 [3.0] * 3, [2.0] * 3, ["False"] * 3, id="rotated"),
    pytest.param("scaled", ["--value", "0.5,2"], ["0.5", "2.0"], [3.0, 6.0], [2.0, 4.0],
                 ["True"] * 2, id="scaled"),
    pytest.param("F", ["--value", "1,2j"], ["(1+0j)", "2j"], [3.0 * math.sqrt(2.0), 6.0],
                 [2.0 * math.sqrt(2.0), 4.0], ["False", "True"], id="F"),
    pytest.param("vector", ["--value", "1"], ["1.0"], [math.sqrt(10.0)], [math.sqrt(5.0)],
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


@pytest.mark.parametrize("args, message", [
    pytest.param(["--family", "scaled", "--value", "0"], "scaled family needs c != 0",
                 id="scaled-c-0"),
    pytest.param(["--family", "F", "--value", "1+1j"], "F(z) targets cover", id="F-z-1+1j"),
    # An absent value is 0, the library's default: c = 0 for scaled.
    pytest.param(["--family", "scaled"], "scaled family needs c != 0", id="scaled-no-value"),
    pytest.param(["--family", "beurling", "--value", "1"], "family beurling takes no value",
                 id="beurling-value"),
    pytest.param(["--family", "beurling-matrix", "--value", "0"],
                 "family beurling-matrix takes no value", id="matrix-value-0"),
    pytest.param(["--family", "rotated", "--value", ""], "could not convert", id="empty"),
    pytest.param(["--family", "vector", "--value", "0,x"], "could not convert",
                 id="unparsable"),
    pytest.param(["--family", "F", "--value", "1,j1"], "malformed string", id="F-unparsable"),
])
def test_norms_refuses_a_parameter_before_reading_the_store(tmp_path, capsys, args, message):
    # A store file that is not JSON would exit 4 when read: a refused parameter
    # exits 2 first.
    store = tmp_path / "store"
    store.mkdir()
    (store / f"{store_key(4.0, 4.0, 0.0, 2, 'def2')}.json").write_text("{not json")
    code, out = _run(["norms", *args, "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and message in err and "store" not in err


def test_norms_vector_grid_over_p_and_tau(tmp_path):
    # The paper's C^tau surface in one call: a row per p and tau, p by p, with
    # certified_so_far only in the one cell the store holds, p = 4 and tau = 1.
    store = tmp_path / "store"
    assert main(["search-martingale", "--p", "4", "--tau", "1", "--n", "2", "--iters", "30",
                 "--store-dir", str(store)]) == 0
    best = lookup_store(store, 4.0, 4.0, 1.0, 2, "def2")["ratio"]
    code, out = _run(["norms", "--family", "vector", "--p", "1.5,4", "--value", "0,0.5,1",
                      "--store-dir", str(store)], tmp_path, "grid.csv")
    assert code == 0
    rows = _load_csv(out)[1:]
    taus = (0.0, 0.5, 1.0)
    assert [r[1:3] for r in rows] == [[repr(t), p] for p in ("1.5", "4.0") for t in taus]
    assert [float(r[3]) for r in rows] == pytest.approx(
        [math.hypot(pstar1, t) for pstar1 in (2.0, 3.0) for t in taus], abs=1e-12)
    assert [r[4] for r in rows] == [""] * 5 + [repr(best)]
    assert float(rows[-1][5]) == float(rows[-1][3]) - best


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
    pytest.param(["norms", "--family", "vector", "--value", "nan"], id="norms-tau-nan"),
    pytest.param(["norms", "--family", "vector", "--value", "inf"], id="norms-vector-tau-inf"),
    # The pairing's prefactor overflows and its product turns NaN: refused with no warning.
    pytest.param(["transference", "gaussian", "--symbol", "identity", "--j", "0,0", "--k", "0,0",
                  "--eps-start", "1e-308", "--halvings", "0"], id="gaussian-pairing-overflow"),
    pytest.param(["transference", "gaussian", "--halvings", "-1"],
                 id="gaussian-halvings-negative"),
    pytest.param(["transference", "deviation", "--n-doubling", "-3"],
                 id="deviation-doublings-negative"),
    # A frequency whose square overflows makes a NaN deviation: refused with no warning.
    pytest.param(["transference", "deviation", "--support", "1" + "0" * 200 + ",0:1,0"],
                 id="deviation-overflow"),
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


_BOTH_HUGE = _scalar([np.full(2, 1e200), np.full((2, 2), 1e200)]), (1, 1)


@pytest.mark.parametrize("instance, tau", [
    # |d|^2 overflows to inf, so both moments are infinite.
    pytest.param(_BOTH_HUGE, 0.0, id="1e200"),
    # The same with tau^2 |F|^2 added to an infinite |G|^2.
    pytest.param(_BOTH_HUGE, 0.5, id="1e200-tau-0.5"),
    # Only ||F_N||_p^p overflows: the finite numerator over it would read 0.0.
    pytest.param(den_overflow(), 0.0, id="3e76-den-only"),
])
def test_certify_refuses_overflowing_tables(tmp_path, capsys, instance, tau):
    # A moment out of floating-point range is refused without a numpy warning.
    seq, beta = instance
    inst, store = tmp_path / "inst.json", tmp_path / "store"
    write_json(inst, sequence_to_record(seq, beta, tau, ExponentConfig(4.0), 0.0, 0, "def2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(["certify", "beurling-real", "--p", "4",
                          "--tau", str(tau), "--martingale", str(inst),
                          "--store-dir", str(store)], tmp_path)
    assert code == 2
    assert not out.exists()
    assert not list(store.glob("*.json"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "not finite" in err and "RuntimeWarning" not in err


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


def test_exit_code_store_error(tmp_path):
    # certify reads the N = 2 record before it would search.
    (tmp_path / f"{store_key(4.0, 4.0, 0.0, 2, 'def2')}.json").write_text("{corrupt")
    assert main(["certify", "beurling-real", "--p", "4", "--n", "2",
                 "--iters", "50", "--store-dir", str(tmp_path)]) == 4


def test_exit_code_store_error_on_write(tmp_path):
    # An N = 2 search reads the N = 2 record to compare before it writes.
    (tmp_path / f"{store_key(4.0, 4.0, 0.0, 2, 'def2')}.json").write_text("{corrupt")
    assert main(["search-martingale", "--p", "4", "--n", "2",
                 "--iters", "50", "--store-dir", str(tmp_path)]) == 4


def test_corrupt_key_fails_only_what_reads_it(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    # A corrupt record for tau = 1 at N = 2; the search below uses tau = 0.
    (store / f"{store_key(4.0, 4.0, 1.0, 2, 'def2')}.json").write_text("{corrupt")
    search = ["search-martingale", "--p", "4", "--iters", "50",
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
                     "--store-dir", str(store),
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
    code = main(["search-martingale", "--p", "4", "--tau", "1", "--n", "2", "--iters", "400",
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
    # A ceiling below the certified bound is refused before the report is written
    # or the store touched: a cross-check failure, not a configuration error.
    monkeypatch.setattr("lpmult.cli.ceiling", lambda *a: 1.0)
    store = tmp_path / "store"
    code, _ = _run(["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", "2",
                    "--store-dir", str(store)], tmp_path)
    assert code == 3
    assert not list(store.glob("*.json"))


@pytest.mark.parametrize("p, tau", [(4.0, 1.0), (1.5, 2.0)], ids=["p4", "p1.5-outside-def2"])
def test_certify_refuses_a_bound_above_the_proven_ceiling(tmp_path, monkeypatch, capsys, p, tau):
    # No ratio passes U = ceiling(p, tau), C^tau defined there or not: a bound above it
    # is a cross-check failure, with no --out file and no store record.
    upper = ceiling(ExponentConfig(p), tau)
    for module in (martingale, witness):
        monkeypatch.setattr(module, "perturbed_ratio_exact", lambda *a: upper + 1e-6)
    store = tmp_path / "store"
    code, out = _run(["search-martingale", "--p", str(p), "--tau", str(tau), "--n", "2",
                      "--iters", "30", "--store-dir", str(store)], tmp_path)
    assert code == 3
    assert not out.exists()
    assert not list(store.glob("*.json"))
    assert f"exceeds the proven ceiling {upper}" in capsys.readouterr().err


def test_certify_passes_c_tau_below_the_ceiling_at_p_below_two(tmp_path):
    # At p = 1.25, tau = 5 (outside def2) a depth-12 Bellman policy passes C^tau:
    # a certificate, since only U = ((p* - 1)^p + tau^p)^(1/p) bounds the ratio there.
    N, exps = 12, ExponentConfig(1.25)
    beta = tuple((-1) ** k for k in range(N))
    flat = solve_policy(1.25, 5.0, beta, N, 8).tables() + 0j
    seq = MartingaleDifferenceSequence(tuple(
        t.reshape((2,) * k + (1,)) for k, t in enumerate(martingale._levels(flat), start=1)))
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 5.0), exps)
    inst = tmp_path / "policy.json"
    write_json(inst, sequence_to_record(seq, beta, 5.0, exps, ratio, None, "def2"))
    code, out = _run(["certify", "beurling-real", "--p", "1.25", "--tau", "5", "--n", str(N),
                      "--martingale", str(inst), "--store-dir", str(tmp_path / "store")],
                     tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["certified_lower_bound"] == ratio
    assert rep["upper_bound"] == ceiling(exps, 5.0)
    assert rep["target_constant"] is None
    assert f"{math.hypot(4.0, 5.0):.6f}" == "6.403124" and f"{ratio:.6f}" == "6.678759"
    assert f"{rep['upper_bound']:.6f}" == "7.847060"


@pytest.mark.parametrize("command", [["search-martingale"], ["certify", "beurling-real"]])
def test_p0_flag_is_refused(tmp_path, monkeypatch, command):
    # A certificate has one exponent: --p0 is no flag of either command, refused
    # by the parser before any search.
    def no_search(*args, **kwargs):
        raise AssertionError("search_extremal ran with --p0 given")

    monkeypatch.setattr("lpmult.cli.search_extremal", no_search)
    store, out = tmp_path / "store", tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--p", "4", "--p0", "2", "--n", "6", "--store-dir", str(store),
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert not list(store.glob("*.json"))


@pytest.mark.parametrize("argv, error", [
    (["certify", "beurling-real", "--p", "4", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["nosuch"], "invalid choice: 'nosuch'"),
    ([], "the following arguments are required: command")])
def test_usage_names_all_four_commands(capsys, argv, error):
    # A command's process builds its own subparser alone; its usage line still names all four.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: lpmult [-h] [--version]\n"
                          "              {search-martingale,certify,transference,norms} ...\n")
    assert err.splitlines()[-1].startswith("lpmult: error: ") and error in err.splitlines()[-1]
    with pytest.raises(SystemExit):
        cli.build_parser("certify").parse_args(["norms", "--family", "beurling"])
    assert "invalid choice: 'norms'" in capsys.readouterr().err


def test_certify_search_stores_what_a_second_certify_reads(tmp_path):
    store = tmp_path / "store"
    flags = ["--p", "4", "--tau", "0.5", "--iters", "40",
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
                      "--store-dir", str(store)], tmp_path)
    assert code == 4
    assert str(path) in capsys.readouterr().err
    assert path.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("entry", [pytest.param(1e200, id="1e200"),
                                   pytest.param(0.0, id="zero")])
@pytest.mark.parametrize("command", [
    pytest.param(["norms", "--family", "beurling"], id="norms"),
    pytest.param(["search-martingale", "--n", "2", "--iters", "30"],
                 id="store-write"),
    pytest.param(["certify", "beurling-real", "--n", "2"], id="certify"),
])
def test_stored_record_out_of_range_exits_store_error(tmp_path, capsys, command, entry):
    # An N = 2 record whose moments overflow (1e200) or vanish (zeros) makes no
    # ratio: norms, the store write that re-verifies it and certify from the
    # store exit 4 naming its file, which stays byte for byte, and leave no
    # --out file.
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
])
def test_stored_ratio_that_does_not_reproduce_exits_store_error(tmp_path, capsys, command):
    # certify from the store re-verifies the N = 3 record it reads: a ratio of
    # 2.99, which its tables do not give, exits 4 naming the file, which stays
    # byte for byte, and leaves no --out file.
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


def test_unwritable_out_writes_no_store_record(tmp_path, capsys):
    # --out is opened before the store write, so a directory there stores nothing.
    store, out = tmp_path / "store", tmp_path / "out"
    out.mkdir()
    assert main(["certify", "beurling-real", "--p", "4", "--n", "3", "--iters", "20",
                 "--store-dir", str(store), "--out", str(out)]) == 2
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


def test_stored_record_with_p0_not_p_exits_store_error(tmp_path, capsys):
    # A legacy p = 4 record with p0 = 2.0, under its own key and with its own
    # ratio there, is no L^p certificate: every reader refuses it, naming its file.
    store = tmp_path / "store"
    rec = dict(_random_record(np.random.default_rng(np.random.PCG64(4)), 3), p0=2.0)
    _store_record(store, rec)
    path = store / f"{store_key(4.0, 2.0, 0.0, 3, 'def2')}.json"
    assert path.exists()
    code, out = _run(["norms", "--family", "beurling", "--p", "4",
                      "--store-dir", str(store)], tmp_path, "norms.csv")
    assert code == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    with pytest.raises(StoreError, match="p0 = 2.0 is not p = 4.0"):
        lookup_store(store, 4.0, 2.0, 0.0, 3, "def2")
    with pytest.raises(ValueError, match="p0 = 2.0 is not p = 4.0"):
        verify_record(rec)


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


def _N_true(rec):
    # One table and N = true, which equals 1 but is no integer.
    rec.update(tables=rec["tables"][:1], beta=rec["beta"][:1], N=True)


def _N_float(rec):
    rec.update(tables=rec["tables"][:1], beta=rec["beta"][:1], N=1.0)


def _m_minus_1(rec):
    # reshape would read m = -1 as "infer", so the tables alone would set m.
    rec["m"] = -1


def _N_5_record(rec):
    # A complete record, but of another key: only a store file can hold it.
    rec.update(_random_record(np.random.default_rng(np.random.PCG64(7)), 5))


# Each changes an N = 3 record in place so that it makes no martingale of its key.
_MALFORMED_RECORDS = [pytest.param(f, id=f.__name__.strip("_"))
                      for f in (_cut_table, _letter, _nan, _beta_cut, _beta_entry_2,
                                _fourth_table, _N_5, _beta_true, _table_object,
                                _m_minus_1, _N_5_record)]


@pytest.mark.parametrize("malform", _MALFORMED_RECORDS)
@pytest.mark.parametrize("command", [
    pytest.param(["norms", "--family", "beurling"], id="norms"),
    pytest.param(["certify", "beurling-real", "--n", "3"], id="certify"),
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


def _overflow(rec):
    rec["tables"] = [[[1e200, 1e200] for _ in t] for t in rec["tables"]]


def _zero(rec):
    rec["tables"] = [[[0.0, 0.0] for _ in t] for t in rec["tables"]]


def _no_ratio(rec):
    del rec["ratio"]


def _ratio_2_99(rec):
    rec["ratio"] = 2.99


def _corrupt(rec):
    return "{corrupt"  # the whole file's text, in place of the record


@pytest.mark.parametrize("malform", [
    *_MALFORMED_RECORDS,
    *(pytest.param(f, id=f.__name__.strip("_"))
      for f in (_overflow, _zero, _no_ratio, _ratio_2_99, _corrupt)),
])
def test_search_beside_a_bad_record_below_never_reads_it(tmp_path, capsys, malform):
    # A search starts from no store record, so an N = 4 search beside an N = 3
    # record that is corrupt, out of range or makes no martingale of its key
    # exits 0, stores its own record and leaves that file byte for byte.
    store = tmp_path / "store"
    bad = copy.deepcopy(listed(_random_record(np.random.default_rng(np.random.PCG64(6)), 3)))
    text = malform(bad)
    key = store_key(4.0, 4.0, 0.0, 3, "def2")
    path = store / f"{key}.json"
    store.mkdir()
    if text is None:
        write_json(path, {key: bad})
    else:
        path.write_text(text)
    before = path.read_bytes()
    code, out = _run(["search-martingale", "--p", "4", "--n", "4", "--iters", "30",
                      "--store-dir", str(store)], tmp_path)
    assert code == 0, capsys.readouterr().err
    assert path.read_bytes() == before
    assert json.loads(out.read_text())["N"] == 4
    assert lookup_store(store, 4.0, 4.0, 0.0, 4, "def2") is not None


def test_search_beside_overflowing_tables_below_warns_nothing(tmp_path, capsys):
    # The same 1e200 tables that certify refuses, stored at N = 3, sit beside an
    # N = 4 search: it never reads them, so it exits 0 without a numpy warning
    # and leaves their file byte for byte.
    seq = _scalar([np.full((2,) * k, 1e200) for k in (1, 2, 3)])
    store = tmp_path / "store"
    _store_record(store, sequence_to_record(seq, (1, 1, 1), 0.0, ExponentConfig(4.0),
                                            0.0, 0, "def2"))
    [path] = store.glob("*.json")
    before = path.read_bytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(["search-martingale", "--p", "4", "--n", "4", "--iters", "30",
                          "--store-dir", str(store)], tmp_path)
    assert code == 0, capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert path.read_bytes() == before
    assert json.loads(out.read_text())["N"] == 4
    assert lookup_store(store, 4.0, 4.0, 0.0, 4, "def2") is not None


def test_search_martingale_looks_up_no_store_record(tmp_path, monkeypatch):
    def reached(*args):
        raise AssertionError("search-martingale looked up a store record")

    monkeypatch.setattr("lpmult.cli.lookup_store", reached)
    store = tmp_path / "store"
    for n in ("2", "3"):  # the N = 2 record is in the store when N = 3 searches
        code, _ = _run(["search-martingale", "--p", "4", "--n", n, "--iters", "30",
                        "--store-dir", str(store)], tmp_path)
        assert code == 0
    assert len(list(store.glob("*.json"))) == 2


def _beta_int(rec):
    rec["beta"] = 5


def _tables_int(rec):
    rec["tables"] = 7


@pytest.mark.parametrize("malform", [
    *_MALFORMED_RECORDS[:-1],  # N_5_record is valid here
    # A store file of these fails its field types; a --martingale file has none.
    *(pytest.param(f, id=f.__name__.strip("_"))
      for f in (_beta_int, _tables_int, _N_true, _N_float)),
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
    assert not list((tmp_path / "store").glob("*.json"))
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


@pytest.mark.parametrize("store_n, record, flags, message", [
    (2, "corrupt", ["search-martingale", "--n", "3", "--iters", "0"],
     "budget fields must be positive"),
    (2, "valid", ["search-martingale", "--n", "3", "--iters", "0"],
     "budget fields must be positive"),
    (20, "corrupt", ["search-martingale", "--n", "21"],
     "depth must be in 1..20, got 21"),
    (3, "valid", ["certify", "beurling-real", "--n", "3", "--iters", "0"],
     "budget fields must be positive"),
    (2, "file", ["certify", "beurling-real", "--wall-cap", "nan"],
     "budget fields must be positive"),
], ids=["search-budget-corrupt", "search-budget-valid", "search-depth-corrupt",
        "certify-budget-store", "certify-wall-cap-file"])
def test_a_bad_flag_is_refused_before_any_file_is_read(tmp_path, capsys, monkeypatch, store_n,
                                                       record, flags, message):
    # Every search flag is checked before the store or the --martingale file is
    # read, whether or not the run searches: a corrupt record would exit 4 when
    # read, and a valid record or file costs its re-verifying enumeration.
    store = tmp_path / "store"
    if record == "corrupt":
        store.mkdir()
        (store / f"{store_key(4.0, 4.0, 0.0, store_n, 'def2')}.json").write_text("{not json")
    elif record == "valid":
        _store_record(store, _random_record(np.random.default_rng(np.random.PCG64(3)), store_n))
    else:
        flags = flags + ["--martingale", str(_scalar_record(tmp_path, store_n, 3)[0])]

    def reached(*args):
        raise AssertionError("a file was read or an enumeration ran with a bad flag")

    for module, name in [(report, "perturbed_ratio_exact"), (martingale, "perturbed_ratio_exact"),
                         (witness, "perturbed_ratio_exact"), (cli, "read_martingale"),
                         (cli, "lookup_store")]:
        monkeypatch.setattr(module, name, reached)
    code, out = _run(flags + ["--p", "4", "--store-dir", str(store)], tmp_path)
    assert code == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_shear_refuses_p_before_any_draw(tmp_path, capsys, monkeypatch):
    # At the point cap the draws peak near 1 GiB; p < 1 exits 2 before the first.
    def reached(*args, **kwargs):
        raise AssertionError("a summand was drawn with a bad p")

    monkeypatch.setattr(np.fft, "ifftn", reached)
    code, out = _run(["transference", "shear", "--grid", "8", "--blocks", "8", "--p", "0.5"],
                     tmp_path, "shear.csv")
    assert code == 2
    assert not out.exists()
    assert "p must be >= 1" in capsys.readouterr().err


def test_search_records_what_stopped_it(tmp_path):
    args = ["search-martingale", "--p", "4", "--tau", "0.5", "--n", "3", "--iters", "30"]
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
    args = ["certify", "beurling-real", "--p", "4", "--tau", "0.5", "--n", "3", "--iters", "30"]
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
