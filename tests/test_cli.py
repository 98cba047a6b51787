"""Command-line interface: subcommands, exit codes, and determinism."""

import csv
import json
import math
import time

import numpy as np
import pytest

from lpmult.catalog import beurling_imag, beurling_real, rotated
from lpmult.cli import main
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig,
                               perturbed_ratio_exact, search_extremal)
from lpmult.report import lookup_store, sequence_from_record, sequence_to_record


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
    inst.write_text(json.dumps(rec))

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
    seq = MartingaleDifferenceSequence.scalar(
        rng.standard_normal((2,) * k) + 1j * rng.standard_normal((2,) * k)
        for k in range(1, 4))
    beta = (1, -1, 1)
    exps = ExponentConfig(4.0)
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(sequence_to_record(seq, beta, 0.5, exps, ratio, 0, "def2")))

    # The recorded reduction symbol(xi) = s * Re B(R_a xi) must hold.
    xi = rng.standard_normal((100, 2))
    bounds = {}
    for family, symbol in ((["beurling-real"], beurling_real()),
                           (["beurling-imag"], beurling_imag()),
                           (["vector"], beurling_real()),
                           (["rotated", "--theta", "0"], rotated(0.0)),
                           (["rotated", "--theta", "0.7"], rotated(0.7))):
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


def test_exit_code_invalid_config(tmp_path):
    code = main(["search-martingale", "--p", "0.5", "--n", "2",
                 "--store-dir", str(tmp_path)])
    assert code == 2


_OVERFLOW = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("args", [
    pytest.param(["certify", "beurling-real", "--p", "4", "--tau", "nan", "--n", "2"],
                 id="certify-tau-nan"),
    pytest.param(["certify", "rotated", "--p", "4", "--theta", "nan", "--n", "2"],
                 id="certify-theta-nan"),
    pytest.param(["certify", "beurling-real", "--p", "4", "--tau", "1e200", "--n", "2"],
                 id="certify-tau-1e200", marks=_OVERFLOW),
    pytest.param(["search-martingale", "--p", "4", "--tau", "inf", "--n", "2"],
                 id="search-tau-inf"),
    pytest.param(["search-martingale", "--p", "4", "--tau", "nan", "--n", "2"],
                 id="search-tau-nan"),
    pytest.param(["search-martingale", "--p", "4", "--tau", "1e200", "--n", "2"],
                 id="search-tau-1e200", marks=_OVERFLOW),
    pytest.param(["search-martingale", "--p", "4", "--n", "2", "--wall-cap", "nan"],
                 id="search-wall-cap-nan"),
    pytest.param(["transference", "shear", "--p", "nan"], id="shear-p-nan"),
    pytest.param(["transference", "gaussian", "--eps-start", "nan"], id="gaussian-eps-nan"),
    pytest.param(["transference", "gaussian", "--eps-start", "inf"], id="gaussian-eps-inf"),
    pytest.param(["transference", "gaussian", "--p0", "nan"], id="gaussian-p0-nan"),
    pytest.param(["transference", "gaussian", "--eps-start", "1e-320"],
                 id="gaussian-eps-subnormal", marks=_OVERFLOW),
])
def test_nonfinite_input_is_refused(tmp_path, args):
    store = tmp_path / "store"
    if args[0] != "transference":
        args = args + ["--store-dir", str(store)]
    code, out = _run(args, tmp_path)
    assert code == 2
    assert not out.exists()
    assert not (store / "extremizers.json").exists()


@_OVERFLOW
def test_certify_refuses_overflowing_tables(tmp_path):
    # |d|^2 overflows to inf, so the enumerated ratio is inf / inf = NaN.
    seq = MartingaleDifferenceSequence.scalar([np.full(2, 1e200), np.full((2, 2), 1e200)])
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(sequence_to_record(seq, (1, 1), 0.0, ExponentConfig(4.0),
                                                  0.0, 0, "def2")))
    code, out = _run(["certify", "beurling-real", "--p", "4", "--martingale", str(inst),
                      "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 2
    assert not out.exists()


def test_exit_code_store_error(tmp_path):
    (tmp_path / "extremizers.json").write_text("{corrupt")
    code = main(["search-martingale", "--p", "4", "--n", "2",
                 "--iters", "50", "--restarts", "2", "--store-dir", str(tmp_path)])
    assert code == 4


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
    # A target below the certified bound trips the CertReport invariant,
    # which is a cross-check failure, not a configuration error.
    monkeypatch.setattr("lpmult.cli._target_for", lambda *args: 1.0)
    code, _ = _run(["certify", "beurling-real", "--p", "4", "--tau", "1", "--n", "2",
                    "--store-dir", str(tmp_path / "store")], tmp_path)
    assert code == 3


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
    rng = np.random.default_rng(np.random.PCG64(seed))
    seq = MartingaleDifferenceSequence.scalar(
        rng.standard_normal((2,) * k) + 1j * rng.standard_normal((2,) * k)
        for k in range(1, N + 1))
    beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
    exps = ExponentConfig(4.0)
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 1.0), exps)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(sequence_to_record(seq, beta, 1.0, exps, ratio, 0, "def2")))
    return inst, ratio


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
