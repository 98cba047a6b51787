"""The reports certify writes and the persisted extremizer store."""

import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lpmult
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig,
                               perturbed_ratio_exact)
from lpmult.cli import main
from lpmult.report import (StoreError, load_store, lookup_store, read_martingale,
                           sequence_from_record, sequence_to_record,
                           store_key, update_store, verify_record, write_json)


def listed(rec):
    """rec with its tables as the [re, im] lists a store file holds: a record to change
    as lists, to pass to json.dumps or to compare with ==."""
    return dict(rec, tables=[t.tolist() for t in rec["tables"]])


def den_overflow():
    """(sequence, beta) at p = 4, tau = 0 whose E|F_N|^p alone overflows: d_1 = (1, 1),
    d_2 = (1, 1, -1, 1) and d_3 = (1, 0, 0, 1, 0, 1, 0, 1), flat, times 3e76."""
    rows = [(1, 1), (1, 1, -1, 1), (1, 0, 0, 1, 0, 1, 0, 1)]
    return MartingaleDifferenceSequence(tuple(
        3e76 * np.array(r, dtype=complex).reshape((2,) * k + (1,))
        for k, r in enumerate(rows, start=1))), (1, -1, 1)


def _record(ratio=None, seed=0):
    d1 = np.ones((2, 1), dtype=complex)
    d2 = np.zeros((2, 2, 1), dtype=complex)
    d2[:, 0, 0] = 2.0
    seq = MartingaleDifferenceSequence((d1, d2))
    if ratio is None:
        ratio = (52.0 / 21.0) ** 0.25
    return sequence_to_record(seq, (-1, 1), 1.0, ExponentConfig(4.0), ratio,
                              seed, "def2")


def _certify(tmp_path, *flags):
    """The report certify beurling-real writes for the explicit N = 2 instance _record()."""
    inst, out = tmp_path / "inst.json", tmp_path / "report.json"
    write_json(inst, _record())
    assert main(["certify", "beurling-real", *flags, "--martingale", str(inst),
                 "--store-dir", str(tmp_path / "store"), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_certify_report_keys_gap_and_version(tmp_path):
    rep = _certify(tmp_path, "--p", "4", "--tau", "1")
    assert set(rep) == {"N", "achieved_ratio", "certified_lower_bound", "family",
                        "gap", "notes", "p", "params", "predicate", "target_constant",
                        "tau", "timestamp", "upper_bound", "version", "wall_time_s"}
    assert rep["gap"] == rep["target_constant"] - rep["certified_lower_bound"]
    assert rep["version"] == lpmult.__version__


@pytest.mark.parametrize("flags", [["--p", "1.5", "--tau", "1.5"]], ids=["tau-not-admitted"])
def test_certify_report_without_target_has_no_gap(tmp_path, flags):
    rep = _certify(tmp_path, *flags)
    assert rep["target_constant"] is None
    assert rep["gap"] is None


def test_sequence_record_round_trip():
    rec = _record()
    seq, beta = sequence_from_record(rec)
    assert beta == (-1, 1)
    assert seq.N == 2
    assert verify_record(rec) == pytest.approx(rec["ratio"], abs=1e-12)
    # The tables as a store file holds them verify the same.
    assert verify_record(listed(rec)) == verify_record(rec)


@pytest.mark.parametrize("m", [1, 2])
def test_record_pairs_follow_the_flat_level_order(m):
    # A record's [re, im] pairs, table after table, are the sequence's flat
    # array read as float pairs: the level order of the search's layout.
    rng = np.random.default_rng(np.random.PCG64(40 + m))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (m,)) + 1j * rng.standard_normal((2,) * k + (m,))
        for k in range(1, 5)))
    rec = sequence_to_record(seq, (1, -1, 1, 1), 0.0, ExponentConfig(4.0), 1.0, 0, "def2")
    pairs = np.concatenate([np.asarray(t, dtype=float) for t in rec["tables"]])
    assert np.array_equal(pairs, seq.flat.view(float).reshape(-1, 2))
    assert np.array_equal(sequence_from_record(rec)[0].flat, seq.flat)


# Float entries whose text the codec must carry exactly: a negative zero, the
# least subnormal, the least normal, the largest float, and two plain values.
_EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0)


@pytest.mark.parametrize("m", [1, 2])
def test_store_codec_keeps_bytes_and_values(tmp_path, m):
    # A store file is byte for byte what the encoder writes with its cycle check,
    # and every table a --martingale read decodes is bit for bit the array written.
    # A store read refuses the file: 1.0 is no ratio these tables give.
    values = np.resize(np.array(_EDGE_FLOATS + tuple(-v for v in _EDGE_FLOATS)), 2 * 14 * m)
    flat = values.view(complex)
    seq = MartingaleDifferenceSequence(tuple(
        t.reshape((2,) * k + (m,)) for k, t in enumerate(np.split(flat, [2 * m, 6 * m]), 1)))
    rec = sequence_to_record(seq, (1, -1, 1), 0.0, ExponentConfig(4.0), 1.0, 0, "def2")
    key = store_key(4.0, 4.0, 0.0, 3, "def2")
    path = tmp_path / f"{key}.json"
    write_json(path, {key: rec})
    assert path.read_text() == json.dumps({key: rec}, sort_keys=True,
                                          default=np.ndarray.tolist) + "\n"
    with pytest.raises(StoreError, match=re.escape(f"store file {path}")):
        lookup_store(tmp_path, 4.0, 4.0, 0.0, 3, "def2")
    write_json(tmp_path / "inst.json", rec)
    assert read_martingale(tmp_path / "inst.json")[0].flat.tobytes() == seq.flat.tobytes()


@pytest.mark.parametrize("row", [
    [1.0], [1.0, 2.0, 3.0], 7, [[1.0, 2.0], [3.0, 4.0]], None, "x", {"re": 1.0},
    # Of length 2 but no [re, im] list: iterated, each would give two floats.
    "12", {"1": 0.0, "2": 0.0},
    # Of [re, im] shape, but an entry that is no JSON number.
    ["1.0", 0.0], [True, 0.0],
], ids=["one", "three", "number", "nested", "null", "letter", "object", "string-12",
        "object-12", "string-entry", "bool-entry"])
def test_malformed_table_row_is_refused(tmp_path, capsys, row):
    # One row of table 2 changed: a store read refuses it naming the file, and a
    # --martingale file of it exits 2.
    rec = listed(_record())
    rec["tables"][1][0] = row
    key = store_key(4.0, 4.0, 1.0, 2, "def2")
    write_json(tmp_path / f"{key}.json", {key: rec})
    with pytest.raises(StoreError, match=re.escape(f"store file {tmp_path / key}.json")):
        lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")
    write_json(tmp_path / "inst.json", rec)
    assert main(["certify", "beurling-real", "--p", "4", "--tau", "1",
                 "--martingale", str(tmp_path / "inst.json"),
                 "--store-dir", str(tmp_path / "store")]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_verify_record_catches_tampering():
    for ratio in (2.0, float("nan"), float("inf")):
        with pytest.raises(StoreError):
            verify_record(_record(ratio=ratio))


def test_verify_record_refuses_an_overflowing_denominator():
    # Only ||F_N||_p^p overflows (E|G_N|^p is 6.885e306); the ratio would read 0.0,
    # and a record storing 0.0 would verify.
    seq, beta = den_overflow()
    rec = sequence_to_record(seq, beta, 0.0, ExponentConfig(4.0), 0.0, 0, "def2")
    with pytest.raises(FloatingPointError, match="not finite"):
        verify_record(rec)


def test_store_update_and_lookup(tmp_path):
    rec = _record()
    assert update_store(tmp_path, rec)
    got = lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")
    assert got["ratio"] == pytest.approx(rec["ratio"])
    # A worse record, of its own tables and a strictly lower verified ratio, and
    # a record of an equal ratio are each rejected without touching the store.
    exps = ExponentConfig(4.0)
    seq = MartingaleDifferenceSequence((np.ones((2, 1)), np.full((2, 2, 1), 0.5)))
    ratio = perturbed_ratio_exact(seq, TransformConfig((-1, 1), 1.0), exps)
    worse = sequence_to_record(seq, (-1, 1), 1.0, exps, ratio, 1, "def2")
    assert verify_record(worse) < verify_record(rec) - 1e-12
    before = _key_file(tmp_path, rec).read_bytes()
    for other in (worse, dict(rec, seed=1)):
        assert not update_store(tmp_path, other)
        assert _key_file(tmp_path, rec).read_bytes() == before
    assert lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")["seed"] == rec["seed"]
    # Every table a store read decodes is bit for bit the array written.
    rng = np.random.default_rng(np.random.PCG64(31))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (2,)) + 1j * rng.standard_normal((2,) * k + (2,))
        for k in range(1, 6)))
    beta = (1, -1, -1, 1, -1)
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
    rec = sequence_to_record(seq, beta, 0.5, exps, ratio, 0, "def2")
    assert update_store(tmp_path, rec)
    got = lookup_store(tmp_path, 4.0, 4.0, 0.5, 5, "def2")
    assert [t.tobytes() for t in got["tables"]] == [t.tobytes() for t in rec["tables"]]


def test_record_of_a_numpy_tau_is_found_by_its_float_tau(tmp_path):
    # The store key formats tau with !r: a record keeps tau as a Python float, so a
    # record made with np.float64(0.5) is filed under tau=0.5, where a lookup looks.
    exps = ExponentConfig(4.0)
    seq, beta = sequence_from_record(_record())
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
    assert update_store(tmp_path, sequence_to_record(seq, beta, np.float64(0.5), exps,
                                                     ratio, 0, "def2"))
    assert lookup_store(tmp_path, 4.0, 4.0, 0.5, 2, "def2")["ratio"] == ratio
    assert [key for key, _ in load_store(tmp_path)] == [store_key(4.0, 4.0, 0.5, 2, "def2")]


def test_store_records_follow_the_umask(tmp_path):
    # A record file is created with mode 0o666 less the umask, as the lock file is,
    # so the users a shared store's umask admits can read it.
    old = os.umask(0o022)
    try:
        assert update_store(tmp_path, _record())
    finally:
        os.umask(old)
    assert _key_file(tmp_path, _record()).stat().st_mode & 0o777 == 0o644


def test_store_read_refuses_a_ratio_its_tables_do_not_give(tmp_path):
    # A lookup re-verifies the record it returns: a stored ratio off by 1e-9 is a
    # StoreError naming the file, which stays byte for byte.
    rec = _record()
    path = _key_file(tmp_path, rec)
    write_json(path, {path.stem: dict(rec, ratio=rec["ratio"] + 1e-9)})
    before = path.read_bytes()
    with pytest.raises(StoreError, match=re.escape(f"store file {path} ") + ".*does not reproduce"):
        lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")
    assert path.read_bytes() == before


def test_store_reads_give_the_ratio_the_tables_give(tmp_path, capsys):
    # A stored ratio 8e-13 above the 1.0 its tables give is within verify_record's
    # tolerance: lookup_store and norms give 1.0, and the file stays byte for byte.
    seq = MartingaleDifferenceSequence((np.ones((2, 1)), np.full((2, 2, 1), 0.5)))
    rec = sequence_to_record(seq, (1, 1), 0.0, ExponentConfig(4.0), 1.0, 0, "def2")
    assert verify_record(rec) == 1.0
    path = _key_file(tmp_path, rec)
    write_json(path, {path.stem: dict(rec, ratio=1.0000000000008)})
    before = path.read_bytes()
    assert lookup_store(tmp_path, 4.0, 4.0, 0.0, 2, "def2")["ratio"] == 1.0
    assert main(["norms", "--family", "beurling", "--p", "4", "--store-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4:6] == ["1.0", "2.0"]
    assert path.read_bytes() == before


def test_record_tables_are_read_only_views_of_the_sequence():
    rec = _record()
    seq, _ = sequence_from_record(rec)
    for table in (seq.flat, seq.tables[0], rec["tables"][1]):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_store_leaves_no_pair_lists_for_the_collector(tmp_path):
    # An N = 12 record's 8190 [re, im] lists, encoded or decoded, are made and
    # die while the collector is paused: writing and reading it set off no collection.
    rng = np.random.default_rng(np.random.PCG64(12))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (1,)) + 1j * rng.standard_normal((2,) * k + (1,))
        for k in range(1, 13)))
    exps, beta = ExponentConfig(4.0), (1, -1) * 6
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.0), exps)
    rec = sequence_to_record(seq, beta, 0.0, exps, ratio, 0, "def2")
    collections = []

    def hook(phase, info):
        collections.append((phase, info["generation"]))

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        assert update_store(tmp_path, rec)
        read, _ = sequence_from_record(lookup_store(tmp_path, 4.0, 4.0, 0.0, 12, "def2"))
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was else gc.disable)()
    assert collections == []
    assert np.array_equal(read.flat, seq.flat)


def test_store_write_re_verifies_the_record_it_would_replace(tmp_path):
    # An honest record is replaced by a better one and kept against a worse one.
    exps, records = ExponentConfig(4.0), []
    for scale in (1.0, 2.0, 3.0):
        seq = MartingaleDifferenceSequence((np.ones((2, 1)), np.full((2, 2, 1), scale)))
        ratio = perturbed_ratio_exact(seq, TransformConfig((-1, 1), 1.0), exps)
        records.append(sequence_to_record(seq, (-1, 1), 1.0, exps, ratio, 0, "def2"))
    worse, middle, better = sorted(records, key=lambda r: r["ratio"])
    assert update_store(tmp_path, middle)
    assert not update_store(tmp_path, worse)
    assert update_store(tmp_path, better)
    assert listed(lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")) == listed(better)
    # A stored ratio that its tables do not give refuses every write, and the
    # file stays byte for byte.
    path = _key_file(tmp_path, better)
    data = json.loads(path.read_text())
    data[path.stem]["ratio"] = 2.99
    path.write_text(json.dumps(data))
    before = path.read_bytes()
    for rec in (worse, better):
        with pytest.raises(StoreError, match="does not reproduce"):
            update_store(tmp_path, rec)
    assert path.read_bytes() == before


def _key_file(store, rec):
    return store / f"{store_key(rec['p'], rec['p0'], rec['tau'], rec['N'], rec['predicate'])}.json"


def test_store_refuses_corrupt_file(tmp_path):
    rec = _record()
    _key_file(tmp_path, rec).write_text("{not json")
    with pytest.raises(StoreError):
        dict(load_store(tmp_path))
    with pytest.raises(StoreError):
        update_store(tmp_path, rec)
    with pytest.raises(StoreError):
        lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")


def test_corrupt_key_leaves_other_keys_working(tmp_path):
    a, b = _record(), dict(_record(), predicate="cor7")
    _key_file(tmp_path, b).write_text("{not json")
    assert update_store(tmp_path, a)
    assert lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")["ratio"] == verify_record(a)
    with pytest.raises(StoreError):
        lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "cor7")


def test_write_json_leaves_nothing_when_encoding_fails(tmp_path):
    # A payload the encoder refuses raises, and neither the target nor its
    # temporary file is left behind.
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", {"a": {1}})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_store_reads_leave_gc_as_they_found_it(tmp_path, enabled):
    # Store writes, store reads and --martingale reads run with the cyclic
    # collector paused; a write, a good read, a malformed file (still
    # StoreError, and exit 4 from the CLI) and bad JSON each leave it as it was.
    rec = _record()
    assert update_store(tmp_path, rec)
    _key_file(tmp_path, dict(rec, predicate="cor7")).write_text("{not json")
    (tmp_path / "bad.txt").write_text("{not json")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        write_json(tmp_path / "inst.txt", rec)
        assert gc.isenabled() is enabled
        assert np.array_equal(read_martingale(tmp_path / "inst.txt")[0].flat,
                              sequence_from_record(rec)[0].flat)
        assert gc.isenabled() is enabled
        assert listed(lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")) == \
            listed(dict(rec, ratio=verify_record(rec)))
        assert gc.isenabled() is enabled
        with pytest.raises(StoreError):
            lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "cor7")
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            read_martingale(tmp_path / "bad.txt")
        assert gc.isenabled() is enabled
        assert main(["norms", "--family", "beurling", "--p", "4",
                     "--store-dir", str(tmp_path)]) == 4
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_store_writes_one_file_per_key(tmp_path):
    # N = 2 and N = 3 records of the same (p, p0, tau, predicate).
    rec2 = _record()
    seq3 = MartingaleDifferenceSequence((np.ones((2, 1)), np.full((2, 2, 1), 0.5),
                                         np.full((2, 2, 2, 1), 0.25)))
    exps = ExponentConfig(4.0)
    ratio3 = perturbed_ratio_exact(seq3, TransformConfig((-1, 1, -1), 1.0), exps)
    rec3 = sequence_to_record(seq3, (-1, 1, -1), 1.0, exps, ratio3, 0, "def2")
    assert update_store(tmp_path, rec2)
    path2 = _key_file(tmp_path, rec2)
    key2 = path2.stem
    # The file holds {key: record} in the C encoder's sort_keys form.
    assert path2.read_text() == json.dumps({key2: listed(rec2)}, sort_keys=True) + "\n"
    before = (path2.read_bytes(), path2.stat().st_ino, path2.stat().st_mtime_ns)
    time.sleep(0.01)
    assert update_store(tmp_path, rec3)
    assert (path2.read_bytes(), path2.stat().st_ino, path2.stat().st_mtime_ns) == before
    assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted(
        [path2.name, _key_file(tmp_path, rec3).name])
    # A read gives the ratio the tables give; rec2's is the closed form, 1 ulp off.
    assert {key: listed(rec) for key, rec in load_store(tmp_path)} == {
        key2: listed(dict(rec2, ratio=verify_record(rec2))),
        _key_file(tmp_path, rec3).stem: listed(rec3)}


def test_store_refuses_file_not_holding_its_own_key(tmp_path):
    rec = _record()
    key = store_key(4.0, 4.0, 1.0, 2, "def2")
    other = store_key(4.0, 4.0, 1.0, 3, "def2")
    # A record under a key other than the file's name.
    (tmp_path / f"{key}.json").write_text(json.dumps({other: listed(rec)}))
    with pytest.raises(StoreError):
        dict(load_store(tmp_path))
    with pytest.raises(StoreError):
        lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")
    # Two records in one file, as the old single-file store held them.
    for name in (key, "extremizers"):
        for path in tmp_path.glob("*.json"):
            path.unlink()
        (tmp_path / f"{name}.json").write_text(json.dumps({key: listed(rec), other: listed(rec)}))
        with pytest.raises(StoreError):
            dict(load_store(tmp_path))


def test_store_key_distinguishes_parameters():
    assert store_key(4.0, 4.0, 0.0, 2, "def2") != store_key(4.0, 4.0, 0.0, 2, "cor7")
    assert store_key(4.0, 4.0, 0.0, 2, "def2") != store_key(4.0, 4.0, 0.0, 3, "def2")


_WRITER = """
import sys, time
from pathlib import Path
import numpy as np
from lpmult.exponents import ExponentConfig
from lpmult.martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact
from lpmult.report import sequence_to_record, update_store

store, writer, gate = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
seq = MartingaleDifferenceSequence((np.ones((2, 1)), np.full((2, 2, 1), 0.5)))
exps = ExponentConfig(4.0)
records = []
for i in range(15):
    tau = float(writer * 100 + i)
    ratio = perturbed_ratio_exact(seq, TransformConfig((-1, 1), tau), exps)
    records.append(sequence_to_record(seq, (-1, 1), tau, exps, ratio, 0, "def2"))
(gate / f"ready{writer}").touch()
while not (gate / "go").exists():
    time.sleep(0.001)
for rec in records:
    update_store(store, rec)
"""


def test_concurrent_writers_keep_every_record(tmp_path):
    # Two processes insert 15 distinct keys each into one store at once.
    src = str(Path(lpmult.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    store = tmp_path / "store"
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(store), str(w), str(tmp_path)],
                              env=env) for w in (1, 2)]
    try:
        deadline = time.monotonic() + 60.0
        while not all((tmp_path / f"ready{w}").exists() for w in (1, 2)):
            assert all(p.poll() is None for p in procs), "a writer exited early"
            assert time.monotonic() < deadline
            time.sleep(0.005)
        (tmp_path / "go").touch()
        assert [p.wait(timeout=60) for p in procs] == [0, 0]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    assert len(dict(load_store(store))) == 30
