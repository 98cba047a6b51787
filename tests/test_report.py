"""Certification reports and the persisted extremizer store."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lpmult
from lpmult.exponents import ExponentConfig
from lpmult.martingale import MartingaleDifferenceSequence
from lpmult.report import (CertReport, StoreError, load_store, lookup_store,
                           sequence_from_record, sequence_to_record,
                           store_key, update_store, verify_record)


def _record(ratio=None, seed=0):
    d1 = np.ones((2, 1), dtype=complex)
    d2 = np.zeros((2, 2, 1), dtype=complex)
    d2[:, 0, 0] = 2.0
    seq = MartingaleDifferenceSequence((d1, d2))
    if ratio is None:
        ratio = (52.0 / 21.0) ** 0.25
    return sequence_to_record(seq, (-1, 1), 1.0, ExponentConfig(4.0), ratio,
                              seed, "def2")


def _report(**kw):
    base = dict(family="beurling-real", params={}, p=4.0, p0=4.0, tau=1.0,
                N=2, G=2, achieved_ratio=1.2544, certified_lower_bound=1.2544,
                target_constant=10.0**0.5, predicate="def2",
                external_assumption=False, seed=0, budget={}, wall_time_s=0.1)
    base.update(kw)
    return CertReport(**base)


def test_report_gap_and_invariant():
    rep = _report()
    assert rep.gap == pytest.approx(10.0**0.5 - 1.2544)
    with pytest.raises(ValueError):
        _report(certified_lower_bound=4.0)


def test_report_serialization():
    rep = _report()
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["family"] == "beurling-real"
    assert data["gap"] == pytest.approx(rep.gap)
    assert data["version"] == rep.version


def test_sequence_record_round_trip():
    rec = _record()
    seq, beta = sequence_from_record(rec)
    assert beta == (-1, 1)
    assert seq.N == 2
    assert verify_record(rec) == pytest.approx(rec["ratio"], abs=1e-12)


def test_verify_record_catches_tampering():
    for ratio in (2.0, float("nan"), float("inf")):
        with pytest.raises(StoreError):
            verify_record(_record(ratio=ratio))


def test_store_update_and_lookup(tmp_path):
    rec = _record()
    assert update_store(tmp_path, rec)
    got = lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")
    assert got["ratio"] == pytest.approx(rec["ratio"])
    # A non-improving record is rejected without touching the store.
    worse = _record(ratio=rec["ratio"] - 0.1)
    worse["tables"] = rec["tables"]
    assert not update_store(tmp_path, dict(rec, ratio=rec["ratio"]))
    assert lookup_store(tmp_path, 4.0, 4.0, 1.0, 2, "def2")["seed"] == rec["seed"]


def test_store_refuses_corrupt_file(tmp_path):
    (tmp_path / "extremizers.json").write_text("{not json")
    with pytest.raises(StoreError):
        load_store(tmp_path)
    with pytest.raises(StoreError):
        update_store(tmp_path, _record())


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
    assert len(load_store(store)) == 30
