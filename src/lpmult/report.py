"""Certification reports and the best-known extremizer store.

Reports and store records are plain JSON with complex numbers as [re, im]
pairs.  The store is a directory with one file per key,
<store>/<store_key(...)>.json holding {key: record}, so a write or a lookup
touches one record; a file that does not hold exactly one record under the
key that both its name and the record's own fields give (such as an old
single-file extremizers.json), or whose record lacks a field the readers take
or holds one of the wrong type, is refused.
Store updates are atomic (write to a temp file, then rename) and serialized
by a lock file, and a new record replaces an old one only if its re-verified
ratio is strictly larger by 1e-12.
"""

from __future__ import annotations

import fcntl
import gc
import json
import os
import tempfile
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .exponents import ExponentConfig
from .martingale import (MartingaleDifferenceSequence, TransformConfig, _levels,
                         perturbed_ratio_exact)

__all__ = ["CertReport", "CrossCheckError", "StoreError", "store_key", "load_store",
           "update_store", "sequence_to_record", "sequence_from_record", "TOOLKIT_VERSION"]

TOOLKIT_VERSION = "0.1.0"

IMPROVEMENT_MARGIN = 1e-12

# The fields the store's readers take from every record, with the JSON types
# each may hold; a bool, though a Python int, is none of them.
_NUMBER = (int, float)
_RECORD_FIELDS = {"p": _NUMBER, "p0": _NUMBER, "tau": _NUMBER, "ratio": _NUMBER,
                  "N": int, "m": int, "predicate": str, "tables": list, "beta": list}


class StoreError(RuntimeError):
    """Raised when the extremizer store is unreadable or would be clobbered."""


class CrossCheckError(ValueError):
    """Raised when two computations of one certified quantity disagree."""


@dataclass(frozen=True)
class CertReport:
    """Machine-readable certification record for one witness or search run."""

    family: str
    params: dict
    p: float
    p0: float
    tau: float
    N: int
    G: int
    achieved_ratio: float
    certified_lower_bound: float
    target_constant: float | None
    predicate: str
    external_assumption: bool
    seed: int
    budget: dict
    wall_time_s: float
    version: str = TOOLKIT_VERSION
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.target_constant is not None:
            if self.certified_lower_bound > self.target_constant + 1e-9:
                raise CrossCheckError(
                    f"certified bound {self.certified_lower_bound} exceeds target "
                    f"{self.target_constant} beyond tolerance; implementation bug")

    @property
    def gap(self) -> float | None:
        if self.target_constant is None:
            return None
        return self.target_constant - self.certified_lower_bound

    def to_dict(self) -> dict:
        return dict(asdict(self), gap=self.gap, timestamp=time.time())


def sequence_to_record(seq: MartingaleDifferenceSequence, beta, tau: float,
                       exps: ExponentConfig, ratio: float, seed: int,
                       predicate: str) -> dict:
    """JSON-ready record of a martingale extremizer."""
    return {
        "p": exps.p,
        "p0": exps.p0,
        "tau": tau,
        "N": seq.N,
        "m": seq.m,
        "tables": [t.reshape(-1, 2).tolist() for t in _levels(seq.flat.view(float))],
        "beta": [int(b) for b in beta],
        "ratio": ratio,
        "seed": seed,
        "predicate": predicate,
        "timestamp": time.time(),
    }


def _float_table(k: int, pairs) -> np.ndarray:
    try:
        return np.asarray(pairs, dtype=float)
    except TypeError as exc:  # an entry such as a JSON object
        raise ValueError(f"table {k} holds an entry that is not a number") from exc


def sequence_from_record(rec: dict) -> tuple[MartingaleDifferenceSequence, tuple[int, ...]]:
    if not (isinstance(rec, dict) and {"m", "tables", "beta"} <= rec.keys()
            and type(rec["m"]) is int and isinstance(rec["tables"], list)
            and isinstance(rec["beta"], list)):
        raise ValueError("a martingale record is a JSON object with the fields "
                         "m (an integer), tables and beta (lists)")
    m, tables = rec["m"], []
    for k, pairs in enumerate(rec["tables"], start=1):
        tables.append(_float_table(k, pairs).view(complex).reshape((2,) * k + (m,)))
    seq, beta = MartingaleDifferenceSequence(tuple(tables)), rec["beta"]
    # type(b) is int, as a JSON true is no sign although true == 1.
    if len(beta) != seq.N or any(type(b) is not int or b not in (-1, 1) for b in beta) \
            or rec.get("N", seq.N) != seq.N:
        raise ValueError(f"{seq.N} tables need a beta of {seq.N} entries +-1 and N = {seq.N}")
    return seq, tuple(beta)


def with_array_tables(rec: dict) -> dict:
    """rec with each table as a float array of [re, im] rows: the same values to
    sequence_from_record, in about a seventh of the decoded lists' memory."""
    return dict(rec, tables=[_float_table(k, t) for k, t in enumerate(rec["tables"], start=1)])


def verify_record(rec: dict, tol: float = 1e-12) -> float:
    """Re-evaluate a stored extremizer; raises if the stored ratio is off."""
    seq, beta = sequence_from_record(rec)
    exps = ExponentConfig(rec["p"], rec["p0"])
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, rec["tau"]), exps)
    # Written so that a NaN or infinite stored ratio fails.
    if not abs(ratio - rec["ratio"]) <= tol * max(1.0, ratio):
        raise StoreError(
            f"stored ratio {rec['ratio']} does not reproduce (got {ratio})")
    return ratio


def store_key(p: float, p0: float, tau: float, N: int, predicate: str) -> str:
    return f"p={p!r},p0={p0!r},tau={tau!r},N={N},predicate={predicate}"


def _atomic_write_json(path: Path, payload) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # json.dumps without indent takes the C encoder; json.dump never does.
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def decode_json(text: str):
    """json.loads with the cyclic garbage collector paused, then left as it was:
    a record's one small list per table entry sets off collections that free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def _read_record(path: Path) -> dict | None:
    """The one record of a store file, under the key its name gives; None if absent."""
    try:
        data = decode_json(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise StoreError(f"extremizer store file {path} is unreadable: {exc}") from exc
    if not (isinstance(data, dict) and list(data) == [path.stem]
            and isinstance(rec := data[path.stem], dict)
            and all(isinstance(rec.get(name), kind) and not isinstance(rec[name], bool)
                    for name, kind in _RECORD_FIELDS.items())
            and store_key(*(rec[f] for f in ("p", "p0", "tau", "N", "predicate"))) == path.stem):
        raise StoreError(f"extremizer store file {path} does not hold exactly one "
                         f"record, with the fields {sorted(_RECORD_FIELDS)} each of "
                         f"its type, under the key {path.stem!r} that its fields give")
    return rec


def load_store(store_dir: str | Path) -> Iterator[tuple[str, dict]]:
    """(key, record) for every record in the store, in key order, one file read at a time."""
    for path in sorted(Path(store_dir).glob("*.json")):
        yield path.stem, _read_record(path)


def update_store(store_dir: str | Path, rec: dict) -> bool:
    """Insert rec if strictly better than the stored one; returns True on write.

    Only rec's own key file is read and rewritten.  The read, compare and
    write cycle holds an exclusive lock on <store>/extremizers.lock, so
    concurrent writers keep every improvement.
    """
    key = store_key(rec["p"], rec["p0"], rec["tau"], rec["N"], rec["predicate"])
    path = Path(store_dir) / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.parent / "extremizers.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        old = _read_record(path)
        if old is not None and rec["ratio"] <= old["ratio"] + IMPROVEMENT_MARGIN:
            return False
        verify_record(rec)
        _atomic_write_json(path, {key: rec})
        return True


def lookup_store(store_dir: str | Path, p: float, p0: float, tau: float, N: int,
                 predicate: str) -> dict | None:
    return _read_record(Path(store_dir) / f"{store_key(p, p0, tau, N, predicate)}.json")
