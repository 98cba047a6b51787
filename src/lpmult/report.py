"""Certification reports and the best-known extremizer store.

Reports and store records are plain JSON with complex numbers as [re, im]
pairs; store updates are atomic (write to a temp file, then rename) and
serialized by a lock file, and a new record replaces an old one only if its
re-verified ratio is strictly larger by 1e-12.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .exponents import ExponentConfig
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact

__all__ = ["CertReport", "CrossCheckError", "StoreError", "store_key", "load_store",
           "update_store", "sequence_to_record", "sequence_from_record", "TOOLKIT_VERSION"]

TOOLKIT_VERSION = "0.1.0"

IMPROVEMENT_MARGIN = 1e-12


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
        "tables": [np.stack([t.real.ravel(), t.imag.ravel()], axis=1).tolist()
                   for t in seq.tables],
        "beta": [int(b) for b in beta],
        "ratio": ratio,
        "seed": seed,
        "predicate": predicate,
        "timestamp": time.time(),
    }


def sequence_from_record(rec: dict) -> tuple[MartingaleDifferenceSequence, tuple[int, ...]]:
    m = int(rec["m"])
    tables = []
    for k, pairs in enumerate(rec["tables"], start=1):
        flat = np.asarray(pairs, dtype=float).view(complex)
        tables.append(flat.reshape((2,) * k + (m,)))
    return MartingaleDifferenceSequence(tuple(tables)), tuple(int(b) for b in rec["beta"])


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


def _store_path(store_dir: str | Path) -> Path:
    return Path(store_dir) / "extremizers.json"


def _atomic_write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
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


def load_store(store_dir: str | Path) -> dict:
    path = _store_path(store_dir)
    if not path.exists():
        return {}
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"extremizer store at {path} is unreadable: {exc}") from exc
    if not isinstance(store, dict):
        raise StoreError(f"extremizer store at {path} is corrupt (not an object)")
    return store


def update_store(store_dir: str | Path, rec: dict) -> bool:
    """Insert rec if strictly better than the stored one; returns True on write.

    The read, compare and write cycle holds an exclusive lock on
    <store>/extremizers.lock, so concurrent writers keep every improvement.
    """
    path = _store_path(store_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.parent / "extremizers.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        store = load_store(store_dir)
        key = store_key(rec["p"], rec["p0"], rec["tau"], rec["N"], rec["predicate"])
        old = store.get(key)
        if old is not None and rec["ratio"] <= old["ratio"] + IMPROVEMENT_MARGIN:
            return False
        verify_record(rec)
        store[key] = rec
        _atomic_write_json(path, store)
        return True


def lookup_store(store_dir: str | Path, p: float, p0: float, tau: float, N: int,
                 predicate: str) -> dict | None:
    return load_store(store_dir).get(store_key(p, p0, tau, N, predicate))
