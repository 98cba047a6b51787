"""The best-known extremizer store, its record codec, and its error type, StoreError.

Store records are plain JSON with complex numbers as [re, im] pairs of JSON numbers
(no bool, no string), which a record in memory holds as one float array per table.
The store is a directory with one file per key, <store>/<store_key(...)>.json
holding {key: record}, so a write or a lookup touches one record; a file that does not
hold exactly one record under the key that both its name and the record's own
fields give (such as an old single-file extremizers.json), or whose record lacks
a field the readers take or holds one of the wrong type, is refused.  Every
record a store read returns has been re-verified (`verify_record`): a ratio its
tables do not give is a StoreError naming the file, like a corrupt file.
Store updates are atomic (`write_json`, mode 0o666 less the umask) and serialized
by a lock file, and a new record replaces the old one only if its re-verified ratio
is strictly larger by 1e-12.
"""

from __future__ import annotations

import contextlib
import fcntl
import gc
import itertools
import json
import os
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .exponents import ExponentConfig
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact

IMPROVEMENT_MARGIN = 1e-12

# The fields the store's readers take from every record, with the JSON types
# each may hold; a bool, though a Python int, is none of them.  The p0 field, always
# p, stays in the record, its key and lookup_store's parameters until the store
# format's next revision (ROADMAP item 6), so stored files keep their bytes.
_NUMBER = (int, float)
_RECORD_FIELDS = {"p": _NUMBER, "p0": _NUMBER, "tau": _NUMBER, "ratio": _NUMBER,
                  "N": int, "m": int, "predicate": str, "tables": list, "beta": list}


class StoreError(RuntimeError):
    """Raised when the extremizer store is unreadable or would be clobbered."""


def sequence_to_record(seq: MartingaleDifferenceSequence, beta, tau: float,
                       exps: ExponentConfig, ratio: float, seed: int,
                       predicate: str) -> dict:
    """Record of a martingale extremizer, its tables (2^k m, 2) float views of seq.flat."""
    return {
        "p": exps.p,
        "p0": exps.p,
        "tau": float(tau),
        "N": seq.N,
        "m": seq.m,
        "tables": [t.view(float).reshape(-1, 2) for t in seq.tables],
        "beta": [int(b) for b in beta],
        "ratio": ratio,
        "seed": seed,
        "predicate": predicate,
        "timestamp": time.time(),
    }


def _float_table(k: int, pairs) -> np.ndarray:
    """Table k as a float array: a record's own array by np.asarray, a decoded table only as
    a list of [re, im] lists of JSON numbers (int or float; no bool, no str), by one fromiter."""
    if isinstance(pairs, np.ndarray):
        return np.asarray(pairs, dtype=float)
    entries = itertools.chain.from_iterable
    if not (type(pairs) is list and set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}
            and set(map(type, entries(pairs))) <= {int, float}):
        raise ValueError(f"table {k} is not a list of [re, im] lists of numbers")
    return np.fromiter(entries(pairs), float, 2 * len(pairs)).reshape(-1, 2)


def sequence_from_record(rec: dict) -> tuple[MartingaleDifferenceSequence, tuple[int, ...]]:
    if not (isinstance(rec, dict) and {"m", "tables", "beta"} <= rec.keys()
            and type(rec["m"]) is int and rec["m"] > 0  # reshape would infer an m of -1
            and isinstance(rec["tables"], list) and isinstance(rec["beta"], list)):
        raise ValueError("a martingale record is a JSON object with the fields "
                         "m (a positive integer), tables and beta (lists)")
    m, tables = rec["m"], []
    for k, pairs in enumerate(rec["tables"], start=1):
        tables.append(_float_table(k, pairs).view(complex).reshape((2,) * k + (m,)))
    seq, beta = MartingaleDifferenceSequence(tuple(tables)), rec["beta"]
    # type(b) is int, as a JSON true is no sign although true == 1.
    if len(beta) != seq.N or any(type(b) is not int or b not in (-1, 1) for b in beta) \
            or type(N := rec.get("N", seq.N)) is not int or N != seq.N:
        raise ValueError(f"{seq.N} tables need a beta of {seq.N} entries +-1 and N = {seq.N}")
    return seq, tuple(beta)


def verify_record(rec: dict) -> float:
    """Re-evaluate a stored extremizer; raises if its p0 is not its p (ValueError)
    or the stored ratio is off."""
    if rec["p0"] != rec["p"]:
        raise ValueError(f"p0 = {rec['p0']} is not p = {rec['p']}: no L^p certificate")
    seq, beta = sequence_from_record(rec)
    exps = ExponentConfig(rec["p"])
    ratio = perturbed_ratio_exact(seq, TransformConfig(beta, rec["tau"]), exps)
    # Written so that a NaN or infinite stored ratio fails.
    if not abs(ratio - rec["ratio"]) <= 1e-12 * max(1.0, ratio):
        raise StoreError(
            f"stored ratio {rec['ratio']} does not reproduce (got {ratio})")
    return ratio


def store_key(p: float, p0: float, tau: float, N: int, predicate: str) -> str:
    return f"p={p!r},p0={p0!r},tau={tau!r},N={N},predicate={predicate}"


@contextlib.contextmanager
def _collector_paused():
    """GC paused, then left as it was: a record's list per table entry is no garbage to collect."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def write_json(path: Path, payload) -> None:
    """payload to path as the store writes it, atomically: sorted keys, each table array listed
    on its own by the C encoder (json.dumps without indent; json.dump never), then a newline.

    The encoder's cycle check is off: a payload is a fresh tree of dicts, lists and arrays,
    which holds no cycle, and the check costs an id-dict insert and delete per [re, im]
    row.  The bytes are the same as with it."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")  # mode 0o666 less the umask, which a shared store's readers need
    try:
        with fh:
            fh.write(json.dumps(payload, sort_keys=True, default=np.ndarray.tolist,
                               check_circular=False))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@_collector_paused()
def read_martingale(path: str | Path) -> tuple[MartingaleDifferenceSequence, tuple[int, ...]]:
    """(sequence, beta) of a --martingale file: a JSON record with m, tables and beta."""
    return sequence_from_record(json.loads(Path(path).read_text()))


@_collector_paused()
def _read_record(path: Path) -> dict | None:
    """The one record of a store file, under its name's key, tables as arrays, re-verified,
    its ratio the one its tables give; None if absent."""
    try:
        data = json.loads(path.read_text())
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
    try:  # a record that fails its check is a StoreError naming its file (exit 4)
        rec["tables"] = [_float_table(k, t) for k, t in enumerate(rec["tables"], start=1)]
        rec["ratio"] = verify_record(rec)
    except (ValueError, ArithmeticError, StoreError) as exc:
        raise StoreError(f"extremizer store file {path} does not hold a valid "
                         f"martingale: {exc}") from exc
    return rec


def load_store(store_dir: str | Path) -> Iterator[tuple[str, dict]]:
    """(key, record) for every record in the store, in key order, one file read and
    re-verified at a time."""
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
        old = _read_record(path)  # re-verified: the ratio compared against holds
        if old is not None and rec["ratio"] <= old["ratio"] + IMPROVEMENT_MARGIN:
            return False
        verify_record(rec)
        write_json(path, {key: rec})
        return True


def lookup_store(store_dir: str | Path, p: float, p0: float, tau: float, N: int,
                 predicate: str) -> dict | None:
    """The re-verified record under the key of these fields, or None if there is none."""
    return _read_record(Path(store_dir) / f"{store_key(p, p0, tau, N, predicate)}.json")
