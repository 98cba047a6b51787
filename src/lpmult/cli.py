"""Command-line front end: searches, certifications, sweeps, and reports.

`search-martingale` and `certify` run one pipeline: check the certificate's
premise (p0 <= p, then the symbol's axis values), take a martingale (the
--martingale file, else the store record at depth N, else a search
warm-started from depth N - 1, each store record re-verified by the store's reader;
`search-martingale` always searches), certify it with the one
`build_witness`, build the report, open --out, store a searched martingale,
and only then write the report.  Exit codes: 0 success,
2 invalid configuration (a non-finite number, p0 > p included), 3 cross-check
failure (a symbol off its axis values, or a bound above the report's target),
4 store error.  All randomness flows from the single --seed flag through
numpy's PCG64 generator, so identical flags reproduce identical numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import lpmult
from .catalog import (FAMILIES, beurling_matrix, beurling_real, c_tau, family_symbol,
                      identity_symbol, target_constant)
from .exponents import ExponentConfig
from .martingale import SearchResult, search_extremal
from .report import (CrossCheckError, StoreError, lookup_store, load_store, read_martingale,
                     sequence_from_record, sequence_to_record, update_store)
from .tensor import TensorGridFunction, check_grid_size, shear_norm_check
from .transference import GaussianPairingConfig, gaussian_damped_pairing, multiplier_deviation
from .witness import build_witness, check_premise
from .grid import TorusGrid

# Unused: perfbench/tracing.py pins this site, and CI's "tracer sites resolve" step checks it.
build_matrix_witness = build_witness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CROSSCHECK = 3
EXIT_STORE = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--store-dir", type=Path, default=Path("lpmult-store"))
    p.add_argument("--predicate", choices=["def2", "cor7"], default="def2")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--iters", type=int, default=600)
    p.add_argument("--wall-cap", type=float, default=60.0)


@contextlib.contextmanager
def _output(path: Path | None):
    """sys.stdout, looked up now as a caller may have redirected it, or path opened
    with its parent directories made, and removed if the block raises."""
    if path is None:
        yield sys.stdout
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_csv(path: Path | None, header: list[str], rows: list[list]) -> None:
    with _output(path) as fh:
        csv.writer(fh).writerows([header, *rows])


_CERTIFY_FAMILIES = ("beurling-real", "beurling-imag", "rotated", "vector",
                     "beurling-matrix")


def _reduction(family: str, theta: float) -> tuple[int, float]:
    """(s, a) with symbol(xi) = s * Re B(R_a xi), R_a the rotation by angle a.

    Multiplier norms on R^2 do not change under rotation or sign, so every
    family is certified by the exact Re B axis witness.
    """
    if family == "beurling-imag":
        return 1, math.pi / 4
    if family == "rotated":
        return -1, -theta / 2
    return 1, 0.0


def _martingale(args, exps):
    """(sequence, beta, source, search result or None) from the --martingale file,
    the store record at depth N (certify only), or a search warm-started from N - 1."""
    if args.martingale is not None:
        return *read_martingale(args.martingale), "file", None

    def stored(N):
        """The store record at depth N, re-verified by the lookup, as a SearchResult, or None."""
        rec = lookup_store(args.store_dir, exps.p, exps.p0, args.tau, N, args.predicate)
        return None if rec is None else SearchResult(*sequence_from_record(rec), rec["ratio"])

    if args.family != "martingale" and (found := stored(args.n)) is not None:
        return found.sequence, found.beta, "store", None
    res = search_extremal(exps, args.tau, args.n, restarts=args.restarts, iters=args.iters,
                          seed=args.seed, wall_cap_s=args.wall_cap,
                          warm_start=stored(args.n - 1) if args.n > 1 else None)
    return res.sequence, res.beta, "search", res


def cmd_certify(args) -> int:
    """Martingale, factored certificate, report; then store a searched martingale."""
    exps = ExponentConfig(args.p, args.p0)
    symbol = beurling_matrix() if args.family == "beurling-matrix" else beurling_real()
    check_premise(symbol, exps)  # before any file is read or search run
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    sign, angle = _reduction(args.family, args.theta)

    t0 = time.monotonic()
    seq, beta, source, res = _martingale(args, exps)
    ratio = build_witness(symbol, seq, beta, args.tau, exps)
    wall = time.monotonic() - t0

    notes = {
        "certificate": "factored",
        "martingale_source": source,
        "reduction": {"relation": "symbol(xi) = sign * ReB(R_angle xi)",
                      "sign": sign, "angle": angle},
        "beta": list(beta),
        "symbol_convention": "displayed quotient (xi2^2-xi1^2+2i xi1 xi2)/|xi|^2",
    }
    if res is not None:
        notes["stopped_by"] = res.stopped_by

    target = c_tau(exps, args.tau, args.predicate)
    if target is not None and ratio > target + 1e-9:
        raise CrossCheckError(f"certified bound {ratio} exceeds target {target} beyond "
                              "tolerance; implementation bug")
    report = {
        "family": args.family,
        "params": {"theta": args.theta} if args.family == "rotated" else {},
        "p": exps.p, "p0": exps.p0, "tau": args.tau, "N": seq.N,
        "achieved_ratio": ratio, "certified_lower_bound": ratio,
        "target_constant": target, "gap": None if target is None else target - ratio,
        "predicate": args.predicate, "seed": args.seed,
        "budget": {"restarts": args.restarts, "iters": args.iters, "wall_cap_s": args.wall_cap},
        "wall_time_s": wall, "version": lpmult.__version__, "notes": notes,
    }
    with _output(args.out) as fh:  # opened first: a bad --out fails before the store write
        if res is not None:
            update_store(args.store_dir, sequence_to_record(
                seq, beta, args.tau, exps, ratio, args.seed, args.predicate))
        fh.write(json.dumps(dict(report, timestamp=time.time()), indent=2,
                            sort_keys=True) + "\n")
    return EXIT_OK


def _symbol_by_name(name: str):
    return identity_symbol(2) if name == "identity" else family_symbol(name)


def cmd_transference(args) -> int:
    if args.halvings < 0 or args.doublings < 0:
        raise ValueError("--halvings and --n-doubling must not be negative")
    if args.mode == "gaussian":
        sym = _symbol_by_name(args.symbol)
        j = tuple(int(v) for v in args.j.split(","))
        k = tuple(int(v) for v in args.k.split(","))
        # The pairing with b = 1 tends to M(j) on the diagonal and to 0 off it.
        target = complex(sym.evaluate(np.asarray(j, dtype=float))) if j == k else 0j
        rows = []
        eps = args.eps_start
        for _ in range(args.halvings + 1):
            cfg = GaussianPairingConfig(d=sym.d, j=j, k=k, eps=eps, p0=args.p0)
            v = gaussian_damped_pairing(cfg, sym)
            rows.append([eps, v.real, v.imag, abs(v - target)])
            eps /= 2.0
        _write_csv(args.out, ["eps", "value_re", "value_im", "error"], rows)
        return EXIT_OK

    if args.mode == "deviation":
        sym = _symbol_by_name(args.symbol)
        support = []
        for chunk in args.support.split(";"):
            support.append(tuple(tuple(int(v) for v in part.split(","))
                                 for part in chunk.split(":")))
        rows = []
        prev = None
        N = args.n_start
        for _ in range(args.doublings + 1):
            dev = multiplier_deviation(sym, support, N)
            rows.append([N, dev, "" if prev is None or dev == 0 else prev / dev])
            prev = dev
            N *= 2
        _write_csv(args.out, ["N", "deviation", "ratio_to_previous"], rows)
        return EXIT_OK

    # shear: argparse admits no other mode
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    grid = TorusGrid(1, args.grid)
    J = args.blocks
    check_grid_size(grid, J)  # refuse an oversized product before any draw
    total = 0  # every shift moves all summands alike: only their sum is kept
    for _ in range(J):
        c = rng.standard_normal((grid.G,) * J) + 1j * rng.standard_normal((grid.G,) * J)
        total += np.fft.ifftn(c, norm="forward")
        del c  # not held while the next one is drawn
    chk = shear_norm_check([TensorGridFunction(grid, J, total)], args.n_shift, args.p)
    _write_csv(args.out, ["lhs", "rhs", "abs_diff", "aligned"],
               [[chk.lhs, chk.rhs, abs(chk.lhs - chk.rhs), chk.aligned]])
    return EXIT_OK


# The parameter a norms table sweeps, per family: (flag, parser).
_SWEPT = {"rotated": ("theta", float), "scaled": ("c", float), "F": ("z", complex)}


def _certified(store_dir: Path | None, cells: set) -> dict:
    """The best stored ratio of each (p, tau, predicate) cell in cells, over the
    records with p0 = p.  The store is read one record at a time, and its reader
    re-verifies every record, so every ratio returned holds."""
    best = {}
    if store_dir is None:
        return best
    for _, rec in load_store(store_dir):
        cell = (rec["p"], rec["tau"], rec["predicate"])
        if rec["p0"] == rec["p"] and cell in cells and \
                (cell not in best or rec["ratio"] > best[cell]):
            best[cell] = rec["ratio"]
        del rec  # let it go before the next record is decoded
    return best


def cmd_norms(args) -> int:
    if not math.isfinite(args.tau):
        raise ValueError(f"--tau must be finite, got {args.tau}")
    fam, cells = args.family, []
    for p in (float(v) for v in args.p.split(",")):
        exps = ExponentConfig(p)
        if fam in _SWEPT:
            flag, parse = _SWEPT[fam]
            values = [parse(s) for s in getattr(args, flag).split(",")]
        else:
            values = [args.tau if fam == "vector" else ""]
        for v in values:  # every target before the store is read: a refusal exits 2 first
            target = target_constant(fam, exps, 0.0 if v == "" else v, args.predicate)
            cells.append((v, exps.p, args.tau if fam == "vector" else 0.0, *target))
    certified = _certified(args.store_dir, {(p, tau, args.predicate)
                                            for _, p, tau, _, _ in cells})
    rows = []
    for v, p, tau, target, external in cells:  # no target (vector outside C^tau): empty cells
        best = certified.get((p, tau, args.predicate))
        rows.append([fam, v, p, "" if target is None else target, "" if best is None else best,
                     "" if None in (best, target) else target - best, external])
    _write_csv(args.out, ["family", "parameter", "p", "target",
                          "certified_so_far", "gap", "external_assumption"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpmult",
        description="Lower-bound certification for Lp Fourier multiplier norms.")
    parser.add_argument("--version", action="version", version=lpmult.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sm = sub.add_parser("search-martingale",
                        help="search for an extremal martingale, certify it through Re B "
                             "and store it")
    _add_common(sm)
    sm.add_argument("--n", type=int, required=True)
    sm.set_defaults(func=cmd_certify, family="martingale", theta=0.0, martingale=None)

    ct = sub.add_parser("certify", help="build a witness and certify a lower bound")
    ct.add_argument("family", choices=_CERTIFY_FAMILIES)
    _add_common(ct)
    ct.add_argument("--n", type=int, default=2)
    ct.add_argument("--theta", type=float, default=0.0)
    ct.add_argument("--martingale", type=Path, default=None)
    ct.set_defaults(func=cmd_certify)

    tr = sub.add_parser("transference", help="Gaussian pairing / deviation / shear sweeps")
    tr.add_argument("mode", choices=["gaussian", "deviation", "shear"])
    tr.add_argument("--symbol", default="beurling-real",
                    choices=["identity", "beurling", "beurling-real", "beurling-imag"])
    tr.add_argument("--j", default="0,1")
    tr.add_argument("--k", default="0,1")
    tr.add_argument("--eps-start", type=float, default=1.0)
    tr.add_argument("--halvings", type=int, default=10)
    tr.add_argument("--p0", type=float, default=2.0)
    tr.add_argument("--support", default="1,0:0,1")
    tr.add_argument("--n-start", type=int, default=10)
    tr.add_argument("--n-doubling", dest="doublings", type=int, default=2)
    tr.add_argument("--grid", type=int, default=8)
    tr.add_argument("--blocks", type=int, default=2)
    tr.add_argument("--n-shift", type=int, default=2)
    tr.add_argument("--p", type=float, default=4.0)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", type=Path, default=None)
    tr.set_defaults(func=cmd_transference)

    nm = sub.add_parser("norms", help="tabulate target constants per family")
    nm.add_argument("--family", required=True, choices=FAMILIES)
    nm.add_argument("--p", default="4")
    nm.add_argument("--theta", default="0")
    nm.add_argument("--c", default="1")
    nm.add_argument("--z", default="0")
    nm.add_argument("--tau", type=float, default=0.0)
    nm.add_argument("--predicate", choices=["def2", "cor7"], default="def2")
    nm.add_argument("--store-dir", type=Path, default=None)
    nm.add_argument("--out", type=Path, default=None)
    nm.set_defaults(func=cmd_norms)

    return parser


def main(argv=None) -> int:
    if argv is None:
        # The process's entry (the lpmult script, python -m lpmult.cli): nothing the
        # imports made is garbage, so freeze it, and no later full collection, the
        # exit's included, walks it again.  main(argv) in process leaves GC alone.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return EXIT_STORE
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
