"""Command-line front end: searches, certifications, sweeps, and reports.

`search-martingale` and `certify` run one pipeline: check the certificate's
premise (the symbol's axis values) and every search flag, searched or not, before
any file is read; take a martingale (the --martingale file, else the store record
at depth N, re-verified, else a search that reads no store record;
`search-martingale` always searches), certify it with `build_witness`, build the
report, open --out, store a searched martingale, and only then write the report.
`norms` reads a family's one value from --value.  Exit codes: 0 success, 2 invalid
configuration (a non-finite number included), 3 cross-check failure (a symbol off
its axis values, or a bound above the proven ceiling `catalog.ceiling`), 4 store
error.  The search draws no random number, so identical flags give identical
numbers; only `transference shear` draws, from its --seed through numpy's PCG64.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import lpmult
from .catalog import (FAMILIES, beurling_real, c_tau, ceiling, family_symbol,
                      identity_symbol, target_constant)
from .exponents import ExponentConfig
from .martingale import check_search, search_extremal
from .report import (StoreError, lookup_store, load_store, read_martingale,
                     sequence_from_record, sequence_to_record, update_store)
from .witness import CrossCheckError, build_witness, check_premise

# Unused: perfbench/tracing.py pins this site, and CI's "tracer sites resolve" step checks it.
build_matrix_witness = build_witness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CROSSCHECK = 3
EXIT_STORE = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--store-dir", type=Path, default=Path("lpmult-store"))
    p.add_argument("--predicate", choices=["def2", "cor7"], default="def2")
    # Accepted and ignored, unlisted, until perfbench stops passing them: the
    # search is its Bellman policy, with no random start and no ascent.
    for flag, kind in (("--seed", int), ("--restarts", int), ("--iters", int),
                       ("--wall-cap", float)):
        p.add_argument(flag, type=kind, help=argparse.SUPPRESS)


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
    import csv  # loaded by the commands that write CSV alone
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
    """(sequence, beta, source), its flags checked already: from the --martingale file,
    the store record at depth N (certify only), or the `sequence()` of the searched policy."""
    if args.martingale is not None:
        return *read_martingale(args.martingale), "file"
    if args.family != "martingale" and (rec := lookup_store(
            args.store_dir, exps.p, exps.p, args.tau, args.n, args.predicate)) is not None:
        return *sequence_from_record(rec), "store"
    pol = search_extremal(exps, args.tau, args.n)
    return pol.sequence(), pol.beta, "search"


def cmd_certify(args) -> int:
    """Martingale, factored certificate, report; then store a searched martingale."""
    exps = ExponentConfig(args.p)
    symbol = family_symbol(args.family) if args.family == "beurling-matrix" else beurling_real()
    check_premise(symbol)  # before any file is read or search run
    check_search(args.n, args.tau)  # searched or not
    if any(v is not None for v in (args.seed, args.restarts, args.iters, args.wall_cap)):
        print("note: --seed, --restarts, --iters and --wall-cap are ignored: the search is "
              "its Bellman policy, with no random start and no ascent", file=sys.stderr)
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    sign, angle = _reduction(args.family, args.theta)

    t0 = time.monotonic()
    seq, beta, source = _martingale(args, exps)
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

    upper = ceiling(exps, args.tau)
    if not ratio <= upper * (1.0 + 1e-12):
        raise CrossCheckError(f"certified bound {ratio} exceeds the proven ceiling {upper}; "
                              "implementation bug")
    target = c_tau(exps, args.tau, args.predicate)
    report = {
        "family": args.family,
        "params": {"theta": args.theta} if args.family == "rotated" else {},
        "p": exps.p, "tau": args.tau, "N": seq.N,
        "achieved_ratio": ratio, "certified_lower_bound": ratio,
        "target_constant": target, "gap": None if target is None else target - ratio,
        "upper_bound": upper, "predicate": args.predicate,
        "wall_time_s": wall, "version": lpmult.__version__, "notes": notes,
    }
    with _output(args.out) as fh:  # opened first: a bad --out fails before the store write
        if source == "search":
            update_store(args.store_dir, sequence_to_record(
                seq, beta, args.tau, exps, ratio, None, args.predicate))
        fh.write(json.dumps(dict(report, timestamp=time.time()), indent=2,
                            sort_keys=True) + "\n")
    return EXIT_OK


def _symbol_by_name(name: str):
    return identity_symbol(2) if name == "identity" else family_symbol(name)


def cmd_transference(args) -> int:
    from .grid import TorusGrid  # these three loaded by this command alone
    from .tensor import TensorGridFunction, check_grid_size, check_norm_exponent, shear_norm_check
    from .transference import GaussianPairingConfig, gaussian_damped_pairing, multiplier_deviation
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
    check_grid_size(grid, J)  # refuse an oversized product or a bad p before any draw
    check_norm_exponent(args.p)
    total = 0  # every shift moves all summands alike: only their sum is kept
    for _ in range(J):
        c = rng.standard_normal((grid.G,) * J) + 1j * rng.standard_normal((grid.G,) * J)
        total += np.fft.ifftn(c, norm="forward")
        del c  # not held while the next one is drawn
    chk = shear_norm_check([TensorGridFunction(grid, J, total)], args.n_shift, args.p)
    _write_csv(args.out, ["lhs", "rhs", "abs_diff", "aligned"],
               [[chk.lhs, chk.rhs, abs(chk.lhs - chk.rhs), chk.aligned]])
    return EXIT_OK


# The families whose one value norms reads from --value, each with the parser of its text.
_VALUE_PARSERS = {"rotated": float, "scaled": float, "F": complex, "vector": float}


def _certified(store_dir: Path | None, cells: set) -> dict:
    """The best stored ratio of each (p, tau, predicate) cell in cells.  The store
    is read one record at a time, and its reader re-verifies every record, so every
    ratio returned holds."""
    best = {}
    if store_dir is None:
        return best
    for _, rec in load_store(store_dir):
        cell = (rec["p"], rec["tau"], rec["predicate"])
        if cell in cells and (cell not in best or rec["ratio"] > best[cell]):
            best[cell] = rec["ratio"]
        del rec  # let it go before the next record is decoded
    return best


def cmd_norms(args) -> int:
    fam, cells = args.family, []
    parse = _VALUE_PARSERS.get(fam)
    if parse is None and args.value is not None:
        raise ValueError(f"family {fam} takes no value")
    text = "0" if args.value is None else args.value  # the library's default value
    values = [""] if parse is None else [parse(s) for s in text.split(",")]
    for p in (float(v) for v in args.p.split(",")):
        exps = ExponentConfig(p)
        for v in values:  # every target before the store is read: a refusal exits 2 first
            target = target_constant(fam, exps, 0.0 if v == "" else v, args.predicate)
            cells.append((v, exps.p, v if fam == "vector" else 0.0, *target))
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


_COMMANDS = ("search-martingale", "certify", "transference", "norms")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with `command`'s subparser alone if it names one, else with all four."""
    parser = argparse.ArgumentParser(
        prog="lpmult",
        description="Lower-bound certification for Lp Fourier multiplier norms.")
    parser.add_argument("--version", action="version", version=lpmult.__version__)
    # A metavar only for one subparser: it would change the "invalid choice" and
    # "required" errors, which only the parser with all four gives.
    one = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    wanted = {command} if one else set(_COMMANDS)

    if "search-martingale" in wanted:
        sm = sub.add_parser("search-martingale",
                            help="search for an extremal martingale, certify it through Re B "
                                 "and store it")
        _add_common(sm)
        sm.add_argument("--n", type=int, required=True)
        sm.set_defaults(func=cmd_certify, family="martingale", theta=0.0, martingale=None)

    if "certify" in wanted:
        ct = sub.add_parser("certify", help="build a witness and certify a lower bound")
        ct.add_argument("family", choices=_CERTIFY_FAMILIES)
        _add_common(ct)
        ct.add_argument("--n", type=int, default=2)
        ct.add_argument("--theta", type=float, default=0.0)
        ct.add_argument("--martingale", type=Path, default=None)
        ct.set_defaults(func=cmd_certify)

    if "transference" in wanted:
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

    if "norms" in wanted:
        nm = sub.add_parser("norms", help="tabulate target constants per family")
        nm.add_argument("--family", required=True, choices=FAMILIES)
        nm.add_argument("--p", default="4")
        nm.add_argument("--value", help="comma list: rotated theta, scaled c, F z or vector tau")
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
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
