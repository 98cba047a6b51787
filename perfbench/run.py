#!/usr/bin/env python3
"""lpmult benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; lpmult is used
from its src/ directory.  Workloads (inputs.py makes their inputs from
the seed):

  search-chain   lpmult search-martingale at N = 2..8 through one store
  certify-deep   lpmult certify on seeded martingale files, N = 8, 9, 10
  verify-store   in-process enumerations, sweeps and store round trips

One process at a time, one op at a time, one BLAS/OpenMP thread.  Every
reported ratio is re-derived by oracle.py, which does not import lpmult;
a nonzero exit, an exception or an oracle miss counts as a failed op.

--trace 0 prints the end-to-end metrics: the workload runs in rounds
that fill about --seconds, and each metric is the median over rounds.
--trace 1 prints the per-layer metrics: one round untraced, then two
traced ones (launch.py / worker.py wrap lpmult's public functions); the
counts of the two traced rounds must agree exactly.

Stdout ends with the result line; the lines before it give the
environment and the per-op detail.  Results and spans are also written
under .perfbench/results/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import calib
import envinfo
import inputs
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_REPEATS = 6   # half before the measured rounds, half after
NEAR_CAP = 0.5   # a search whose wall time reaches this share of its cap fails
# The share of --seconds each round stands for: a run does
# round(--seconds / ROUND_S) rounds (at least one), a count fixed in
# advance, so a slow machine does not change how many samples the median
# gets.  At --seconds 28 that is 4 search chains, 2 certify rounds (and
# one more run of the light ops) and 2 verify rounds, about 30-50 s of
# wall time in all on a 2-vCPU Intel Xeon VM.
ROUND_S = {"search-chain": 7.0, "certify-deep": 14.0, "verify-store": 14.0}
# certify-deep's short ops, run this many more times after the full rounds:
# one run of each is too short to steady their median.
CERTIFY_LIGHT = ("real-n8", "matrix-n8")
CERTIFY_LIGHT_REPEATS = 1

# name -> unit; the same lists as BENCHMARK.json.
END_TO_END = {
    "setup_s": "s", "run_s": "s", "light_s": "s", "deep_s": "s",
    "peak_rss_mib": "MiB", "ops_ok_frac": "frac", "best_ratio": "ratio",
}
PER_LAYER = {
    "martingale.search_extremal.busy_s": "s",
    "martingale.search.starts": "count",
    "martingale.search.ms_per_start": "ms",
    "martingale.perturbed_ratio_exact.calls": "count",
    "martingale.perturbed_ratio_exact.busy_s": "s",
    "martingale.perturbed_ratio_exact.points": "count",
    "martingale.perturbed_ratio_exact.ns_per_point": "ns",
    "witness.build.busy_s": "s",
    "witness.build.self_s": "s",
    "tensor.lift.calls": "count",
    "tensor.lift.busy_s": "s",
    "tensor.lift.points": "count",
    "tensor.lift.ns_per_point": "ns",
    "tensor.lp_norm.busy_s": "s",
    "grid.fft.calls": "count",
    "grid.fft.busy_s": "s",
    "grid.fft.bytes": "B",
    "transference.gaussian.busy_s": "s",
    "transference.gaussian.nodes": "count",
    "transference.deviation.busy_s": "s",
    "tensor.shear.busy_s": "s",
    "report.store.busy_s": "s",
    "report.store.writes": "count",
    "report.store.bytes": "B",
    "report.verify.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "frac",
}
# Counts that must repeat exactly between the two traced rounds.
EXACT_COUNTS = ("martingale.search.starts", "martingale.perturbed_ratio_exact.calls",
                "martingale.perturbed_ratio_exact.points", "tensor.lift.calls",
                "grid.fft.calls")


class Deadline(Exception):
    """The run would overrun DEADLINE_S."""


class Run:
    """Processes, failures and peak memory of one benchmark run."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench" / "tmp" / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.peak_kib = 0
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        # One CPU for the run and every process it starts (they inherit it):
        # the two vCPUs of a shared VM can run at different speeds, and the
        # reference kernels only measure the CPU the ops run on if both
        # run on the same one.
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        # Every timed op of the run, with the reference kernel timings (calib.py).
        self.kernels = calib.Server(self.env)
        self.timeline = calib.Timeline(self.kernels)

    def fail(self, op, problem):
        self.failures.append(f"{op}: {problem}")

    def spawn(self, argv, count_rss=True):
        """Run argv to its end; returns (exit code, wall seconds, peak RSS KiB)."""
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise Deadline()
        with open(self.work / "stderr.log", "ab") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # e.g. SIGTERM: the child must not outlive the run
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        if count_rss:
            self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return proc.returncode, seconds, usage.ru_maxrss

    def cli(self, args, traced, tag):
        """One lpmult command; returns (exit code, seconds, spans)."""
        if not traced:
            code, seconds, _ = self.spawn([sys.executable, "-m", "lpmult.cli", *args])
            return code, seconds, []
        out = self.work / f"spans-{tag}.json"
        code, seconds, _ = self.spawn([sys.executable, str(HERE / "launch.py"), str(out),
                                       "--", *args])
        spans = json.loads(out.read_text()) if out.exists() else []
        return code, seconds, spans


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _store_records(store):
    """Every record in the store directory's JSON files."""
    for path in sorted(Path(store).glob("*.json")):
        data = _load_json(path)
        if isinstance(data, dict):
            yield from (r for r in data.values() if isinstance(r, dict))


def median_sum(run, keys, names):
    """The median over rounds `keys` of the round's time in the named ops,
    at the nominal kernel speed."""
    return statistics.median(sum(run.timeline.scaled(f"{key}:{name}") for name in names)
                             for key in keys)


# --- search-chain ----------------------------------------------------------

def check_search(code, seconds, report_path, store, N):
    """(problem or None, achieved ratio) for one search-martingale op."""
    if code != 0:
        return f"exit {code}", None
    report = _load_json(report_path)
    if report is None:
        return "no report", None
    rec = next((r for r in _store_records(store) if r.get("N") == N), None)
    if rec is None:
        return "no store record", None
    expected = oracle.check_record(rec)
    if expected is None:
        return f"stored ratio {rec['ratio']!r} does not reproduce", None
    got = report.get("achieved_ratio")
    if not oracle.close(got, expected):
        return f"achieved_ratio {got!r} != oracle {expected!r}", None
    if expected > oracle.ceiling(inputs.P, 0.0) + 1e-9:
        return f"ratio {expected!r} above the ceiling", None
    # The report's own wall time where it gives one, else the process's.
    wall = report.get("wall_time_s", seconds)
    if wall >= NEAR_CAP * inputs.SEARCH_WALL_CAP_S:
        return f"wall time {wall:.1f}s near the cap", None
    return None, got


def search_round(run, pass_dir, traced, index):
    store = pass_dir / "store"
    out = {"key": pass_dir.name, "ratio": {}, "spans": []}
    for N in inputs.SEARCH_DEPTHS:
        report = pass_dir / f"search-n{N}.json"
        args = ["search-martingale", *inputs.SEARCH_FLAGS, "--n", str(N),
                "--seed", str(inputs.program_seed(run.seed, index)),
                "--wall-cap", str(inputs.SEARCH_WALL_CAP_S),
                "--store-dir", str(store), "--out", str(report)]
        run.attempted += 1
        run.timeline.ref("interp", "search")
        code, seconds, spans = run.cli(args, traced, f"{pass_dir.name}-n{N}")
        run.timeline.add(f"{pass_dir.name}:{N}", "search", seconds)
        out["spans"].append(spans)
        problem, ratio = check_search(code, seconds, report, store, N)
        if problem:
            run.fail(f"search n={N}", problem)
        out["ratio"][N] = ratio
    return out


def search_metrics(run, rounds):
    depths, keys = inputs.SEARCH_DEPTHS, [r["key"] for r in rounds]
    light = median_sum(run, keys, [N for N in depths if N <= 5])
    deep = median_sum(run, keys, [N for N in depths if N > 5])
    detail = {f"search_s.n{N}": median_sum(run, keys, [N]) for N in depths}
    ratios = {f"ratio.n{N}": [r["ratio"][N] for r in rounds] for N in inputs.SEARCH_DEPTHS}
    last = inputs.SEARCH_DEPTHS[-1]
    best = [r["ratio"][last] for r in rounds]
    best = statistics.mean(best) if None not in best else None
    return ({"run_s": median_sum(run, keys, depths), "light_s": light, "deep_s": deep,
             "best_ratio": best}, {**detail, **ratios})


# --- certify-deep ----------------------------------------------------------

def certify_setup(run):
    """Martingale files for the certify ops, with their oracle ratios."""
    ops = inputs.certify_inputs(run.seed)
    for op in ops:
        op["file"] = run.work / f"martingale-{op['name']}.json"
        op["file"].write_text(json.dumps(inputs.record(op["tables"], op["beta"], op["tau"],
                                                       op["p"])))
        op["expected"] = oracle.ratio(op["tables"], op["beta"], op["tau"], op["p"])
        del op["tables"]
    return ops


def check_certify(code, report_path, op):
    if code != 0:
        return f"exit {code}", None
    report = _load_json(report_path)
    if report is None:
        return "no report", None
    got, expected = report.get("achieved_ratio"), op["expected"]
    if not oracle.close(got, expected):
        return f"achieved_ratio {got!r} != oracle {expected!r}", None
    if not report.get("certified_lower_bound", math.inf) <= got + 1e-12:
        return "certified bound above the achieved ratio", None
    if expected > oracle.ceiling(op["p"], op["tau"]) + 1e-9:
        return f"ratio {expected!r} above the ceiling", None
    return None, got


def certify_round(run, pass_dir, traced, index, ops):
    out = {"key": pass_dir.name, "ratio": {}, "spans": []}
    for op in ops:
        report = pass_dir / f"certify-{op['name']}.json"
        args = ["certify", op["family"], "--p", repr(op["p"]), "--tau", repr(op["tau"]),
                "--n", str(op["N"]), "--martingale", str(op["file"]),
                "--store-dir", str(pass_dir / "store"), "--out", str(report)]
        run.attempted += 1
        run.timeline.ref("fft", "certify")
        code, seconds, spans = run.cli(args, traced, f"{pass_dir.name}-{op['name']}")
        run.timeline.add(f"{pass_dir.name}:{op['name']}", "certify", seconds)
        out["spans"].append(spans)
        problem, ratio = check_certify(code, report, op)
        if problem:
            run.fail(f"certify {op['name']}", problem)
        out["ratio"][op["name"]] = ratio
    return out


def certify_light_rounds(run, ops):
    """The CERTIFY_LIGHT ops once more per repeat, as rounds light<i>."""
    light = [op for op in ops if op["name"] in CERTIFY_LIGHT]
    rounds = []
    for index in range(CERTIFY_LIGHT_REPEATS):
        pass_dir = run.work / f"light{index}"
        pass_dir.mkdir()
        rounds.append(certify_round(run, pass_dir, False, index, light))
    return rounds


def certify_metrics(run, rounds):
    """Full rounds are named round<i>; the light rounds add to light_s only."""
    every = [r["key"] for r in rounds]
    keys = [key for key in every if key.startswith("round")]
    op = lambda name, keys=keys: median_sum(run, keys, [name])
    detail = {"certify_s.n8": op("real-n8", every), "certify_s.n9": op("real-n9"),
              "certify_s.n10": op("real-n10"), "certify_matrix_s.n8": op("matrix-n8", every)}
    detail.update({f"ratio.{k}": v for k, v in rounds[0]["ratio"].items()})
    return {"run_s": median_sum(run, keys, [name for name, *_ in inputs.CERTIFY_OPS]),
            "light_s": median_sum(run, every, CERTIFY_LIGHT),
            "deep_s": op("real-n10"), "best_ratio": rounds[0]["ratio"]["real-n10"]}, detail


# --- verify-store ----------------------------------------------------------

def verify_job(run, tag, traced, rounds):
    """Run worker.py once; returns its result dict (None if it failed)."""
    job = run.work / f"job-{tag}.json"
    result = run.work / f"result-{tag}.json"
    job.write_text(json.dumps({"seed": run.seed, "traced": traced, "rounds": rounds,
                               "store_root": str(run.work / f"stores-{tag}")}))
    code, _, _ = run.spawn([sys.executable, str(HERE / "worker.py"), str(job), str(result)])
    data = _load_json(result) if code == 0 else None
    if data is None:
        run.attempted += 1
        run.fail(f"worker {tag}", f"exit {code}")
        return None
    run.attempted += sum(r["ops"] for r in data["rounds"])
    run.timeline.merge(data["timeline"], f"{tag}/")
    for op, problem in sorted(data["errors"].items()):
        run.fail(op, problem)
    return data


def check_verify(run, data, store_dir):
    """Check the worker's first-round outputs against the oracle."""
    out = data["outputs"]
    seed = run.seed

    def expect(op, ok, what):
        if out.get(op) is not None and not ok:
            run.fail(op, f"{what}: got {out[op]!r}")

    batch = inputs.batch_inputs(seed)
    groups = {}
    for i, inst in enumerate(batch):
        groups.setdefault((inst["N"], inst["m"]), []).append(i)
    for idx in groups.values():
        insts = [batch[i] for i in idx]
        tables = [np.stack([inst["tables"][k] for inst in insts])
                  for k in range(len(insts[0]["tables"]))]
        want = oracle.ratios(tables, [inst["beta"] for inst in insts],
                             [inst["tau"] for inst in insts], [inst["p"] for inst in insts])
        for i, inst, w in zip(idx, insts, want):
            op, got = f"batch:{i}", out.get(f"batch:{i}")
            expect(op, oracle.close(got, w), f"oracle {w!r}")
            expect(op, got is None or got <= oracle.ceiling(inst["p"], inst["tau"]) + 1e-9,
                   "above the ceiling")
            if inst["p"] == 2.0:
                expect(op, oracle.close(got, math.hypot(1.0, inst["tau"])), "p = 2 value")

    for i, g in enumerate(inputs.gauss_inputs(seed)):
        op = f"gauss:{i}"
        if out.get(op) is None:
            continue
        v = complex(*out[op])
        j, k = np.asarray(g["j"], float), np.asarray(g["k"], float)
        if g["symbol"] == "identity":
            want = math.exp(-math.pi * float(np.sum((j - k) ** 2)) / g["eps"])
            expect(op, abs(v - want) <= 1e-8, f"identity pairing {want!r}")
        else:
            expect(op, abs(v) <= 1.0 + 1e-8, "pairing above sup |m|")
            if g["eps"] == 2.0 ** -(inputs.GAUSS_HALVINGS - 1):
                want = float(oracle.beurling_real(j))
                expect(op, abs(v - want) <= 1e-2, f"limit m_R(j) = {want!r}")

    for i, coeffs in enumerate(inputs.shear_inputs(seed)):
        op = f"shear:{i}"
        if out.get(op) is None:
            continue
        lhs, rhs, aligned = out[op]
        want = float(np.mean(np.abs(sum(np.fft.ifftn(c) * 64 for c in coeffs)) ** 4))
        expect(op, aligned and oracle.close(rhs, want, 1e-12)
               and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"shear invariance at {want!r}")

    for i, support in enumerate(inputs.deviation_inputs(seed)):
        for N in inputs.DEVIATION_N:
            op = f"deviation:{i}:{N}"
            expect(op, oracle.close(out.get(op), oracle.deviation(support, N)), "deviation")

    for inst in inputs.deep_inputs(seed):
        op = f"deep:{inst['N']}"
        want = oracle.ratio(inst["tables"], inst["beta"], inst["tau"], inst["p"])
        expect(op, oracle.close(out.get(op), want), f"oracle {want!r}")

    stored = {r["N"]: r for r in _store_records(store_dir)}
    best = None
    for inst in inputs.store_inputs(seed):
        N = inst["N"]
        want = oracle.ratio(inst["tables"], inst["beta"], inst["tau"], inst["p"])
        best = want if best is None else max(best, want)
        expect(f"store:{N}", out.get(f"store:{N}") is True, "record not written")
        rec = stored.get(N)
        if rec is None or oracle.check_record(rec) is None or not oracle.close(rec["ratio"], want):
            run.fail(f"store:{N}", "stored record does not reproduce the oracle ratio")
        for kind in ("lookup", "verify"):
            if f"{kind}:{N}" in out:
                expect(f"{kind}:{N}", oracle.close(out[f"{kind}:{N}"], want), f"oracle {want!r}")
    if out.get("norms") is not None:
        rows = [line.split(",") for line in out["norms"].strip().splitlines()]
        col = rows[0].index("certified_so_far")
        got = float(rows[1][col]) if len(rows) == 2 and rows[1][col] else None
        expect("norms", oracle.close(got, best), f"certified_so_far {best!r}")
    return best


def verify_keys(tag, data):
    return [f"{tag}/round{i}" for i in range(len(data["rounds"]))]


def verify_metrics(run, tag, data):
    keys = verify_keys(tag, data)
    names = [name.split(":", 1)[1] for name, *_ in data["timeline"]["ops"]
             if name.startswith("round0:")]
    phase = lambda p: median_sum(run, keys, [n for n in names if n.split(".")[0] == p])
    detail = {"verify_s.batch": phase("batch"), "verify_s.deep": phase("deep"),
              "store_s": phase("store")}
    return ({"run_s": median_sum(run, keys, names), "light_s": phase("batch"),
             "deep_s": phase("deep")}, detail)


def wall_detail(run, keys):
    """For the detail line: the rounds' median wall time, and the factor
    each kernel kind scaled the run's times by."""
    out = {"wall_run_s": statistics.median(run.timeline.raw(f"{key}:") for key in keys)}
    for pool in run.timeline.samples:
        out[f"speed_factor.{pool}"] = run.timeline.factor(pool)
    return out


# --- per-layer metrics -----------------------------------------------------

def layer_metrics(span_lists, op_s=None):
    """PER_LAYER values (without trace.overhead_s) from one traced round.

    span_lists holds one span list per process.  The in-process op time is
    the time in cli.main, or op_s when the ops were called in-process.
    """
    rows = {}
    starts = covered = main_busy = main_self = 0.0
    for spans in span_lists:
        selfs = tracing.self_times(spans)
        for name, row in tracing.summarize(spans).items():
            acc = rows.setdefault(name, {})
            for key, val in row.items():
                acc[key] = acc.get(key, 0) + val
        for i, s in enumerate(spans):
            if s[3] < 0:
                covered += s[2] - s[1]
            if s[0] == "cli.main":
                main_busy += s[2] - s[1]
                main_self += selfs[i]
            if (s[0] == "martingale.perturbed_ratio_exact" and s[3] >= 0
                    and spans[s[3]][0] == "martingale.search_extremal"):
                starts += 1

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def per(a, b, scale):
        return a * scale / b if b else 0.0

    enum, lift = "martingale.perturbed_ratio_exact", "tensor.lift"
    search_busy = get("martingale.search_extremal", "busy_s")
    inproc = main_busy if op_s is None else op_s
    return {
        "martingale.search_extremal.busy_s": search_busy,
        "martingale.search.starts": starts,
        "martingale.search.ms_per_start": per(search_busy, starts, 1e3),
        f"{enum}.calls": get(enum, "calls"),
        f"{enum}.busy_s": get(enum, "busy_s"),
        f"{enum}.points": get(enum, "points"),
        f"{enum}.ns_per_point": per(get(enum, "busy_s"), get(enum, "points"), 1e9),
        "witness.build.busy_s": get("witness.build", "busy_s"),
        "witness.build.self_s": get("witness.build", "self_s"),
        f"{lift}.calls": get(lift, "calls"),
        f"{lift}.busy_s": get(lift, "busy_s"),
        f"{lift}.points": get(lift, "points"),
        f"{lift}.ns_per_point": per(get(lift, "busy_s"), get(lift, "points"), 1e9),
        "tensor.lp_norm.busy_s": get("tensor.lp_norm", "busy_s"),
        "grid.fft.calls": get("grid.fft", "calls"),
        "grid.fft.busy_s": get("grid.fft", "busy_s"),
        "grid.fft.bytes": get("grid.fft", "bytes"),
        "transference.gaussian.busy_s": get("transference.gaussian", "busy_s"),
        "transference.gaussian.nodes": get("transference.gaussian", "nodes"),
        "transference.deviation.busy_s": get("transference.deviation", "busy_s"),
        "tensor.shear.busy_s": get("tensor.shear", "busy_s"),
        "report.store.busy_s": get("report.store", "busy_s"),
        "report.store.writes": get("report.store", "writes"),
        "report.store.bytes": get("report.store", "bytes"),
        "report.verify.busy_s": get("report.verify", "busy_s"),
        "cli.self_s": main_self,
        "trace.coverage": per(covered - main_self, inproc, 1.0),
    }


# --- running a workload ----------------------------------------------------

def measure_setup(run, repeats):
    """`repeats` timings of interpreter start plus `import lpmult`, as ops setup:<i>."""
    for _ in range(repeats):
        run.attempted += 1
        run.timeline.ref("memory", "setup")
        code, seconds, _ = run.spawn([sys.executable, "-c", "import lpmult"], count_rss=False)
        run.timeline.add(f"setup:{len(run.timeline.ops)}", "setup", seconds)
        if code != 0:
            run.fail("setup", f"exit {code}")


def setup_s(run):
    run.timeline.close()
    return statistics.median(run.timeline.scaled(name) for name, *_ in run.timeline.ops
                             if name.startswith("setup:"))


def planned_rounds(run):
    return max(1, round(run.seconds / ROUND_S[run.workload]))


def cli_rounds(run, round_fn):
    rounds = []
    for index in range(planned_rounds(run)):
        pass_dir = run.work / f"round{index}"
        pass_dir.mkdir()
        rounds.append(round_fn(pass_dir, False, index))
    return rounds


def traced_passes(run, round_fn):
    """One untraced and two traced rounds: (plain, traced, traced)."""
    out = []
    for tag, traced in (("plain", False), ("traced1", True), ("traced2", True)):
        pass_dir = run.work / tag
        pass_dir.mkdir()
        out.append(round_fn(pass_dir, traced, 0))
    return out


def compare_counts(run, first, second):
    for name in EXACT_COUNTS:
        if first[name] != second[name]:
            run.fail("trace counts", f"{name} {first[name]} != {second[name]}")


def execute(run):
    """Returns (metrics, detail, spans written out)."""
    metrics, detail = {}, {}
    if run.trace == 0:
        measure_setup(run, SETUP_REPEATS // 2)
    if run.workload in ("search-chain", "certify-deep"):
        if run.workload == "search-chain":
            round_fn, summarize = (lambda d, t, i: search_round(run, d, t, i)), search_metrics
            names = inputs.SEARCH_DEPTHS
        else:
            ops = certify_setup(run)
            round_fn, summarize = ((lambda d, t, i: certify_round(run, d, t, i, ops)),
                                   certify_metrics)
            names = [op["name"] for op in ops]
        if run.trace == 0:
            rounds = cli_rounds(run, round_fn)
            if run.workload == "certify-deep":
                rounds += certify_light_rounds(run, ops)
            measure_setup(run, SETUP_REPEATS // 2)
            metrics["setup_s"] = setup_s(run)
            values, more = summarize(run, rounds)
            metrics.update(values)
            detail.update(more)
            detail.update(wall_detail(run, [r["key"] for r in rounds
                                            if r["key"].startswith("round")]))
            detail["rounds"] = len(rounds)
            return metrics, detail, []
        plain, first, second = traced_passes(run, round_fn)
        run.timeline.close()
        metrics = layer_metrics(first["spans"])
        compare_counts(run, metrics, layer_metrics(second["spans"]))
        metrics["trace.overhead_s"] = (median_sum(run, [first["key"]], names)
                                       - median_sum(run, [plain["key"]], names))
        return metrics, detail, first["spans"]

    if run.trace == 0:
        data = verify_job(run, "plain", False, planned_rounds(run))
        measure_setup(run, SETUP_REPEATS // 2)
        metrics["setup_s"] = setup_s(run)
        if data is None:
            return metrics, detail, []
        best = check_verify(run, data, run.work / "stores-plain" / "round0")
        values, more = verify_metrics(run, "plain", data)
        metrics.update(values)
        detail.update(more)
        detail.update(wall_detail(run, verify_keys("plain", data)))
        metrics["best_ratio"] = best
        detail["rounds"] = len(data["rounds"])
        return metrics, detail, []
    results = [verify_job(run, tag, traced, 1)
               for tag, traced in (("plain", False), ("traced1", True), ("traced2", True))]
    if any(r is None for r in results):
        return metrics, detail, []
    plain, first, second = results
    check_verify(run, first, run.work / "stores-traced1" / "round0")
    # Coverage compares spans with wall time; the overhead compares scaled times.
    wall = [run.timeline.raw(f"{tag}/round0:") for tag in ("plain", "traced1", "traced2")]
    metrics = layer_metrics([first["spans"]], wall[1])
    compare_counts(run, metrics, layer_metrics([second["spans"]], wall[2]))
    scaled = [verify_metrics(run, tag, data)[0]["run_s"]
              for tag, data in (("plain", plain), ("traced1", first))]
    metrics["trace.overhead_s"] = scaled[1] - scaled[0]
    return metrics, detail, [first["spans"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lpmult" / "__init__.py").is_file():
        print(f"perfbench: no lpmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = envinfo.collect(ROOT, args.workload, args.seed, args.seconds, args.trace)
    # SIGTERM unwinds like an error, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    env["pinned_cpu"] = run.cpu
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        metrics, detail, spans = execute(run)
    except Deadline:
        run.fail("run", f"stopped at the {DEADLINE_S:.0f}s deadline")
        metrics, detail, spans = {}, {}, []
    finally:
        run.kernels.close()
        shutil.rmtree(run.work, ignore_errors=True)

    names = END_TO_END if args.trace == 0 else PER_LAYER
    if args.trace == 0:
        metrics["peak_rss_mib"] = run.peak_kib / 1024.0
        metrics["ops_ok_frac"] = (run.attempted - len(run.failures)) / max(run.attempted, 1)
    missing = [n for n in names if metrics.get(n) is None]
    if missing:
        run.fail("metrics", f"not measured: {', '.join(missing)}")
    failed = min(len(run.failures), max(run.attempted, 1))
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in names.items()},
    }
    for problem in run.failures[:20]:
        print(f"perfbench: failed {problem}", file=sys.stderr)

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "result": result, "detail": detail, "failures": run.failures,
         "timeline": run.timeline.export()},
        indent=1, sort_keys=True))
    if spans:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
