"""verify-store: in-process calls of lpmult's public functions, in three phases.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB holds the workload seed, where to put the stores, whether to trace, and how many rounds to run.
Inputs come from inputs.py; lpmult objects are built before any timing.
Every call goes through its module attribute, so a traced run sees the
wrappers that tracing.install() put there.  Calls are timed in chunks,
each right after a timing of the phase's reference kernel (calib.py).
RESULT holds the timeline: the timed ops ("round<i>:<phase>.<chunk>", pool,
wall seconds) and the kernel timings per pool; each call's output (None where it
raised) and, when traced, the spans.
"""

import contextlib
import io
import json
import sys

import numpy as np

import lpmult.catalog as catalog
import lpmult.cli as cli
import lpmult.martingale as mart
import lpmult.report as report
import lpmult.tensor as tensor
import lpmult.transference as transference
from lpmult.exponents import ExponentConfig
from lpmult.grid import TorusGrid

import calib
import inputs
import tracing

# The reference kernel each phase is scaled by (each phase is its own
# pool of kernel timings), and how many calls are timed as one op between
# two kernel timings.
PHASES = {"batch": ("interp", 2000), "deep": ("memory", 1), "store": ("interp", 1)}


def _enum_args(inst):
    """(sequence, transform, exponents) for perturbed_ratio_exact."""
    seq = mart.MartingaleDifferenceSequence(tuple(
        t.reshape((2,) * k + (t.shape[1],)) for k, t in enumerate(inst["tables"], start=1)))
    return seq, mart.TransformConfig(inst["beta"], inst["tau"]), ExponentConfig(inst["p"])


def _enum_call(args):
    return lambda: mart.perturbed_ratio_exact(*args)


def prepare(seed):
    """({"batch": calls, "deep": calls}, store records); a call is (op id, thunk)."""
    batch = [(f"batch:{i}", _enum_call(_enum_args(inst)))
             for i, inst in enumerate(inputs.batch_inputs(seed))]

    symbols = {"identity": catalog.identity_symbol(2), "beurling-real": catalog.beurling_real()}
    for i, g in enumerate(inputs.gauss_inputs(seed)):
        cfg = transference.GaussianPairingConfig(d=2, j=tuple(g["j"]), k=tuple(g["k"]),
                                                 eps=g["eps"])
        sym = symbols[g["symbol"]]
        batch.append((f"gauss:{i}", lambda cfg=cfg, sym=sym: complex(
            transference.gaussian_damped_pairing(cfg, sym))))

    grid = TorusGrid(1, 8)
    for i, coeffs in enumerate(inputs.shear_inputs(seed)):
        summands = [tensor.TensorGridFunction(grid, 2, np.fft.ifftn(c) * 64) for c in coeffs]
        batch.append((f"shear:{i}", lambda s=summands: tensor.shear_norm_check(s, 2, 4.0)))

    m_r = catalog.beurling_real()
    for i, support in enumerate(inputs.deviation_inputs(seed)):
        for N in inputs.DEVIATION_N:
            batch.append((f"deviation:{i}:{N}", lambda s=support, N=N: float(
                transference.multiplier_deviation(m_r, s, N))))

    deep = [(f"deep:{inst['N']}", _enum_call(_enum_args(inst)))
            for inst in inputs.deep_inputs(seed)]

    records = []
    for inst in inputs.store_inputs(seed):
        args = _enum_args(inst)
        ratio = mart.perturbed_ratio_exact(*args)
        records.append(report.sequence_to_record(args[0], inst["beta"], inst["tau"], args[2],
                                                 ratio, inputs.program_seed(seed), "def2"))
    return {"batch": batch, "deep": deep}, records


def store_phase(records, store_dir):
    def norms():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["norms", "--family", "beurling", "--p", "4",
                             "--store-dir", store_dir])
        if code != 0:
            raise RuntimeError(f"norms exited {code}")
        return buf.getvalue()

    calls = [(f"store:{r['N']}", lambda r=r: report.update_store(store_dir, r)) for r in records]
    calls.append(("norms", norms))
    # Each lookup re-reads the whole store (about 20 MB), so only the
    # shallowest and the deepest record are read back and verified.
    found = {}

    def lookup(r):
        found[r["N"]] = report.lookup_store(store_dir, r["p"], r["p0"], r["tau"], r["N"],
                                            r["predicate"])
        return found[r["N"]]["ratio"]

    for r in (records[0], records[-1]):
        calls.append((f"lookup:{r['N']}", lambda r=r: lookup(r)))
        calls.append((f"verify:{r['N']}", lambda r=r: report.verify_record(found[r["N"]])))
    return calls


def _plain(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if hasattr(value, "lhs"):
        return [value.lhs, value.rhs, value.aligned]
    return value


def run_phase(name, calls, tracer, timeline, prefix):
    """Run calls in order, timed on timeline as ops prefix + name + "." + chunk
    index; returns (outputs, errors)."""
    outputs, errors = {}, {}

    def run(chunk):
        for op, call in chunk:
            if tracer is not None:
                tracer.op = op
            try:
                outputs[op] = _plain(call())
            except Exception as exc:  # one failed op must not stop the phase
                outputs[op] = None
                errors[op] = f"{type(exc).__name__}: {exc}"

    kind, size = PHASES[name]
    for i in range(0, len(calls), size):
        timeline.measure(f"{prefix}{name}.{i // size}", kind, name,
                         lambda chunk=calls[i:i + size]: run(chunk))
    return outputs, errors


def main(job_path, result_path):
    """job["rounds"] rounds of the three phases, each with a fresh store.

    Outputs are kept from the first round; a later round that differs
    from it counts as an error.
    """
    with open(job_path) as fh:
        job = json.load(fh)
    phases, records = prepare(job["seed"])
    tracer = None
    if job["traced"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli.main = tracer.wrap("cli.main", cli.main)
    timeline = calib.Timeline(calib.Reference())
    result = {"rounds": [], "outputs": None, "errors": {}}
    for index in range(job["rounds"]):
        phases["store"] = store_phase(records, f"{job['store_root']}/round{index}")
        row = {"ops": 0}
        outputs = {}
        for name in PHASES:
            out, errors = run_phase(name, phases[name], tracer, timeline, f"round{index}:")
            row["ops"] += len(out)
            outputs.update(out)
            result["errors"].update(errors)
        if result["outputs"] is None:
            result["outputs"] = outputs
        else:
            for op, value in outputs.items():
                if value != result["outputs"][op]:
                    result["errors"][op] = f"round {index} differs from round 0"
        result["rounds"].append(row)
    timeline.close()
    result["timeline"] = timeline.export()
    result["spans"] = tracer.spans if tracer is not None else []
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
