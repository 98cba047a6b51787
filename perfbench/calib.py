"""Reference kernels that measure how fast the machine is right now.

A shared 2-vCPU VM runs the same code up to 1.5 times slower from one
minute (or hour) to the next, so a raw wall time says as much about the
neighbours as about lpmult.  The benchmark times a fixed kernel before
every op it times (and once after the last), and scales the ops' wall
times by NOMINAL_S[kind] / (mean of the kernel timings among the same
kind of ops in the run): their time at the speed the kernel had when
NOMINAL_S was measured.  The mean is over many timings because one is as
short as the second-to-second jitter it would otherwise bring in; their
mean follows the slow drift, which is what differs between runs.

The kernels use numpy, the stdlib and oracle.py only (never lpmult), so a
change to lpmult moves the op times and not the kernels.  Each kind
follows the ops it scales:

  interp   100 tiny hypercube enumerations: Python and numpy call overhead
           (lpmult's search ascent, small perturbed_ratio_exact calls, the
           store's JSON encoding)
  memory   one N = 18 hypercube enumeration: fresh arrays of several MB
           (certify's witness lifts and FFTs, deep enumerations,
           interpreter start and imports)
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import inputs
import oracle

# Median kernel times on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
NOMINAL_S = {"interp": 0.015, "memory": 0.07, "fft": 0.15}


class Reference:
    """The kernels, on inputs built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20111024)
        self.small = []
        for i in range(100):
            N, m = 1 + i % 8, 1 + i % 2
            self.small.append((inputs.random_tables(rng, N, m), inputs.random_beta(rng, N),
                               0.5 * (i % 2), inputs.P))
        self.big = (inputs.random_tables(rng, 18, 1), inputs.random_beta(rng, 18), 0.5, inputs.P)
        self.wave = None

    def time(self, kind):
        """Wall seconds of one run of the kernel `kind`."""
        if kind == "fft" and self.wave is None:
            rng = np.random.default_rng(20111024)
            self.wave = rng.standard_normal(2**21) + 1j * rng.standard_normal(2**21)
        t = time.perf_counter()
        if kind == "fft":
            float(np.mean(np.abs(np.fft.fft(self.wave)) ** 4))
        else:
            for args in (self.small if kind == "interp" else [self.big]):
                oracle.ratio(*args)
        return time.perf_counter() - t


class Server:
    """A child process running the kernels, with Reference's time().

    The benchmark process uses it so that the kernels' arrays never count
    in its memory: a child's peak RSS includes its parent's, and the
    benchmark reads lpmult's peak RSS from its children.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, __file__], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def time(self, kind):
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        """End the child and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def serve():
    """The Server's child: one kernel kind per stdin line, its seconds per stdout line."""
    reference = Reference()
    for line in sys.stdin:
        print(repr(reference.time(line.strip())), flush=True)


class Timeline:
    """Op wall times and the kernel timings taken between them, in pools.

    A pool is a set of ops of one kind of work (a workload's commands, or
    one phase of verify-store) with the kernel timings taken among them;
    each op is timed right after a ref() of its pool (measure() does both),
    and close() times each pool's kernel once more after its last op.  An
    op is scaled by its own pool's kernel timings only, because the state
    a phase leaves behind (a large heap, a warm page cache) also moves the
    kernel.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.ops = []        # [name, pool, wall seconds]
        self.samples = {}    # pool -> kernel times
        self.kinds = {}      # pool -> kernel kind
        self._open = set()   # pools with an op after their latest timing

    def ref(self, kind, pool):
        self.kinds[pool] = kind
        self.samples.setdefault(pool, []).append(self.reference.time(kind))
        self._open.discard(pool)

    def add(self, name, pool, seconds):
        """Record op `name`, timed right after ref(kind, pool)."""
        self.ops.append([name, pool, seconds])
        self._open.add(pool)

    def measure(self, name, kind, pool, fn):
        """ref(kind, pool), then fn() timed as op `name`; returns fn()."""
        self.ref(kind, pool)
        t = time.perf_counter()
        try:
            return fn()
        finally:
            self.add(name, pool, time.perf_counter() - t)

    def close(self):
        for pool in sorted(self._open):
            self.ref(self.kinds[pool], pool)

    def merge(self, other, prefix):
        """Take in another timeline's ops and pools, their names prefixed."""
        self.ops.extend([prefix + name, prefix + pool, seconds]
                        for name, pool, seconds in other["ops"])
        for pool, kind in other["kinds"].items():
            self.kinds[prefix + pool] = kind
            self.samples[prefix + pool] = list(other["samples"][pool])

    def export(self):
        return {"ops": self.ops, "samples": self.samples, "kinds": self.kinds}

    def factor(self, pool):
        """NOMINAL_S of the pool's kernel over its mean time: 1 at the nominal speed."""
        samples = self.samples[pool]
        return NOMINAL_S[self.kinds[pool]] * len(samples) / sum(samples)

    def scaled(self, name):
        """Seconds at the nominal kernel speed of the ops called `name`, summed."""
        return sum(seconds * self.factor(pool) for op, pool, seconds in self.ops if op == name)

    def raw(self, prefix=""):
        """Wall seconds of the ops whose names start with prefix, summed."""
        return sum(seconds for op, _, seconds in self.ops if op.startswith(prefix))


if __name__ == "__main__":
    serve()
