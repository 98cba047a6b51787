"""The machine and code a result was measured on."""

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _proc_fields(path, keys):
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in keys and key not in out:
                    out[key] = value.strip()
    except OSError:
        pass
    return out


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tree_sha256(src):
    """Digest of every .py file under src, so a result names its code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, workload: str, seed: int, seconds, trace: int) -> dict:
    mem = _proc_fields("/proc/meminfo", {"MemTotal", "MemAvailable"})
    cpu = _proc_fields("/proc/cpuinfo", {"model name"})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total": mem.get("MemTotal"),
        "mem_available": mem.get("MemAvailable"),
        "cpu_model": cpu.get("model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(root / "src"),
    }
