"""The package module, how the modules import one another, and the value types."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpmult
from lpmult.catalog import MultiplierSymbol, beurling_real
from lpmult.exponents import ExponentConfig
from lpmult.martingale import MartingaleDifferenceSequence, SearchResult, TransformConfig
from lpmult.policy import solve_policy
from test_cli import _process


def test_package_import_loads_no_module_and_no_numpy(tmp_path):
    code, out = _process(tmp_path, ["-c", "import sys, lpmult; print(sorted(m for m in "
                                    "sys.modules if m.split('.')[0] == 'numpy' or "
                                    "m.startswith('lpmult.')))"])
    assert (code, out) == (0, "[]\n")


def test_package_version_is_the_cli_version(tmp_path):
    assert _process(tmp_path, ["-m", "lpmult.cli", "--version"]) == \
        (0, lpmult.__version__ + "\n")


def test_no_module_imports_another_modules_private_name():
    private = [(path.name, node.module, alias.name)
               for path in sorted(Path(lpmult.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _loaded(tmp_path, args):
    """The modules a `python -m lpmult.cli` process running args imports, from -X importtime."""
    src = str(Path(lpmult.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "lpmult.cli", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_search_and_certify_load_only_what_they_use(tmp_path):
    # The transference sweeps' modules and csv load in their commands alone, the
    # Bellman policies when a search starts; and no module a search or a certify
    # loads (the CLI, run as __main__, included) imports dataclasses.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"m": 1, "tables": [[[1.0, 0.0], [-1.0, 0.0]],
                                                   [[0.5, 0.0]] * 4], "beta": [1, -1]}))
    common = ["--p", "4", "--store-dir", str(tmp_path / "store"), "--out", "out.json"]
    search = _loaded(tmp_path, ["search-martingale", "--n", "3", "--iters", "5", *common])
    certify = _loaded(tmp_path, ["certify", "beurling-real", "--n", "2",
                                 "--martingale", str(inst), *common])
    unused = {"lpmult.tensor", "lpmult.grid", "lpmult.transference", "csv"}
    assert "lpmult.policy" in search and not unused & search
    assert not (unused | {"lpmult.policy"}) & certify
    root = Path(lpmult.__file__).parent
    for name in sorted({"lpmult.cli"} | {m for m in search | certify if m.startswith("lpmult.")}):
        tree = ast.parse((root / f"{name.split('.')[1]}.py").read_text())
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not [node for node in imports if "dataclasses" in (
            getattr(node, "module", None), *(alias.name for alias in node.names))], name


def _values():
    seq = MartingaleDifferenceSequence((np.ones((2, 1)),))
    return [ExponentConfig(p=4.0), beurling_real(), seq, TransformConfig(beta=(1,), tau=0.5),
            SearchResult(sequence=seq, beta=(1,), ratio=1.0), solve_policy(4.0, 0.0, (1,), 1)]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_are_read_only(value):
    # Every field is set once, by the constructor, as on the frozen dataclasses they were.
    assert value.__slots__ and not hasattr(value, "__dict__")
    for name in value.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_types_keep_their_fields_and_checks():
    exps, sym, seq, cfg, res, pol = _values()
    assert (exps.p, exps.q, exps.pstar) == (4.0, 4.0 / 3.0, 4.0)
    assert (sym.d, sym.m, sym.total, sym.name) == (2, 1, False, "beurling-real")
    assert seq.N == 1 and seq.flat.shape == (2, 1) and not seq.flat.flags.writeable
    assert (cfg.beta, cfg.tau) == ((1,), 0.5) and type(cfg.beta[0]) is int
    assert (res.beta, res.ratio, res.stopped_by) == ((1,), 1.0, "iters")
    assert (pol.p, pol.tau, pol.beta, pol.R, pol.actions.shape) == (4.0, 0.0, (1,), 8, (0, 737))
    with pytest.raises(ValueError, match="d and m must be positive"):
        MultiplierSymbol(d=2, evaluator=np.ones_like, m=0)
    with pytest.raises(ValueError, match="p must be finite"):
        ExponentConfig(1.0)
