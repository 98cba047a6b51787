"""The package module and how the modules import one another."""

import ast
from pathlib import Path

import lpmult
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
