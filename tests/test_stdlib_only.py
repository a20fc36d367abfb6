"""The package imports nothing outside the standard library, and nothing
that makes starting the CLI slow."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "unmating"
# interpreter flags for the import guards: -S also skips site, whose hooks
# (.pth files) may load any module before the package is imported
ISOLATED = [pytest.param(["-I"], id="I"), pytest.param(["-S", "-I"], id="S-I")]


def _absolute_imports() -> list[tuple[str, str]]:
    """("file:line", module) of every absolute import in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name) for name in names]
    return found


def _loaded_by_cli_import(modules: set[str], flags: list[str]) -> list[str]:
    """Those of `modules` that a fresh interpreter run with `flags` holds
    after ``import unmating.cli``."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import unmating.cli; "
        f"print(sorted(set({sorted(modules)!r}) & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())


def test_absolute_imports_are_standard_library():
    outside = [
        f"{where} {name}"
        for where, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert len(list(SRC.glob("*.py"))) > 1
    assert outside == []


def test_no_module_imports_dataclasses():
    # each @dataclass execs its generated methods at import time, and the
    # module itself imports inspect: every CLI process would pay for both
    assert [where for where, name in _absolute_imports() if name.split(".")[0] == "dataclasses"] == []


@pytest.mark.parametrize("flags", ISOLATED)
def test_cli_import_loads_neither_dataclasses_nor_inspect(flags):
    assert _loaded_by_cli_import({"dataclasses", "inspect"}, flags) == []


def test_no_module_imports_typing_or_named_tuples():
    # typing.NamedTuple and collections.namedtuple build each class with
    # eval when the module is imported, and typing itself is one more
    # module for every CLI process; records subclass mapspec.Record, and
    # annotations are never evaluated
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0], *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name in ("typing", "NamedTuple", "namedtuple")
            ]
    assert found == []


def test_cli_import_loads_no_typing():
    # under -I alone a site hook may import typing before the package does
    assert _loaded_by_cli_import({"typing"}, ["-S", "-I"]) == []


def test_no_module_imports_fractions():
    # every rational is an integer on a named grid, spelled by circle.frac
    assert [where for where, name in _absolute_imports() if name.split(".")[0] == "fractions"] == []


@pytest.mark.parametrize("flags", ISOLATED)
def test_cli_import_loads_no_rational_number_modules(flags):
    # fractions imports decimal and numbers; together they were a quarter
    # of the CLI's import time
    assert _loaded_by_cli_import({"fractions", "decimal", "numbers"}, flags) == []
