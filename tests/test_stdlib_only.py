"""The package imports nothing outside the standard library, and nothing
that makes starting the CLI slow."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unmating"


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import unmating.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_module_imports_fractions():
    # every rational is an integer on a named grid, spelled by circle.frac
    assert [where for where, name in _absolute_imports() if name.split(".")[0] == "fractions"] == []


def test_cli_import_loads_no_rational_number_modules():
    # fractions imports decimal and numbers; together they were a quarter
    # of the CLI's import time
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import unmating.cli; "
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
