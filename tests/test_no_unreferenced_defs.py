"""Every function and class defined under ``src/repro`` is referenced.

A name that occurs exactly once across the code base (the package, its
tests, benchmarks, the matrix ledger and the examples) is its own
definition and nothing else: dead code.  The count is lexical, so a
name that is only looked up through a string (``getattr``, the ledger's
entry-point table) still counts as referenced.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCANNED = (PACKAGE, ROOT / "tests", ROOT / "benchmarks",
           ROOT / "matrix_ledger", ROOT / "examples")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_package_def_is_referenced():
    counts: Counter = Counter()
    defined = []
    for top in SCANNED:
        for path in sorted(top.rglob("*.py")):
            text = path.read_text()
            counts.update(re.findall(r"\w+", text))
            if path.is_relative_to(PACKAGE):
                defined += [(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
                            for node in ast.walk(ast.parse(text))
                            if isinstance(node, DEFS)]
    unreferenced = [f"{where} {name}" for name, where in defined
                    if counts[name] == 1
                    and not (name.startswith("__") and name.endswith("__"))]
    assert not unreferenced, (
        "defined but never referenced:\n" + "\n".join(unreferenced))
