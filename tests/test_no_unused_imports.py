"""Every module-level import under ``src/repro`` is used in its own file.

The check is static: each binding a module's top-level ``import`` or
``from ... import`` creates must occur as a name somewhere in that
module's code.  Package ``__init__.py`` files are skipped (their
imports re-export), as is ``from __future__``.  Function-local imports
(availability probes, deferred imports) are not module-level and are
not checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every unused module-level import binding."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


def test_every_module_level_import_is_used():
    unused = [f"{path.relative_to(PACKAGE)}:{line} {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in unused_imports(path.read_text())]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_the_check_flags_only_unused_module_level_bindings():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "import re\n"
              "from json import dumps, loads as parse\n"
              "def f():\n"
              "    import struct\n"
              "    return re.compile, parse\n")
    assert unused_imports(source) == [(2, "os"), (3, "os"), (5, "dumps")]
