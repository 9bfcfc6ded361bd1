"""Every entry point the matrix ledger wraps must exist.

The ledger's traced run (``matrix_ledger/spans.py``) only warns when an
entry point it wraps is missing, and that layer's metrics then read
zero.  Renaming or moving one of these functions must fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "matrix_ledger" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("matrix_ledger_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
ENTRIES = sorted({(module, attr) for module, attr, _name in _spans.ENTRY_POINTS}
                 | set(_spans.PROCESS_ENTRIES))


@pytest.mark.parametrize("module,attr", ENTRIES,
                         ids=[f"{m}.{a}" for m, a in ENTRIES])
def test_entry_point_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
