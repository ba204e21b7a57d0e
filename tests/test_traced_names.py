"""The benchmark's traced run rebinds library names by string; keep them alive.

perfbench/spans.py lists the functions and the Operation methods it wraps.  A
rename or deletion in the library would only surface as a tracer error in
`perfbench/run.py --trace 1`, so this test checks every listed name exists.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = _load_spans()
    for module, attr, _ in spans.FUNCTIONS:
        mod = importlib.import_module(f"effectalg.{module}")
        assert callable(getattr(mod, attr, None)), f"effectalg.{module}.{attr}"
    for module, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(f"effectalg.{module}"), cls_name)
        assert attr in cls.__dict__, f"{cls_name}.{attr}"
