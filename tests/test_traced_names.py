"""Every function the benchmark tracer wraps must exist in the engine.

``perfbench/tracing.py`` looks each name of its ``TRACED`` table up in
``conic.<layer>`` when a traced run starts, so a name removed from the
engine only shows as a failed benchmark worker.  This test names it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve():
    missing = [f"{layer}.{name}"
               for layer, names in load_traced().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"conic.{layer}"),
                                       name, None))]
    assert not missing, (
        f"perfbench/tracing.py traces {missing}, which conic no longer "
        "defines; a benchmark change must drop these names from TRACED "
        "before the engine can remove them")
