"""The benchmark tracer's targets exist in the package.

``perfbench/tracing.py`` wraps every name of its ``TARGETS`` after a
``getattr`` on a ``semitoric`` module, so a deletion from the package that
the tracer still names breaks ``perfbench/run.py --trace``.  This test
loads the tracer module from its file, without changing it, and names the
missing target in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for qual, _ in tracing.TARGETS:
        mod_name, attr = qual.rsplit(".", 1)
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if not hasattr(module, attr):
            missing.append(qual)
    assert tracing.TARGETS and not missing, f"not in the package: {missing}"
