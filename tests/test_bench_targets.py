"""The benchmark tracer's targets exist in the package, and tracing an op
leaves its output unchanged.

``perfbench/tracing.py`` wraps every name of its ``TARGETS`` after a
``getattr`` on a ``semitoric`` module, so a deletion from the package that
the tracer still names breaks ``perfbench/run.py --trace``.  These tests
load the tracer module from its file, without changing it, and name the
missing target in the ordinary test run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve():
    tracing = load_tracing()
    missing = []
    for qual, _ in tracing.TARGETS:
        mod_name, attr = qual.rsplit(".", 1)
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if not hasattr(module, attr):
            missing.append(qual)
    assert tracing.TARGETS and not missing, f"not in the package: {missing}"


def test_traced_oracle_op_keeps_its_output():
    # The tracer wraps integrate's integrand to count its calls: one call
    # per GK15 panel, whose list of nodes must pass through unchanged.
    tracing = load_tracing()
    for qual, _ in tracing.TARGETS:
        importlib.import_module(f"{tracing.PACKAGE}.{qual.rsplit('.', 1)[0]}")
    from semitoric import height, model, numerics, reduced

    p = model.ModelParams(1.0, 2.0, 0.3, 0.55)

    def oracle_op():
        return (height.height_both(p), reduced.roots_P0("NS", p),
                reduced.roots_P0("SN", p))

    plain = oracle_op()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = oracle_op()
    finally:
        tracer.uninstall()
    calls, _ = tracer.totals()
    assert traced == plain
    assert calls["height.height_oracle"] == 2
    assert calls["numerics.integrate.f_calls"] > 0
    assert height.integrate is numerics.integrate


def test_traced_chart_op_keeps_its_output():
    # The benchmark's chart op at a focus-focus point: every polygon
    # representative still goes through reduced.dh_function, which builds
    # the DH profile once per R; the other representatives of the point
    # look it up in its memo.
    tracing = load_tracing()
    for qual, _ in tracing.TARGETS:
        importlib.import_module(f"{tracing.PACKAGE}.{qual.rsplit('.', 1)[0]}")
    from semitoric import cartography, model, singularity

    p = model.ModelParams(1.0, 2.0, 0.3, 0.45)
    assert singularity.n_ff(p) == 2

    def chart_op():
        return (cartography.image_boundary(p, 64),
                [cartography.polygon_representative(p, cuts)
                 for cuts in ((1, 1), (1, -1), (-1, 1), (-1, -1))],
                singularity.check_semitoric(p, 20),
                singularity.classify_fixed_points(p))

    plain = chart_op()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = chart_op()
    finally:
        tracer.uninstall()
    calls, _ = tracer.totals()
    assert traced == plain
    assert calls["cartography.polygon_representative"] == 4
    assert calls["reduced.dh_function"] >= 1
