"""The benchmark tracer's targets exist in the package, tracing an op
leaves its output unchanged, and the workloads' ops pass their own output
checks.

``perfbench/tracing.py`` wraps every name of its ``TARGETS`` after a
``getattr`` on a ``semitoric`` module, so a deletion from the package that
the tracer still names breaks ``perfbench/run.py --trace``; a change of
the package API that ``perfbench/workloads.py`` calls shows in a benchmark
run only as a lower ``ok_frac``.  These tests load both modules from their
files, without changing them, and name the failure in the ordinary test
run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH_DIR / f"{name}.py")
    return importlib.util.module_from_spec(spec), spec


def load_tracing():
    tracing, spec = load_bench_module("tracing")
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


@pytest.mark.parametrize("name", ["oracle", "sweep", "chart"])
def test_workload_ops_pass_their_checks(name, monkeypatch, tmp_path):
    # 20 seeded inputs of each workload through its op and its checks.
    # Dataclasses look their module up in sys.modules while it executes.
    workloads, spec = load_bench_module("workloads")
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.setenv("SEMITORIC_THREADS", "1")  # make_context sets it
    wl = workloads.WORKLOADS[name]
    ctx = workloads.make_context(name, str(tmp_path))
    inputs = wl.inputs(np.random.default_rng(20261022))
    for _ in range(20):
        inp = next(inputs)
        results = wl.checks(inp, wl.op(inp, ctx), ctx)
        failed = {k: v for k, v in results.items() if v is not None}
        assert results and not failed, (str(inp), failed)
