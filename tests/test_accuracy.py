"""``tools/accuracy.py`` on a fixed subset of the CLI digest's invocations.

Each command's worst error for R in [1/8, 8] stays within the acceptance
criteria's tolerance that the tool assigns it (``accuracy.TOLERANCES``).
Rows outside that range are reported by the full run, not gated here.
"""

import importlib.util
from pathlib import Path

import pytest

from semitoric.cli import main

pytest.importorskip("mpmath")

ACCURACY = Path(__file__).resolve().parents[1] / "tools" / "accuracy.py"

# At R = 1e8 a chart in p2 cancels two terms of size R: it printed bands
# about 1e-8 off.
LARGE_RATIO_IMAGE = (
    "image --samples 16 --R1=1 --R2=100000000.0 --s1=0.3 --s2=0.7")
# README examples and small sweeps, in both frames, every command, and one
# large-ratio image: the full tool run covers all of the digest's
# invocations.
SUBSET = [
    "classify --R1 1 --R2 2 --s1 0.5 --s2 0.5",
    "classify --json --R1=2 --R2=1 --s1=0.3 --s2=0.4",
    "height --R1 1 --R2 2 --s1 0.25 --s2 0.25 --method both --json",
    "height --method quadrature --R1=2 --R2=1 --s1=0.3 --s2=0.4",
    "polygon --R1 1 --R2 2 --s1 0.5 --s2 0.5 --cuts +-",
    "polygon --json --R1=1 --R2=2 --s1=0 --s2=0",
    "image --R1 1 --R2 2 --s1 0.5 --s2 0.5 --samples 64 --out image.csv",
    "image --samples 16 --R1=3 --R2=1 --s1=0.6 --s2=0.2",
    "sweep --R1 1 --R2 2 --quantity E --s1-count 7 --s2-count 5",
    "sweep --R1 2 --R2 1 --quantity height --s1-count 7 --s2-count 5",
    LARGE_RATIO_IMAGE,
]


@pytest.fixture(scope="module")
def accuracy():
    spec = importlib.util.spec_from_file_location("accuracy", ACCURACY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def refs(accuracy):
    return accuracy.references()


def test_subset_is_from_the_digest(refs):
    listed = set(refs.digest.invocations())
    assert [c for c in SUBSET if c not in listed] == []


def test_worst_errors_within_tolerance(accuracy, refs, tmp_path):
    rows, gate = accuracy.table(accuracy.run(main, SUBSET, refs, tmp_path))
    assert set(gate) == {"classify E", "height h", "polygon vertex",
                         "image envelope", "sweep E", "sweep h"}
    assert all(g["values"] > 0 for g in gate.values())
    assert {k: g for k, g in gate.items() if not g["ok"]} == {}
    assert sum(r["no_reference"] for r in rows) == 0


def test_a_wrong_value_is_beyond_tolerance(accuracy, refs, tmp_path):
    # E = -8 exactly at r1 r2 = 2, criterion 5's point, where E's scale is
    # 1: a printout off by 2e-12 breaks the criterion and fails the gate.
    def wrong(argv):
        print("E = -8.000000000002")
        return 0

    command = SUBSET[0]
    _, gate = accuracy.table(accuracy.run(wrong, [command], refs, tmp_path))
    assert not gate["classify E"]["ok"]
    _, gate = accuracy.table(accuracy.run(main, [command], refs, tmp_path))
    assert gate["classify E"] == {"values": 1, "worst_scaled": 0.0,
                                  "tol": 1e-12, "ok": True}


def test_large_ratio_image_within_tolerance(accuracy, refs, tmp_path):
    # Outside the gate's R range, but the offset chart keeps criterion 8's
    # 1e-12 there too.
    rows, _ = accuracy.table(accuracy.run(main, [LARGE_RATIO_IMAGE], refs,
                                          tmp_path))
    assert [(r["decade"], r["no_reference"]) for r in rows] == [(8, 0)]
    assert rows[0]["values"] == 34
    assert rows[0]["worst_scaled"] <= accuracy.TOLERANCES["envelope"][0]
