"""Seeded inputs, operations and output checks of the three workloads.

Every workload draws R = r2/r1 log-uniform on [1/8, 8] with r1 = 1 (about
half of the draws go through the sphere-swap path) and s1, s2 uniform on
[0, 1], skipping draws inside the degeneracy band |E| <= 1e-10 r1 r2.
R >= 1e5 stays out of range: ``image_boundary`` does not return at R = 1e6.
Three more zones where the package is known to fail are left out, so that
no operation fails (README.md lists them with failing inputs): near the
crossing of the case-III lines for the closed form, near E = 0 for the
height oracle, and toric points whose flood-fill node is not toric.

An operation looks every package function up through its module at call
time, so that the tracer's wrappers are used when they are installed.
A check returns None when the output is right and a short description of
the mismatch otherwise; it never raises on a wrong output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from semitoric import cartography, cli, height, reduced, singularity
from semitoric.errors import DegenerateSystemError
from semitoric.model import ModelParams

LOG_R_RANGE = (math.log(1.0 / 8.0), math.log(8.0))
ALL_CUTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Output-check tolerances (from the acceptance criteria).
DISCREPANCY_TOL = 1e-6
SUM_TOL = 1e-12
WIDTH_TOL = 1e-12

# sweep: fixed cell count and quantity mix height:nff:E = 2:1:1 in every
# block of four ops; one op of the four runs the sweep a second time with
# --parallel.  SAMPLED_CELLS cell values are recomputed by the check.
SWEEP_COUNT = 41
SWEEP_QUANTITIES = ("height", "height", "nff", "E")
SAMPLED_CELLS = 12
IMAGE_SAMPLES = 64
CHECK_GRID = 20

# Known-defect zones left out of the domain.  The closed form divides by
# the case-III factor (2 s1 - 1)(R (s2 - 1) + s2) of the R > 1 frame; its
# error grows like the factor's inverse square, exceeds 1e-6 for factors
# up to about 8e-5, and its branch cross-check raises BranchSelectionError
# up to about 2e-4.  The oracle's sign scan misses narrow arccos zones and
# raises AssertionError for -E up to about 2e-4 r1 r2.  Both bands keep a
# margin past the worst failure found in dense sampling of each zone.
CASE_III_FACTOR_BAND = 1e-3
NEAR_E0_BAND = 1e-2          # on -E / (r1 r2)
TORIC_GRID_N = 257           # cartography's flood-fill grid


def ns_frame(p: ModelParams) -> ModelParams:
    """The sphere-swap image of ``p`` with R > 1 (``p`` itself if R > 1)."""
    if p.R > 1.0:
        return p
    return ModelParams(p.r2, p.r1, p.s1, 1.0 - p.s2)


def draw_params(rng, focus_focus_only=False) -> ModelParams:
    """One parameter point of the benchmark domain."""
    while True:
        R = math.exp(rng.uniform(*LOG_R_RANGE))
        p = ModelParams(1.0, R, float(rng.uniform(0.0, 1.0)),
                        float(rng.uniform(0.0, 1.0)))
        e = singularity.discriminant_E(p)
        if abs(e) <= singularity.DEGENERACY_BAND * p.r1 * p.r2:
            continue
        if focus_focus_only and e > 0:
            continue
        return p


def case_iii_factor(p: ModelParams) -> float:
    """The closed form's factor (2 s1 - 1)(R (s2 - 1) + s2), R > 1 frame."""
    w = ns_frame(p)
    return (2 * w.s1 - 1) * (w.R * (w.s2 - 1) + w.s2)


def height_defect_zone(p: ModelParams) -> bool:
    """Whether height_both is known to fail at the focus-focus point p."""
    return (abs(case_iii_factor(p)) <= CASE_III_FACTOR_BAND
            or -singularity.discriminant_E(p) <= NEAR_E0_BAND * p.r1 * p.r2)


def toric_node_ok(p: ModelParams) -> bool:
    """Whether the flood-fill grid node nearest the toric point p is itself
    toric; ``polygon_representative`` raises DegenerateSystemError when it
    is not."""
    w = ns_frame(p)
    n = TORIC_GRID_N - 1
    node = ModelParams(w.r1, w.r2, round(w.s1 * n) / n, round(w.s2 * n) / n)
    return singularity.discriminant_E(node) > 0


def describe(p: ModelParams) -> str:
    return f"ModelParams({p.r1!r}, {p.r2!r}, {p.s1!r}, {p.s2!r})"


# -- oracle -----------------------------------------------------------------

@dataclass(frozen=True)
class OracleInput:
    params: ModelParams

    def __str__(self):
        return describe(self.params)


def oracle_inputs(rng):
    while True:
        p = draw_params(rng, focus_focus_only=True)
        if not height_defect_zone(p):
            yield OracleInput(p)


def oracle_op(inp: OracleInput, ctx):
    p = inp.params
    inv = height.height_both(p)
    return inv, reduced.roots_P0("NS", p), reduced.roots_P0("SN", p)


def _roots_ok(r) -> bool:
    return (isinstance(r, reduced.QuarticRoots)
            and all(math.isfinite(abs(z)) for z in r.as_array())
            and r.z3.real <= r.z4.real)


def oracle_checks(inp, out, ctx):
    inv, r_ns, r_sn = out
    disc = None
    if not inv.discrepancy <= DISCREPANCY_TOL:
        disc = f"discrepancy {inv.discrepancy:.3e} > {DISCREPANCY_TOL:g}"
    dsum = abs(inv.h1 + inv.h2 - 2.0)
    return {
        "oracle.discrepancy": disc,
        "oracle.heights_sum_to_two": (
            None if dsum <= SUM_TOL else f"|h1 + h2 - 2| = {dsum:.3e}"),
        "oracle.roots_P0": (
            None if _roots_ok(r_ns) and _roots_ok(r_sn)
            else f"roots_P0 returned {r_ns!r}, {r_sn!r}"),
    }


# -- sweep --------------------------------------------------------------------

@dataclass(frozen=True)
class SweepInput:
    R: float
    quantity: str
    s1_window: tuple
    s2_window: tuple
    parallel: bool        # also run with --parallel
    cells: tuple          # flat indices of the sampled cells

    def argv(self, out_path, parallel=False):
        args = ["sweep", "--R1", "1.0", "--R2", repr(self.R),
                "--quantity", self.quantity,
                "--s1-start", repr(self.s1_window[0]),
                "--s1-stop", repr(self.s1_window[1]),
                "--s1-count", str(SWEEP_COUNT),
                "--s2-start", repr(self.s2_window[0]),
                "--s2-stop", repr(self.s2_window[1]),
                "--s2-count", str(SWEEP_COUNT),
                "--out", out_path]
        return args + (["--parallel"] if parallel else [])

    def __str__(self):
        text = " ".join(self.argv("<out>"))
        return text + (" (then again with --parallel)" if self.parallel
                       else "")


def _window(rng):
    width = float(rng.uniform(0.25, 1.0))
    start = float(rng.uniform(0.0, 1.0 - width))
    return start, min(1.0, start + width)


def grid_near_case_iii(R: float, s1_window, s2_window) -> bool:
    """Whether a cell of the sweep grid has a case-III factor within
    CASE_III_FACTOR_BAND (vectorised ``case_iii_factor``)."""
    s1 = np.linspace(*s1_window, SWEEP_COUNT)[:, None]
    s2 = np.linspace(*s2_window, SWEEP_COUNT)[None, :]
    if R <= 1.0:
        R, s2 = 1.0 / R, 1.0 - s2
    factor = (2 * s1 - 1) * (R * (s2 - 1) + s2)
    return bool((np.abs(factor) <= CASE_III_FACTOR_BAND).any())


def sweep_inputs(rng):
    n_cells = SWEEP_COUNT * SWEEP_COUNT
    while True:
        quantities = rng.permutation(SWEEP_QUANTITIES)
        parallel_at = int(rng.integers(4))
        for k in range(4):
            while True:
                R = math.exp(rng.uniform(*LOG_R_RANGE))
                s1_window, s2_window = _window(rng), _window(rng)
                # Only height sweeps evaluate the closed form.
                if quantities[k] != "height" or not grid_near_case_iii(
                        R, s1_window, s2_window):
                    break
            cells = tuple(int(c) for c in
                          rng.choice(n_cells, SAMPLED_CELLS, replace=False))
            yield SweepInput(R, str(quantities[k]), s1_window, s2_window,
                             k == parallel_at, cells)


@dataclass
class SweepContext:
    """Output files of the sweep ops, inside the benchmark's work dir."""
    serial_path: str
    parallel_path: str
    bytes_written: int = 0


def sweep_op(inp: SweepInput, ctx: SweepContext):
    """The serial sweep, then for one op in four the same sweep with
    --parallel; returns the output paths."""
    paths = [ctx.serial_path] + ([ctx.parallel_path] if inp.parallel else [])
    for path in paths:
        rc = cli.main(inp.argv(path, parallel=path == ctx.parallel_path))
        if rc != 0:
            raise RuntimeError(f"semitoric sweep exited with code {rc}")
    return paths


def expected_cell(inp: SweepInput, s1: float, s2: float) -> list:
    """The CSV fields of one cell, from the library's public functions."""
    p = ModelParams(1.0, inp.R, s1, s2)
    head = [repr(s1), repr(s2)]
    if inp.quantity == "E":
        return head + [repr(float(singularity.discriminant_E(p))), ""]
    try:
        nff = singularity.n_ff(p)
    except DegenerateSystemError:
        return head + ([""] if inp.quantity == "nff" else ["", ""]) \
            + ["degenerate"]
    if inp.quantity == "nff":
        return head + [str(nff), ""]
    if nff == 0:
        return head + ["", "", "no-focus-focus"]
    inv = height.height_closed(p)
    return head + [repr(float(inv.h1)), repr(float(inv.h2)),
                   "ill-conditioned" if inv.ill_conditioned else ""]


def _sweep_header(quantity):
    return {"E": "s1,s2,E,flag", "nff": "s1,s2,n_ff,flag",
            "height": "s1,s2,h1,h2,flag"}[quantity]


def check_sweep_csv(inp: SweepInput, data: bytes):
    """Return (rows check, cells check) results for one sweep CSV."""
    text = data.decode("ascii", errors="replace")
    lines = text.split("\n")
    n = SWEEP_COUNT
    want_rows = n * n
    if lines[-1] != "" or len(lines) - 2 != want_rows \
            or lines[0] != _sweep_header(inp.quantity):
        return (f"{len(lines) - 2} data rows (want {want_rows}) or bad "
                f"header/terminator"), "not checked: bad row structure"
    s1s = [repr(float(x)) for x in np.linspace(*inp.s1_window, n)]
    s2s = [repr(float(x)) for x in np.linspace(*inp.s2_window, n)]
    n_fields = len(_sweep_header(inp.quantity).split(","))
    for k, line in enumerate(lines[1:-1]):
        f = line.split(",")
        if len(f) != n_fields or f[0] != s1s[k // n] or f[1] != s2s[k % n]:
            return f"row {k + 1} is {line!r}", "not checked: bad row structure"
    for k in inp.cells:
        i, j = divmod(k, n)
        got = lines[1 + k].split(",")
        want = expected_cell(inp, float(s1s[i]), float(s2s[j]))
        if got != want:
            return None, f"cell ({s1s[i]}, {s2s[j]}): {got} != {want}"
    return None, None


def sweep_checks(inp, paths, ctx: SweepContext):
    outputs = []
    for path in paths:
        with open(path, "rb") as fh:
            outputs.append(fh.read())
    ctx.bytes_written += sum(map(len, outputs))
    rows, cells = check_sweep_csv(inp, outputs[0])
    result = {"sweep.rows": rows, "sweep.cells": cells}
    if inp.parallel:
        result["sweep.parallel_matches_serial"] = (
            None if outputs[1] == outputs[0]
            else "--parallel output differs from the serial output")
    return result


# -- chart --------------------------------------------------------------------

@dataclass(frozen=True)
class ChartInput:
    params: ModelParams
    toric: bool           # no focus-focus points (E > 0)

    def __str__(self):
        return describe(self.params) + (" toric" if self.toric else "")


def chart_inputs(rng):
    while True:
        p = draw_params(rng)
        toric = singularity.discriminant_E(p) > 0
        if not toric or toric_node_ok(p):
            yield ChartInput(p, toric)


def chart_op(inp: ChartInput, ctx):
    p = inp.params
    ib = cartography.image_boundary(p, IMAGE_SAMPLES)
    if inp.toric:
        polys = [cartography.polygon_representative(p)]
    else:
        polys = [cartography.polygon_representative(p, c) for c in ALL_CUTS]
    verdict = singularity.check_semitoric(p, CHECK_GRID)
    reports = singularity.classify_fixed_points(p)
    return ib, polys, verdict, reports


def check_corners(ib) -> str | None:
    """Criterion 11 at the sampling resolution.

    Each corner value (NN, NS, SN, SS) lies in the interpolated envelope up
    to one level spacing plus the largest change of the envelope across the
    neighbouring spacings, which bounds how far a kink between two samples
    (an elliptic-elliptic vertex) can reach past the interpolation.  NN and
    SS lie within one spacing of the envelope's edge.  Focus-focus values
    are not required to be strictly inside: near R = 1 they are closer
    together than the level spacing.
    """
    ls = np.array([s[0] for s in ib.samples])
    lo = np.array([s[1] for s in ib.samples])
    hi = np.array([s[2] for s in ib.samples])
    res = float(ls[1] - ls[0])
    for key, (l, h) in zip(("NN", "NS", "SN", "SS"), ib.corner_values):
        i = int(np.clip(np.searchsorted(ls, l) - 1, 0, len(ls) - 2))
        near = slice(max(i - 1, 0), min(i + 3, len(ls)))
        tol = res + max(np.abs(np.diff(lo[near])).max(),
                        np.abs(np.diff(hi[near])).max())
        h_lo = float(np.interp(l, ls, lo))
        h_hi = float(np.interp(l, ls, hi))
        if not h_lo - tol <= h <= h_hi + tol:
            return (f"{key} value ({l!r}, {h!r}) outside [{h_lo!r}, "
                    f"{h_hi!r}] by more than {tol:.3g}")
        if key in ("NN", "SS"):
            j = int(np.argmin(np.abs(ls - l)))
            if min(abs(h - lo[j]), abs(h - hi[j])) > res:
                return f"{key} value ({l!r}, {h!r}) not on the envelope edge"
    return None


def _chains(vertices):
    """Bottom and top chains, left to right, of a counterclockwise vertex
    list that starts at the left corner."""
    k = int(np.argmax([v[0] for v in vertices]))
    bottom = list(vertices[:k + 1])
    top = [vertices[0]] + list(reversed(vertices[k + 1:])) + [vertices[k]]
    return bottom, top


def check_polygon(poly, R_ns: float) -> str | None:
    """Left corner at (-2, 0) and width(l) = dh_function(R).rho(l) to 1e-12,
    with the width taken from the vertex list itself."""
    v = [tuple(map(float, x)) for x in poly.vertices]
    if v[0] != (-2.0, 0.0):
        return f"left corner {v[0]} != (-2, 0)"
    dh = reduced.dh_function(R_ns)
    bottom, top = _chains(v)
    bl, by = zip(*bottom)
    tl, ty = zip(*top)
    ls = np.union1d(np.linspace(-2.0, 2.0 * R_ns, 41), [x[0] for x in v])
    for l in ls:
        w = float(np.interp(l, tl, ty) - np.interp(l, bl, by))
        if abs(w - dh.rho(float(l))) > WIDTH_TOL:
            return (f"cuts {poly.cuts}: width {w!r} at l = {l!r}, "
                    f"DH profile {dh.rho(float(l))!r}")
    return None


def chart_checks(inp: ChartInput, out, ctx):
    ib, polys, _, _ = out
    R_ns = ns_frame(inp.params).R
    poly_msg = None
    for poly in polys:
        poly_msg = check_polygon(poly, R_ns)
        if poly_msg:
            break
    return {"chart.corners_in_envelope": check_corners(ib),
            "chart.polygon_width": poly_msg}


# -- registry -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: object        # rng -> endless iterator of inputs
    op: object            # (input, context) -> output
    checks: object        # (input, output, context) -> {check: None | msg}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "oracle": Workload(oracle_inputs, oracle_op, oracle_checks),
    "sweep": Workload(sweep_inputs, sweep_op, sweep_checks),
    "chart": Workload(chart_inputs, chart_op, chart_checks),
}


def make_context(name: str, work_dir: str):
    if name == "sweep":
        # --parallel ops use one thread per usable core.
        os.environ["SEMITORIC_THREADS"] = str(len(os.sched_getaffinity(0)))
        return SweepContext(os.path.join(work_dir, "sweep-serial.csv"),
                            os.path.join(work_dir, "sweep-parallel.csv"))
    return None


class InputTally:
    """Shares of the input mix behind a run's numbers, kept as counts so
    that memory does not grow with the number of operations."""

    CASES = ("I", "II", "III", "IV", "V")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        keys = ["R_below_1"] + [f"case_{c}" for c in self.CASES]
        if name == "sweep":
            keys += ["parallel", "quantity_height", "quantity_nff",
                     "quantity_E"]
        else:
            keys += ["toric_type"]
        self.counts = dict.fromkeys(keys, 0)

    def add(self, inp):
        c = self.counts
        self.count += 1
        if self.name == "sweep":
            c["parallel"] += inp.parallel
            c[f"quantity_{inp.quantity}"] += 1
            p = ModelParams(1.0, inp.R, sum(inp.s1_window) / 2,
                            sum(inp.s2_window) / 2)
        else:
            p = inp.params
            c["toric_type"] += singularity.discriminant_E(p) > 0
        c["R_below_1"] += p.R < 1.0
        c[f"case_{height.case_id(ns_frame(p))}"] += 1

    def summary(self) -> dict:
        n = max(1, self.count)
        out = {k: v / n for k, v in self.counts.items()}
        out["count"] = self.count
        out["case_basis"] = ("window centres" if self.name == "sweep"
                             else "parameter points")
        return out
