"""Array closed forms and the array ``sweep``: every value equals the float
call on its cell bit for bit, and the CLI output equals the per-cell loop's
byte for byte, failures included."""

import contextlib
import io
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from semitoric import cli, height, singularity
from semitoric.errors import (ConsistencyError, DegenerateSystemError,
                              SemitoricError)
from semitoric.model import ModelParams, ParamGrid, ns_frame
from semitoric.numerics import find_root_bisect


def _old_sweep_cell(quantity, r1, r2, s1, s2):
    """Reference: the per-cell evaluation ``sweep`` used before the array
    path, one ModelParams and scalar calls per cell."""
    fmt = cli._fmt
    params = ModelParams(r1, r2, s1, s2)
    e = singularity.discriminant_E(params)
    if quantity == "E":
        return [fmt(s1), fmt(s2), fmt(e), ""]
    try:
        nff = singularity.n_ff(params)
    except DegenerateSystemError:
        if quantity == "nff":
            return [fmt(s1), fmt(s2), "", "degenerate"]
        return [fmt(s1), fmt(s2), "", "", "degenerate"]
    if quantity == "nff":
        return [fmt(s1), fmt(s2), str(nff), ""]
    if nff == 0:
        return [fmt(s1), fmt(s2), "", "", "no-focus-focus"]
    inv = height.height_closed(params)
    flag = "ill-conditioned" if inv.ill_conditioned else ""
    return [fmt(s1), fmt(s2), fmt(inv.h1), fmt(inv.h2), flag]


def reference_sweep(argv):
    """(exit code, stdout, stderr) of the per-cell sweep loop, with the
    error mapping of ``cli.main``."""
    args = cli.build_parser().parse_args(argv)
    try:
        for count in (args.s1_count, args.s2_count):
            if count < 2:
                raise ValueError("axis counts must be >= 2")
        for lo, hi in ((args.s1_start, args.s1_stop),
                       (args.s2_start, args.s2_stop)):
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0 and lo < hi):
                raise ValueError(
                    "axis ranges must be increasing within [0, 1]")
        s1s = np.linspace(args.s1_start, args.s1_stop, args.s1_count)
        s2s = np.linspace(args.s2_start, args.s2_stop, args.s2_count)
        rows = [_old_sweep_cell(args.quantity, args.R1, args.R2,
                                float(a), float(b))
                for a in s1s for b in s2s]
    except DegenerateSystemError as exc:
        return cli.EXIT_DEGENERATE, "", f"degenerate: {exc}\n"
    except ConsistencyError as exc:
        return (cli.EXIT_INCONSISTENT, "",
                f"internal consistency check failed: {exc}\n")
    except (ValueError, SemitoricError) as exc:
        return cli.EXIT_BAD_ARGS, "", f"error: {exc}\n"
    header = {"E": "s1,s2,E,flag", "nff": "s1,s2,n_ff,flag",
              "height": "s1,s2,h1,h2,flag"}[args.quantity]
    return 0, "\n".join([header] + [",".join(r) for r in rows]) + "\n", ""


def array_sweep(argv):
    """(exit code, stdout, stderr) of ``cli.main``; fails on any warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sweep_argv(R, quantity, s1_window, s2_window, shape=(41, 41)):
    return ["sweep", "--R1", "1.0", "--R2", repr(R), "--quantity", quantity,
            "--s1-start", repr(s1_window[0]), "--s1-stop", repr(s1_window[1]),
            "--s1-count", str(shape[0]),
            "--s2-start", repr(s2_window[0]), "--s2-stop", repr(s2_window[1]),
            "--s2-count", str(shape[1])]


def _window(rng):
    width = float(rng.uniform(0.05, 1.0))
    start = float(rng.uniform(0.0, 1.0 - width))
    return start, min(1.0, start + width)


def _ill_conditioned_s1():
    """An s1 with E = -5e-7 at (r1, r2, s2) = (1, 2, 0.1)."""
    return find_root_bisect(
        lambda s1: singularity.discriminant_E(ModelParams(1, 2, s1, 0.1))
        + 5e-7, 0.05, 0.25, tol=1e-15)


def _band_s1(R, s2, depth):
    """s1 in [0, 1/2] with -E/(r1 r2) = depth at (1, R, s1, s2), elementwise
    by bisection (E < 0 at s1 = 1/2); 0 where E(s1 = 0) is below that."""
    def excess(s1):
        return singularity.discriminant_E(
            SimpleNamespace(r1=1.0, r2=R, s1=s1, s2=s2)) / R + depth
    lo, hi = np.zeros_like(s2), np.full_like(s2, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = excess(mid) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return lo


# A window through the crossing of the case-III lines, with R < 1: its
# first cell once raised an error of two disagreeing closed-form paths
# (exit 2).
CROSSING_SWEEP = ("sweep --R1 1.0 --R2 0.9877274521826769 --quantity height "
                  "--s1-start 0.3913042305570981 --s1-stop 0.6784081853711457 "
                  "--s1-count 41 --s2-start 0.22477811335400982 "
                  "--s2-stop 0.6138689802117288 --s2-count 41").split()


class TestSweepMatchesCellLoop:
    @pytest.mark.parametrize("quantity", ["height", "nff", "E"])
    @pytest.mark.parametrize("R", [0.35, 2.5])
    def test_seeded_windows(self, quantity, R):
        rng = np.random.default_rng(41 + int(R * 10))
        for shape in [(41, 41), (41, 41), (7, 5), (2, 41), (41, 2), (2, 9),
                      (9, 2), (3, 7)]:
            argv = sweep_argv(R, quantity, _window(rng), _window(rng), shape)
            assert array_sweep(argv) == reference_sweep(argv), argv

    @pytest.mark.parametrize("R", [1 / 3, 0.8, 2.0, 7.0])
    def test_case_iii_lines(self, R):
        # s1 = 1/2 is a grid value and s2 = R/(R+1) starts the s2 axis.
        argv = sweep_argv(R, "height", (0.0, 1.0), (R / (R + 1), 1.0))
        code, out, _ = array_sweep(argv)
        assert (code, out, "") == reference_sweep(argv)
        rows = out.splitlines()[1:]
        assert any(r.startswith(f"0.5,{R / (R + 1)!r},") for r in rows)

    @pytest.mark.parametrize("quantity", ["height", "nff"])
    def test_degenerate_cells(self, quantity):
        # E = 0 to machine precision at the first cell.
        argv = sweep_argv(2.0, quantity, (0.14453829383418643, 0.6),
                          (0.1, 0.9), (7, 5))
        code, out, err = array_sweep(argv)
        assert (code, out, err) == reference_sweep(argv)
        assert out.splitlines()[1].endswith(",degenerate")

    def test_ill_conditioned_cells(self):
        argv = sweep_argv(2.0, "height", (_ill_conditioned_s1(), 0.4),
                          (0.1, 0.5), (5, 7))
        code, out, err = array_sweep(argv)
        assert (code, out, err) == reference_sweep(argv)
        assert out.splitlines()[1].endswith(",ill-conditioned")

    def test_every_height_tail_in_one_window(self):
        # s2 = 0 and 1 have no focus-focus points; at s2 = 0.1 the first
        # s1 is degenerate and the second ill-conditioned.
        argv = sweep_argv(2.0, "height",
                          (0.14453829383418643, _ill_conditioned_s1()),
                          (0.0, 1.0), (2, 11))
        code, out, err = array_sweep(argv)
        assert (code, out, err) == reference_sweep(argv)
        flags = [row.rsplit(",", 1)[1] for row in out.splitlines()[1:]]
        assert {"degenerate", "no-focus-focus", "",
                "ill-conditioned"} == set(flags)

    @pytest.mark.parametrize("block_cells", [1, 7, 20])
    @pytest.mark.parametrize("quantity", ["height", "nff", "E"])
    def test_rows_joined_in_blocks(self, monkeypatch, quantity, block_cells):
        # Blocks of one row, of a whole number of rows and a shorter last
        # block.
        monkeypatch.setattr(cli, "SWEEP_BLOCK_CELLS", block_cells)
        argv = sweep_argv(2.0, quantity, (0.0, 1.0), (0.0, 1.0), (9, 5))
        assert array_sweep(argv) == reference_sweep(argv)

    @pytest.mark.parametrize("quantity", ["height", "nff", "E"])
    def test_out_file_holds_stdout_bytes(self, tmp_path, quantity):
        argv = sweep_argv(0.35, quantity, (0.0, 1.0), (0.1, 0.9), (7, 5))
        code, out, err = array_sweep(argv)
        assert (code, out, err) == reference_sweep(argv)
        path = tmp_path / "sweep.csv"
        assert array_sweep(argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode("ascii")

    def test_crossing_sweep(self, paper_F):
        code, out, err = array_sweep(CROSSING_SWEEP)
        assert (code, out, err) == reference_sweep(CROSSING_SWEEP)
        assert code == 0 and err == ""
        # Every h1 off the case-III band matches the paper's form, taken at
        # s1 < 1/2 through the mirror F(1 - s1) = -F(s1) as height_closed.
        checked = 0
        for row in out.splitlines()[1:]:
            s1, s2, h1 = (float(v) for v in row.split(",")[:3])
            w = ns_frame(ModelParams(1.0, 0.9877274521826769, s1, s2))
            case = height.case_id(w)
            if case == "III":
                continue
            f = (-paper_F(1.0 - w.s1, w.s2, w.R) if w.s1 > 0.5
                 else paper_F(w.s1, w.s2, w.R))
            want = (2.0 if case in ("I", "V") else 0.0) - f / (2 * math.pi)
            assert abs(h1 - want) <= 1e-13, row
            checked += 1
        assert checked > 1500

    @pytest.mark.parametrize("r1, message", [
        ("1e3", "error: r1 == r2 (non-simple case) is excluded\n"),
        ("-1", "error: r1 and r2 must be positive\n"),
        ("nan", "error: r1 and r2 must be finite\n"),
        pytest.param("1e-170", "error: r1 = 1e-170 and r2 = 1000.0 are out "
                     "of range: r1^2, r2^2 and (r2/r1)^(+-2) must be finite "
                     "and nonzero\n", id="square-underflows")])
    def test_invalid_radii(self, r1, message):
        argv = ["sweep", f"--R1={r1}", "--R2", "1e3", "--quantity", "E"]
        assert array_sweep(argv) == (2, "", message) == reference_sweep(argv)


def _grid(R, seed, shape=(23, 19)):
    rng = np.random.default_rng(seed)
    return ParamGrid(1.0, R, np.sort(rng.uniform(0, 1, shape[0])),
                     np.sort(rng.uniform(0, 1, shape[1])))


def _cells(grid):
    for i, s1 in enumerate(grid.s1[:, 0].tolist()):
        for j, s2 in enumerate(grid.s2[0].tolist()):
            yield i, j, s1, s2


def _same(array_value, float_call):
    """The array element equals the float call bit for bit, or is NaN where
    the float call raises."""
    try:
        expected = float_call()
    except (ValueError, ArithmeticError, SemitoricError):
        return math.isnan(array_value)
    return (np.float64(array_value).tobytes()
            == np.float64(expected).tobytes())


GRIDS = [(0.4, 1), (3.0, 2), (1.05, 3), (0.125, 4), (8.0, 5)]


class TestArrayFormulasMatchFloats:
    @pytest.mark.parametrize("R, seed", GRIDS)
    def test_polynomials(self, R, seed):
        grid = _grid(R, seed)
        e = singularity.discriminant_E(grid)
        gb = height.gamma_B(grid.s1, grid.s2, R)
        for i, j, s1, s2 in _cells(grid):
            cell = ModelParams(1.0, R, s1, s2)
            assert _same(e[i, j], lambda: singularity.discriminant_E(cell))
            assert _same(gb[i, j], lambda: height.gamma_B(s1, s2, R))

    @pytest.mark.parametrize("R, seed", GRIDS)
    def test_closed_form_F(self, R, seed):
        grid = _grid(max(R, 1 / R), seed)
        R = grid.R
        with np.errstate(all="ignore"):
            f = height.closed_form_F(grid.s1, grid.s2, R)
        assert np.isfinite(f).sum() > 20
        for i, j, s1, s2 in _cells(grid):
            assert _same(f[i, j], lambda: height.closed_form_F(s1, s2, R))

    @pytest.mark.parametrize("R, seed", GRIDS)
    def test_case_and_height(self, R, seed):
        grid = _grid(R, seed)
        cases = height.case_id(grid)
        inv = height.height_closed(grid)
        for i, j, s1, s2 in _cells(grid):
            cell = ModelParams(1.0, R, s1, s2)
            assert cases[i, j] == height.case_id(cell)
            try:
                want = height.height_closed(cell)
            except DegenerateSystemError:
                assert math.isnan(inv.h1[i, j]) and math.isnan(inv.h2[i, j])
                continue
            assert (inv.h1[i, j], inv.h2[i, j]) == (want.h1, want.h2)
            assert inv.ill_conditioned[i, j] == want.ill_conditioned
            assert inv.case_ns[i, j] == want.case_ns

    def test_single_column_grid(self):
        s1 = np.linspace(0.0, 1.0, 41)
        grid = ParamGrid(1.0, 2.0, s1, [0.3])
        assert grid.s1.shape == (41, 1) and grid.s2.shape == (1, 1)
        inv = height.height_closed(grid)
        assert inv.h1.shape == (41, 1)
        for i, a in enumerate(s1.tolist()):
            cell = ModelParams(1.0, 2.0, a, 0.3)
            if singularity.discriminant_E(cell) < 0:
                assert inv.h1[i, 0] == height.height_closed(cell).h1

    def test_non_finite_cell_fails_self_check(self, monkeypatch):
        # No focus-focus input gives a non-finite t, so k is scaled by 100
        # at s1 = 0.4, which puts kappa^2 above 16 R: the float call raises
        # in the kernel, and the grid call and the sweep fail the self-check
        # (exit 5) instead of printing a NaN height.
        true_k_and_m = height._k_and_m

        def scaled_k(s1, s2, R):
            k, m = true_k_and_m(s1, s2, R)
            return k * np.where(abs(s1 - 0.4) < 1e-9, 100.0, 1.0), m
        monkeypatch.setattr(height, "_k_and_m", scaled_k)
        with pytest.raises(ValueError, match="16 R - kappa"):
            height.height_closed(ModelParams(1.0, 2.0, 0.4, 0.5))
        with pytest.raises(ConsistencyError, match="not finite in a "
                                                   "focus-focus cell"):
            height.height_closed(ParamGrid(1.0, 2.0, [0.2, 0.4], [0.5, 0.6]))
        code, out, err = array_sweep(sweep_argv(2.0, "height", (0.2, 0.6),
                                                (0.5, 0.6), (3, 2)))
        assert (code, out) == (cli.EXIT_INCONSISTENT, "")
        assert err == ("internal consistency check failed: closed-form "
                       "height not finite in a focus-focus cell\n")

    def test_focus_focus_cells_have_finite_t(self):
        # E = -r1^2 m^2 (16 R - kappa^2), so every focus-focus cell has
        # D > 0 and a finite t: seeded grids with R log-uniform on
        # [1e-6, 1e6], and s1 values that put cells next to the band.
        rng = np.random.default_rng(62)
        near_band = 0
        for _ in range(100):
            R = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            s2 = rng.uniform(0.0, 1.0, 21)
            depth = np.exp(rng.uniform(math.log(1e-10), math.log(1e-5), 21))
            s1 = np.concatenate([rng.uniform(0.0, 1.0, 20),
                                 _band_s1(R, s2, depth)])
            grid = ParamGrid(1.0, R, s1, s2)
            e = singularity.discriminant_E(grid)
            ff = singularity.is_focus_focus(e, grid)
            with np.errstate(all="ignore"):
                t = height._t(ns_frame(grid))
            assert np.isfinite(t[ff]).all(), R
            assert np.isfinite(height.height_closed(grid).h1[ff]).all()
            near_band += (ff & (-e < 1e-5 * R)).sum()
        assert near_band > 1000

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="must lie in"):
            ParamGrid(1.0, 2.0, [0.2, 1.5], [0.5])
        with pytest.raises(ValueError, match="must be finite"):
            ParamGrid(1.0, math.inf, [0.2], [0.5])
