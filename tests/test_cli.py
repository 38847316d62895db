"""Command-line interface: subcommands, exit codes, deterministic output."""

import argparse
import json
import math

import pytest

from semitoric import cartography, cli, height, numerics, reduced, singularity
from semitoric.cli import main
from semitoric.height import height_oracle
from semitoric.model import ModelParams

BASE = ["--R1", "1", "--R2", "2"]
FF = BASE + ["--s1", "0.5", "--s2", "0.5"]
FAULT_POINT = ["--s1", "0.25", "--s2", "0.25"]
NEAR_BAND = ["--s1", "0.21", "--s2", "0.03066823177149811"]


def near_cut_off(roots, only=None):
    """``reduced.p0_quadratic_roots`` with the near root off by a relative
    1e-6 (for label ``only``, or for both)."""
    def shifted(label, params):
        near, far = roots(label, params)
        if only in (None, label):
            near *= 1.0 + 1e-6
        return near, far
    return shifted


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_focus_focus(self, capsys):
        code, out, _ = run(capsys, ["classify"] + FF)
        assert code == 0
        assert "E = -8.0" in out
        assert "n_FF = 2" in out
        assert "semitoric: yes" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, ["classify", "--json"] + FF)
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "semitoric-invariants/1"
        assert payload["n_ff"] == 2
        kinds = {r["id"]: r["kind"] for r in payload["fixed_points"]}
        assert kinds["NS"] == "focus-focus"

    def test_one_discriminant(self, capsys, monkeypatch):
        # The fixed-point kinds and the verdict share one E.
        calls = []
        real = singularity.discriminant_E
        monkeypatch.setattr(singularity, "discriminant_E",
                            lambda p: calls.append(p) or real(p))
        for argv in (FF, BASE + ["--s1", "0.05", "--s2", "0.05"],
                     BASE + ["--s1", "0.14453829383418643", "--s2", "0.1"]):
            for flags in ([], ["--json"]):
                calls.clear()
                run(capsys, ["classify"] + flags + argv)
                assert len(calls) == 1

    def test_degenerate_exit_code(self, capsys):
        # E = 0 to machine precision at this root of the discriminant.
        code, out, _ = run(capsys, [
            "classify"] + BASE + ["--s1", "0.14453829383418643",
                                  "--s2", "0.1"])
        assert code == 3
        assert "degenerate" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_radius_message(self, capsys, value):
        code, _, err = run(capsys, ["classify", f"--R1={value}", "--R2", "2",
                                    "--s1", "0.3", "--s2", "0.4"])
        assert code == 2
        assert err == "error: r1 and r2 must be finite\n"

    def test_extreme_radius_ratio(self, capsys):
        code, out, err = run(capsys, ["classify", "--R1=1e17", "--R2=1",
                                      "--s1=0.3", "--s2=0.4"])
        assert (code, err) == (0, "")
        assert "semitoric: yes" in out

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run(capsys, ["classify"] + BASE
                           + ["--s1", "2.0", "--s2", "0.5"])
        assert code == 2
        assert "error" in err


class TestHeight:
    def test_both_methods_agree(self, capsys):
        args = ["height"] + BASE + ["--s1", "0.25", "--s2", "0.25", "--json"]
        code, out, _ = run(capsys, args)
        payload = json.loads(out)
        assert code == 0
        assert payload["method"] == "both"
        assert payload["discrepancy"] < 1e-7
        assert abs(payload["h1"] + payload["h2"] - 2.0) < 1e-9

    def test_closed_only(self, capsys):
        args = ["height", "--method", "closed"] + FF
        code, out, _ = run(capsys, args)
        assert code == 0
        assert "h1 = 1.0" in out and "h2 = 1.0" in out

    def test_failed_self_check_exit_code(self, capsys, monkeypatch):
        # A planted fault: the near cut of P_0 off by a relative 1e-6, which
        # the oracle's cut check refuses.
        monkeypatch.setattr(reduced, "p0_quadratic_roots",
                            near_cut_off(reduced.p0_quadratic_roots))
        code, out, err = run(capsys, ["height"] + BASE + FAULT_POINT)
        assert code == 5
        assert out == ""
        assert err.startswith("internal consistency check failed: ")
        assert "no root of the factored chart" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("method", ["both", "quadrature"])
    def test_nonconvergence_exit_code(self, capsys, monkeypatch, method):
        # A valid input whose quadrature does not converge (here: an
        # unreachable tolerance and 8 subdivisions) is an internal failure,
        # exit 5, not an invalid argument.
        monkeypatch.setattr(height, "integrate",
                            lambda f, a, b, tol: numerics.integrate(
                                f, a, b, 1e-300, 8))
        code, out, err = run(capsys, ["height", "--method", method]
                             + BASE + FAULT_POINT)
        assert (code, out) == (5, "")
        assert err.startswith("internal failure: quadrature did not "
                              "converge: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_quadrature_runs_both_oracles(self, capsys, monkeypatch):
        # h2 comes from the SN oracle: a fault planted in the SN chart only
        # fails the command, while the NS oracle still passes.
        monkeypatch.setattr(reduced, "p0_quadratic_roots",
                            near_cut_off(reduced.p0_quadratic_roots, "SN"))
        p = ModelParams(1, 2, 0.25, 0.25)
        assert 0.0 <= height_oracle("NS", p) <= 2.0
        code, out, err = run(capsys, ["height", "--method", "quadrature"]
                             + BASE + FAULT_POINT)
        assert code == 5 and out == ""
        assert err.startswith("internal consistency check failed: ")
        monkeypatch.undo()
        code, out, _ = run(capsys, ["height", "--method", "quadrature",
                                    "--json"] + BASE + FAULT_POINT)
        payload = json.loads(out)
        assert code == 0 and payload["method"] == "quadrature"
        assert (payload["h1"], payload["h2"]) == (height_oracle("NS", p),
                                                  height_oracle("SN", p))

    @pytest.mark.parametrize("method", ["both", "quadrature"])
    def test_near_band_point_exits_zero(self, capsys, method):
        # E is about -1.3e-7 r1 r2 here.  The SN oracle's arccos argument
        # used to overshoot by 4.2e-7 (exit 5) while the chart's
        # A - H_crit cancelled next to p2 = 0; the factored width holds.
        code, out, err = run(capsys, ["height", "--method", method, "--json"]
                             + BASE + NEAR_BAND)
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert abs(payload["h1"] + payload["h2"] - 2.0) <= 1e-12
        if method == "both":
            assert payload["discrepancy"] <= 1e-9

    @pytest.mark.parametrize("method", ["both", "quadrature"])
    @pytest.mark.parametrize("radii", [("1", "1.0000000000000002"),
                                       ("1.0000000000000002", "1")],
                             ids=["R_above_1", "R_below_1"])
    @pytest.mark.parametrize("s1, s2", [
        ("0.5000000000000001", "0.3"), ("0.49999999999999994", "0.3"),
        ("0.3", "0.5000000000000001"), ("0.3", "0.49999999999999994")])
    def test_ulp_from_R_one_and_case_III(self, capsys, method, radii, s1,
                                         s2):
        # R an ulp from 1 and k within ulps of 0: the near root of P_0
        # lies at or within an ulp of hi, where q = (2R - p2)(2 - p2) is
        # nearly a double root.  Case III, h1 = h2 = 1 in both frames.
        code, out, err = run(capsys, [
            "height", "--method", method, "--json", "--R1", radii[0],
            "--R2", radii[1], "--s1", s1, "--s2", s2])
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["case"] == "III"
        assert max(abs(payload["h1"] - 1.0),
                   abs(payload["h2"] - 1.0)) <= 1e-12

    def test_crossing_point_returns(self, capsys, paper_F):
        # 1e-4 from the crossing of the case-III lines, where N_B's pole
        # once fell inside its integration interval (exit 2).  The frame
        # point mirrors s1 to 1 - s1; case V gives h1 = 2 - F / (2 pi).
        s1, s2 = 0.5000987688340595, 0.6666823101131707
        code, out, err = run(capsys, [
            "height", "--method=closed", "--R1=1", "--R2=2",
            f"--s1={s1!r}", f"--s2={s2!r}"])
        assert (code, err) == (0, "")
        assert "case = V" in out
        h1 = float(out.splitlines()[0].split(" = ")[1])
        assert abs(h1 - (2.0 + paper_F(1.0 - s1, s2, 2.0) / (2 * math.pi))
                   ) <= 1e-13

    def test_no_focus_focus_is_degenerate_exit(self, capsys):
        code, _, err = run(capsys, ["height"] + BASE
                           + ["--s1", "0.0", "--s2", "0.0"])
        assert code == 3
        assert "degenerate" in err


class TestPolygon:
    def test_default_cuts(self, capsys):
        code, out, _ = run(capsys, ["polygon"] + FF)
        assert code == 0
        assert out.splitlines()[0] == "l_scaled,y_scaled,L,Y"
        assert "-2.0,0.0,-3.0,0.0" in out

    def test_cut_flag(self, capsys):
        code, out, _ = run(capsys, ["polygon", "--cuts=-+", "--json"] + FF)
        payload = json.loads(out)
        assert code == 0
        assert payload["cuts"] == [-1, 1]

    @pytest.mark.parametrize("cuts, shape", [("-+", "(-1, 1)"),
                                             ("--", "(-1, -1)")],
                             ids=["minus-plus", "minus-minus"])
    def test_cut_values_starting_with_dash(self, capsys, cuts, shape):
        code, joined, _ = run(capsys, ["polygon", f"--cuts={cuts}"] + FF)
        assert code == 0
        assert f"# cuts = {shape}," in joined
        code, spaced, _ = run(capsys, ["polygon", "--cuts", cuts] + FF)
        assert code == 0
        assert spaced == joined

    @pytest.mark.parametrize("radii", [["--R1=1", "--R2=1e16"],
                                       ["--R1=1", "--R2=1e20"],
                                       ["--R1=1e16", "--R2=1"]])
    def test_radius_ratio_too_large(self, capsys, radii):
        code, out, err = run(capsys, ["polygon"] + radii
                             + ["--s1=0.3", "--s2=0.4"])
        assert (code, out) == (2, "")
        assert err.startswith("error: radius ratio R = 1e+")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_cut_string(self, capsys):
        code, _, err = run(capsys, ["polygon", "--cuts", "xx"] + FF)
        assert code == 2
        assert "cuts" in err


class TestImage:
    def test_markers_present(self, capsys):
        code, out, _ = run(capsys, ["image", "--samples", "16"] + FF)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l,h_min,h_max,kind"
        kinds = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
        assert kinds.count("sample") == 17
        assert kinds.count("ff") == 2
        assert kinds.count("corner") == 4

    def test_sample_minimum(self, capsys):
        code, _, err = run(capsys, ["image", "--samples", "4"] + FF)
        assert code == 2

    @pytest.mark.parametrize("samples", [65537, 10 ** 12, 2 ** 63 - 1,
                                         10 ** 20])
    def test_sample_maximum(self, capsys, monkeypatch, samples):
        # Refused before the envelope allocates anything.
        def envelope(params, n):
            raise AssertionError("image_boundary called")
        monkeypatch.setattr(cartography, "image_boundary", envelope)
        code, out, err = run(capsys, ["image", "--samples", str(samples)]
                             + FF)
        assert (code, out) == (2, "")
        assert err == "error: --samples must be <= 65536\n"

    def test_sample_maximum_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cartography, "image_boundary",
            lambda params, n: cartography.ImageBoundary((), (), ()))
        code, out, _ = run(capsys, ["image", "--samples",
                                    str(cartography.MAX_SAMPLES)] + FF)
        assert (code, out) == (0, "l,h_min,h_max,kind\n")

    def test_overflowing_solve_exits_2(self, capsys):
        code, out, err = run(capsys, ["image", "--R1=1", "--R2=1e100",
                                      "--s1=1e-160", "--s2=0"])
        assert (code, out) == (2, "")
        assert err == ("error: the image's critical-point solve overflows "
                       "at radius ratio R = 1e+100 and coupling 1e-160\n")


class TestSweep:
    ARGS = ["sweep"] + BASE + ["--quantity", "nff",
                               "--s1-count", "5", "--s2-count", "5"]

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, self.ARGS)
        _, out2, _ = run(capsys, self.ARGS)
        assert out1 == out2

    def test_parallel_matches_serial(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMITORIC_THREADS", "4")
        _, serial, _ = run(capsys, self.ARGS)
        _, parallel, _ = run(capsys, self.ARGS + ["--parallel"])
        assert serial == parallel

    def test_height_sweep_flags(self, capsys):
        args = ["sweep"] + BASE + ["--quantity", "height",
                                   "--s1-count", "3", "--s2-count", "3"]
        code, out, _ = run(capsys, args)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s1,s2,h1,h2,flag"
        # Corner rows carry the no-focus-focus flag with blank heights.
        assert any(ln.endswith("no-focus-focus") for ln in lines[1:])

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main(self.ARGS + ["--out", str(path)])
        capsys.readouterr()
        assert code == 0
        text = path.read_text()
        assert text.startswith("s1,s2,n_ff,flag\n")
        assert "\r" not in text

    def test_bad_axis(self, capsys):
        code, _, err = run(capsys, ["sweep"] + BASE
                           + ["--quantity", "E", "--s1-count", "1"])
        assert code == 2

    @pytest.mark.parametrize("counts", [(10 ** 7, 10 ** 7), (1000, 1001),
                                        (2, 500001)])
    def test_cell_maximum(self, capsys, monkeypatch, counts):
        # Refused before the axes or the grid are allocated.
        def linspace(*args, **kwargs):
            raise AssertionError("axis allocated")
        monkeypatch.setattr(cli.np, "linspace", linspace)
        code, out, err = run(capsys, ["sweep"] + BASE + [
            "--quantity", "height", "--s1-count", str(counts[0]),
            "--s2-count", str(counts[1])])
        assert (code, out) == (2, "")
        assert err == "error: --s1-count * --s2-count must be <= 1000000\n"


class TestArguments:
    @pytest.mark.parametrize("value, error", [
        ("-inf", "r1 and r2 must be finite"),
        ("-nan", "r1 and r2 must be finite"),
        ("-1e3", "r1 and r2 must be positive")])
    def test_negative_non_numeric_values(self, capsys, value, error):
        # argparse alone reads these as options ("expected one argument").
        for argv in (["classify", "--s1", "0.3", "--s2", "0.4"],
                     ["height", "--method", "closed", "--s1", "0.3",
                      "--s2", "0.4"],
                     ["sweep", "--quantity", "E"]):
            code, out, err = run(capsys, argv + ["--R1", "1", "--R2", value])
            assert (code, out, err) == (2, "", f"error: {error}\n")
            assert run(capsys, argv + ["--R1", "1", f"--R2={value}"]) == (
                code, out, err)

    def test_negative_coupling_value(self, capsys):
        code, _, err = run(capsys, ["classify"] + BASE
                           + ["--s1", "-1e-3", "--s2", "0.4"])
        assert (code, err) == (2, "error: s1 and s2 must lie in [0, 1]\n")

    def test_value_flags_match_parser(self):
        commands = next(a.choices for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        flags = {flag for sp in commands.values() for a in sp._actions
                 if a.nargs is None for flag in a.option_strings}
        assert flags - {"--cuts"} == cli._VALUE_FLAGS

    @pytest.mark.parametrize("argv", [
        "classify --R1=1e200 --R2=1 --s1=0.3 --s2=0.4",
        "classify --R1=1e-300 --R2=1e-299 --s1=0.2 --s2=0.7",
        "image --R1=1e200 --R2=1 --s1=0.3 --s2=0.4",
        "image --R1=1e100 --R2=1e-100 --s1=0.3 --s2=0.6",
        "sweep --R1=1e200 --R2=1 --quantity E --s1-count 3 --s2-count 3"])
    def test_radii_whose_squares_leave_float_range(self, capsys, argv):
        # r1^2, r2^2 or (r2/r1)^2 overflows or underflows to zero.
        code, out, err = run(capsys, argv.split())
        r1, r2 = (float(a.split("=")[1]) for a in argv.split()[1:3])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: r1 = {r1!r} and r2 = {r2!r} ")
        assert err.count("\n") == 1

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()
