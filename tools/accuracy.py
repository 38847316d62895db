"""Accuracy of every number the ``semitoric`` CLI prints, per command and
per decade of R.

The script runs the invocations of ``tools/cli_digest.py`` in process
(loaded by path, as ``tests/test_cli_digest.py`` does) and compares each
float that an invocation with exit code 0 prints with a reference that
shares no code with the closed forms or the oracles it checks:

- E (``classify``, also ``--json``, and ``sweep --quantity E``):
  ``cli_digest.exact_E``, exact ``Fraction`` arithmetic on the float
  inputs, since E is a polynomial;
- ``polygon`` vertices, scaled and unscaled, and the focus-focus levels
  ``ff_l``: ``exact_vertices`` of ``tests/references.py`` in ``Fraction``
  arithmetic, at the exact ratio R of the NS frame and the printed cuts;
- h1 and h2 (``height``, and ``sweep --quantity height``):
  ``mp_chart_height`` of ``tests/references.py``, an area integral of the
  unfactored l = 0 chart in 50-digit mpmath, at the exact inputs in the NS
  frame (R > 1, by the sphere swap (r1, r2, s2) -> (r2, r1, 1 - s2));
- ``image`` samples (h_min and h_max of the ``sample`` rows):
  ``mp_envelope`` of ``tests/references.py``, the extremes of the NS
  frame's p2 chart A +/- sqrt(B) in mpmath at 50 + 2 ceil(log10 R) digits,
  at the float levels and ratio of that frame, as
  ``tests/test_cartography.py`` uses it.

Not checked: ``height``'s |closed - oracle| (itself an error), the axis
values of a sweep (its inputs), and the level column and the focus-focus
and corner rows of ``image``.

Each value gets its absolute error |printed - reference|, its relative
error (absolute over |reference|, when that is not 0) and a scaled error,
absolute over the quantity's natural size, which the acceptance criteria's
tolerance bounds (``TOLERANCES``).  A printed value that is no finite float
where the reference is finite has infinite error.  ``ACCURACY.json``
gives, per command, quantity and decade of R = r2/r1 (the input's ratio,
not the NS frame's), the values checked, the worst of each error and the
count beyond the tolerance; the gate is each command's worst scaled error
for R in [1/8, 8] against its tolerance; the script exits 1 where a gate
fails.  The previous file's label and rows go into the record under
``previous``.

    python tools/accuracy.py                # writes ACCURACY.json
    python tools/accuracy.py --out FILE

Standard library, NumPy and mpmath only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import math
import platform
import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DPS = 50
GATE_R = (0.125, 8.0)

# quantity: (tolerance of the scaled error, its scale, its source)
TOLERANCES = {
    "E": (1e-12, "max(|E|, 4 r1 r2) / 8: in units of r1 r2 / 2 where "
          "|E| <= 4 r1 r2 (the degeneracy band and criterion 5's point), "
          "|E| / 8 beyond",
          "criterion 5: |E + 8| < 1e-12 at r1 r2 = 2, where the scale is 1"),
    "h": (1e-6, "1", "criterion 1: |closed - oracle| <= 1e-6"),
    "vertex": (1e-12, "max(1, R) scaled, r1 max(1, R) unscaled (NS frame)",
               "criterion 8: polygon widths within 1e-12"),
    "envelope": (1e-12, "max(1, max |h|) over the image's samples",
                 "criterion 8's 1e-12, relative to the band; criterion 11 "
                 "tolerates one level spacing, which no wrong band exceeds"),
}


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def references() -> References:
    """The references of this checkout's ``tools/`` and ``tests/``; its
    ``src/`` must be importable."""
    return References(load("cli_digest", ROOT / "tools" / "cli_digest.py"),
                      load("references", ROOT / "tests" / "references.py"))


def options(command: str) -> dict:
    """The ``--flag value`` and ``--flag=value`` pairs of a command line;
    ``--json`` and ``--parallel`` map to ''."""
    opts, args = {}, iter(command.split()[1:])
    for arg in args:
        key, eq, value = arg.partition("=")
        if not eq and key not in ("--json", "--parallel"):
            value = next(args)
        opts[key] = value
    return opts


def decade(R: float) -> int:
    return math.floor(math.log10(R))


class References:
    """The references, each memoised on its exact arguments."""

    def __init__(self, cli_digest, refs):
        import mpmath

        from semitoric.model import ModelParams

        self.mpmath, self.ModelParams = mpmath, ModelParams
        self.digest, self.refs = cli_digest, refs
        self.exact_E = cli_digest.exact_E
        self.heights, self.envelopes = {}, {}

    def height(self, r1, r2, s1, s2):
        """(h1, h2) at the exact inputs, in the NS frame."""
        key = (r1, r2, s1, s2)
        if key not in self.heights:
            mp = self.mpmath.mp
            with mp.workdps(DPS):
                if r2 / r1 > 1.0:
                    work = self.ModelParams(r1, r2, s1, s2)
                else:
                    work = self.ModelParams(mp.mpf(r2), mp.mpf(r1), mp.mpf(s1),
                                            1 - mp.mpf(s2))
                self.heights[key] = tuple(
                    self.refs.mp_chart_height(mp, label, work)
                    for label in ("NS", "SN"))
        return self.heights[key]

    def envelope(self, r1, r2, s1, s2, n):
        """[(h_min, h_max), or None where ``mpmath.polyroots`` does not
        converge] on the n + 1 levels of ``image --samples n``, one call of
        ``mp_envelope`` per level."""
        key = (r1, r2, s1, s2, n)
        if key not in self.envelopes:
            params = self.ModelParams(r1, r2, s1, s2)
            self.envelopes[key] = [self._level(params, n, i)
                                   for i in range(n + 1)]
        return self.envelopes[key]

    def _level(self, params, n, i):
        try:
            return self.refs.mp_envelope(params, n, [i], DPS)[0]
        except self.mpmath.libmp.NoConvergence:  # e.g. B'^2 at s1 = 1/2
            return None


def ns_radii(r1, r2):
    """(r1, R) of the NS frame, exact."""
    if r2 / r1 <= 1.0:
        r1, r2 = r2, r1
    return Fraction(r1), Fraction(r2) / Fraction(r1)


def check(command: str, stdout: str, written, refs: References):
    """(quantity, R, printed, reference, scale) for every checked float
    that one successful invocation printed."""
    name, opts = command.split()[0], options(command)
    r1, r2 = float(opts["--R1"]), float(opts["--R2"])
    R = r2 / r1
    text = written.decode() if written is not None else stdout
    out = []
    if name == "classify":
        s1, s2 = float(opts["--s1"]), float(opts["--s2"])
        e = (json.loads(text)["E"] if "--json" in opts
             else float(text.split("\n", 1)[0].removeprefix("E = ")))
        out.append(e_value(R, e, refs.exact_E(r1, r2, s1, s2), r1 * r2))
    elif name == "height":
        s1, s2 = float(opts["--s1"]), float(opts["--s2"])
        if "--json" in opts:
            got = json.loads(text)
            got = got["h1"], got["h2"]
        else:
            lines = text.splitlines()
            got = (float(lines[0].removeprefix("h1 = ")),
                   float(lines[1].removeprefix("h2 = ")))
        for h, ref in zip(got, refs.height(r1, r2, s1, s2)):
            out.append(("h", R, h, ref, 1.0))
    elif name == "polygon":
        out += polygon_values(text, "--json" in opts, r1, r2, refs)
    elif name == "image":
        s1, s2 = float(opts["--s1"]), float(opts["--s2"])
        rows = [line.split(",") for line in text.splitlines()[1:]]
        got = [(float(a), float(b)) for _, a, b, kind in rows
               if kind == "sample"]
        ref = refs.envelope(r1, r2, s1, s2, len(got) - 1)
        scale = max([1.0] + [abs(v) for pair in ref if pair for v in pair])
        for pair, ref_pair in zip(got, ref):
            out += [("envelope", R, g, v, scale)
                    for g, v in zip(pair, ref_pair or (None, None))]
    elif name == "sweep":
        lines = text.splitlines()
        quantity = lines[0].split(",")[2]
        for row in lines[1:]:
            cells = row.split(",")
            if quantity == "n_ff" or cells[2] == "":
                continue
            s1, s2 = float(cells[0]), float(cells[1])
            if quantity == "E":
                out.append(e_value(R, float(cells[2]),
                                   refs.exact_E(r1, r2, s1, s2), r1 * r2))
            else:
                for h, ref in zip(cells[2:4], refs.height(r1, r2, s1, s2)):
                    out.append(("h", R, float(h), ref, 1.0))
    return out


def e_value(R, printed, exact, r1_r2):
    return "E", R, printed, exact, max(abs(float(exact)), 4 * r1_r2) / 8


def polygon_values(text, as_json, r1, r2, refs):
    """The polygon's printed vertices and ff_l against ``exact_vertices``."""
    if as_json:
        got = json.loads(text)
        cuts, ff_l = tuple(got["cuts"]), got["ff_l"]
        scaled, unscaled = got["vertices_scaled"], got["vertices_unscaled"]
    else:
        lines = text.splitlines()
        table = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
        scaled, unscaled = ([row[:2] for row in table],
                            [row[2:] for row in table])
        tail = re.fullmatch(r"# cuts = (\(.*\)), ff_l = (\(.*\))", lines[-1])
        cuts, ff_l = map(ast.literal_eval, tail.groups())
    r1_ns, R = ns_radii(r1, r2)
    ref = refs.refs.exact_vertices(cuts, R)
    big = max(Fraction(1), R)
    pairs = []
    if len(ref) != len(scaled):  # a different shape: every vertex is wrong
        pairs += [(math.nan, 0, big)] * len(scaled)
        ref = ()
    for (l, y), got_s, got_u in zip(ref, scaled, unscaled):
        pairs += [(got_s[0], l, big), (got_s[1], y, big),
                  (got_u[0], r1_ns * (l + 1 - R), r1_ns * big),
                  (got_u[1], r1_ns * y, r1_ns * big)]
    ff_ref = (0, 2 * R - 2) if ff_l else ()
    if len(ff_l) != len(ff_ref):
        ff_l, ff_ref = (math.nan,), (0,)
    pairs += [(got, v, big) for got, v in zip(ff_l, ff_ref)]
    return [("vertex", r2 / r1, float(got), v, float(scale))
            for got, v, scale in pairs]


def errors(printed: float, reference, scale: float):
    """(absolute, relative or None, scaled) error of one printed value, or
    None where there is no reference."""
    if reference is None:
        return None
    if not math.isfinite(printed):
        return math.inf, math.inf, math.inf
    if isinstance(reference, Fraction):
        diff = abs(Fraction(printed) - reference)
        absolute = float(diff)
        relative = float(diff / abs(reference)) if reference else None
    else:
        ref = float(reference)
        absolute = abs(printed - ref)
        relative = absolute / abs(ref) if ref else None
    return absolute, relative, absolute / scale


def run(main, commands, refs: References, workdir: Path):
    """(command, [(quantity, R, errors)]) for every command, in order, with
    ``errors``' triple or None; commands that do not exit 0 check
    nothing."""
    out = []
    for command in commands:
        code, stdout, _, written = refs.digest.capture(main, command, workdir)
        values = check(command, stdout, written, refs) if code == 0 else []
        out.append((command, [(q, R, errors(got, ref, scale))
                              for q, R, got, ref, scale in values]))
    return out


def table(results):
    """Rows per (command, quantity, decade of R) and the gate per (command,
    quantity) over R in [1/8, 8]."""
    rows, gate = {}, {}
    for command, values in results:
        name = command.split()[0]
        for quantity, R, errs in values:
            tol = TOLERANCES[quantity][0]
            key = (name, quantity, decade(R))
            row = rows.setdefault(key, {
                "command": name, "quantity": quantity, "decade": key[2],
                "values": 0, "worst_abs": 0.0, "worst_rel": 0.0,
                "worst_scaled": 0.0, "beyond_tol": 0, "no_reference": 0})
            if errs is None:
                row["no_reference"] += 1
                continue
            absolute, relative, scaled = errs
            row["values"] += 1
            row["worst_abs"] = max(row["worst_abs"], absolute)
            if relative is not None:
                row["worst_rel"] = max(row["worst_rel"], relative)
            row["worst_scaled"] = max(row["worst_scaled"], scaled)
            row["beyond_tol"] += scaled > tol
            if GATE_R[0] <= R <= GATE_R[1]:
                g = gate.setdefault(f"{name} {quantity}", {
                    "values": 0, "worst_scaled": 0.0, "tol": tol})
                g["values"] += 1
                g["worst_scaled"] = max(g["worst_scaled"], scaled)
    for g in gate.values():
        g["ok"] = g["worst_scaled"] <= g["tol"]
    return [rows[k] for k in sorted(rows)], gate


def fmt(x: float) -> str:
    return f"{x:.2e}" if math.isfinite(x) else str(x)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "ACCURACY.json",
                    help="the JSON record (default: ACCURACY.json); its "
                    "previous rows go under 'previous'")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    import mpmath

    from semitoric.cli import main as cli_main

    refs = references()
    commands = refs.digest.invocations()
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        results = run(cli_main, commands, refs, Path(tmp))
    seconds = time.monotonic() - t0
    rows, gate = table(results)
    bench_layers = load("bench_layers", ROOT / "tools" / "bench_layers.py")
    record = {
        "label": bench_layers.checkout_label(
            ROOT / "src", (":/src", ":/tests", ":/tools")),
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "mpmath": mpmath.__version__},
        "invocations": len(commands),
        "checked_invocations": sum(1 for _, v in results if v),
        "seconds": round(seconds, 1),
        "dps": DPS,
        "tolerances": {q: {"tol": tol, "scale": scale, "source": source}
                       for q, (tol, scale, source) in TOLERANCES.items()},
        "gate_R": list(GATE_R),
        "gate": gate,
        "rows": rows,
    }
    if args.out.exists():
        old = json.loads(args.out.read_text())
        record["previous"] = {"label": old.get("label"),
                              "gate": old.get("gate"), "rows": old["rows"]}
    print(f"{'command':<9} {'quantity':<9} {'decade':>6} {'values':>7} "
          f"{'abs':>9} {'rel':>9} {'scaled':>9} {'beyond':>6} {'no ref':>6}")
    for r in rows:
        print(f"{r['command']:<9} {r['quantity']:<9} "
              f"{'1e' + str(r['decade']):>6} "
              f"{r['values']:>7} {fmt(r['worst_abs']):>9} "
              f"{fmt(r['worst_rel']):>9} {fmt(r['worst_scaled']):>9} "
              f"{r['beyond_tol']:>6} {r['no_reference']:>6}")
    for key, g in gate.items():
        print(f"gate R in [1/8, 8] {key}: worst {fmt(g['worst_scaled'])} "
              f"<= {g['tol']:g}: {'ok' if g['ok'] else 'FAIL'}")
    print(f"{record['checked_invocations']} of {len(commands)} invocations "
          f"checked in {seconds:.1f} s")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(g["ok"] for g in gate.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
