"""Digest the output of a fixed list of ``semitoric`` CLI invocations.

Each invocation runs in-process through ``semitoric.cli.main``.  For each
one the script prints the exit code, the sha256 of stdout + stderr (plus
the bytes of any ``--out`` file) and the arguments; the last line is the
sha256 of all lines before it.  Run it on two checkouts and diff the
printouts, or let ``--compare`` do both, to show that a change leaves the
CLI output byte-identical:

    python tools/cli_digest.py                  # this checkout's src/
    python tools/cli_digest.py OTHER/src        # another checkout
    python tools/cli_digest.py --compare OTHER/src [SRC]

``--compare`` digests SRC (default: this checkout's src/) and OTHER/src,
each in its own subprocess on this script's list of invocations, prints
only the invocations whose exit code or digest differ, and exits 1 if any
do, 0 if none do.

The list covers every README example, ``height`` with all three methods,
``image`` at 16, 64 and 257 samples (R < 1, R near 1, R = 1e3) and at
16 samples for R from 1e-16 to 1e16,
``classify`` (also with ``--json``) at extreme radius ratios, radius pairs
whose squares leave the float range and pairs just inside it, ``height``
near E = 0 (where the oracle's arccos zone is narrow), ``polygon`` with
all four cuts (also at R = 1 +- 1e-9 and R = 8, and at four R where
vertex values round) and at the toric corners,
``classify --json``, ``height --method quadrature|both`` next to the
degeneracy band (-E/(r1 r2) in [1e-9, 2e-6]), ``classify`` (also with
``--json``) on both sides of the band's edge (-E/(r1 r2) in
[2e-11, 5e-10], exits 3 and 0), ``height --method closed|quadrature
--json`` inside the ill-conditioned band at three scales of both radii,
small sweeps, seeded 41 x 41 sweeps of every quantity, ``height`` and a
sweep next to the crossing of the case-III lines, negative values written
as separate arguments (``--R2 -inf``), oversized grids and other error
exits, on inputs with R > 1 and R < 1, plus seeded random focus-focus
points.  The seeded points are chosen with exact rational arithmetic, not
with the package, so every checkout runs the same list.  Standard library
and NumPy only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

SEED = 20261018
N_RANDOM = 8
N_NEAR_E0 = 4

README_EXAMPLES = [
    "classify --R1 1 --R2 2 --s1 0.5 --s2 0.5",
    "height --R1 1 --R2 2 --s1 0.25 --s2 0.25 --method both --json",
    "polygon --R1 1 --R2 2 --s1 0.5 --s2 0.5 --cuts +-",
    "image --R1 1 --R2 2 --s1 0.5 --s2 0.5 --samples 64 --out image.csv",
    "sweep --R1 1 --R2 2 --quantity height --s1-count 51 --s2-count 51",
]

# (R1, R2, s1, s2): focus-focus points in both frames, toric type, the
# degenerate root of E, an input at which an oracle self-check once failed
# (E ~ -9.5e-6), and a non-finite radius.
FF_POINTS = [(1, 2, 0.25, 0.25), (1, 2, 0.3, 0.55), (1, 3, 0.75, 0.8),
             (2, 1, 0.3, 0.4), (3, 1, 0.6, 0.2)]
TORIC_POINTS = [(1, 2, 0, 0), (1, 2, 0, 1), (1, 2, 1, 0), (1, 2, 1, 1),
                (2, 1, 0, 0), (2, 1, 1, 1), (1, 1e6, 0, 0)]
EDGE_POINTS = [(1, 2, 0.14453829383418643, 0.1),
               (1, 2, 0.02, 0.8929379052866228), ("nan", 2, 0.3, 0.4)]
# Polygons at R = 1 +- 1e-9, where the second focus-focus level 2R - 2 is
# rounding noise next to 0, and at R = 8, in both frames.
POLYGON_POINTS = [(1, 1.000000001, 0.3, 0.4), (1, 0.999999999, 0.3, 0.4),
                  (1, 8, 0.3, 0.4), (8, 1, 0.3, 0.4)]
# Focus-focus polygons where vertex values round: R = 1 + 2^-52 (2R - 2
# is one ulp), R = 2^14 - 2^-39 (2R + 2 rounds up a binade, and the knot
# walk kept a float kink at ff level 2 there), and two such R at which
# cuts (-1, -1) fail the integer-slope check (exit 5).
ROUNDING_POLYGON_POINTS = [(1, R, 0.500000001, 0.4) for R in (
    1.0000000000000002, 16383.999999999998, 16777215.000000002,
    4503599627370495.5)]
# Image envelopes at R < 1, R near 1 and R = 1e3, focus-focus and toric.
IMAGE_POINTS = [(3, 1, 0.6, 0.2), (2, 1, 0, 0), (1, 1.001, 0.3, 0.4),
                (1, 1e3, 0.3, 0.4), (1, 1e3, 0, 0.5)]
# Image envelopes at large and small ratios, where a chart in p2 loses its
# digits to two cancelling terms of size R (and below R of about 5e-13 its
# levels collapse to points).
IMAGE_RATIO_POINTS = [(1, R, 0.3, s2) for R in (1e4, 1e8, 1e12, 1e16, 1e-13,
                                                1e-16) for s2 in (0.7, 0.4)]
# Radius ratios of 1e+-17, at which an offset of r2 next to r1 z1 is lost to
# rounding (a rank-1 grid built in levels l instead of z2 failed there), and
# radii whose squares overflow or underflow.
EXTREME_RADII = [(1e17, 1, 0.3, 0.4), (1, 1e17, 0.3, 0.4),
                 (1e200, 1, 0.3, 0.4), (1e-300, 1e-299, 0.2, 0.7)]
# Radius ratios of 1e+-13, where that rounding starts.
RATIO_RADII = [(1e13, 1, 0.3, 0.4), (1, 1e13, 0.3, 0.4)]
# A square of the radii or of their ratio leaves the float range (exit 2);
# the IN_RANGE pairs stay just inside it.
RANGE_RADII = [(1e200, 1, 0.3, 0.4), (1e100, 1e-100, 0.3, 0.6)]
IN_RANGE_RADII = [(1e-150, 1e-149, 0.3, 0.4), (1e153, 1e152, 0.3, 0.4)]
# Near E = 0: an input at which the oracle's self-check once failed (exit
# 5) and one at which the benchmark's oracle workload once failed.
NEAR_E0_POINTS = [(1, 2, 0.21, 0.03066823177149811),
                  (1, 5.536455289746141, 0.20372288490504997,
                   0.14741965041001193)]
# One point inside the ill-conditioned band, -E/(r1 r2) < 1e-6, with both
# radii scaled by 1, 1e3 and 1e-3: the flag follows E / (r1 r2), and h1
# does not change.
SCALED_BAND_POINTS = [(r1, 2 * r1, 0.14453832383418613, 0.1)
                      for r1 in (1, 1e3, 1e-3)]
# Next to the crossing of the case-III lines s1 = 1/2 and s2 = R/(R+1), at
# distance 1e-4 and 1e-6: the closed form once raised there (exit 2).
CROSSING_POINTS = [(1, 2, 0.5000987688340595, 0.6666823101131707),
                   (1, 2, 0.5000009876883406, 0.6666668231011317)]
# A sweep through that crossing (R < 1): its first cell once raised an
# error of two disagreeing closed-form paths (exit 2); it now exits 0.
CROSSING_SWEEP = ("sweep --R1 1.0 --R2 0.9877274521826769 --quantity height "
                  "--s1-start 0.3913042305570981 --s1-stop 0.6784081853711457 "
                  "--s1-count 41 --s2-start 0.22477811335400982 "
                  "--s2-stop 0.6138689802117288 --s2-count 41")
# Grids past the CLI's size limits (exit 2).  Each allocates nothing where
# the limit holds, and fails at once where it does not: a request of 10^20
# or 2^63 - 1 samples, or of 10^14 cells, exceeds any address space.
OVERSIZED = [
    "image --R1 1 --R2 2 --s1 0.5 --s2 0.5 --samples 100000000000000000000",
    "image --R1 1 --R2 2 --s1 0.5 --s2 0.5 --samples 9223372036854775807",
    "sweep --R1 1 --R2 2 --quantity height --s1-count 10000000 "
    "--s2-count 10000000",
]


def flags(point) -> str:
    r1, r2, s1, s2 = point
    return f"--R1={r1} --R2={r2} --s1={s1} --s2={s2}"


def exact_E(r1, r2, s1, s2) -> Fraction:
    """The discriminant E at the exact values of the float arguments, in
    rational arithmetic.  The seeded points below are chosen with it, so
    the invocation list does not depend on the rounding of the checkout's
    ``discriminant_E``: every checkout is digested on the same list."""
    r1, r2, s1, s2 = map(Fraction, (r1, r2, s1, s2))
    return (r2 ** 2 * (1 - 2 * s1) ** 2 * (s2 - 1) ** 2
            + r1 ** 2 * (1 - 2 * s1) ** 2 * s2 ** 2
            - 2 * r1 * r2 * (8 * (s1 - 1) ** 2 * s1 ** 2 + s2
                             - 12 * (s1 - 1) * s1 * s2
                             + (7 + 12 * (s1 - 1) * s1) * s2 ** 2
                             - 16 * s2 ** 3 + 8 * s2 ** 4))


def random_ff_points(rng):
    """Seeded focus-focus points with R log-uniform on [1/8, 8]."""
    points = []
    while len(points) < N_RANDOM:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        s1, s2 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        if exact_E(1.0, R, s1, s2) < -1e-2 * R:
            points.append((1.0, R, s1, s2))
    return points


def near_e0_points(rng, depths):
    """Seeded points with -E/(r1 r2) log-uniform on ``depths`` and R
    log-uniform on [1/8, 8]: s1 in (0, 1/2) solves E = -depth r1 r2 by
    bisection at a random s2, on the exact E."""
    points = []
    while len(points) < N_NEAR_E0:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        s2 = float(rng.uniform(0.0, 1.0))
        depth = math.exp(rng.uniform(*map(math.log, depths)))

        def excess(s1):
            return exact_E(1.0, R, s1, s2) / Fraction(R) + Fraction(depth)

        lo, hi = 0.0, 0.5  # excess(1/2) < 0 always
        if excess(lo) <= 0.0:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
        points.append((1.0, R, lo, s2))
    return points


def seeded_sweeps(rng):
    """41 x 41 sweeps of every quantity on seeded windows, R > 1 and R < 1."""
    out = []
    for R in (math.exp(rng.uniform(0.0, math.log(8))),
              math.exp(rng.uniform(math.log(1 / 8), 0.0))):
        for q in ("height", "height", "nff", "E"):
            lo1, lo2 = (float(v) for v in rng.uniform(0.0, 0.5, 2))
            hi1, hi2 = (float(v) for v in rng.uniform(0.5, 1.0, 2))
            out.append(f"sweep --R1 1.0 --R2 {R!r} --quantity {q} "
                       f"--s1-start {lo1!r} --s1-stop {hi1!r} --s1-count 41 "
                       f"--s2-start {lo2!r} --s2-stop {hi2!r} --s2-count 41")
    return out


def invocations():
    out = list(README_EXAMPLES)
    points = FF_POINTS + random_ff_points(np.random.default_rng(SEED))
    for p in points + TORIC_POINTS + EDGE_POINTS:
        out.append(f"classify {flags(p)}")
        out.append(f"classify --json {flags(p)}")
    for p in points + EDGE_POINTS:
        for method in ("closed", "quadrature", "both"):
            out.append(f"height --method {method} {flags(p)}")
            out.append(f"height --method {method} --json {flags(p)}")
    for p in FF_POINTS + POLYGON_POINTS:
        for cuts in ("++", "+-", "-+", "--"):
            out.append(f"polygon --cuts={cuts} {flags(p)}")
        out.append(f"polygon --cuts=-+ --json {flags(p)}")
    for p in ROUNDING_POLYGON_POINTS:
        for cuts in ("++", "+-", "-+", "--"):
            out.append(f"polygon --cuts={cuts} {flags(p)}")
    for p in TORIC_POINTS:
        out.append(f"polygon {flags(p)}")
        out.append(f"polygon --json {flags(p)}")
    for p in FF_POINTS[:1] + FF_POINTS[3:4] + TORIC_POINTS[:1] + IMAGE_POINTS:
        out.append(f"image --samples 16 {flags(p)}")
        out.append(f"image --samples 64 {flags(p)} --out image.csv")
    for p in FF_POINTS[:1] + IMAGE_POINTS[:1]:
        out.append(f"image --samples 257 {flags(p)}")
    for p in IMAGE_RATIO_POINTS:
        out.append(f"image --samples 16 {flags(p)}")
    for p in EXTREME_RADII:
        out.append(f"classify {flags(p)}")
    for p in RATIO_RADII:
        out.append(f"classify {flags(p)}")
        out.append(f"classify --json {flags(p)}")
    for p in RANGE_RADII:
        out.append(f"image {flags(p)}")
    out.append("sweep --R1=1e200 --R2=1 --quantity E --s1-count 3 "
               "--s2-count 3")
    for p in IN_RANGE_RADII:
        for command in ("classify", "image", "height", "polygon"):
            out.append(f"{command} {flags(p)}")
    for p in CROSSING_POINTS:
        for method in ("closed", "both"):
            out.append(f"height --method {method} {flags(p)}")
    for p in NEAR_E0_POINTS + near_e0_points(np.random.default_rng(SEED + 2),
                                             (5e-6, 1e-4)):
        out.append(f"height {flags(p)}")
        out.append(f"height --method quadrature {flags(p)}")
    for p in near_e0_points(np.random.default_rng(SEED + 3), (1e-9, 2e-6)):
        for method in ("quadrature", "both"):
            out.append(f"height --method {method} {flags(p)}")
            out.append(f"height --method {method} --json {flags(p)}")
    for p in near_e0_points(np.random.default_rng(SEED + 4), (2e-11, 5e-10)):
        out.append(f"classify {flags(p)}")
        out.append(f"classify --json {flags(p)}")
    for p in SCALED_BAND_POINTS:
        for method in ("closed", "quadrature"):
            out.append(f"height --method {method} --json {flags(p)}")
    for r in ("--R1 1 --R2 2", "--R1 2 --R2 1"):
        for q in ("nff", "E", "height"):
            out.append(f"sweep {r} --quantity {q} --s1-count 7 --s2-count 5")
        out.append(f"sweep {r} --quantity height --s1-start 0.2 "
                   f"--s1-stop 0.4 --s2-count 9 --s1-count 9 --parallel")
    out += seeded_sweeps(np.random.default_rng(SEED + 1))
    out.append(CROSSING_SWEEP)
    for value in ("-inf", "-nan", "-1e3"):
        out.append(f"classify --R1 1 --R2 {value} --s1 0.3 --s2 0.4")
        out.append(f"height --method closed --R1 1 --R2 {value} "
                   f"--s1 0.3 --s2 0.4")
        out.append(f"sweep --R1 1 --R2 {value} --quantity E")
    out += ["classify --R1 1 --R2 2 --s1 2.0 --s2 0.5",
            "polygon --R1 1 --R2 2 --s1 0.5 --s2 0.5 --cuts xx",
            "image --R1 1 --R2 2 --s1 0.5 --s2 0.5 --samples 4",
            "sweep --R1 1 --R2 2 --quantity E --s1-count 1"]
    out += OVERSIZED
    return out


def capture(main, command: str, workdir: Path):
    """(exit code, stdout, stderr, bytes of the ``--out`` file or None) of
    one in-process CLI run; an uncaught exception is exit code 1."""
    argv = command.split()
    out_file = None
    if "--out" in argv:
        k = argv.index("--out") + 1
        out_file = workdir / argv[k]
        out_file.unlink(missing_ok=True)
        argv[k] = str(out_file)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        except Exception as exc:  # an uncaught error is output too
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    written = (out_file.read_bytes() if out_file is not None
               and out_file.exists() else None)
    return code, stdout.getvalue(), stderr.getvalue(), written


def run_one(main, command: str, workdir: Path):
    """(exit code, sha256 hex) of one in-process CLI run."""
    code, stdout, stderr, written = capture(main, command, workdir)
    digest = hashlib.sha256()
    digest.update(stdout.encode())
    digest.update(stderr.encode())
    if written is not None:
        digest.update(written)
    return code, digest.hexdigest()


def digest_lines(src: Path):
    """The printout of this script on ``src``, run in a subprocess."""
    out = subprocess.run([sys.executable, __file__, str(src)], check=True,
                         capture_output=True, text=True)
    return out.stdout.splitlines()


def compare(src: Path, other: Path) -> int:
    """Print the invocations whose exit code or digest differ between
    ``src`` and ``other``; 1 if any differ, else 0."""
    ours, theirs = digest_lines(src), digest_lines(other)
    differ = 0
    for a, b in zip(ours[:-1], theirs[:-1]):
        if a != b:
            differ += 1
            code_a, hex_a, command = a.split(" ", 2)
            code_b, hex_b, _ = b.split(" ", 2)
            print(f"{command}\n  {src}: {code_a} {hex_a}\n"
                  f"  {other}: {code_b} {hex_b}")
    print(f"{differ} of {len(ours) - 1} invocations differ")
    print(f"{src}: {ours[-1]}\n{other}: {theirs[-1]}")
    return 1 if differ else 0


def main(argv=None) -> int:
    here = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", type=Path, default=here / "src",
                    help="src/ of the checkout to digest (default: this "
                    "checkout's)")
    ap.add_argument("--compare", type=Path, metavar="OTHER",
                    help="src/ of a second checkout: print only the "
                    "invocations whose output differs from SRC's")
    args = ap.parse_args(argv)
    if args.compare is not None:
        return compare(args.src, args.compare)
    sys.path.insert(0, str(args.src.resolve()))
    from semitoric.cli import main as cli_main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for command in invocations():
            code, hexdigest = run_one(cli_main, command, Path(tmp))
            lines.append(f"{code} {hexdigest} {command}")
    for line in lines:
        print(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"total {total} ({len(lines)} invocations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
