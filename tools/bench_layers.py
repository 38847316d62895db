"""Time the layers under a benchmark op, one row per layer.

``--topic`` picks the op, ``oracle`` (default), ``chart`` or ``sweep``.
Each row times package calls on a fixed, seeded set of points (R = r2/r1
log-uniform on [1/8, 8], s1 and s2 uniform; for ``sweep``, R and two axis
windows) and reports the time per point in microseconds: the median and
quartiles over repeats, each repeat one pass over all points.  The rows
are timed round-robin, so a slow stretch of a shared host spreads over all
of them.  The last row is the benchmark's whole op (for ``sweep``, the last
three, one per quantity).

- ``oracle``: focus-focus points outside the bands -E <= 1e-2 r1 r2 and
  |case-III factor| <= 1e-3 that the benchmark leaves out; the op is
  ``height_both`` plus ``roots_P0`` for both labels, and ``height_both``
  is also a row.  The ``integrate`` row integrates one arccos zone through
  a panel integrand with the sin^2 map in its loop.
- ``chart``: focus-focus and toric points outside the degeneracy band
  |E| <= 1e-10 r1 r2; the op is ``image_boundary(64)``, the polygon
  representatives (all four cuts, or the one toric shape),
  ``check_semitoric(20)`` and ``classify_fixed_points``, each also a row.
  The ``_envelope_candidates`` row is the envelope's critical-point solve
  on the arguments that ``image_boundary(64)`` passes it, recorded outside
  the timed call, so each checkout times its own solve's signature.  The
  ``reduced.dh_function`` row builds and checks a profile, past the memo
  where the package has one (``dh_function.__wrapped__``); the ``(cached)``
  row looks up the last point's R, which the representatives row leaves
  in the memo, so it times a hit (a build where there is no memo).
- ``sweep``: 41 x 41 windows as in the benchmark's sweep workload (each
  axis window at least 1/4 wide, no cell within 1e-3 of a case-III line in
  the factor (2 s1 - 1)(R (s2 - 1) + s2)); the rows are ``discriminant_E``
  and ``height_closed`` on the window's ``ParamGrid`` and one whole
  ``semitoric sweep`` per quantity, its CSV written over one file in a
  temporary directory, as the benchmark's op overwrites its output file.

    python tools/bench_layers.py --out BENCH_oracle.json
    python tools/bench_layers.py --parent OTHER/src --topic chart \\
        --out BENCH_chart.json
    python tools/bench_layers.py --parent OTHER/src --topic sweep \\
        --out BENCH_sweep.json

SRC (default: this checkout's src/) is the package that is timed.  With
``--parent OTHER/src`` an earlier checkout is timed too, in alternating
repeats: each package runs in its own subprocess, the two take turns one
repeat at a time (ABBA order), so drift of a shared host lands on both
sides instead of reading as a change.  The parent's label, environment and
rows go into the record under ``previous``, and each row gets the ratio of
the medians, the median and quartiles of the per-repeat ratios, parent
over SRC, and ``wins``, the number of repeats in which SRC was faster: a
change of a few percent whose paired quartiles straddle 1, or that wins
about half the repeats, cannot be told from host drift.  Standard library
and NumPy only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEED = 20261018
N_POINTS = 48
REPEATS = 31
SWEEP_COUNT = 41


def seeded_points(n, keep):
    """``n`` seeded points for which ``keep(p)`` holds."""
    from semitoric import model

    rng = np.random.default_rng(SEED)
    points = []
    while len(points) < n:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        p = model.ModelParams(1.0, R, *map(float, rng.uniform(0, 1, 2)))
        if keep(p):
            points.append(p)
    return points


def oracle_layers(n, work_dir):
    """Points of the oracle workload's domain and (row name, function of
    one point) for every row, in table order."""
    from semitoric import height, model, numerics, reduced, singularity

    def keep(p):
        w = model.ns_frame(p)
        factor = (2 * w.s1 - 1) * (w.R * (w.s2 - 1) + w.s2)
        return (singularity.discriminant_E(p) < -1e-2 * p.r1 * p.r2
                and abs(factor) > 1e-3)

    # An arccos zone of the oracle: the width 2 acos(1 - 2x/R) from 1 down
    # to -1 on [0, R], integrated in t with x = R sin^2 t, one integrand
    # call per GK15 panel.
    def arccos_zone(p):
        w = p.R

        def panel(ts):
            out = []
            for t in ts:
                s, c = math.sin(t), math.cos(t)
                x = w * s * s
                v = 2.0 * math.acos(1.0 - 2.0 * x / p.R)
                out.append(v * 2.0 * w * s * c)
            return out

        return numerics.integrate(panel, 0.0, 0.5 * math.pi, 5e-10)

    def oracle_op(p):
        return (height.height_both(p), reduced.roots_P0("NS", p),
                reduced.roots_P0("SN", p))

    return seeded_points(n, keep), [
        ("reduced.roots_P0", lambda p: reduced.roots_P0("NS", p)),
        ("height.height_oracle NS",
         lambda p: height.height_oracle("NS", model.ns_frame(p))),
        ("height.height_oracle SN",
         lambda p: height.height_oracle("SN", model.ns_frame(p))),
        ("height.height_closed", height.height_closed),
        ("height.height_both", height.height_both),
        ("numerics.quartic_roots",
         lambda p: numerics.quartic_roots(reduced.p0_coefficients("NS", p))),
        ("numerics.integrate", arccos_zone),
        ("op.oracle (end to end)", oracle_op),
    ]


def chart_layers(n, work_dir):
    """Points of the chart workload's domain and (row name, function of
    one point) for every row, in table order."""
    from semitoric import cartography, model, reduced, singularity

    def keep(p):
        return abs(singularity.discriminant_E(p)) > 1e-10 * p.r1 * p.r2

    def polygons(p):
        if singularity.discriminant_E(p) > 0:
            return [cartography.polygon_representative(p)]
        return [cartography.polygon_representative(p, cuts)
                for cuts in ((1, 1), (1, -1), (-1, 1), (-1, -1))]

    def chart_op(p):
        return (cartography.image_boundary(p, 64), polygons(p),
                singularity.check_semitoric(p, 20),
                singularity.classify_fixed_points(p))

    solve = cartography._envelope_candidates

    def solve_args(p):
        # The arguments that image_boundary(p, 64) passes to the solve.
        seen = []

        def record(*args):
            seen.append(args)
            return solve(*args)

        cartography._envelope_candidates = record
        try:
            cartography.image_boundary(p, 64)
        finally:
            cartography._envelope_candidates = solve
        return seen[0]

    points = seeded_points(n, keep)
    args = {p: solve_args(p) for p in points}
    build = getattr(reduced.dh_function, "__wrapped__", reduced.dh_function)
    last_R = model.ns_frame(points[-1]).R
    return points, [
        ("cartography.image_boundary",
         lambda p: cartography.image_boundary(p, 64)),
        ("cartography._envelope_candidates", lambda p: solve(*args[p])),
        ("cartography.polygon_representative", polygons),
        ("reduced.dh_function", lambda p: build(model.ns_frame(p).R)),
        ("reduced.dh_function (cached)",
         lambda p: reduced.dh_function(last_R)),
        ("singularity.check_semitoric",
         lambda p: singularity.check_semitoric(p, 20)),
        ("singularity.classify_fixed_points",
         singularity.classify_fixed_points),
        ("op.chart (end to end)", chart_op),
    ]


def sweep_window(rng):
    width = float(rng.uniform(0.25, 1.0))
    start = float(rng.uniform(0.0, 1.0 - width))
    return start, min(1.0, start + width)


def sweep_layers(n, work_dir):
    """Windows of the sweep workload's domain and (row name, function of
    one window) for every row, in table order.  The windows are chosen
    without calling the package, so every checkout times the same ones."""
    from semitoric import cli, height, model, singularity

    rng = np.random.default_rng(SEED)
    windows = []
    while len(windows) < n:
        R = math.exp(rng.uniform(math.log(1 / 8), math.log(8)))
        w1, w2 = sweep_window(rng), sweep_window(rng)
        s1 = np.linspace(*w1, SWEEP_COUNT)
        s2 = np.linspace(*w2, SWEEP_COUNT)
        big, s2_ns = (R, s2) if R > 1.0 else (1.0 / R, 1.0 - s2)
        factor = (2 * s1[:, None] - 1) * (big * (s2_ns[None, :] - 1)
                                          + s2_ns[None, :])
        if (np.abs(factor) <= 1e-3).any():
            continue
        argv = ["sweep", "--R1", "1.0", "--R2", repr(R),
                "--s1-start", repr(w1[0]), "--s1-stop", repr(w1[1]),
                "--s2-start", repr(w2[0]), "--s2-stop", repr(w2[1]),
                "--s1-count", str(SWEEP_COUNT), "--s2-count", str(SWEEP_COUNT),
                "--out", os.path.join(work_dir, "sweep.csv")]
        windows.append((model.ParamGrid(1.0, R, s1, s2), argv))

    def sweep_op(quantity):
        def run(window):
            if cli.main(window[1] + ["--quantity", quantity]) != 0:
                raise RuntimeError(f"sweep {quantity} failed on {window[1]}")
        return run

    return windows, [
        ("singularity.discriminant_E (grid)",
         lambda w: singularity.discriminant_E(w[0])),
        ("height.height_closed (grid)", lambda w: height.height_closed(w[0])),
        ("op.sweep E (end to end)", sweep_op("E")),
        ("op.sweep nff (end to end)", sweep_op("nff")),
        ("op.sweep height (end to end)", sweep_op("height")),
    ]


# Each topic takes the point count and a scratch directory that outlives
# its calls.
TOPICS = {"oracle": oracle_layers, "chart": chart_layers,
          "sweep": sweep_layers}


def run_repeat(calls, points):
    """Per-point seconds of every row in one pass over all points."""
    times = []
    for _, f in calls:
        t0 = time.perf_counter()
        for p in points:
            f(p)
        times.append((time.perf_counter() - t0) / len(points))
    return times


def serve(topic):
    """Worker loop: print the row names after a warm-up, then the times of
    one repeat for each line read from stdin, as JSON lines."""
    with tempfile.TemporaryDirectory(prefix="bench_layers-") as work_dir:
        points, calls = TOPICS[topic](N_POINTS, work_dir)
        for _ in range(2):  # warm-up: imports, caches
            run_repeat(calls, points)
        print(json.dumps([name for name, _ in calls]), flush=True)
        for _ in sys.stdin:
            print(json.dumps(run_repeat(calls, points)), flush=True)


def read_json(worker):
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"worker {worker.args[2]} exited with code "
                           f"{worker.wait()}")
    return json.loads(line)


def measure(sources, topic, repeats):
    """Samples {row: [seconds per point, one per repeat]} of each source.

    Each source runs in its own worker subprocess; the workers take turns
    one repeat at a time, in ABBA order, and never run a repeat at the same
    time."""
    workers = [subprocess.Popen(
        [sys.executable, __file__, str(src), "--topic", topic, "--serve"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for src in sources]
    try:
        names = [read_json(w) for w in workers]
        samples = [{name: [] for name in ns} for ns in names]
        for r in range(repeats):
            order = range(len(workers))
            for i in (order if r % 2 == 0 else reversed(order)):
                workers[i].stdin.write("\n")
                workers[i].stdin.flush()
                for name, t in zip(names[i], read_json(workers[i])):
                    samples[i][name].append(t)
    finally:
        for w in workers:
            w.stdin.close()
            w.wait(timeout=60)
    return samples


def summary(samples):
    """One row per layer: median and quartiles in microseconds."""
    rows = []
    for name, times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        rows.append({"layer": name, "median_us": round(1e6 * median, 2),
                     "q1_us": round(1e6 * q1, 2), "q3_us": round(1e6 * q3, 2)})
    return rows


def checkout_label(src: Path, paths=(".",)) -> str:
    """The short git commit of the checkout that holds ``src``, with
    ``-dirty`` appended when ``paths`` (git pathspecs, relative to ``src``)
    have uncommitted changes, or the name of the checkout's directory when
    that is no git checkout (a copy made with ``git archive`` or ``cp``), so
    no path of the machine enters a record.  A parent made with
    ``git clone`` gets its commit label."""
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=src, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "--short", "HEAD")
    if commit is None:
        return src.resolve().parent.name
    status = git("status", "--porcelain", "--", *paths)
    return commit if status == "" else f"{commit}-dirty"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--topic", choices=sorted(TOPICS), default="oracle",
                    help="the benchmark op whose layers are timed "
                    "(default: oracle)")
    ap.add_argument("--label", help="name of the timed source (default: "
                    "its git commit, else its checkout's directory name)")
    ap.add_argument("--parent", type=Path,
                    help="src/ of an earlier checkout, timed in alternating "
                    "repeats with SRC")
    ap.add_argument("--out", type=Path, help="write the JSON record here")
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.serve:
        sys.path.insert(0, str(args.src.resolve()))
        serve(args.topic)
        return 0
    sources = [args.src.resolve()]
    if args.parent is not None:
        sources.append(args.parent.resolve())
    samples = measure(sources, args.topic, REPEATS)
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    rows = summary(samples[0])
    record = {
        "topic": args.topic,
        "label": args.label or checkout_label(sources[0]),
        "environment": environment,
        "points": N_POINTS, "seed": SEED, "repeats": REPEATS,
        "unit": (f"us per {'window' if args.topic == 'sweep' else 'point'}"
                 ", median and quartiles over repeats"),
        "rows": rows,
    }
    if args.parent is not None:
        record["previous"] = {
            "label": checkout_label(sources[1]),
            "environment": environment, "rows": summary(samples[1])}
        for r, old in zip(rows, record["previous"]["rows"]):
            paired = [a / b for a, b in zip(samples[1][r["layer"]],
                                            samples[0][r["layer"]])]
            q1, median, q3 = statistics.quantiles(paired, n=4,
                                                  method="inclusive")
            r["ratio"] = round(old["median_us"] / r["median_us"], 3)
            r["paired_ratio"] = round(median, 3)
            r["paired_q1"], r["paired_q3"] = round(q1, 3), round(q3, 3)
            r["wins"] = sum(x > 1.0 for x in paired)

    print(f"{'layer':<36} {'median us':>10} {'q1':>9} {'q3':>9}"
          + (f" {'parent':>10} {'ratio':>6} {'paired':>6} "
             f"{'paired q1-q3':>13} {'wins':>5}" if args.parent else ""))
    for i, r in enumerate(rows):
        line = (f"{r['layer']:<36} {r['median_us']:>10.2f} "
                f"{r['q1_us']:>9.2f} {r['q3_us']:>9.2f}")
        if args.parent is not None:
            old = record["previous"]["rows"][i]["median_us"]
            line += (f" {old:>10.2f} {r['ratio']:>5.2f}x "
                     f"{r['paired_ratio']:>5.2f}x "
                     f"{r['paired_q1']:>6.3f}-{r['paired_q3']:<6.3f} "
                     f"{r['wins']:>2}/{REPEATS}")
        print(line)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
