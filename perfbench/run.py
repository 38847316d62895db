#!/usr/bin/env python3
"""Closed-loop benchmark of the ``semitoric`` package.

One caller issues the next operation only when the previous one has
returned.  Operations call the package's public functions, and
``semitoric.cli.main`` in-process, on inputs generated from ``--seed``;
every output is checked.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload in its own
interpreter and prints one table.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.  See
README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

WORKLOAD_NAMES = ("oracle", "sweep", "chart")
WARMUP_OPS = 4
SETUP_REPEATS = 11
# In-process limit on one operation (and on its checks); a slower op is a
# failed op.  Well above the slowest expected op (~0.2 s).
OP_TIME_LIMIT_S = 20.0
MAX_LISTED_FAILURES = 50

# Host speed.  On a shared machine the same code runs up to 1.4x slower in
# some seconds than in others.  A fixed reference kernel, which does not
# touch the package, is timed between operations about every REF_EVERY_S.
# Each measured time is scaled by REF_NOMINAL_S over the median of the
# REF_NEIGHBOURS kernel times nearest to it, which gives the time on a
# machine where the kernel takes REF_NOMINAL_S.
REF_EVERY_S = 0.02
REF_NEIGHBOURS = 9
REF_NOMINAL_S = 2.5e-4
# Interpreter start-up follows the host's disk and memory more than its
# arithmetic speed, so set-up is scaled by a fresh interpreter that imports
# only NumPy instead, to the time on a machine where that takes
# NUMPY_IMPORT_NOMINAL_S.
NUMPY_IMPORT_NOMINAL_S = 0.15

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER = tuple((name, unit, "lower") for name, unit in (
    ("numerics.integrate.calls", "count/op"),
    ("numerics.integrate.f_calls", "count/op"),
    ("numerics.integrate.self_s", "s/op"),
    ("numerics.find_root_bisect.calls", "count/op"),
    ("numerics.find_root_bisect.f_calls", "count/op"),
    ("numerics.find_root_bisect.self_s", "s/op"),
    ("numerics.minimize_golden.calls", "count/op"),
    ("numerics.minimize_golden.f_calls", "count/op"),
    ("numerics.minimize_golden.self_s", "s/op"),
    ("numerics.quartic_roots.calls", "count/op"),
    ("numerics.quartic_roots.self_s", "s/op"),
    ("reduced.reduced_A.calls", "count/op"),
    ("reduced.reduced_B.calls", "count/op"),
    ("reduced.self_s", "s/op"),
    ("reduced.roots_P0.self_s", "s/op"),
    ("reduced.dh_function.calls", "count/op"),
    ("height.height_oracle.calls", "count/op"),
    ("height.height_oracle.self_s", "s/op"),
    ("height.height_closed.calls", "count/op"),
    ("height.height_closed.self_s", "s/op"),
    ("height.closed_form_F.self_s", "s/op"),
    ("singularity.discriminant_E.calls", "count/op"),
    ("singularity.n_ff.calls", "count/op"),
    ("singularity.check_semitoric.self_s", "s/op"),
    ("singularity.classify_fixed_points.self_s", "s/op"),
    ("cartography.image_boundary.self_s", "s/op"),
    ("cartography.polygon_representative.ff.self_s", "s/call"),
    ("cartography.polygon_representative.toric.self_s", "s/call"),
    ("model.momentum_map.calls", "count/op"),
    ("cli.main.calls", "count/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.bytes_written", "B/op"),
    ("trace.overhead_ms", "ms/op"),
    ("trace.overhead_frac", "frac"),
))

# Self time of these is reported per call of the variant, not per op.
PER_CALL_SELF = ("cartography.polygon_representative.ff",
                 "cartography.polygon_representative.toric")


# -- statistics -------------------------------------------------------------

def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values, q: float) -> int:
    cut = percentile(values, q)
    return sum(v > cut for v in values)


def throughput(completed: int, busy_s: float) -> float:
    """Completed operations per second of time spent inside operations."""
    if busy_s <= 0:
        raise ValueError("busy time must be positive")
    return completed / busy_s


# -- environment ------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git ('unknown' outside a
    git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
    }


def reference_kernel() -> float:
    """Fixed scalar float work and small-array NumPy calls, like the
    package's own, taking about 0.3 ms; it does not use the package."""
    import numpy as np
    acc = 0.0
    for i in range(750):
        x = i * 4e-3
        acc += math.sqrt(x * x + 1.0) - 0.5 * math.atan(x)
    a = np.linspace(0.0, 1.0, 41)
    for _ in range(15):
        acc += float(np.sum(a * a - 2.0 * a))
    return acc


class SpeedProbe:
    """Times of the reference kernel, taken between measurements."""

    def __init__(self):
        self.at, self.took = array("d"), array("d")
        self.due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.due = t1 + REF_EVERY_S

    def sample_if_due(self):
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self, stamps):
        """REF_NOMINAL_S over the median kernel time near each stamp."""
        import numpy as np
        took = np.asarray(self.took)
        k = min(REF_NEIGHBOURS, len(took))
        first = np.clip(np.searchsorted(np.asarray(self.at), stamps) - k // 2,
                        0, len(took) - k)
        windows = np.lib.stride_tricks.sliding_window_view(took, k)
        return REF_NOMINAL_S / np.median(windows[first], axis=1)

    def summary(self) -> dict:
        return {"samples": len(self.took),
                "median_s": statistics.median(self.took),
                "min_s": min(self.took), "max_s": max(self.took)}


def measure_setup() -> tuple:
    """(scaled, raw) median wall time of a fresh interpreter importing the
    package, over SETUP_REPEATS interpreters.  Each one follows a fresh
    interpreter that imports only NumPy, and its time is scaled by
    NUMPY_IMPORT_NOMINAL_S over that one's."""
    def child_s(code):
        # A blocking wait under the SIGALRM limit: subprocess's own timeout
        # polls the child with sleeps of up to 50 ms, quantising the time.
        dt, _, err = limited_call(functools.partial(
            subprocess.run, [sys.executable, "-I", "-c", code], cwd=ROOT,
            check=True, stdin=subprocess.DEVNULL))
        if err is not None:
            raise RuntimeError(f"a fresh interpreter failed: {err}")
        return dt

    package = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
               f"import semitoric, semitoric.cli")
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        numpy_s = child_s("import numpy")
        raw.append(child_s(package))
        scaled.append(raw[-1] * NUMPY_IMPORT_NOMINAL_S / numpy_s)
    return statistics.median(scaled), statistics.median(raw)


# -- timed calls ------------------------------------------------------------

class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that exceeded its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def limited_call(fn, *args):
    """(seconds, result, error) of ``fn(*args)`` under the time limit; the
    error is None or a one-line description."""
    out, err = None, None
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except OpTimeout:
        err = f"timed out after {OP_TIME_LIMIT_S:g} s"
    except Exception as exc:  # any failure of the op is a failed op
        err = f"{type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, out, err


class CheckLog:
    """Pass/fail counts per check and the first failing input of each."""

    def __init__(self):
        self.runs, self.fails, self.first = {}, {}, {}
        self.failures = []

    def record(self, op_index, inp, results: dict) -> bool:
        ok = True
        for name, msg in results.items():
            self.runs[name] = self.runs.get(name, 0) + 1
            if msg is None:
                continue
            ok = False
            self.fails[name] = self.fails.get(name, 0) + 1
            entry = {"op": op_index, "check": name, "input": str(inp),
                     "detail": msg}
            if name not in self.first:
                self.first[name] = entry
                print(f"check {name} FAILED first at op {op_index}: "
                      f"{inp} -- {msg}", flush=True)
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(entry)
        return ok

    def summary(self) -> dict:
        return {name: {"run": n, "failed": self.fails.get(name, 0),
                       "first_failure": self.first.get(name)}
                for name, n in self.runs.items()}


# -- one workload -------------------------------------------------------------

def _checks(wl, inp, out, ctx, workload: str) -> dict:
    _, results, err = limited_call(wl.checks, inp, out, ctx)
    if err is not None:
        return {f"{workload}.checks_ran": err}
    return results


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probe: SpeedProbe) -> dict:
    import numpy as np

    import workloads
    from tracing import Tracer
    from semitoric import singularity

    wl = workloads.WORKLOADS[name]
    work_dir = RESULTS_DIR / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.make_context(name, str(work_dir))
    timed_seq, warm_seq = np.random.SeedSequence(seed).spawn(2)

    warm = wl.inputs(np.random.default_rng(warm_seq))
    for _ in range(WARMUP_OPS):
        inp = next(warm)
        _, out, err = limited_call(wl.op, inp, ctx)
        if err is None:
            _checks(wl, inp, out, ctx, name)
    if ctx is not None:
        ctx.bytes_written = 0

    tracer = None
    if trace:
        discriminant = singularity.discriminant_E
        tracer = Tracer(variants={
            "cartography.polygon_representative":
                lambda p, *a, **k: "toric" if discriminant(p) > 0 else "ff"})
        traced_op = tracer.wrap(f"op.{name}", wl.op)

    inputs = wl.inputs(np.random.default_rng(timed_seq))
    log = CheckLog()
    tally = workloads.InputTally(name)
    latencies, traced_s, stamps = array("d"), array("d"), array("d")
    n_ok = 0
    probe.sample()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            i = tally.count
            inp = next(inputs)
            tally.add(inp)
            t0 = time.perf_counter()
            dt, out, err = limited_call(wl.op, inp, ctx)
            stamps.append(t0 + dt / 2)
            if tracer is not None:
                # Paired traced call on the same input; its output is the
                # one checked.
                tracer.op_id = i
                tracer.install()
                try:
                    dt_t, out, err_t = limited_call(traced_op, inp, ctx)
                finally:
                    tracer.uninstall()
                traced_s.append(dt_t)
                err = err or err_t
            latencies.append(dt)
            if err is not None:
                results = {f"{name}.completes": err}
            else:
                results = {f"{name}.completes": None,
                           **_checks(wl, inp, out, ctx, name)}
            n_ok += log.record(i, inp, results)
            if time.perf_counter() >= deadline:
                break
            probe.sample_if_due()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work_dir, ignore_errors=True)
    probe.sample()

    n = tally.count
    failed = n - n_ok
    summary = log.summary()
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "inputs": tally.summary(),
        "attempted": n, "failed": failed, "fail_frac": failed / n,
        "correct": all(v["failed"] == 0 for k, v in summary.items()
                       if not k.endswith((".completes", ".checks_ran"))),
        "checks": summary, "failures": log.failures,
        "op_p95_samples_beyond": samples_beyond(latencies, 95),
        "latencies_s": latencies.tolist(),
        "reference_kernel": probe.summary(),
    }
    if tracer is None:
        scaled = (np.asarray(latencies) * probe.scale(stamps)).tolist()
        record["raw_metrics"] = {
            "ops_per_s": throughput(n_ok, sum(latencies)),
            "op_p50_ms": 1e3 * percentile(latencies, 50),
            "op_p95_ms": 1e3 * percentile(latencies, 95),
        }
        metrics = {
            "ops_per_s": throughput(n_ok, sum(scaled)),
            "op_p50_ms": 1e3 * percentile(scaled, 50),
            "op_p95_ms": 1e3 * percentile(scaled, 95),
            "ok_frac": n_ok / n,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict((m, u) for m, u, _ in END_TO_END)
    else:
        calls, self_s = tracer.totals()
        extra = {
            "cli.bytes_written": (ctx.bytes_written / n if ctx is not None
                                  else 0.0),
            "trace.overhead_ms": 1e3 * (sum(traced_s) - sum(latencies)) / n,
            "trace.overhead_frac": sum(traced_s) / sum(latencies) - 1.0,
        }
        metrics = layer_metrics(calls, self_s, n, extra)
        units = dict((m, u) for m, u, _ in PER_LAYER)
        spans_path = RESULTS_DIR / f"{name}-seed{seed}-spans.npz"
        tracer.write(spans_path)
        record["trace_file"] = str(spans_path.relative_to(ROOT))
        record["spans_recorded"] = tracer.span_count()
        record["spans_dropped"] = tracer.spans_dropped()
        record["wrapper_cost_s"] = tracer.wrapper_cost_s
        record["self_s_sum_per_op"] = sum(self_s.values()) / n
        record["untraced_s_per_op"] = sum(latencies) / n
        record["self_s_by_function"] = {k: v / n for k, v in
                                        sorted(self_s.items())}
        record["calls_by_function"] = {k: v / n for k, v in
                                       sorted(calls.items())}
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    return record


def layer_metrics(calls: dict, self_s: dict, n_ops: int, extra: dict) -> dict:
    """The PER_LAYER metrics from the tracer's totals over ``n_ops`` ops."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
        elif name == "reduced.self_s":
            out[name] = sum(v for k, v in self_s.items()
                            if k.startswith("reduced.")) / n_ops
        elif name.endswith(".f_calls"):
            out[name] = calls.get(name, 0) / n_ops
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0) / n_ops
        else:
            owner = name[:-len(".self_s")]
            if owner in PER_CALL_SELF:
                out[name] = self_s.get(owner, 0.0) / max(1, calls.get(owner, 0))
            else:
                out[name] = self_s.get(owner, 0.0) / n_ops
    return out


# -- reporting ----------------------------------------------------------------

def print_report(record: dict):
    print(f"workload {record['workload']}: {record['attempted']} ops "
          f"attempted, {record['failed']} failed "
          f"(fail_frac {record['fail_frac']:.6g}), "
          f"{record['op_p95_samples_beyond']} samples beyond p95")
    for name, c in record["checks"].items():
        line = f"  check {name}: {c['run'] - c['failed']}/{c['run']} passed"
        if c["first_failure"]:
            f = c["first_failure"]
            line += f"; first failure op {f['op']}: {f['input']} -- {f['detail']}"
        print(line)
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in record.get("raw_metrics", {}).items():
        print(f"  unscaled {name} = {value:.6g}")


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table."""
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=args.seconds + 300)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        records.append((name, json.loads(lines[-1])))
    metrics = {}
    print("\nworkload  metric  value  unit")
    for name, res in records:
        for metric, m in res["metrics"].items():
            if metric == "setup_s":
                continue
            metrics[f"{name}.{metric}"] = m
            print(f"{name}  {metric}  {m['value']:.6g}  {m['unit']}")
    setups = [res["metrics"]["setup_s"]["value"] for _, res in records
              if "setup_s" in res["metrics"]]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"all  setup_s  {metrics['setup_s']['value']:.6g}  s")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in records),
        "attempted": sum(r["attempted"] for _, r in records),
        "failed": sum(r["failed"] for _, r in records),
        "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "semitoric" / "__init__.py").is_file():
        print(f"error: no semitoric sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import semitoric
    if Path(semitoric.__file__).resolve().parent != SRC / "semitoric":
        print(f"error: imported semitoric from {semitoric.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    setup = None if args.trace else measure_setup()
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), SpeedProbe())
    if setup is not None:
        record["metrics"]["setup_s"] = {"value": setup[0], "unit": "s"}
        record["raw_metrics"]["setup_s"] = setup[1]
    out = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record)
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
