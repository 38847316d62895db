"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``semitoric`` modules and patches
every name under which a module of the package looks the function up (for
example ``height.integrate`` as well as ``numerics.quartic_roots``, which
``reduced`` reaches as ``numerics.quartic_roots``).  Nothing inside the
package is edited; ``install`` and ``uninstall`` swap the bindings.

Each call pushes a frame on a per-thread stack.  When it returns, its
duration plus the wrapper's own cost is added to the parent frame's child
time, so

    self time = duration - time inside traced children and their wrappers.

The wrapper cost per call is calibrated when the tracer is built (median of
a few thousand calls of a no-op); without that correction the parents of
leaves called 1e4 times per operation would be charged for the tracing.

Span-kind targets additionally record one span (id, name, parent, op id,
start, end) in memory; count-kind targets, the leaves called about 1e4
times per operation, keep only counts and aggregate time.  For the kernels
that take an integrand or objective ``f`` as first argument, ``f`` is
wrapped too: its calls are counted as ``<kernel>.f_calls`` and its time is
credited to the caller of the kernel (the integrand of ``height_oracle`` is
height-layer work, not quadrature work).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "semitoric"

# (module.function, kind).  The order is the order of the span-name table.
TARGETS = (
    ("numerics.integrate", "span"),
    ("numerics.find_root_bisect", "span"),
    ("numerics.minimize_golden", "span"),
    ("numerics.quartic_roots", "span"),
    ("reduced.reduced_A", "count"),
    ("reduced.reduced_B", "count"),
    ("reduced.roots_P0", "span"),
    ("reduced.dh_function", "span"),
    ("height.height_both", "span"),
    ("height.height_oracle", "span"),
    ("height.height_closed", "span"),
    ("height.closed_form_F", "span"),
    ("singularity.discriminant_E", "count"),
    ("singularity.n_ff", "count"),
    ("singularity.check_semitoric", "span"),
    ("singularity.classify_fixed_points", "span"),
    ("cartography.image_boundary", "span"),
    ("cartography.polygon_representative", "span"),
    ("model.momentum_map", "span"),
    ("cli.main", "span"),
)

# Kernels whose first positional argument is a callback into the caller.
CALLBACK_KERNELS = frozenset({
    "numerics.integrate", "numerics.find_root_bisect",
    "numerics.minimize_golden",
})

# Spans kept in memory per run; later spans still count towards the
# aggregates and are reported as dropped.
MAX_SPANS = 1_000_000

_FRAME_OWNER, _FRAME_NAME, _FRAME_CHILD, _FRAME_SPAN = range(4)


class _ThreadState:
    """Stack, aggregates and span buffers of one thread."""

    def __init__(self):
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")


class Tracer:
    """Wraps the TARGETS of an imported ``semitoric`` package.

    ``variants`` maps a target name to a function of the call's arguments
    whose result is appended to the name under which self time is booked,
    e.g. ``cartography.polygon_representative.toric``.
    """

    def __init__(self, variants=None):
        self._variants = dict(variants or {})
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._main_stack = None
        self.op_id = -1
        self.names = []
        self._name_ids = {}
        self._sites = []
        # Zero costs while the calibration probes themselves are built.
        self.wrapper_cost_s = {"span": 0.0, "count": 0.0, "callback": 0.0}
        self.wrapper_cost_s = self._calibrate()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for qual, kind in TARGETS:
            mod_name, attr = qual.rsplit(".", 1)
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self._wrap(qual, orig, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._sites.append((mod, key, orig, wrapper))

    def _calibrate(self, repeats=7, n=2000) -> dict:
        """Per-call cost of each wrapper kind: wrapped minus direct no-op
        call, measured under a parent frame; tracer state is reset after."""
        def noop(*args):
            return None

        clock = time.perf_counter
        probes = {"span": self._wrap("trace.calibrate", noop, "span"),
                  "count": self._wrap("trace.calibrate", noop, "count")}
        stack = self._state().stack
        stack.append(["trace.calibrate", "trace.parent", 0.0, -1])
        probes["callback"] = self._callback("trace.calibrate",
                                            "trace.calibrate", noop)
        cost = {}
        try:
            for kind, probe in probes.items():
                samples = []
                for _ in range(repeats):
                    t0 = clock()
                    for _ in range(n):
                        noop()
                    t1 = clock()
                    for _ in range(n):
                        probe()
                    t2 = clock()
                    samples.append(max(0.0, ((t2 - t1) - (t1 - t0)) / n))
                cost[kind] = statistics.median(samples)
        finally:
            stack.pop()
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count()
        return cost

    # -- installation -------------------------------------------------

    def install(self):
        """Bind every wrapper in place of its original; the calling thread
        becomes the one whose innermost frame adopts pool workers' frames."""
        self._main_stack = self._state().stack
        for mod, key, _, wrapper in self._sites:
            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, orig, _ in self._sites:
            setattr(mod, key, orig)

    def wrap(self, name, fn, kind="span"):
        """A traced version of ``fn`` not bound anywhere (e.g. the op root)."""
        return self._wrap(name, fn, kind)

    # -- recording ------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _parent(self, stack):
        """Innermost frame of this thread, else (in a pool worker) the
        innermost frame of the installing thread; ``adopted`` is True in
        the second case, whose child-time update needs the lock."""
        if stack:
            return stack[-1], False
        main = self._main_stack
        if main is not None and main is not stack and main:
            return main[-1], True
        return None, False

    def _close(self, st, frame, parent, adopted, dur, cost):
        owner = frame[_FRAME_OWNER]
        st.self_s[owner] = st.self_s.get(owner, 0.0) + dur - frame[_FRAME_CHILD]
        if parent is not None:
            dur += cost
            if adopted:
                with self._lock:
                    parent[_FRAME_CHILD] += dur
            else:
                parent[_FRAME_CHILD] += dur

    def _record(self, st, span, name_id, parent_span, t0, t1):
        if span >= MAX_SPANS:
            return
        st.span_id.append(span)
        st.span_name.append(name_id)
        st.span_parent.append(parent_span)
        st.span_op.append(self.op_id)
        st.span_start.append(t0)
        st.span_end.append(t1)

    def _wrap(self, name, orig, kind):
        name_id = self._name_id(name)
        variant = self._variants.get(name)
        has_callback = name in CALLBACK_KERNELS
        is_span = kind == "span"
        cost = self.wrapper_cost_s[kind]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack and stack[-1][_FRAME_NAME] == name:
                # Self-recursion (integrate maps its endpoints and calls
                # itself): count the outer call only.
                return orig(*args, **kwargs)
            parent, adopted = tracer._parent(stack)
            owner = name
            if variant is not None:
                owner = f"{name}.{variant(*args, **kwargs)}"
                st.calls[owner] = st.calls.get(owner, 0) + 1
            parent_span = parent[_FRAME_SPAN] if parent is not None else -1
            span = next(tracer._ids) if is_span else parent_span
            if has_callback and args:
                caller = parent[_FRAME_OWNER] if parent is not None else name
                args = (tracer._callback(name, caller, args[0]),) + args[1:]
            frame = [owner, name, 0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.calls[name] = st.calls.get(name, 0) + 1
                tracer._close(st, frame, parent, adopted, t1 - t0, cost)
                if is_span:
                    tracer._record(st, span, name_id, parent_span, t0, t1)

        return wrapper

    def _callback(self, kernel, caller, f):
        key = kernel + ".f_calls"
        cost = self.wrapper_cost_s["callback"]
        clock = time.perf_counter
        tracer = self

        def counted(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            kframe = stack[-1] if stack else None
            frame = [caller, key, 0.0,
                     kframe[_FRAME_SPAN] if kframe is not None else -1]
            stack.append(frame)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.calls[key] = st.calls.get(key, 0) + 1
                tracer._close(st, frame, kframe, False, dur, cost)

        return counted

    # -- results ----------------------------------------------------------

    def totals(self):
        """(calls, self_s) summed over threads, keyed by name / owner."""
        calls, self_s = {}, {}
        for st in self._states:
            for k, v in st.calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in st.self_s.items():
                self_s[k] = self_s.get(k, 0.0) + v
        return calls, self_s

    def span_count(self) -> int:
        return sum(len(st.span_id) for st in self._states)

    def spans_dropped(self) -> int:
        issued = next(self._ids)
        return max(0, issued - MAX_SPANS)

    def write(self, path):
        """Write all recorded spans as arrays to an ``.npz`` file."""
        def cat(field, dtype):
            parts = [np.frombuffer(getattr(st, field), dtype=dtype)
                     for st in self._states]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        np.savez(path, names=np.array(self.names),
                 id=cat("span_id", np.int64), name=cat("span_name", np.int32),
                 parent=cat("span_parent", np.int64),
                 op=cat("span_op", np.int64),
                 start=cat("span_start", np.float64),
                 end=cat("span_end", np.float64))
