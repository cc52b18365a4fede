"""Span tracer that wraps flowdpp's public functions from outside the package.

A traced run calls ``Tracer.install()``, which replaces each function named in
``TARGETS`` with a wrapper in every flowdpp namespace that binds it (for
example ``sim.nms`` as well as ``detection.nms``).  Untraced runs never call
it, so they execute the program unmodified.

Each wrapped call records one span (name, start, end, parent span, op id) in
flat in-memory arrays; ``save()`` writes them out once, when the run ends.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans under an op add up to the op's wall time.
"""

import functools
import hashlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layer -> wrapped public functions.  "Class.method" wraps a method on its class.
TARGETS = {
    "sim": ["run", "step", "generate_frame", "emulate_detector", "summarize",
            "train_reinforce"],
    "flowmap": ["process", "shift_min", "center_abs_median", "squash",
                "resize_bicubic", "vectorize_thresholds"],
    "detection": ["threshold_detections", "nms", "score_against_truth", "iou"],
    "controller": ["dpp_select", "queue_update"],
    "policies": ["DppPolicy.decide", "ReinforcePolicy.decide", "mlp_forward",
                 "policy_gradient", "reinforce_update"],
    "fileio": ["load_flow_map", "read_flo", "flow_magnitude"],
    "cli": ["main"],
    "config": ["load_config"],
}

OP_SPAN = "bench.op"  # root span of one traced op; its self time is harness code
HASH_SPAN = "trace.hash"  # content hashing for the redundancy counters


def function_names():
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


def _digest(arr):
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha1(str((arr.dtype.str, arr.shape)).encode())
    h.update(memoryview(arr).cast("B"))
    return h.digest()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_ns = []
        self.total_ns = []
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []  # [span index, summed child duration]
        self.op_id = -1
        self.unique = {"sim.generate_frame": set(), "flowmap.process": set()}
        self.bytes_read = 0
        self.gradient_steps = 0
        self.nms_iou_calls = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self._stack.append([idx, 0])
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        end = time.perf_counter_ns()
        self.span_end[idx] = end
        _, child_ns = self._stack.pop()
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child_ns
        self.total_ns[nid] += dur
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span; returns (result, seconds)."""
        self.op_id = op_id
        idx = self._open(self._name_id(OP_SPAN))
        try:
            result = fn(*args)
        finally:
            dur = self._close(idx)
            self.op_id = -1
        return result, dur / 1e9

    def _remember(self, key, arr):
        with self.span(HASH_SPAN):
            self.unique[key].add(_digest(arr))

    # -- installation ------------------------------------------------------

    def _hooks(self, name):
        """(before(args, kwargs), after(result)) counters for one function."""
        if name == "sim.generate_frame":
            return None, lambda result: self._remember(name, result.flow)
        if name == "flowmap.process":
            return lambda a, kw: self._remember(name, a[0] if a else kw["values"]), None
        if name == "fileio.read_flo":
            def before(a, kw):
                self.bytes_read += os.path.getsize(a[0] if a else kw["path"])
            return before, None
        if name == "policies.policy_gradient":
            def before(a, kw):
                self.gradient_steps += len(a[1] if len(a) > 1 else kw["episode"])
            return before, None
        if name == "detection.iou":
            nms_id = self._name_id("detection.nms")

            def before(a, kw):
                if self._stack and self.span_name[self._stack[-1][0]] == nms_id:
                    self.nms_iou_calls += 1
            return before, None
        return None, None

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        before, after = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every flowdpp module namespace that binds it."""
        import flowdpp.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flowdpp" or n.startswith("flowdpp.")]
        for layer, fns in TARGETS.items():
            home = sys.modules[f"flowdpp.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self):
        """The counters the harness reports, without the spans themselves."""
        return {
            # name -> (calls, self ns, total ns)
            "stat": {n: (self.calls[i], self.self_ns[i], self.total_ns[i])
                     for i, n in enumerate(self.names)},
            "unique": {k: len(v) for k, v in self.unique.items()},
            "bytes_read": self.bytes_read,
            "gradient_steps": self.gradient_steps,
            "nms_iou_calls": self.nms_iou_calls,
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            parent=np.asarray(self.span_parent),
            op=np.asarray(self.span_op),
            start_ns=np.asarray(self.span_start),
            end_ns=np.asarray(self.span_end),
        )
