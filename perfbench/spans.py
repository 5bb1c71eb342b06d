"""In-memory spans around the public functions of the resdp modules.

The tracer replaces module attributes such as ``casimir.solve_casimir`` with
a wrapper that records one span per call: name, start, end, parent span and
item id.  Only calls made through the module attribute are seen.  A call to
a private helper (for example ``casimir._solve_value`` inside the downstairs
right-hand side) is not a span, so its time lands in the self time of the
wrapped caller (``dynamics.flow_downstairs`` in that example).  Names bound
by ``from ... import`` before the wrappers are installed are not wrapped
either; the benchmark resolves every entry point through its module.
"""

import array
import os
import time

import numpy as np

from resdp import (casimir, dual_pair, dynamics, group_actions, jsonio, poisson3,
                   resonance_maps, shapes, verification)

# Verification checks by their CLI name, resolved through the module at call
# time so the traced run sees the wrapper.
CHECK_FUNCS = {name: fn.__name__ for name, fn in verification.CHECKS.items()}


def _iterations(out, args, kwargs):
    return {"iters": out.iterations}


def _steps(out, args, kwargs):
    return {"steps": len(out.times) - 1}


def _points(out, args, kwargs):
    return {"points": len(out)}


def _export_bytes(out, args, kwargs):
    return {"bytes": os.path.getsize(args[2])}


def _dumps_bytes(out, args, kwargs):
    return {"bytes": len(out.encode())}


def _samples(out, args, kwargs):
    return {"used": out.samples, "requested": kwargs["samples"]}


# (module, prefix, attribute, metric name, stats, counter hook).  The stats
# are what the traced run reports for the span; "calls" and "self_s" come
# from the spans, anything else from the hook's counters.
_TARGETS = [
    (resonance_maps, "resonance_maps", "leaf_map", "leaf_map", ("calls", "self_s"), None),
    (resonance_maps, "resonance_maps", "leaf_map_jacobian", "leaf_map_jacobian",
     ("calls", "self_s"), None),
    (resonance_maps, "resonance_maps", "in_domain", "in_domain", ("calls", "self_s"), None),
    (casimir, "casimir", "solve_casimir", "solve_casimir", ("calls", "self_s", "iters_mean"),
     _iterations),
    (casimir, "casimir", "leaf_field", "leaf_field", ("calls", "self_s"), None),
    (dynamics, "dynamics", "flow_downstairs", "flow_downstairs", ("calls", "self_s", "steps"),
     _steps),
    (dynamics, "dynamics", "flow_upstairs", "flow_upstairs", ("calls", "self_s", "steps"),
     _steps),
    (dynamics, "dynamics", "pushforward_defect", "pushforward_defect", ("calls", "self_s"), None),
    (dynamics, "dynamics", "canonical_bracket", "canonical_bracket", ("calls", "self_s"), None),
    (dynamics, "dynamics", "conservation_report", "conservation_report", ("calls", "self_s"),
     None),
    (dual_pair, "dual_pair", "fiber_sample", "fiber_sample", ("calls", "self_s", "points"),
     _points),
    (dual_pair, "dual_pair", "dual_pair_defect", "dual_pair_defect", ("calls", "self_s"), None),
    (dual_pair, "dual_pair", "leaf_correspondence_check", "leaf_correspondence_check",
     ("calls", "self_s"), None),
    (poisson3, "poisson3", "integrability_defect", "integrability_defect", ("calls", "self_s"),
     None),
    (poisson3, "poisson3", "jacobi_defect", "jacobi_defect", ("calls", "self_s"), None),
    (group_actions, "group_actions", "transitive_element", "transitive_element",
     ("calls", "self_s"), None),
    (group_actions, "group_actions", "equivariance_defect", "equivariance_defect",
     ("calls", "self_s"), None),
] + [
    (verification, "verification", attr, check, ("self_s",), _samples)
    for check, attr in sorted(CHECK_FUNCS.items())
] + [
    (shapes, "shapes", "generating_curve", "generating_curve", ("self_s",), None),
    (shapes, "shapes", "surface_mesh", "surface_mesh", ("self_s",), None),
    (shapes, "shapes", "merge_meshes", "merge_meshes", ("self_s",), None),
    (shapes, "shapes", "export", "export", ("self_s", "bytes"), _export_bytes),
    (jsonio, "jsonio", "dumps", "dumps", ("self_s", "bytes"), _dumps_bytes),
]

_UNITS = {"calls": "count", "self_s": "s", "iters_mean": "count", "steps": "count",
          "points": "count", "bytes": "B"}

# Every metric of a traced run, in report order, with its unit and better side.
LAYER_METRICS = [
    (f"{prefix}.{label}.{stat}", _UNITS[stat], "lower")
    for _, prefix, _, label, stats, _ in _TARGETS for stat in stats
] + [
    ("verification.useful_frac", "ratio", "higher"),
    ("trace.work_per_s_untraced", "1/s", "higher"),
    ("trace.work_per_s_traced", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


class Tracer:
    """Span recorder; ``install`` puts the wrappers in place, ``uninstall`` undoes it."""

    def __init__(self):
        self.labels = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {}
        self._stack = [-1]
        self._item = -1
        self._item_label = self._label_id("bench.item")
        self._wrappers = [(module, attr, getattr(module, attr),
                           self._wrap(getattr(module, attr), f"{prefix}.{label}", hook))
                          for module, prefix, attr, label, _, hook in _TARGETS]

    def _label_id(self, label):
        self.labels.append(label)
        return len(self.labels) - 1

    def _open(self, label_id):
        idx = len(self.name)
        self.name.append(label_id)
        self.parent.append(self._stack[-1])
        self.item.append(self._item)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label, hook):
        label_id = self._label_id(label)
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = self._open(label_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                for key, value in hook(out, args, kwargs).items():
                    name = f"{label}.{key}"
                    counters[name] = counters.get(name, 0) + value
            return out

        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _ in self._wrappers:
            setattr(module, attr, fn)

    def run_item(self, item_id, fn, *args):
        """Run one benchmark item inside a root span tagged with its id."""
        self._item = item_id
        idx = self._open(self._item_label)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._item = -1

    def self_times(self):
        """Per-label (calls, self time) with child spans subtracted."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=len(self.labels))
        self_s = np.bincount(name, weights=own, minlength=len(self.labels))
        return {label: (int(calls[i]), float(self_s[i])) for i, label in enumerate(self.labels)}

    def layer_metrics(self):
        """Values of every LAYER_METRICS name except the trace.* overhead figures."""
        totals = self.self_times()
        out = {}
        for _, prefix, _, label, stats, _ in _TARGETS:
            key = f"{prefix}.{label}"
            calls, self_s = totals[key]
            for stat in stats:
                if stat == "calls":
                    out[f"{key}.calls"] = calls
                elif stat == "self_s":
                    out[f"{key}.self_s"] = self_s
                elif stat == "iters_mean":
                    out[f"{key}.iters_mean"] = self.counters.get(f"{key}.iters", 0) / max(calls, 1)
                else:
                    out[f"{key}.{stat}"] = self.counters.get(f"{key}.{stat}", 0)
        used = requested = 0
        for check in CHECK_FUNCS:
            used += self.counters.get(f"verification.{check}.used", 0)
            requested += self.counters.get(f"verification.{check}.requested", 0)
        out["verification.useful_frac"] = used / requested if requested else 0.0
        return out

    def save(self, path):
        """Write the spans as arrays (name index, parent, item, start, end) plus labels."""
        np.savez(path, labels=np.array(self.labels), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 item=np.frombuffer(self.item, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
