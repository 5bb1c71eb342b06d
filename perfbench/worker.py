"""One workload in a fresh interpreter; prints one JSON line of raw results.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and the
BLAS pools pinned to one thread.  Not meant to be run by hand.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import resdp
from resdp.errors import ResdpError

from cpu import pin_to_fastest
from spans import LAYER_METRICS, Tracer
from workloads import WORKLOADS

TAIL_BEYOND = 10


class Pass:
    """Timings and checked outcomes of a sequence of items."""

    def __init__(self):
        self.durations = []
        self.probes = []
        self.busy_s = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0

    def work_per_s(self):
        return self.units / self.busy_s if self.busy_s else 0.0


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.cpus = sorted(os.sched_getaffinity(0))
        self.first = {}        # first-pass item index -> outcome
        self.digests = {}      # item index -> digest, to check repeats
        self.pass_digest = None

    def _item(self, k, stats, tracer):
        idx = k % len(self.wl.items)
        item = self.wl.items[idx]
        stats.probes.append(pin_to_fastest(self.cpus))
        t0 = time.perf_counter()
        try:
            out = tracer.run_item(k, self.wl.run, item) if tracer else self.wl.run(item)
        except ResdpError as exc:
            stats.durations.append(time.perf_counter() - t0)
            stats.attempted += 1
            stats.failed += 1
            print(f"item {k} {item[0]}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        stats.durations.append(dt)
        stats.busy_s += dt
        stats.attempted += 1
        outcome = self.wl.check(item, out)
        outcome.digest = hashlib.sha256(outcome.digest).digest()
        if idx in self.digests and self.digests[idx] != outcome.digest:
            print(f"item {k} {item[0]}: output differs from an earlier run of the same input",
                  file=sys.stderr)
            outcome.ok = False
        self.digests.setdefault(idx, outcome.digest)
        if k < self.wl.pass_len:
            self.first.setdefault(k, outcome)
        if outcome.ok:
            stats.units += outcome.units
        else:
            stats.failed += 1
            print(f"item {k} {item[0]}: output failed its check (ratio {outcome.ratio:.3e})",
                  file=sys.stderr)
        return out

    def run(self, stats, seconds):
        """Whole passes: the first always, then another while it fits in ``seconds``.

        Stopping at pass boundaries keeps the mix of items the same in every
        run, so the item statistics do not depend on where a partial pass ends.
        """
        start, k, outputs = time.perf_counter(), 0, []
        while True:
            pass_start = time.perf_counter()
            for _ in range(self.wl.pass_len):
                out = self._item(k, stats, None)
                k += 1
                if hasattr(self.wl, "finish_pass"):
                    outputs.append(out)
                    if k % len(self.wl.items) == 0:
                        self._finish(outputs, stats)
                        outputs = []
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                return

    def run_traced(self, untraced, traced, tracer):
        """Each first-pass item untraced and then traced, back to back.

        Both runs of an item see nearly the same machine state, so the ratio
        of the two rates measures the tracing overhead and not the drift of
        the machine's speed between two halves of the run.
        """
        keep = hasattr(self.wl, "finish_pass") and self.wl.pass_len == len(self.wl.items)
        outputs = ([], [])
        for k in range(self.wl.pass_len):
            out = self._item(k, untraced, None)
            tracer.install()
            try:
                out_traced = self._item(k, traced, tracer)
            finally:
                tracer.uninstall()
            if keep:
                outputs[0].append(out)
                outputs[1].append(out_traced)
        if keep:
            self._finish(outputs[0], untraced)
            tracer.install()
            try:
                self._finish(outputs[1], traced)
            finally:
                tracer.uninstall()

    def _finish(self, outputs, stats):
        if any(out is None for out in outputs):
            return
        t0 = time.perf_counter()
        text = self.wl.finish_pass(outputs)
        stats.busy_s += time.perf_counter() - t0
        outcome = self.wl.check_pass(outputs, text)
        outcome.digest = hashlib.sha256(outcome.digest).digest()
        if self.pass_digest is not None and outcome.digest != self.pass_digest:
            outcome.ok = False
        self.pass_digest = self.pass_digest or outcome.digest
        if not outcome.ok:
            stats.failed += 1
            print("pass serialization failed its check", file=sys.stderr)

    def fingerprint(self):
        if len(self.first) < self.wl.pass_len:
            return None
        h = hashlib.sha256()
        for k in range(self.wl.pass_len):
            h.update(self.first[k].digest)
        if self.pass_digest is not None:
            h.update(self.pass_digest)
        return h.hexdigest()

    def headroom(self):
        return max((o.ratio for o in self.first.values()), default=0.0)


def tail(durations):
    """Highest percentile with at least TAIL_BEYOND items beyond it."""
    d = sorted(durations)
    i = max(len(d) - TAIL_BEYOND - 1, 0)
    return d[i], 100.0 * (i + 1) / len(d), len(d)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.setup_only:
            return 0
        runner = Runner(wl)
        result = {"numpy": np.__version__, "resdp": resdp.__file__, "unit": wl.unit}
        main_pass = Pass()
        if args.trace:
            traced = Pass()
            tracer = Tracer()
            runner.run_traced(main_pass, traced, tracer)
            tracer.save(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz"))
            layers = tracer.layer_metrics()
            layers["trace.work_per_s_untraced"] = main_pass.work_per_s()
            layers["trace.work_per_s_traced"] = traced.work_per_s()
            layers["trace.overhead"] = (main_pass.work_per_s() / traced.work_per_s() - 1.0
                                        if traced.work_per_s() else 0.0)
            result["metrics"] = {name: {"value": layers[name], "unit": unit}
                                 for name, unit, _ in LAYER_METRICS}
            result["spans"] = len(tracer.name)
            for key in ("attempted", "failed"):
                result[key] = getattr(main_pass, key) + getattr(traced, key)
        else:
            runner.run(main_pass, args.seconds)
            value, pct, count = tail(main_pass.durations)
            result["metrics"] = {
                "work_per_s": main_pass.work_per_s(),
                "item_p50_ms": 1e3 * statistics.median(main_pass.durations),
                "item_tail_ms": 1e3 * value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result["tail"] = {"percentile": pct, "items": count}
            result["attempted"] = main_pass.attempted
            result["failed"] = main_pass.failed
            result["busy_s"] = main_pass.busy_s
            result["units"] = main_pass.units
            result["item_ms"] = [1e3 * d for d in main_pass.durations]
            result["probe_ms"] = [1e3 * d for d in main_pass.probes]
        result["fingerprint"] = runner.fingerprint()
        result["headroom"] = runner.headroom()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.exit(main())
