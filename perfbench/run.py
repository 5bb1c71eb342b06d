"""resdp benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh single-threaded interpreter (perfbench/worker.py)
that imports resdp from the checkout's ``src``.  Set-up time is the median
wall time of several fresh interpreters that only import resdp and build the
workload's inputs.  With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run
(see perfbench/README.md).  Every output is checked; a run with a failed or
unchecked output exits 1, a run that cannot start exits 2.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cpu import pin_to_fastest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-grid", "casimir-batch", "flow-long", "shape-export")
# Fresh interpreters timed for setup_s: half before the worker and half after,
# so the median does not rest on one moment of a machine whose speed drifts.
SETUP_RUNS = 6
WORKER_TIMEOUT_S = 170
BLAS_PINNING = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                       "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "item_p50_ms": "ms",
                    "item_tail_ms": "ms", "peak_rss_mb": "MB"}


def _git_commit():
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
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


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(args, out_dir, extra, env):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)] + extra + (["--tiny"] if args.tiny else [])
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test only")
    args = parser.parse_args()

    if not (ROOT / "src" / "resdp" / "__init__.py").is_file():
        print(f"perfbench: no resdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **BLAS_PINNING)

    cpus = sorted(os.sched_getaffinity(0))
    setup = []

    def time_setups(count):
        for _ in range(count):
            pin_to_fastest(cpus)
            t0 = time.perf_counter()
            proc = _worker(args, out_dir, ["--setup-only"], env)
            setup.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"perfbench: set-up exited {proc.returncode}", file=sys.stderr)
                return False
        return True

    if not args.trace and not time_setups(SETUP_RUNS // 2):
        return 2
    os.sched_setaffinity(0, cpus)
    proc = _worker(args, out_dir, [], env)
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return 2
    if not args.trace and not time_setups(SETUP_RUNS - SETUP_RUNS // 2):
        return 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = raw["metrics"]
    else:
        values = dict(raw["metrics"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    # The program under test must be the checkout's own sources.
    tested = Path(raw["resdp"]).resolve().is_relative_to(ROOT / "src")
    correct = (tested and raw["failed"] == 0 and raw["attempted"] > 0
               and raw["fingerprint"] is not None)
    env_block = {
        "python": platform.python_version(), "numpy": raw["numpy"],
        "nproc": os.cpu_count(), "cpus": len(cpus), "cpu_pinning": "fastest by probe, per item",
        "cpu": _cpu_model(), "blas_pinning": BLAS_PINNING, "seed": args.seed,
        "commit": _git_commit(), "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace,
    }
    extra = {
        "fingerprint": raw["fingerprint"],
        "work_unit": raw["unit"],
        "fail_frac": raw["failed"] / raw["attempted"],
        "headroom": raw["headroom"],
        "setup_runs_s": setup,
    }
    for key in ("tail", "busy_s", "units", "spans", "item_ms", "probe_ms"):
        if key in raw:
            extra[key] = raw[key]
    result = {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(dict(result, env=env_block, extra=extra), indent=2))

    print("env " + json.dumps(env_block))
    print(f"fingerprint {raw['fingerprint']}")
    print(f"fail_frac {extra['fail_frac']} ({raw['failed']}/{raw['attempted']} items)")
    print(f"headroom {raw['headroom']} (worst defect/tolerance over the first pass)")
    for metric, m in metrics.items():
        note = ""
        if metric == "work_per_s":
            note = f"  ({raw['unit']} per busy second)"
        elif metric == "item_tail_ms":
            note = f"  (p{raw['tail']['percentile']:.1f} of {raw['tail']['items']} items)"
        print(f"metric {metric} {m['value']} {m['unit']}{note}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
