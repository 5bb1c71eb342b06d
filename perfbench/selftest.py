"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` (traced and untraced)
and checks that the last line is the result object, that every metric of
BENCHMARK.json is printed with its unit and nothing else, and that the run
refuses to start in a directory that holds only the benchmark's own files.
Exits 1 if anything is off.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import LAYER_METRICS
    expect([[n, u, b] for n, u, b in LAYER_METRICS]
           == [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]],
           "per-layer list of the tracer matches BENCHMARK.json")

    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # Every workload run.py knows, including those BENCHMARK.json leaves out.
    from run import WORKLOADS
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json names only workloads run.py knows")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label} outputs correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label} prints every metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label} metric values are numbers")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "refuses to run without the sources, printing no result")
    finally:
        shutil.rmtree(bare)

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
