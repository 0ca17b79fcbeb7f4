"""Smoke check of the benchmark harness itself, on small inputs.

    python3 bench/smoke.py

Runs every workload at --size small, untraced and traced, and checks
the shape of the result line against BENCHMARK.json, that no operation
fails, the tracer's guard against a missing function, and that the
benchmark refuses to run without the truncolor sources.  Takes about half a minute; exits non-zero on the
first problem.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "small"])
            if proc.returncode != 0:
                _fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-400:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{workload}: result keys {sorted(result)}")
            names = [m["name"] for m in spec[key]]
            if list(result["metrics"]) != names:
                _fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json {key}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                _fail(f"{workload} trace {trace}: a metric value is not a number")
            if result["correct"] is not True or result["attempted"] < 1:
                _fail(f"{workload} trace {trace}: {result['correct']=} {result['attempted']=}")
            if result["failed"] != 0:
                _fail(f"{workload} trace {trace}: {result['failed']} failed operations")
            print(f"smoke: {workload} trace {trace}: ok")

    probe = ("import sys; sys.path[:0] = ['src', 'bench']; import truncolor.io as io; "
             "del io.first_clash; import spans; spans.install(spans.Tracer())")
    proc = _run([sys.executable, "-c", probe])
    if proc.returncode == 0 or "TraceSetupError" not in proc.stderr:
        _fail("tracer did not refuse a module with a function missing")
    print("smoke: tracer guard: ok")

    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run([sys.executable, "bench/run.py", "--workload", "sun-sweep", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail("benchmark ran without the truncolor sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # a benchmark run is using it
    print("smoke: refuses a checkout without sources: ok")


if __name__ == "__main__":
    main()
