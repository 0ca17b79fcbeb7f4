"""Benchmark entry point: repeats one workload for a fixed time and reports.

    python3 bench/run.py --workload construct-cli --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (bench/rep.py), one after another, with no threads; a new
repetition starts only while the time measured so far plus the median
repetition still fits in --seconds, and there is always at least one.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over the repetitions: the time of all operations and the set-up
time, both scaled to a host of fixed speed (see rep.py), and peak RSS.
--trace 1 alternates an untraced and a traced repetition and reports
the per-layer metrics: per-group times, the unscaled wall time and
failure counts from the untraced ones, span-derived layer numbers from
the traced ones, and the tracing overhead as the difference of their
scaled times.

Every measured metric is printed by name and unit; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  A
wrong answer, a missing source tree or a tracer that cannot find a
function it wraps exits non-zero without that line.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("construct-cli", "exact-large", "sun-sweep")
# The whole run, repetitions included, must end well inside 180 s.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Run one truncolor benchmark workload.")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small inputs, for checking the harness itself")
    return p.parse_args()


def _repetition(args, traced: int, work: str, started: float) -> dict:
    os.makedirs(work, exist_ok=True)
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("no time left for another repetition")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"),
         "--workload", args.workload, "--seed", str(args.seed), "--trace", str(traced),
         "--size", args.size, "--spawned", repr(spawned), "--work", work],
        cwd=ROOT, capture_output=True, text=True, timeout=left,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"repetition exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(reps: list, key) -> float:
    return statistics.median(key(r) for r in reps)


def _metrics(plain: list, traced: list) -> dict:
    """Every metric this harness measures, by name: end-to-end ones and
    group times from the untraced repetitions, layer numbers from the
    traced ones when there are any."""
    first = plain[0]
    out = {
        "setup_s": _median(plain, lambda r: r["setup_s"]),
        "scaled_wall_s": _median(plain, lambda r: r["scaled_wall_s"]),
        "wall_s": _median(plain, lambda r: r["wall_s"]),
        "host.factor": _median(plain, lambda r: r["wall_s"] / r["scaled_wall_s"]),
        "peak_rss_mb": _median(plain, lambda r: r["peak_rss_mb"]),
        "ops": first["ops"],
        "ops_failed": _median(plain, lambda r: sum(r["failed"].values())),
    }
    for reason in first["failed"]:
        out[f"fail.{reason}"] = _median(plain, lambda r: r["failed"][reason])
    for group in first["groups"]:
        out[f"{group}_s"] = _median(plain, lambda r: r["groups"][group])
    out.update(first["counts"])
    if traced:
        for key in traced[0]["layers"]:
            out[key] = _median(traced, lambda r: r["layers"][key])
        traced_wall = _median(traced, lambda r: r["scaled_wall_s"])
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - out["scaled_wall_s"]
        # Time inside the operations but outside every module span.
        out["trace.unaccounted_s"] = traced_wall - out.pop("trace.modules_s")
    return out


def main() -> int:
    args = _parse()
    if not os.path.isfile(os.path.join(ROOT, "src", "truncolor", "__init__.py")):
        print(f"run: no truncolor sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    started = time.monotonic()
    plain: list = []
    traced: list = []
    cycles: list = []
    try:
        while True:
            cycle_start = time.monotonic()
            plain.append(_repetition(args, 0, work, started))
            if args.trace:
                traced.append(_repetition(args, 1, work, started))
            cycles.append(time.monotonic() - cycle_start)
            if time.monotonic() - started + statistics.median(cycles) > args.seconds:
                break
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    measured = _metrics(plain, traced)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"run: BENCHMARK.json names metrics this harness does not measure: {missing}",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions of {measured['ops']} operations")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in measured.items():
        print(f"  {name:42s} {value:>16.6g} {units.get(name, '')}")
    print("  scaled_wall_s of each untraced repetition: "
          + " ".join(f"{r['scaled_wall_s']:.3f}" for r in plain))
    reps = plain + traced
    result = {
        "correct": True,
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(sum(r["failed"].values()) for r in reps),
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
