"""Run every workload for one seed, untraced and traced, and collect the
results in one JSON file.

    python3 bench/all.py --seed 0 --out BENCH_0.json [--seconds 40]

Each workload runs through bench/run.py exactly as a single run would,
so the numbers agree with it; this only saves typing six commands.  The
output maps workload -> {"end_to_end": ..., "per_layer": ...}, each the
result line of that run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"all: {workload} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[workload][key] = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "results": results}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
