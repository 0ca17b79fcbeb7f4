"""One timed repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so the library's
module-level caches (sun._TI_CACHE, sun._REG_CACHE) and every flatten
cache start empty, as they do for a user's process.  It prints one JSON
object as its last line of output:

    python3 bench/rep.py --workload exact-large --seed 0 --trace 0 \
        --size full --spawned <time.monotonic() of the caller> --work DIR

Times are reported twice: as measured, and scaled to a host of fixed
speed.  The speed of the host this was written on drifts by up to a
half within seconds, and process CPU time drifts with it, so raw times
of one program spread too widely to bound a regression.  A probe
therefore times a fixed pure-Python loop every PROBE_EVERY_S of CPU
time (SIGPROF), from just after interpreter start to the last
operation, inside operations as well as between them.  The probes' own
time is taken out of every measured time.  An operation is divided by
its host factor: the mean of the probes that ran during it, or of the
probes just before and after it when none did, over REFERENCE_S.
Set-up is divided by the mean of the probes during set-up.  A change to
the library moves the scaled times; a slow phase of the host slows the
probes with it and cancels.

Exit codes: 0 on success, 3 when an answer is wrong, 4 when the
checkout does not hold the truncolor sources or the tracer cannot find
a function it must wrap, 1 when the library raises anything else.

The operation loop runs at module level on purpose.  D=47 of the
odd-valency family has three frames to spare under the default
recursion limit, which a user calling the library from a top-level
script has; wrapping the call in a few harness functions would turn
it into a RecursionError.  The probe handler takes one of the three.
"""

import argparse
import atexit
import contextlib
import json
import os
import resource
import signal
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# CPU seconds between probes, and a probe's time on an idle host (a
# 2-vCPU Xeon VM, Python 3.11.7), so scaled times read as seconds on
# that host.
PROBE_EVERY_S = 0.02
REFERENCE_S = 0.0005

# Each probe's duration, and the total, which every harness clock
# subtracts.
probes = array("d")
probed = [0.0]


def _on_probe(signum, frame):
    # Dict traffic on small ints, which the garbage collector does not
    # track, so a large heap does not slow the probe.  Inline, so the
    # handler costs one frame.
    start = time.perf_counter()
    seen = {}
    for i in range(3000):
        k = (i * 7919) & 1023
        if k in seen:
            seen[k] += 1
        else:
            seen[k] = 1
    spent = time.perf_counter() - start
    probes.append(spent)
    probed[0] += spent


def clock() -> float:
    """perf_counter without the probes' time."""
    return time.perf_counter() - probed[0]


def _factor(first: int, end: int) -> float:
    """Host factor from probes[first:end], or from the probes around
    that slot when it is empty."""
    if end > first:
        window = probes[first:end]
    else:
        window = probes[max(first - 1, 0):first + 1]
    return sum(window) / len(window) / REFERENCE_S


class Deadline(BaseException):
    """Raised from SIGALRM when an operation overruns its deadline.  A
    BaseException, so no ``except Exception`` in the program absorbs it."""


def _on_alarm(signum, frame):
    raise Deadline()


def _parse() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full")
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--work", required=True)
    return p.parse_args()


def _fail(code: int, msg: str) -> None:
    print(f"rep: {msg}", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    signal.signal(signal.SIGPROF, _on_probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    # Disarm before interpreter teardown resets the handler, or a late
    # SIGPROF would kill the process on an error exit.
    atexit.register(signal.setitimer, signal.ITIMER_PROF, 0)
    args = _parse()
    if not os.path.isfile(os.path.join(SRC, "truncolor", "__init__.py")):
        _fail(4, f"no truncolor sources under {SRC}")
    sys.path.insert(0, SRC)
    import truncolor

    if os.path.dirname(os.path.abspath(truncolor.__file__)) != os.path.join(SRC, "truncolor"):
        _fail(4, f"imported truncolor from {truncolor.__file__}, not from {SRC}")

    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer(clock)
        try:
            spans.install(tracer)
        except spans.TraceSetupError as exc:
            _fail(4, f"tracer: {exc}")
    import workloads

    plan = workloads.build(args.workload, args.seed, args.size == "small", args.work)
    _on_probe(None, None)
    setup_s = time.monotonic() - args.spawned - probed[0]
    setup_factor = _factor(0, len(probes))

    signal.signal(signal.SIGALRM, _on_alarm)
    values = []
    durations = []
    # probes[windows[i][0]:windows[i][1]] ran during operation i.
    windows = []
    failed = {"deadline": 0, "recursion": 0, "undecided": 0}
    if tracer is not None:
        tracer.on = True
    for op in plan.ops:
        if tracer is not None:
            root_span = tracer.begin("bench." + op.group)
        value = None
        first = len(probes)
        start = clock()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, plan.deadline_s)
                if op.stdout is None:
                    value = op.fn(*op.args, **op.kwargs)
                else:
                    with open(op.stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                        value = op.fn(*op.args, **op.kwargs)
                outcome = "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            outcome = "deadline"
        except RecursionError:
            outcome = "recursion"
        durations.append(clock() - start)
        windows.append((first, len(probes)))
        if tracer is not None:
            tracer.finish(root_span)
            tracer.reset_stack()
        if outcome == "ok":
            try:
                outcome = op.judge(value)
            except workloads.CheckFailed as exc:
                _fail(3, f"{op.group} {op.label}: {exc}")
        if outcome == "ok":
            if op.after is not None:
                op.after()
        else:
            failed[outcome] += 1
        values.append(value)
    if tracer is not None:
        tracer.on = False
    # One probe after the last operation, for the factor of the ones
    # that ran since the last probe.
    _on_probe(None, None)
    signal.setitimer(signal.ITIMER_PROF, 0)
    # The high-water mark of the operations, before the checks add their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        counts = plan.check(values)
    except workloads.CheckFailed as exc:
        _fail(3, f"check: {exc}")

    groups = dict.fromkeys(workloads.GROUPS, 0.0)
    for op, seconds, window in zip(plan.ops, durations, windows):
        groups[op.group] += seconds / _factor(*window)
    wall_s = sum(durations)
    scaled_wall_s = sum(groups.values())
    layers = None
    if tracer is not None:
        # Spans are scaled by the repetition's mean factor.
        mean_factor = wall_s / scaled_wall_s
        layers = {
            key: value / mean_factor if key.endswith(spans.TIME_SUFFIXES) else value
            for key, value in tracer.layer_metrics().items()
        }
    result = {
        "setup_s": setup_s / setup_factor,
        "raw_setup_s": setup_s,
        "wall_s": wall_s,
        "scaled_wall_s": scaled_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(plan.ops),
        "failed": failed,
        "groups": groups,
        "counts": {key: counts.get(key, 0) for key in workloads.COUNTS},
        "layers": layers,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a heap of a hundred megabytes
    # takes about a second that no metric covers and the run can spend on
    # another repetition.  Every file was closed above.
    os._exit(0)
