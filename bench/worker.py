"""One batch of a workload in a fresh interpreter; bench/run.py starts it.

    python3 bench/worker.py --workload W --seed S --spawned-at T [--setup-only]
                            [--trace-out PATH]

T is the parent's time.monotonic() just before it started this process, so
the set-up time covers interpreter start, `import boolform` and input
generation. The batch runs its jobs back to back in one thread; every result
is checked after the timed part. The last line of standard output is one
JSON object with the batch's measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

# set-up lasts a fraction of a second, so its speed is sampled more often
SETUP_SAMPLE_INTERVAL_S = 0.005


def _cpu_s() -> float:
    usage = [resource.getrusage(who) for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def machine() -> dict:
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "platform": platform.platform()}


def run_batch(batch: list, tracer=None) -> dict:
    """Run the jobs back to back, then check each result.

    A job that raises or whose check fails counts as failed; the batch goes
    on. Checks run with the tracer off, so they add to no metric.

    Untraced, the jobs run under a hostspeed.SpeedProbe: wall_s and cpu_s are
    then the batch's times at the probe's reference speed, and
    measured_wall_s, measured_cpu_s and host_factor give what the clocks read
    and the ratio between the two. Traced, there is no probe (its samples
    would land in the spans) and the times are as measured.
    """
    outputs = []
    cpu0 = _cpu_s()
    if tracer is not None:
        tracer.on = True
    probe = hostspeed.SpeedProbe() if tracer is None else None
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        for job in batch:
            if tracer is not None:
                tracer.job = job.name
            try:
                outputs.append((job.run(), None))
            except Exception as exc:  # a failing job is counted, not fatal
                outputs.append((None, "%s: %s" % (type(exc).__name__, exc)))
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
    cpu_s = _cpu_s() - cpu0
    times = {"measured_wall_s": wall_s, "measured_cpu_s": cpu_s,
             "wall_s": wall_s, "cpu_s": cpu_s}
    if probe is not None:
        # the samples' own time is taken out of both clocks, then scaled
        times["measured_wall_s"] = probe.measured_s
        times["measured_cpu_s"] = max(cpu_s - probe.sampling_s, 0.0)
        times["wall_s"] = probe.scaled_s
        times["cpu_s"] = times["measured_cpu_s"] * probe.factor
        times["host_factor"] = probe.factor
        times["speed_samples"] = len(probe.samples)
    failures = []
    for job, (output, error) in zip(batch, outputs):
        if error is None:
            try:
                error = job.check(output)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failures.append({"job": job.name, "error": error[:500]})
    return {**times, "attempted": len(batch), "failed": len(failures),
            "failures": failures}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    with hostspeed.SpeedProbe(SETUP_SAMPLE_INTERVAL_S) as probe:
        import boolform
        import workloads

        inputs = workloads.make_inputs(args.workload, args.seed)
        batch = workloads.jobs(args.workload, inputs,
                               workloads.load_expected())
    measured_setup_s = (time.monotonic() - args.spawned_at
                        - probe.sampling_s)
    setup_s = measured_setup_s * probe.factor
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "measured_setup_s": measured_setup_s}))
        return

    tracer = None
    if args.trace_out:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    result = run_batch(batch, tracer)
    result["setup_s"] = setup_s
    result["measured_setup_s"] = measured_setup_s
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["inputs"] = inputs
    result["machine"] = machine()
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"],
                                          boolform.count_trees)
        Path(args.trace_out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "machine": result["machine"], "inputs": inputs,
             "layers": result["layers"], "spans": tracer.spans}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
