"""boolform benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {asymptotic,exact,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src. Each
batch runs in a fresh interpreter (bench/worker.py) as a closed loop: one
client, the workload's jobs back to back, no threads. With --trace 0 batches
repeat while another one is expected to end within S seconds (at least one
runs) and the medians over batches are reported: wall_s (first job's start to
last job's end), cpu_s (the batch's CPU seconds, children included),
peak_rss_mb and setup_s (interpreter start, `import boolform` and input
generation, also sampled by extra set-up-only starts). wall_s and cpu_s are
read at a fixed host speed: bench/hostspeed.py samples the speed of a
reference loop while the batch runs and scales each stretch of the batch by
it, because the shared host's speed drifts by more than the benchmark's
bounds over a run; each batch in the report also carries the times as the
clocks read them and the scale factor. With --trace 1 one untraced and one
traced batch run on the same inputs; the traced one (no probe, clock times)
gives the per-layer metrics of bench/spans.py and writes its spans to
.bench_out/trace-<workload>-<seed>.json, and the difference between the two
batches' measured wall times is the tracing overhead.

The line before the last holds the full report (machine, inputs, every batch,
failed_frac = failed / attempted and the reasons for failures). The last line
is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("asymptotic", "exact", "oracle")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def worker(self, *extra: str) -> dict:
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise SystemExit("bench: out of time before starting a batch")
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--spawned-at", repr(time.monotonic()), *extra]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise SystemExit("bench: batch did not end within %.0f s"
                             % TIME_LIMIT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit("bench: worker exited %d" % proc.returncode)
        return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boolform" / "__init__.py").is_file():
        print("bench: no boolform sources under %s" % SRC, file=sys.stderr)
        return 2
    # byte-compile first so that no run's set-up pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    runner = Runner(args.workload, args.seed)
    setups = [runner.worker("--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / ("trace-%s-%d.json" % (args.workload, args.seed))
        plain = runner.worker()
        traced = runner.worker("--trace-out", str(trace_path))
        batches = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["measured_wall_s"]
                                      - plain["measured_wall_s"])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        batches = []
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            batches.append(runner.worker())
            last = time.monotonic() - t0
            if time.monotonic() - measure_start + last > args.seconds:
                break
        values = {name: statistics.median(b[name] for b in batches)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(
            setups + [b["setup_s"] for b in batches])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": batches[0]["machine"], "inputs": batches[0]["inputs"],
              "setup_probes_s": setups,
              "batches": [{k: v for k, v in b.items()
                           if k not in ("inputs", "layers", "machine")}
                          for b in batches],
              "failed_frac": failed / attempted}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
