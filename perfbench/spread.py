"""Run workloads repeatedly and print the spread of every end-to-end metric.

    python3 perfbench/spread.py                      # all workloads, 10 seeds each
    python3 perfbench/spread.py extremal-scan --traced

Run it from the repository root.  Runs go one at a time, each in its own
process, with seeds 1 to 10 and BENCHMARK.json's run_seconds.  For each
workload and metric it prints the median, the quartiles and the quartile
spread (Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives
them, next to the bound in BENCHMARK.json.  With ``--traced`` it adds one traced
run per workload and prints its run_s against the untraced median: the
tracing overhead.  Flags spreads above a third of their bound, and exits 1
if a run fails or is incorrect, the failed share differs between runs, or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUNNER = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help="workloads to run (default: all)")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    for workload in args.workloads:
        if workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = []
    for workload in args.workloads or workloads.WORKLOADS:
        docs = [one_run(workload, seed, seconds, 0) for seed in SEEDS]
        shares = {d["failed"] / d["attempted"] for d in docs}
        print(f"{workload}: {len(docs)} runs, attempted {[d['attempted'] for d in docs]}, "
              f"failed share {sorted(shares)}, correct {all(d['correct'] for d in docs)}")
        if len(shares) > 1 or not all(d["correct"] for d in docs):
            bad.append(f"{workload}: failures or incorrect output")
        medians = {}
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs]
            q1, medians[name], q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / medians[name]
            flag = ""
            if spread > bounds[name]:
                flag = "  <- above the bound"
                bad.append(f"{workload} {name}: spread {spread:.3f} > bound {bounds[name]}")
            elif spread > bounds[name] / 3:
                flag = "  <- above a third of the bound"
            print(f"  {name:12s} median {medians[name]:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]}{flag}")
            print(f"  {'':12s} runs   {' '.join(f'{v:.4g}' for v in values)}")
        if args.traced:
            traced = one_run(workload, SEEDS[0], seconds, 1)
            summary = json.loads(Path(f".perfbench_out/trace-{workload}-seed{SEEDS[0]}.json").read_text())
            overhead = summary["run_s"] - medians["run_s"]
            print(f"  traced run_s {summary['run_s']:.4f}: overhead {overhead:+.4f} s "
                  f"({overhead / medians['run_s']:+.1%}), attempted {traced['attempted']}, "
                  f"failed {traced['failed']}")
    for line in bad:
        print(f"NOT STEADY: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
