"""Run one regfactor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalan-sweep --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the program from ``src/``.
Each operation is one ``regfactor`` CLI call made in this process through
``regfactor.cli.main`` with stdout captured.  The workload's fixed list of
operations (a round) repeats until ``--seconds`` have passed, so every run
attempts whole rounds.  Times are scaled to the reference machine's quiet
speed by the host-speed gauge of ``hostspeed.py``.  Outputs are checked
after timing by ``checks.py``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics from ``spans.py`` with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import spans
import workloads

SETUP_REPEATS = 15
# Host-speed samples before each set-up pass; set-up is too short for the
# run's share of samples to gauge the host during it.
SETUP_SAMPLES = 3
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(src: Path):
    """Import regfactor afresh from ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "regfactor" or m.startswith("regfactor.")]:
        del sys.modules[name]
    cli = importlib.import_module("regfactor.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"regfactor was imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv) -> tuple:
    """One CLI call: (exit code or None on an exception, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def judge(op, code, stdout: str, stderr: str, rng: random.Random) -> tuple[bool, list[str]]:
    """(whether the program produced an output, errors).  A nonzero exit is
    a failure; a zero exit with an output the checks reject is a failure
    and an incorrect result."""
    if code != 0:
        return False, [f"exit {code}: {stderr.strip()[-300:]}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return True, [f"stdout is not JSON: {exc}"]
    return True, checks.check(op, doc, rng)


def run(args, root: Path) -> int:
    src = root / "src"
    if not (src / "regfactor" / "cli.py").is_file():
        print(f"error: no regfactor sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / OUT_DIR
    workdir = out_dir / f"run-{os.getpid()}"
    try:
        # One untimed pass first: it compiles the program's bytecode in a
        # fresh checkout and enumerates the seed-independent ideal lists.
        # The problem files are written once, after the timed passes: on a
        # shared ext4 disk, creating or rewriting 132 small files took 5-80
        # ms depending on the disk's state, more than the import, and none
        # of it is the program's work.
        setup_gauge = hostspeed.Gauge()
        setup_times = []
        for repeat in range(SETUP_REPEATS + 1):
            for _ in range(SETUP_SAMPLES if repeat else 0):
                setup_gauge.sample()
            start = perf_counter()
            cli = import_program(src)
            ops, files = workloads.build(args.workload, args.seed, workdir)
            if repeat:
                setup_times.append(perf_counter() - start)
        setup_factor = setup_gauge.factor()
        workdir.mkdir(parents=True)
        for path, text in files.items():
            path.write_text(text)

        # The gauge ticks through the rounds; its samples' time is taken out
        # of the operations they fell in, and out of the spans, whose clock
        # stands still while a sample runs.
        gauge = hostspeed.Gauge()
        tracer = None
        if args.trace:
            tracer = spans.Tracer(clock=lambda: perf_counter() - gauge.spent)
            tracer.install(sys.modules["regfactor"])

        results = []
        rounds = 0
        op_times = [[] for _ in ops]
        with gauge.ticking():
            start = perf_counter()
            while not rounds or perf_counter() - start < args.seconds:
                for k, op in enumerate(ops):
                    if tracer:
                        tracer.op_id = rounds * len(ops) + k
                    gc.collect()
                    spent = gauge.spent
                    code, elapsed, stdout, stderr = call(cli, op.argv)
                    op_times[k].append(elapsed - (gauge.spent - spent))
                    results.append((k, code, stdout, stderr))
                rounds += 1
                if tracer:
                    tracer.end_round()
        # Every time is divided by the host's slowdown over the run (see
        # hostspeed.py), and each operation is taken at its mean over the
        # rounds, as the slowdown is a mean over the run too.  run_s is the
        # round made of these times; the percentiles run over its operations.
        factor = gauge.factor()
        op_mean = sorted(statistics.fmean(times) / factor for times in op_times)
        run_s = sum(op_mean)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        verdicts = {}
        failed = 0
        correct = True
        for k, code, stdout, stderr in results:
            key = (k, code, stdout)
            if key not in verdicts:
                rng = random.Random(f"check:{args.workload}:{args.seed}:{k}")
                verdicts[key] = judge(ops[k], code, stdout, stderr, rng)
                for error in verdicts[key][1][:5]:
                    print(f"op {k} ({' '.join(ops[k].argv)}): {error}", file=sys.stderr)
            produced, errors = verdicts[key]
            if errors:
                failed += 1
                correct = correct and not produced
        outputs = [set() for _ in ops]
        for k, _, stdout, _ in results:
            outputs[k].add(stdout)
        for k, seen in enumerate(outputs):
            if len(seen) > 1:
                print(f"op {k}: output differs between rounds", file=sys.stderr)
                correct = False

        print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
              f"ops_per_round={len(ops)} attempted={len(results)} failed={failed} "
              f"host_slowdown={factor:.4f} setup_slowdown={setup_factor:.4f} "
              f"gauge_samples={len(gauge.samples)} wall_run_s={run_s * factor:.4f} "
              f"wall_setup_s={statistics.median(setup_times):.4f}")
        if tracer:
            metrics, round_s = tracer.layer_metrics(len(ops))
            units = spans.metric_units()
            # Span times are scaled by the host's slowdown like run_s.
            for name in units:
                if units[name] == "s":
                    metrics[name] /= factor
            round_s /= factor
            report = {"metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}
            print(f"traced run_s={run_s:.4f} median traced round={round_s:.4f}")
            for name in units:
                share = f"  ({metrics[name] / round_s:6.1%} of a round)" if units[name] == "s" else ""
                print(f"  {name:40s} {metrics[name]:14.6g}{share}")
            stem = f"trace-{args.workload}-seed{args.seed}"
            (out_dir / f"{stem}.json").write_text(json.dumps(
                {"run_s": run_s, "round_s": round_s, "rounds": rounds, **report}, indent=1))
            tracer.write_spans(out_dir / f"{stem}.spans.tsv.gz")
        else:
            report = {"metrics": {
                "setup_s": {"value": statistics.median(setup_times) / setup_factor, "unit": "s"},
                "run_s": {"value": run_s, "unit": "s"},
                "op_p50_ms": {"value": statistics.median(op_mean) * 1000, "unit": "ms"},
                "op_p90_ms": {"value": op_mean[math.ceil(0.9 * len(op_mean)) - 1] * 1000,
                              "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }}
        print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, **report}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.rmdir()


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:]), Path.cwd()))
