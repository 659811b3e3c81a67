"""Benchmark of the rwasim model chain, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload access-fine --seed 1 --seconds 25 --trace 0

It imports the simulator from ``src/`` of the checkout, measures set-up
in fresh interpreters, runs a warm-up pass and then timed passes of the
workload until ``--seconds`` are used, checking every operation's
outputs.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics.  Times are rescaled to a reference machine speed (see
``speed.py``).  The last line of standard output is the result as
JSON; the same result, the raw and rescaled pass times and (when
traced) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import normalise

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("access-fine", "frames-mc", "outputs-expected")
MIN_PASSES = 3          # per run; at least two are needed for the determinism check
SETUP_SAMPLES = 7       # fresh interpreters timed per run, after one discarded

# Calibrated after the clock stops, since speed.py imports numpy and
# importing numpy is part of set-up; the first calibration is discarded.
SETUP_CODE = """\
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, {src!r})
import rwasim
for sid in {ids!r}:
    rwasim.resolve_scenario(sid)
seconds = perf_counter() - t0
sys.path.insert(0, {bench!r})
from speed import calibrate
calibrate()
print(seconds, calibrate(), calibrate())
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
                    "slots_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_simulator():
    """The simulator from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "rwasim" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator source at {SRC / 'rwasim'}")
    sys.path.insert(0, str(SRC))
    import rwasim
    import rwasim.cli
    import rwasim.pipeline
    import rwasim.scenarios
    if Path(rwasim.__file__).resolve().parent != SRC / "rwasim":
        raise SystemExit(f"error: imported rwasim from {rwasim.__file__}, not {SRC}")
    return argparse.Namespace(cli=rwasim.cli, pipeline=rwasim.pipeline, scenarios=rwasim.scenarios)


def measure_setup(ids) -> tuple[float, list[list[float]]]:
    """Median set-up time in fresh interpreters, at the reference speed.

    Returns the median and each interpreter's (seconds, and two
    calibrations after it); the first interpreter is discarded.
    """
    code = SETUP_CODE.format(bench=str(BENCH_DIR), src=str(SRC), ids=list(ids))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        samples.append([float(x) for x in done.stdout.split()[-3:]])
    timed = samples[1:]
    return statistics.median(normalise(*sample) for sample in timed), timed


def _median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name == "pipeline.bytes_written":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rw = _import_simulator()
    from tracing import Tracer
    from workloads import FULL, SCENARIOS, Workload

    OUT.mkdir(exist_ok=True)
    pass_root = OUT / f"passes-{args.workload}-seed{args.seed}-trace{args.trace}"

    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = measure_setup(SCENARIOS)

    try:
        workload = Workload(args.workload, args.seed, FULL[args.workload], rw, pass_root)
        problems = workload.prepare()
        bad = 1 if problems else 0
        attempted = failed = 0
        untraced, traced = [], []
        layers: list[dict] = []
        tracer = Tracer(rw)

        def one(label: str, trace: bool) -> None:
            nonlocal attempted, failed, bad
            if trace:
                tracer.reset()
            result = workload.run_pass(label, tracer=tracer if trace else None)
            (traced if trace else untraced).append(result)
            if trace:
                layers.append(tracer.layer_metrics())
            attempted += result.attempted
            failed += result.failed
            bad += result.bad
            problems.extend(result.problems)

        start = perf_counter()
        rounds: list[float] = []
        while True:
            began = perf_counter()
            one(f"pass{len(rounds)}", trace=False)
            if args.trace:
                one(f"pass{len(rounds)}-traced", trace=True)
            rounds.append(perf_counter() - began)
            elapsed = perf_counter() - start
            needed = 2 if args.trace else MIN_PASSES
            if len(rounds) >= needed and elapsed + statistics.median(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(pass_root, ignore_errors=True)

    untraced_s = statistics.median(r.seconds for r in untraced)
    if args.trace:
        metrics = _median_metrics(layers)
        traced_s = statistics.median(r.seconds for r in traced)
        metrics["trace.pass_s"] = traced_s
        metrics["trace.accounted_s"] = statistics.median(
            sum(p[name] for name in tracer.self_s) for p in layers)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": untraced_s,
            "steps_per_s": workload.steps_per_pass() / untraced_s,
            "slots_per_s": workload.slots_per_pass() / untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    line = {
        "correct": bad == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  untraced_pass_s=[r.seconds for r in untraced],
                  untraced_raw_pass_s=[r.raw_seconds for r in untraced],
                  untraced_op_raw_s=[r.op_raw for r in untraced],
                  untraced_calibration_s=[r.calibrations for r in untraced],
                  traced_pass_s=[r.seconds for r in traced],
                  traced_raw_pass_s=[r.raw_seconds for r in traced],
                  setup_samples=setup_samples, problems=problems[:50], spans=tracer.spans)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, {attempted} operations attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
