"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes with every check on, untraced and
traced, and expects no failed operation.  Then it corrupts one output
at a time (a shifted elevation, a perturbed expected-mode BER, a
changed report.json, a reversed sweep, an operation that raises) and
expects every operation that produced it to count as failed.  It also
checks that traced self times account for the traced pass and that
the benchmark refuses to run without the simulator's source.  Exits
non-zero on the first surprise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT, ROOT, _import_simulator

rw = _import_simulator()

import rwasim.phy  # noqa: E402  (the simulator is on the path from here on)
from tracing import Tracer  # noqa: E402
from workloads import SCENARIOS, Sizes, Workload  # noqa: E402

TINY = {
    "access-fine": Sizes(step_s=120.0, n_frames=6),
    "frames-mc": Sizes(step_s=300.0, n_frames=30, sweep_points=4, sweep_frames=3, sweep_access_step_s=300.0),
    "outputs-expected": Sizes(step_s=120.0, n_frames=20),
}
SCRATCH = OUT / "selftest"


def tiny(name: str, passes: int = 2, tracer=None):
    workload = Workload(name, 7, TINY[name], rw, SCRATCH)
    problems = workload.prepare()
    return problems, [workload.run_pass(f"p{i}", tracer=tracer) for i in range(passes)]


@contextlib.contextmanager
def replaced(module, attr: str, make):
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def failed_ops(passes) -> set[tuple[int, str]]:
    """(pass, operation) of every problem reported."""
    return {(i, q.split(":")[0]) for i, p in enumerate(passes) for q in p.problems}


def all_failed(passes, word: str) -> bool:
    """Every operation failed, each with a problem that names ``word``."""
    attempted = sum(p.attempted for p in passes)
    hit = {(i, q.split(":")[0]) for i, p in enumerate(passes) for q in p.problems if word in q}
    return sum(p.failed for p in passes) == attempted == len(hit)


def clean_workloads() -> None:
    for name in TINY:
        for tracer in (None, Tracer(rw)):
            problems, passes = tiny(name, tracer=tracer)
            failed = sum(p.failed for p in passes)
            expect(not problems and failed == 0 and passes[0].attempted > 0,
                   f"{name}{' traced' if tracer else ''}: {sum(p.attempted for p in passes)} "
                   f"operations at tiny sizes, none failed "
                   f"{(problems + [q for p in passes for q in p.problems])[:3]}")


def corrupted_outputs() -> None:
    def shift_elevation(original):
        def build(scenario, step_s=1.0):
            access = original(scenario, step_s)
            return dataclasses.replace(access, elevation_deg=access.elevation_deg + 0.01)
        return build

    with replaced(rw.pipeline, "build_access_timeline", shift_elevation):
        _, passes = tiny("access-fine")
    expect(all_failed(passes, "elevation"),
           "a 0.01 deg elevation shift fails every access-fine operation")

    def perturb_ber(original):
        return lambda *args, **kwargs: original(*args, **kwargs) * 1.001

    with replaced(rwasim.phy, "awgn_ber", perturb_ber):
        problems, passes = tiny("outputs-expected")
    expect(any("Q-function" in p for p in problems) and all_failed(passes, "in-memory run"),
           "a 0.1 % expected-mode BER error fails every outputs-expected operation")

    def change_report(original):
        def write(result, out_dir):
            target = original(result, out_dir)
            path = target / "report.json"
            report = json.loads(path.read_text())
            report["n_erased"] += 1
            path.write_text(json.dumps(report))
            return target
        return write

    with replaced(rw.pipeline, "write_outputs", change_report):
        _, passes = tiny("outputs-expected")
    expect(all_failed(passes, "report.json"),
           "a report.json that differs from the in-memory report fails every CLI operation")

    def reverse_sweep(original):
        return lambda *args, **kwargs: original(*args, **kwargs)[::-1]

    with replaced(rw.pipeline, "sweep_cnr", reverse_sweep):
        _, passes = tiny("frames-mc")
    hit = failed_ops(passes)
    expect(sum(p.failed for p in passes) == len(hit) == len(passes) * len(SCENARIOS)
           and all(op.startswith("sweep") for _, op in hit),
           "a reversed sweep fails every sweep operation and only those")

    def raise_for_rotor(original):
        def run(scenario, *args, **kwargs):
            if scenario.aircraft.rotor is not None:
                raise RuntimeError("injected")
            return original(scenario, *args, **kwargs)
        return run

    with replaced(rw.pipeline, "run_scenario", raise_for_rotor):
        _, passes = tiny("access-fine")
    rotor = sum(rw.scenarios.resolve_scenario(sid).aircraft.rotor is not None for sid in SCENARIOS)
    expect(0 < rotor < len(SCENARIOS)
           and [p.failed for p in passes] == [rotor] * len(passes)
           and all(p.bad == 0 for p in passes),
           f"an operation that raises counts as failed ({rotor} of {len(SCENARIOS)} per pass)")


def tracing_accounts_for_pass() -> None:
    original = rw.pipeline.run_scenario
    tracer = Tracer(rw)
    _, passes = tiny("frames-mc", passes=1, tracer=tracer)
    accounted = sum(tracer.self_s.values())
    expect(passes[0].failed == 0 and 0.9 * passes[0].seconds <= accounted <= passes[0].seconds,
           f"layer self times {accounted:.4f} s account for the traced pass {passes[0].seconds:.4f} s")
    expect(rw.pipeline.run_scenario is original, "tracing restores the original functions")


def refuses_without_source() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "access-fine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    try:
        clean_workloads()
        corrupted_outputs()
        tracing_accounts_for_pass()
        refuses_without_source()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
