"""The three workloads: their inputs, their operations and one timed pass.

A pass runs every operation of a workload once.  Only the calls into
the simulator are timed, each bracketed by calibrations (see
``speed.py``); each operation's outputs are checked right after its
call, outside the timed region, and then released.
"""

from __future__ import annotations

import contextlib
import gc
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
from speed import calibrate, normalise

SCENARIOS = ("scenario-6", "scenario-7", "scenario-11", "scenario-15a", "scenario-15b", "scenario-19")
SWEEP_CNR_DB = (-5.0, 20.0)


@dataclass(frozen=True)
class Sizes:
    step_s: float              # access-timeline step of each run
    n_frames: int              # 10 ms frames per run
    sweep_points: int = 0      # CNR sweep points per scenario; 0 for no sweep
    sweep_frames: int = 0      # frames per sweep point
    sweep_access_step_s: float = 30.0


MODE = {"access-fine": "mc", "frames-mc": "mc", "outputs-expected": "expected"}

# access-fine: geometry-bound (fine step, few frames, nothing written).
# frames-mc: slot-bound (coarse step, many Monte Carlo frames, sweeps).
# outputs-expected: the CLI with every file written, deterministic PHY.
# Each pass takes a few seconds, so a run holds several passes to take
# the median of, and still does when one layer gets ten times faster.
FULL = {
    "access-fine": Sizes(step_s=4.0, n_frames=20),
    "frames-mc": Sizes(step_s=60.0, n_frames=600, sweep_points=26, sweep_frames=20),
    "outputs-expected": Sizes(step_s=10.0, n_frames=300),
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class PassResult:
    seconds: float             # time inside the simulator's calls, at the reference speed
    raw_seconds: float         # the same, as measured
    op_raw: list[float]        # per operation, as measured
    calibrations: list[tuple[float, float]]  # per operation, before and after it
    attempted: int
    failed: int                # operations that raised or failed a check
    bad: int                   # operations whose outputs failed a check
    problems: list[str]


class Workload:
    """Operations of one workload over the six built-in scenarios."""

    def __init__(self, name: str, seed: int, sizes: Sizes, rw, pass_root: Path):
        self.name, self.seed, self.sizes, self.rw = name, seed, sizes, rw
        self.mode = MODE[name]
        self.pass_root = pass_root
        self.specs = {sid: rw.scenarios.resolve_scenario(sid) for sid in SCENARIOS}
        self._first: dict[str, object] = {}
        self._reference: dict[str, tuple[dict, list[str]]] = {}

    # --- sizes of one pass ---

    def steps_per_pass(self) -> int:
        s = self.sizes
        steps = sum(checks.n_steps(spec, s.step_s) for spec in self.specs.values())
        if s.sweep_points:
            steps += sum(checks.n_steps(spec, s.sweep_access_step_s)
                         for spec in self.specs.values() if spec.aircraft.rotor is not None)
        return steps

    def slots_per_pass(self) -> int:
        s = self.sizes
        per_frame = sum(checks.slots_per_frame(spec) for spec in self.specs.values())
        return per_frame * (s.n_frames + s.sweep_points * s.sweep_frames)

    # --- operations ---

    def prepare(self) -> list[str]:
        """Warm-up pass, plus the in-memory reference runs the CLI outputs are checked against.

        The warm-up has the full sizes, so that the first timed pass
        finds the heap already grown to what a pass needs.
        """
        self.run_pass("warm-up", check=False)
        if self.name != "outputs-expected":
            return []
        problems = []
        for sid, spec in self.specs.items():
            result = self.rw.pipeline.run_scenario(spec, step_s=self.sizes.step_s, seed=self.seed,
                                                   mode=self.mode, n_frames=self.sizes.n_frames)
            found = _guarded(checks.check_run, spec, result, self.sizes.step_s,
                             self.sizes.n_frames, self.mode)
            self._reference[sid] = (result.report, found)
            problems += [f"{sid} in-memory run: {p}" for p in found]
        return problems

    def _ops(self, pass_dir: Path) -> list[Op]:
        rw, s, seed, mode = self.rw, self.sizes, self.seed, self.mode
        ops = []
        for sid, spec in self.specs.items():
            if self.name == "outputs-expected":
                argv = ["run", "--scenario", sid, "--step", repr(s.step_s), "--frames", str(s.n_frames),
                        "--seed", str(seed), "--mode", mode, "--out", str(pass_dir)]
                ops.append(Op(f"cli {sid}", lambda argv=argv: _cli(rw.cli, argv),
                              lambda out, sid=sid, spec=spec: self._check_cli(sid, spec, pass_dir, out)))
                continue

            def run(sid=sid):
                scenario = rw.scenarios.resolve_scenario(sid)
                return rw.pipeline.run_scenario(scenario, step_s=s.step_s, seed=seed, mode=mode,
                                                n_frames=s.n_frames)
            ops.append(Op(f"run {sid}", run,
                          lambda res, sid=sid, spec=spec: self._check_run(sid, spec, res)))
        if s.sweep_points:
            for sid, spec in self.specs.items():
                def sweep(sid=sid):
                    scenario = rw.scenarios.resolve_scenario(sid)
                    return rw.pipeline.sweep_cnr(scenario, *SWEEP_CNR_DB, s.sweep_points,
                                                 n_frames=s.sweep_frames, seed=seed, mode=mode,
                                                 access_step_s=s.sweep_access_step_s)
                ops.append(Op(f"sweep {sid}", sweep,
                              lambda rows, sid=sid, spec=spec: self._check_sweep(sid, spec, rows)))
        return ops

    def _same_as_first(self, key: str, value) -> list[str]:
        first = self._first.setdefault(key, value)
        return [] if first == value else ["output differs from an earlier pass with the same seed"]

    def _check_run(self, sid, spec, result) -> list[str]:
        return (checks.check_run(spec, result, self.sizes.step_s, self.sizes.n_frames, self.mode)
                + self._same_as_first(f"run {sid}", result.report))

    def _check_sweep(self, sid, spec, rows) -> list[str]:
        return (checks.check_sweep(spec, rows, *SWEEP_CNR_DB, self.sizes.sweep_points)
                + self._same_as_first(f"sweep {sid}", rows))

    def _check_cli(self, sid, spec, pass_dir, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        report, found = self._reference[sid]
        if found:
            return ["the in-memory run of the same inputs failed its checks"]
        return checks.check_written(spec, pass_dir / sid, report, self.sizes.step_s,
                                    self.sizes.n_frames)

    # --- one pass ---

    def run_pass(self, label: str, check: bool = True, tracer=None) -> PassResult:
        """Every operation once; ``tracer`` (a ``tracing.Tracer``) records spans when given."""
        pass_dir = self.pass_root / label
        pass_dir.mkdir(parents=True, exist_ok=True)
        times, raw, cals, failed, bad, problems = [], [], [], 0, 0, []
        ops = self._ops(pass_dir)
        try:
            for op in ops:
                gc.collect()  # the previous operation's garbage is not charged to this one
                mark = tracer.mark() if tracer else None
                before = calibrate()
                start = perf_counter()
                try:
                    with tracer if tracer else contextlib.nullcontext():
                        output = op.call()
                    error = None
                except Exception as exc:  # an operation that raises is a failed operation
                    output, error = None, f"raised {type(exc).__name__}: {exc}"
                seconds = perf_counter() - start
                after = calibrate()
                raw.append(seconds)
                cals.append((before, after))
                times.append(normalise(seconds, before, after))
                if tracer:
                    tracer.rescale_since(mark, times[-1] / seconds)
                if error:
                    found = [error]
                else:
                    found = _guarded(op.check, output) if check else []
                    bad += bool(found)
                del output
                if found:
                    failed += 1
                    problems += [f"{op.name}: {p}" for p in found]
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return PassResult(sum(times), sum(raw), raw, cals, len(ops), failed, bad, problems)


def _cli(cli, argv):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(argv)
    return code, text.getvalue()


def _guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a check that cannot run counts as a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]
