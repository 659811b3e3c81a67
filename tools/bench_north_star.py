"""Record the north-star timings of rwasim from fresh interpreters.

Run from the root of a checkout:

    python3 tools/bench_north_star.py --repeats 5 head=.

Each ``LABEL=CHECKOUT`` pair names a checkout whose ``src/`` is put on
``PYTHONPATH``.  Every command below runs in a new interpreter, once per
repeat and per checkout; the checkouts take turns command by command,
and which goes first rotates from repeat to repeat, so drift in machine
speed falls on all of them alike:

- ``rwasim run`` for each built-in scenario in ``mc`` and ``expected``
  mode at ``--step 1 --frames 1000 --seed 0``;
- one 26-point ``rwasim sweep`` per mode;
- ``python -c "import rwasim.cli"``;
- ``rwasim run`` in ``mc`` mode, with the same arguments, of the
  mega-shell scenario in ``tools/mega_shell.json``: 4,392 satellites at
  550 km and 53 deg, a loiter at 45 deg N under a 25 deg mask, 2 h;
- three scale runs in ``mc`` mode: the same shell and loiter flown for
  24 h (``tools/long_flight.json``) with the same arguments, the access
  timeline at scale; scenario-19 at ``--step 60 --frames 25000``, whose
  ``slots.csv`` is about 110 MB; and a 26-point scenario-19 sweep of
  20,000 frames;
- the floor under every command: ``python -c pass`` and
  ``python -c "import numpy"``, so that each record shows what share of
  a command's time rwasim controls (the command's time less the floor).

For each checkout it writes ``BENCH_<LABEL>.json`` to the current
directory: the median and quartiles of every command's wall time and
of the per-repeat total, the core count and the Python and numpy
versions.  Next to a command's wall time, under its ``cpu_s`` and
``max_rss_mb`` keys, are the same statistics of the child's CPU time
(user plus system) and maximum resident set size, read from
``os.wait4``; records made before these were added lack the two keys.
The total leaves out the mega-shell, scale and floor commands, so it
compares with records made before they were added.
Given several checkouts, it also records under ``same_outputs_as``, for
every checkout after the first, whether its first repeat wrote the same
files, byte for byte, as the first checkout's (``{"<first label>":
true}``); records of one checkout, and older records, have no such key.
It exits 1 if a command fails or if a repeat writes files that differ in
any byte from the first repeat's; outputs that differ between checkouts
are recorded, not an error.  Stdlib only: the recorder itself imports
nothing the timed commands pay for.

Before the first timed command it byte-compiles each checkout's
``src/`` with ``compileall``, so no timed command compiles: a checkout
without ``__pycache__``, recorded under ``PYTHONDONTWRITEBYTECODE=1``,
would otherwise recompile every module on every command.
"""

from __future__ import annotations

import argparse
import compileall
import filecmp
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

SCENARIOS = ("scenario-11", "scenario-15a", "scenario-15b",
             "scenario-19", "scenario-6", "scenario-7")
MODES = ("mc", "expected")
RUN_ARGS = ("--step", "1", "--frames", "1000", "--seed", "0")
SWEEP_SCENARIO = "scenario-7"
SWEEP_ARGS = ("--cnr-min", "-5", "--cnr-max", "20", "--points", "26",
              "--frames", "1000", "--seed", "0")
MEGA_SHELL = Path(__file__).resolve().parent / "mega_shell.json"
LONG_FLIGHT = Path(__file__).resolve().parent / "long_flight.json"
SCALE_SCENARIO = "scenario-19"
SCALE_RUN_ARGS = ("--step", "60", "--frames", "25000", "--seed", "0")
SCALE_SWEEP_ARGS = ("--cnr-min", "-5", "--cnr-max", "20", "--points", "26",
                    "--frames", "20000", "--seed", "0")
# timed, but left out of the total
OUTSIDE_TOTAL = ("run mega-shell mc", "run long-flight mc", f"run {SCALE_SCENARIO} mc 25000",
                 f"sweep {SCALE_SCENARIO} mc 20000", "python -c pass", "import numpy")


def commands() -> dict[str, tuple[list[str], bool]]:
    """Command name -> (arguments after ``python``, whether it takes ``--out``)."""
    cmds = {}
    for sid in SCENARIOS:
        for mode in MODES:
            cmds[f"run {sid} {mode}"] = (["-m", "rwasim.cli", "run", "--scenario", sid,
                                          "--mode", mode, *RUN_ARGS], True)
    for mode in MODES:
        cmds[f"sweep {SWEEP_SCENARIO} {mode}"] = (
            ["-m", "rwasim.cli", "sweep", "--scenario", SWEEP_SCENARIO, "--mode", mode,
             *SWEEP_ARGS], True)
    cmds["import rwasim.cli"] = (["-c", "import rwasim.cli"], False)
    cmds["run mega-shell mc"] = (["-m", "rwasim.cli", "run", "--scenario", str(MEGA_SHELL),
                                  "--mode", "mc", *RUN_ARGS], True)
    cmds["run long-flight mc"] = (["-m", "rwasim.cli", "run", "--scenario", str(LONG_FLIGHT),
                                   "--mode", "mc", *RUN_ARGS], True)
    cmds[f"run {SCALE_SCENARIO} mc 25000"] = (
        ["-m", "rwasim.cli", "run", "--scenario", SCALE_SCENARIO, "--mode", "mc",
         *SCALE_RUN_ARGS], True)
    cmds[f"sweep {SCALE_SCENARIO} mc 20000"] = (
        ["-m", "rwasim.cli", "sweep", "--scenario", SCALE_SCENARIO, "--mode", "mc",
         *SCALE_SWEEP_ARGS], True)
    cmds["python -c pass"] = (["-c", "pass"], False)
    cmds["import numpy"] = (["-c", "import numpy"], False)
    return cmds


def _quartiles(samples: list[float]) -> dict[str, float]:
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _stats(samples) -> dict:
    """Median, quartiles and the samples themselves."""
    samples = list(samples)
    return {**_quartiles(samples), "samples": samples}


def _same_tree(a: Path, b: Path) -> bool:
    """True when ``a`` and ``b`` hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in (src / "rwasim").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy")}


class Sample(NamedTuple):
    """One timed command."""

    wall_s: float
    cpu_s: float        # the child's user plus system time
    max_rss_mb: float   # the child's maximum resident set size, in MiB


def _time_command(args: list[str], src: Path, out: Path | None) -> Sample:
    """Run ``python args`` with ``src`` on ``PYTHONPATH`` (and ``--out out``),
    reaped with ``os.wait4`` for its resource usage."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, *args] + ([] if out is None else ["--out", str(out)])
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}:\n{stderr}")
    # ru_maxrss is in KiB on Linux
    return Sample(seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def record(checkouts: dict[str, Path], repeats: int, work: Path,
           keep: Path | None) -> dict[str, dict]:
    """Time every command ``repeats`` times per checkout, taking turns."""
    cmds = commands()
    for root in checkouts.values():
        if not compileall.compile_dir(root / "src", quiet=1):
            raise SystemExit(f"error: cannot byte-compile {root / 'src'}")
    # per checkout and command, one Sample a repeat
    runs = {label: {name: [] for name in cmds} for label in checkouts}
    pairs = list(checkouts.items())
    for rep in range(repeats):
        turns = pairs[rep % len(pairs):] + pairs[:rep % len(pairs)]  # who goes first rotates
        for name, (args, writes) in cmds.items():
            for label, root in turns:
                out = work / label / str(rep) / name.replace(" ", "_") if writes else None
                runs[label][name].append(_time_command(args, root / "src", out))
                if out is not None and rep > 0:
                    if not _same_tree(work / label / "0" / name.replace(" ", "_"), out):
                        raise SystemExit(f"error: {label}: repeat {rep} of {name!r} "
                                         f"wrote different files from repeat 0")
                    shutil.rmtree(out)
        print(f"repeat {rep + 1}/{repeats} done", file=sys.stderr)

    if keep is not None:
        for label in checkouts:
            shutil.copytree(work / label / "0", keep / label, dirs_exist_ok=True)

    first = pairs[0][0]
    written = [name.replace(" ", "_") for name, (_, writes) in cmds.items() if writes]
    same = {label: all(_same_tree(work / first / "0" / out, work / label / "0" / out)
                       for out in written)
            for label in checkouts if label != first}

    results = {}
    for label, root in checkouts.items():
        per_cmd = {name: list(zip(*samples)) for name, samples in runs[label].items()}
        totals = [sum(per_cmd[name][0][rep] for name in cmds if name not in OUTSIDE_TOTAL)
                  for rep in range(repeats)]
        results[label] = {
            "label": label,
            "source_sha256": _source_digest(root / "src"),
            "repeats": repeats,
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "versions": _versions(),
            "unit": "s",
            "commands": {name: {**_stats(wall),
                                "cpu_s": _stats(cpu),
                                "max_rss_mb": _stats(rss)}
                         for name, (wall, cpu, rss) in per_cmd.items()},
            "total": _stats(totals),
        }
        if label in same:
            results[label]["same_outputs_as"] = {first: same[label]}
    return results


def _checkout(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    root = Path(path).resolve()
    if not sep or not label or not (root / "src" / "rwasim" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(
            f"expected LABEL=CHECKOUT with CHECKOUT/src/rwasim, got {text!r}")
    return label, root


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=_checkout, metavar="LABEL=CHECKOUT")
    parser.add_argument("--repeats", type=int, default=5, help="runs per command (default 5)")
    parser.add_argument("--keep-outputs", type=Path, default=None, metavar="DIR",
                        help="copy each checkout's first-repeat outputs to DIR/<LABEL>")
    args = parser.parse_args(argv)
    checkouts = dict(args.checkouts)
    if len(checkouts) != len(args.checkouts):
        parser.error("labels must be distinct")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    with tempfile.TemporaryDirectory(prefix="bench-north-star-") as work:
        results = record(checkouts, args.repeats, Path(work), args.keep_outputs)
    for label, result in results.items():
        path = Path(f"BENCH_{label}.json")
        path.write_text(json.dumps(result, indent=2) + "\n")
        total = result["total"]
        print(f"{label}: total {total['median']:.3f} s "
              f"[{total['q1']:.3f}, {total['q3']:.3f}], "
              f"import {result['commands']['import rwasim.cli']['median']:.3f} s -> {path}")
        for other, equal in result.get("same_outputs_as", {}).items():
            print(f"{label}: outputs {'equal' if equal else 'DIFFER from'} {other}'s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
