"""Regenerate every golden file of ``tests/golden/`` from one set of runs.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/regen_goldens.py

For each built-in in both modes it runs ``rwasim run`` with the golden
gate's arguments (``tests/test_golden.py``) into a temporary directory,
then writes the run's ``report.json`` as ``tests/golden/<id>-<mode>.json``
and the per-frame facts of its ``slots.csv`` as
``tests/golden/<id>-<mode>-frames.json``.  The ``mc`` run's
``access.csv``, ``link.csv`` and ``blades.csv`` (rotor scenarios only),
which do not depend on the mode, go to ``tests/golden/<id>-<table>``.
All come from the same runs, so they cannot drift apart.  For each
scenario of the golden sweeps in both modes it runs ``rwasim sweep``
with the gate's arguments and writes its ``sweep.csv`` as
``tests/golden/<id>-<mode>-sweep.csv``.  The CLI's own output is
swallowed; the script prints one line per golden whose bytes it changed,
or "no golden changed".  A change that regenerates the goldens says
which ones and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden import (GOLDEN, RUN_ARGS, SCENARIOS, SWEEP_ARGS, SWEEPS, TABLES,  # noqa: E402
                         frame_facts)

from rwasim.cli import main  # noqa: E402
from rwasim.phy import MODES  # noqa: E402


def _snapshot() -> dict:
    """The bytes of every golden, by file name."""
    return {path.name: path.read_bytes() for path in GOLDEN.iterdir() if path.is_file()}


def regen() -> list[str]:
    """Rewrite every golden and return the names of those whose bytes changed."""
    before = _snapshot()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for scenario_id in SCENARIOS:
            for mode in MODES:
                out = Path(tmp) / mode
                if main(["run", "--scenario", scenario_id, *RUN_ARGS, "--mode", mode,
                         "--out", str(out)]) != 0:
                    raise SystemExit(f"error: {scenario_id} {mode} failed")
                run_dir = out / scenario_id
                shutil.copyfile(run_dir / "report.json", GOLDEN / f"{scenario_id}-{mode}.json")
                with (GOLDEN / f"{scenario_id}-{mode}-frames.json").open("w") as fh:
                    json.dump(frame_facts(run_dir), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                if mode == "mc":
                    for table in TABLES:
                        if (run_dir / table).exists():
                            shutil.copyfile(run_dir / table, GOLDEN / f"{scenario_id}-{table}")
        for scenario_id in SWEEPS:
            for mode in MODES:
                out = Path(tmp) / f"sweep-{mode}"
                if main(["sweep", "--scenario", scenario_id, *SWEEP_ARGS, "--mode", mode,
                         "--out", str(out)]) != 0:
                    raise SystemExit(f"error: {scenario_id} {mode} sweep failed")
                shutil.copyfile(out / scenario_id / "sweep.csv",
                                GOLDEN / f"{scenario_id}-{mode}-sweep.csv")
    return sorted(name for name, data in _snapshot().items() if before.get(name) != data)


def report_changes() -> None:
    """Regenerate and print what changed."""
    changed = regen()
    for name in changed:
        print(f"changed: {GOLDEN / name}")
    if not changed:
        print("no golden changed")


if __name__ == "__main__":
    report_changes()
