"""Golden gate: every built-in in both modes stays put: report, frames and tables.

``tools/regen_goldens.py`` writes the golden files from the runs of

    rwasim run --scenario <id> --step 60 --frames 50 --seed 0 --mode <mode>

``tests/golden/<id>-<mode>.json`` is its ``report.json``, and
``tests/golden/<id>-<mode>-frames.json`` holds, per frame, the erased
slots, the sum of ``bit_errors`` and the CNR, read back from its
``slots.csv``.  ``tests/golden/<id>-access.csv``, ``<id>-link.csv`` and
``<id>-blades.csv`` (rotor scenarios only) are its plain tables, which
do not depend on the mode, so both modes' runs are checked against them:
they pin which satellite serves when, where handovers fall, the link
budget and the blade segments.

``tests/golden/<id>-<mode>-sweep.csv`` is the ``sweep.csv`` of

    rwasim sweep --scenario <id> --cnr-min -5 --cnr-max 20 --points 26 --frames 20 --seed 0 --mode <mode>

for the rotor scenarios in ``SWEEPS``: one of 40 slots a frame, one of 80.

Ints, ids and strings must match exactly and floats within 1e-9
relative, so a refactor shows it keeps behaviour without regenerating
these files.  A change that does regenerate them says why.  The same
runs and sweeps, rerun under a lower numpy SIMD tier, must give the same
ints and floats within 1e-9 of this tier's.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rwasim.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("scenario-6", "scenario-7", "scenario-11",
             "scenario-15a", "scenario-15b", "scenario-19")
RUN_ARGS = ("--step", "60", "--frames", "50", "--seed", "0")
# the plain tables of a run, the same in either mode; blades.csv only with a rotor
TABLES = ("access.csv", "link.csv", "blades.csv")
SWEEPS = ("scenario-7", "scenario-19")
SWEEP_ARGS = ("--cnr-min", "-5", "--cnr-max", "20", "--points", "26", "--frames", "20",
              "--seed", "0")
# the columns of the CSVs written as ints
INT_COLUMNS = {"sat_id", "slot_index", "erased", "payload_bits", "bit_errors"}


def frame_facts(run_dir):
    """Erased slots, bit-error sum and CNR of each frame of the run written to ``run_dir``."""
    report = json.loads((run_dir / "report.json").read_text())
    spf = report["n_slots"] // report["n_frames"]
    with (run_dir / "slots.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    frames = [rows[i:i + spf] for i in range(0, len(rows), spf)]
    return {
        "erased": [sum(int(row["erased"]) for row in frame) for frame in frames],
        "bit_errors": [sum(int(row["bit_errors"]) for row in frame) for frame in frames],
        "cnr_db": [float(frame[0]["cnr_db"]) for frame in frames],
    }


def read_table(path):
    """The columns of a CSV table by name: ints for ``INT_COLUMNS``, floats otherwise."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [int(cell) if name in INT_COLUMNS else float(cell) for cell in cells]
            for name, *cells in zip(*rows)}


def _mismatches(want, got, where="report"):
    if type(want) is not type(got):
        return [f"{where}: {got!r} is not a {type(want).__name__} like {want!r}"]
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(set(want) ^ set(got))} on one side only"]
        return [m for key in sorted(want)
                for m in _mismatches(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} items, golden has {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in _mismatches(w, g, f"{where}[{i}]")]
    same = (math.isclose(want, got, rel_tol=1e-9) if isinstance(want, float)
            else want == got)
    return [] if same else [f"{where}: {got!r} != golden {want!r}"]


def file_mismatches(want: Path, got: Path) -> list:
    """How the CSV or JSON file ``got`` differs from ``want`` at the gate's tolerance."""
    if want.suffix == ".csv":
        return _mismatches(read_table(want), read_table(got), got.name)
    return _mismatches(json.loads(want.read_text()), json.loads(got.read_text()), got.name)


@pytest.mark.parametrize("mode", ["mc", "expected"])
@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_report_matches_golden(tmp_path, capsys, scenario_id, mode):
    assert main(["run", "--scenario", scenario_id, *RUN_ARGS, "--mode", mode,
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    run_dir = tmp_path / scenario_id
    got = json.loads((run_dir / "report.json").read_text())
    want = json.loads((GOLDEN / f"{scenario_id}-{mode}.json").read_text())
    assert _mismatches(want, got) == []
    want = json.loads((GOLDEN / f"{scenario_id}-{mode}-frames.json").read_text())
    assert _mismatches(want, frame_facts(run_dir), "frames") == []
    for table in TABLES:
        golden = GOLDEN / f"{scenario_id}-{table}"
        assert (run_dir / table).exists() == golden.exists(), table
        if golden.exists():
            assert _mismatches(read_table(golden), read_table(run_dir / table), table) == []


@pytest.mark.parametrize("mode", ["mc", "expected"])
@pytest.mark.parametrize("scenario_id", SWEEPS)
def test_sweep_matches_golden(tmp_path, capsys, scenario_id, mode):
    assert main(["sweep", "--scenario", scenario_id, *SWEEP_ARGS, "--mode", mode,
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    want = read_table(GOLDEN / f"{scenario_id}-{mode}-sweep.csv")
    got = read_table(tmp_path / scenario_id / "sweep.csv")
    assert _mismatches(want, got, "sweep.csv") == []


def test_golden_comparison_catches_drift():
    want = json.loads((GOLDEN / "scenario-7-expected.json").read_text())
    drifted = json.loads(json.dumps(want))
    drifted["ber"] *= 1 + 1e-8
    drifted["handovers"] += 1
    assert _mismatches(want, drifted) == [
        f"report.ber: {drifted['ber']!r} != golden {want['ber']!r}",
        f"report.handovers: {drifted['handovers']!r} != golden {want['handovers']!r}",
    ]
    # an erased slot moved from one frame to the next
    want = json.loads((GOLDEN / "scenario-7-expected-frames.json").read_text())
    drifted = json.loads(json.dumps(want))
    f = next(i for i, n in enumerate(want["erased"]) if n)
    drifted["erased"][f] -= 1
    drifted["erased"][f + 1] += 1
    assert _mismatches(want, drifted, "frames") == [
        f"frames.erased[{f}]: {want['erased'][f] - 1} != golden {want['erased'][f]}",
        f"frames.erased[{f + 1}]: {want['erased'][f + 1] + 1} != golden "
        f"{want['erased'][f + 1]}",
    ]
    # a handover one access step late
    want = read_table(GOLDEN / "scenario-7-access.csv")
    drifted = {name: list(column) for name, column in want.items()}
    sat = want["sat_id"]
    i = next(i for i in range(1, len(sat)) if -1 != sat[i - 1] != sat[i] != -1)
    drifted["sat_id"][i] = sat[i - 1]
    assert _mismatches(want, drifted, "access.csv") == [
        f"access.csv.sat_id[{i}]: {sat[i - 1]} != golden {sat[i]}",
    ]


# Runs the golden runs and sweeps of argv[1] (a JSON list of argument
# lists) and prints their exit codes and the dispatch targets numpy took
_TIER_CHILD = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from rwasim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]]))
"""


def _golden_commands(out: Path) -> list:
    """The argument lists of the golden runs and sweeps, writing under ``out``."""
    modes = ("mc", "expected")
    return [*(["run", "--scenario", sid, *RUN_ARGS, "--mode", mode, "--out", str(out / mode)]
              for sid in SCENARIOS for mode in modes),
            *(["sweep", "--scenario", sid, *SWEEP_ARGS, "--mode", mode,
               "--out", str(out / f"sweep-{mode}")] for sid in SWEEPS for mode in modes)]


def test_a_lower_simd_tier_keeps_the_ints_and_the_floats_to_the_gate(tmp_path, capsys):
    # numpy picks its loops for the CPU, and on AVX-512 and AVX2 paths some
    # transcendental functions differ in their last bits.  The next lower
    # tier: numpy's lowest dispatch target (X86_V3 on x86-64), or its
    # baseline when that is the only one it takes.  Holding numpy to
    # AVX512_ICL instead of AVX512_SPR wrote this set's bytes unchanged.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    taken = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    kept = taken[:1] if len(taken) > 1 else []
    disabled = [os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *taken[len(kept):]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled).strip(),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    here, lower = tmp_path / "here", tmp_path / "lower"
    with subprocess.Popen([sys.executable, "-c", _TIER_CHILD,
                           json.dumps(_golden_commands(lower))],
                          env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            codes = [main(argv) for argv in _golden_commands(here)]
            printed, _ = child.communicate(timeout=120)
        finally:
            child.kill()
    capsys.readouterr()
    lower_codes, lower_taken = json.loads(printed)
    assert codes == lower_codes == [0] * len(codes)
    assert lower_taken == kept
    files = sorted(path.relative_to(here) for path in here.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(lower) for path in lower.rglob("*") if path.is_file())
    # ints (satellite ids, erased flags, bit errors, slot counts, handovers)
    # exactly, and floats to 1e-9
    assert [m for name in files for m in file_mismatches(here / name, lower / name)] == []
