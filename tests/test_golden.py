"""Golden gate: the report of every built-in in both modes stays put.

Each ``tests/golden/<id>-<mode>.json`` is the ``report.json`` written by

    rwasim run --scenario <id> --step 60 --frames 50 --seed 0 --mode <mode>

Ints, ids and strings must match exactly and floats within 1e-9
relative, so a refactor shows it keeps behaviour without regenerating
these files.  A change that does regenerate them says why.
"""

import json
import math
from pathlib import Path

import pytest

from rwasim.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("scenario-6", "scenario-7", "scenario-11",
             "scenario-15a", "scenario-15b", "scenario-19")


def _mismatches(want, got, where="report"):
    if type(want) is not type(got):
        return [f"{where}: {got!r} is not a {type(want).__name__} like {want!r}"]
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(set(want) ^ set(got))} on one side only"]
        return [m for key in sorted(want)
                for m in _mismatches(want[key], got[key], f"{where}.{key}")]
    same = (math.isclose(want, got, rel_tol=1e-9) if isinstance(want, float)
            else want == got)
    return [] if same else [f"{where}: {got!r} != golden {want!r}"]


@pytest.mark.parametrize("mode", ["mc", "expected"])
@pytest.mark.parametrize("scenario_id", SCENARIOS)
def test_report_matches_golden(tmp_path, capsys, scenario_id, mode):
    assert main(["run", "--scenario", scenario_id, "--step", "60",
                 "--frames", "50", "--seed", "0", "--mode", mode,
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = json.loads((tmp_path / scenario_id / "report.json").read_text())
    want = json.loads((GOLDEN / f"{scenario_id}-{mode}.json").read_text())
    assert _mismatches(want, got) == []


def test_golden_comparison_catches_drift():
    want = json.loads((GOLDEN / "scenario-7-expected.json").read_text())
    drifted = json.loads(json.dumps(want))
    drifted["ber"] *= 1 + 1e-8
    drifted["handovers"] += 1
    assert _mismatches(want, drifted) == [
        f"report.ber: {drifted['ber']!r} != golden {want['ber']!r}",
        f"report.handovers: {drifted['handovers']!r} != golden {want['handovers']!r}",
    ]
