"""Checks of the scripts under ``tools/``."""

import importlib.util
import json
import shutil
from pathlib import Path

from test_golden import file_mismatches

ROOT = Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_north_star_record_has_cpu_time_and_max_rss(tmp_path, monkeypatch):
    bench = _tool("bench_north_star")
    monkeypatch.setattr(bench, "commands", lambda: {"pass": (["-c", "pass"], False)})
    record = bench.record({"here": ROOT}, 2, tmp_path, None)["here"]["commands"]["pass"]
    for key in ("cpu_s", "max_rss_mb"):
        stats = record[key]
        assert len(stats["samples"]) == 2
        assert all(value > 0 for value in stats["samples"])
        assert stats["q1"] <= stats["median"] <= stats["q3"]
    # the wall time keeps its place, so older records read the same way
    assert len(record["samples"]) == 2 and record["median"] > 0


def test_north_star_scale_commands_stay_out_of_the_total():
    bench = _tool("bench_north_star")
    scale = {"run long-flight mc", "run scenario-19 mc 25000", "sweep scenario-19 mc 20000"}
    floor = {"python -c pass", "import numpy"}
    assert scale | floor | {"run mega-shell mc"} == set(bench.OUTSIDE_TOTAL)
    commands = bench.commands()
    assert set(bench.OUTSIDE_TOTAL) <= set(commands)
    # the floor: a bare interpreter, and one that imports numpy
    assert commands["python -c pass"] == (["-c", "pass"], False)
    assert commands["import numpy"] == (["-c", "import numpy"], False)
    # every scale command writes, so its outputs are compared across checkouts
    assert all(commands[name][1] for name in scale)
    assert "25000" in commands["run scenario-19 mc 25000"][0]
    sweep = commands["sweep scenario-19 mc 20000"][0]
    assert sweep[sweep.index("--points") + 1] == "26" and "20000" in sweep
    # the long flight is the mega shell flown for 24 h at a 1 s step
    long_flight = json.loads((ROOT / "tools" / "long_flight.json").read_text())
    mega_shell = json.loads((ROOT / "tools" / "mega_shell.json").read_text())
    assert long_flight["scenarios"][0].pop("duration_h") == 24.0
    assert long_flight["scenarios"][0].pop("id") == "long-flight"
    for scenario in mega_shell["scenarios"]:
        del scenario["duration_h"], scenario["id"]
    assert long_flight == mega_shell
    args = commands["run long-flight mc"][0]
    assert args[args.index("--step") + 1] == "1"


def test_regen_goldens_names_the_goldens_it_changed(tmp_path, monkeypatch, capsys):
    tool = _tool("regen_goldens")
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "tests" / "golden", golden)
    monkeypatch.setattr(tool, "GOLDEN", golden)
    tool.report_changes()
    # the CLI's output is swallowed, so the verdict is the only lines.  On
    # the numpy build and SIMD tier that wrote the goldens none changes;
    # another tier may change the last bits of a float, as the gate allows
    verdict = capsys.readouterr().out.splitlines()
    if verdict != ["no golden changed"]:
        for line in verdict:
            path = Path(line.removeprefix("changed: "))
            assert path.parent == golden and file_mismatches(
                ROOT / "tests" / "golden" / path.name, path) == [], line
    written = {path.name: path.read_bytes() for path in golden.iterdir()}
    # a golden out of step with the runs, and one missing
    (golden / "scenario-7-mc.json").write_text("{}\n")
    (golden / "scenario-19-expected-sweep.csv").unlink()
    tool.report_changes()
    assert capsys.readouterr().out.splitlines() == [
        f"changed: {golden / 'scenario-19-expected-sweep.csv'}",
        f"changed: {golden / 'scenario-7-mc.json'}"]
    assert {path.name: path.read_bytes() for path in golden.iterdir()} == written
