"""Checks of the scripts under ``tools/``."""

import importlib.util
from pathlib import Path

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
