"""Whole-CLI contract checks, run in process through ``rwasim.cli.main``.

Each check calls ``main`` with the arguments a user would give the
``rwasim`` console script and reads back the files it wrote.  The sizes
are the ones that give a check its point: a scenario-19 run of 2,000
frames (160,000 slots) makes its erased flags in three blocks of
``pipeline._BLOCK_SLOTS`` slots, a sweep point of 120 frames is drawn in
two chunks, and the mega shell's 2 h flight takes 14 passes of the access
kernel.
"""

import csv
import json
import math
import tracemalloc
from importlib import resources
from pathlib import Path
from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest

from output_columns import output_columns
from rwasim import blades, cli, orbit, pipeline
from rwasim.cli import main
from rwasim.errors import ConfigError
from rwasim.pipeline import run_scenario
from rwasim.scenarios import builtin_catalog, parse_catalog, serialize_scenario
from spec_domains import domains, run_parameter_domains

MEGA_SHELL = str(Path(__file__).resolve().parents[1] / "tools" / "mega_shell.json")
# scenario-7's loiter, as the built-in document writes it
_LOITER = next(s["flight"] for s in json.loads(
    resources.files("rwasim").joinpath("data/builtin.json").read_text())["scenarios"]
    if s["id"] == "scenario-7")


def _tree(root: Path) -> dict:
    """The bytes of every file under ``root``, by relative path."""
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _polar_loiter() -> dict:
    """scenario-7 loitering 5.5 km from the North Pole."""
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-7"])
    doc["scenarios"][0]["flight"] = {
        "type": "loiter", "center_lat_deg": 89.95, "center_lon_deg": 10, "altitude_m": 500,
        "radius_km": 15, "speed_ms": 35}
    return doc


_SWEEP = ["--cnr-min", "-5", "--cnr-max", "20", "--points", "6", "--seed", "1"]
# from 30 dB up every bit-error draw of scenario-19 can only be 0, so no
# point builds a stream
_SILENT_SWEEP = ["sweep", "--scenario", "scenario-19", "--cnr-min", "30", "--cnr-max", "60",
                 "--points", "4", "--frames", "20", "--seed", "1"]


def _modes(name, argv):
    return [pytest.param(argv + ["--mode", mode], id=f"{name}-{mode}")
            for mode in ("mc", "expected")]


@pytest.mark.parametrize("argv", [
    *_modes("run-15b-20", ["run", "--scenario", "scenario-15b", "--step", "60",
                           "--frames", "20", "--seed", "1"]),
    *_modes("run-19-2000", ["run", "--scenario", "scenario-19", "--step", "60",
                            "--frames", "2000", "--seed", "1"]),
    # 90,000 access steps
    pytest.param(["run", "--scenario", "scenario-19", "--step", "0.1", "--frames", "20",
                  "--mode", "expected", "--seed", "0"], id="run-19-fine-step"),
    pytest.param(["run", "--scenario", MEGA_SHELL, "--step", "60", "--frames", "20",
                  "--mode", "mc", "--seed", "1"], id="run-mega-shell"),
    pytest.param(["run", "--scenario", _polar_loiter, "--step", "10", "--frames", "20",
                  "--mode", "mc", "--seed", "1"], id="run-polar-loiter"),
    *_modes("sweep-7-20", ["sweep", "--scenario", "scenario-7", "--frames", "20", *_SWEEP]),
    *_modes("sweep-19-120", ["sweep", "--scenario", "scenario-19", "--frames", "120", *_SWEEP]),
    *_modes("sweep-19-2000", ["sweep", "--scenario", "scenario-19", "--frames", "2000",
                              *_SWEEP]),
    pytest.param(_SILENT_SWEEP, id="sweep-19-silent"),
])
def test_same_seed_reruns_write_the_same_bytes(tmp_path, argv):
    # a callable in place of the scenario token makes a scenario document
    argv = list(argv)
    at = argv.index("--scenario") + 1
    if callable(argv[at]):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(argv[at]()))
        argv[at] = str(path)
    trees = []
    for out in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
        trees.append(_tree(tmp_path / out))
    assert trees[0] and trees[0] == trees[1]


def test_silent_sweep_ber_is_the_slot_loss_fraction(tmp_path):
    # with no bit errors to draw, a point's BER is the share of slots the
    # rotor erases, the same at every point
    losses, sweep_stats = [], pipeline.sweep_stats

    def spy(phy, grid, erased, *args, **kwargs):
        losses.append(np.count_nonzero(erased) / len(erased))
        return sweep_stats(phy, grid, erased, *args, **kwargs)

    with mock.patch.object(pipeline, "sweep_stats", spy):
        assert main(_SILENT_SWEEP + ["--out", str(tmp_path)]) == 0
    (loss,) = losses
    with open(tmp_path / "scenario-19" / "sweep.csv", newline="") as fh:
        bers = [row["ber"] for row in csv.DictReader(fh)]
    assert 0.0 < loss < 1.0
    assert bers == ["%.10g" % loss] * 4


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_csvs_of_a_long_run_read_back_as_the_run(tmp_path, mode):
    # 1,250 frames of 80 slots: frame numbers cross 999 -> 1000, and slot
    # numbers reach 99,999
    assert main(["run", "--scenario", "scenario-11", "--step", "60", "--frames", "1250",
                 "--mode", mode, "--out", str(tmp_path)]) == 0
    result = run_scenario(builtin_catalog().scenarios["scenario-11"], step_s=60.0,
                          n_frames=1250, mode=mode, seed=0)
    tables = output_columns(result)
    has_blades = bool(len(result.blade_rows))
    assert (tmp_path / "scenario-11" / "blades.csv").exists() == has_blades
    if not has_blades:
        del tables["blades.csv"]
    for name, table in tables.items():
        with open(tmp_path / "scenario-11" / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(table), name
        assert len(rows) == len(next(iter(table.values()))), name
        cells = list(zip(*rows))
        if name == "slots.csv":
            # slot j is numbered j and starts at j slot lengths of 0.125 ms
            assert len(rows) == 100_000
            assert list(map(int, cells[0])) == list(range(100_000))
            assert list(map(float, cells[1])) == [j * 0.125 for j in range(100_000)]
        # every cell, as the run's column formats it
        for (column, values), got in zip(table.items(), cells):
            spec = "%d" if values.dtype.kind in "biu" else "%.10g"
            assert list(got) == list(map(spec.__mod__, values.tolist())), (name, column)


@pytest.mark.parametrize("step", ["1e-5", "5e-324"], ids=["small", "subnormal"])
def test_cli_over_the_step_budget_exits_2(tmp_path, capsys, step):
    # 9,000 s of scenario-19 at 1e-5 s would be 900 million access steps
    assert 9000 / float(step) > orbit.MAX_STEPS
    assert main(["run", "--scenario", "scenario-19", "--step", step, "--frames", "20",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: step_s:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _rotor_doc(tmp_path, **rotor) -> str:
    """The path of scenario-7 as a document with its UAV-2 rotor changed."""
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-7"])
    doc["aircraft"]["UAV-2"]["rotor"].update(rotor)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [["run", "--step", "60", "--frames", "20"],
                                  ["sweep", "--frames", "2", *_SWEEP]], ids=["run", "sweep"])
@pytest.mark.parametrize("rotor", [{"n_blades": 10 ** 9}, {"rpm": 1e300}],
                         ids=["many-blades", "fast-rotor"])
def test_rotor_over_the_pass_budget_exits_2_and_writes_nothing(tmp_path, capsys, argv, rotor):
    # both asked numpy for a (frames x pulses) grid it could not allocate
    path = _rotor_doc(tmp_path, **rotor)
    assert main([argv[0], "--scenario", path, *argv[1:], "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: rpm:" in err and "blades at" in err
    assert not (tmp_path / "out").exists()
    doc = json.loads(Path(path).read_text())
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as raised:
            parse_catalog(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raised.value.field == "rpm"
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv", [["run", "--step", "60", "--frames", "20"],
                                  ["sweep", "--frames", "2", *_SWEEP]], ids=["run", "sweep"])
@pytest.mark.parametrize("owner, key, value", [
    # a ** 3 of the mean motion overflowed
    pytest.param("constellation", "altitude_km", 1e300, id="far-shell"),
    # 0.006 * rpm underflowed to 0 in rotation_ms, and then NaN reached int()
    *(pytest.param("rotor", "rpm", rpm, id=f"rpm-{rpm!r}") for rpm in (5e-324, 1e-310, 1e-305)),
    # an infinite rain loss, written under a RuntimeWarning
    pytest.param("rain", "rain_profile", 1e300, id="rain-1e300"),
    # both failed later on waypoint_interval_s or points
    pytest.param("loiter", "radius_km", 5e-324, id="subnormal-loiter"),
    pytest.param("loiter", "speed_ms", 1e300, id="fast-loiter"),
])
def test_values_that_crashed_a_run_exit_2_and_write_nothing(tmp_path, capsys, argv, owner, key,
                                                             value):
    doc = serialize_scenario(builtin_catalog().scenarios["scenario-7"])
    scenario = doc["scenarios"][0]
    if owner == "loiter":
        scenario["flight"] = dict(_LOITER)
    owners = {"constellation": doc["constellations"]["LEO-1"],
              "rotor": doc["aircraft"]["UAV-2"]["rotor"], "loiter": scenario["flight"]}
    if owner == "rain":
        scenario["rain_profile"] = [[0, value]]
    else:
        owners[owner][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], "--scenario", str(path), *argv[1:], "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and f"{value!r} is outside" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["run", "--step", "60", "--frames", "20"],
                                  ["sweep", "--frames", "2", *_SWEEP]], ids=["run", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_at_a_file_exits_2_before_any_work_and_writes_nothing(tmp_path, capsys, argv, under):
    # both computed the whole run and then exited 3, "Not a directory"
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "deeper" if under else taken
    with mock.patch.object(cli, "run_scenario", side_effect=AssertionError("work began")), \
            mock.patch.object(cli, "sweep_cnr", side_effect=AssertionError("work began")):
        assert main([argv[0], "--scenario", "scenario-7", *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: out: {taken} is not a directory\n"
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"


def test_negative_cnr_bound_in_scientific_notation_joins_its_flag(tmp_path):
    # "--cnr-min -1e3" is read as an option: argparse's "expected one argument"
    assert main(["sweep", "--scenario", "scenario-19", "--cnr-min=-1e3", "--cnr-max", "20",
                 "--points", "2", "--frames", "2", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "scenario-19" / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["cnr_db", "-1000", "20"]


def test_a_step_longer_than_the_flight_takes_the_first_sample(tmp_path, capsys):
    # scenario-7 flies 7,200 s: at --step 7201 it took no sample and exited
    # 3, "no satellite above 40.0 deg at any sample"
    for step in ("7200", "7201"):
        assert main(["run", "--scenario", "scenario-7", "--step", step, "--frames", "2",
                     "--out", str(tmp_path / step)]) == 0, capsys.readouterr().err
    access = [(tmp_path / step / "scenario-7" / "access.csv").read_bytes()
              for step in ("7200", "7201")]
    assert access[0] == access[1] and access[0].count(b"\r\n") == 2


def test_rotor_at_the_pass_budget_runs(tmp_path, capsys):
    # 4 blades at 150,000 rpm pass exactly MAX_BLADE_PASSES_S times a second
    assert 4 * 150_000 / 60 == blades.MAX_BLADE_PASSES_S
    for rpm, code in ((150_000.0, 0), (math.nextafter(150_000.0, math.inf), 2)):
        assert main(["run", "--scenario", _rotor_doc(tmp_path, n_blades=4, rpm=rpm),
                     "--step", "60", "--frames", "20", "--out", str(tmp_path / str(code))]) == code
    assert (tmp_path / "0" / "scenario-7" / "slots.csv").exists()
    assert not (tmp_path / "2").exists()
    assert "error: rpm:" in capsys.readouterr().err


# === the declared field domains, leaf by leaf ===

# scenario-7 as a document, the tables in it, and the document flying
# the built-in loiter, its duration given
_DOC = serialize_scenario(builtin_catalog().scenarios["scenario-7"])
_TABLES = {"points", "rain_profile"}
_LOITER_DOC = json.loads(json.dumps(_DOC))
_LOITER_DOC["scenarios"][0]["flight"] = dict(
    _LOITER, duration_s=builtin_catalog().scenarios["scenario-7"].duration_s)
# a file key whose field is another one, in other units: the key's value times the factor
_SCALED = {"duration_h": ("duration_s", 3600.0)}
_KEYS = {key for _, _, _, key in domains()}


def _number_leaves(obj, path=()):
    """The path of each number of ``obj``, a list of them counting as one
    and a table's first row giving one a column, and of each null that a
    field with a domain reads."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if key in _TABLES:
            yield from (path + (key, 0, column) for column in range(len(value[0])))
        elif isinstance(value, (bool, str)):
            continue
        elif isinstance(value, dict) or isinstance(value, list) and any(
                isinstance(item, dict) for item in value):
            yield from _number_leaves(value, path + (key,))
        elif value is not None or key in _KEYS:
            yield path + (key,)


def _leaves():
    """(document, path) of each numeric leaf of the two documents: every
    one of _DOC, and the loiter's of _LOITER_DOC."""
    flight = ("scenarios", 0, "flight")
    loiter = _LOITER_DOC["scenarios"][0]["flight"]
    for doc, leaves in ((_DOC, _number_leaves(_DOC)),
                        (_LOITER_DOC, _number_leaves(loiter, flight))):
        for path in leaves:
            name = ".".join(map(str, path if doc is _DOC else ("loiter", *path[len(flight):])))
            yield pytest.param(doc, path, id=name)


def _domain(path):
    """The key a ConfigError on the leaf at ``path`` names, the metadata of
    the domain it lies in, whether it is whole, and its value per unit of
    the field's."""
    if len(path) > 2 and path[-3] in _TABLES:
        table = path[-3]
        column = [meta for _, _, meta, key in domains() if key.startswith(f"{table}.")][path[-1]]
        return table, column, False, 1.0
    name, factor = _SCALED.get(path[-1], (path[-1], 1.0))
    declared = [(meta, get_type_hints(cls)[f.name]) for cls, f, meta, key in domains()
                if key == name]
    # a key two specs share (bandwidth_mhz, duration_s) has one domain
    assert len({meta["domain"] for meta, _ in declared}) == 1, name
    meta, hint = declared[0]
    return name, meta, int in (hint, *getattr(hint, "__args__", ())), factor


def _edges(meta, whole, factor):
    """(value, inside) at each finite bound of the domain: just outside it,
    and at it when it is closed or just inside when it is open."""
    lo, closed_lo, hi, closed_hi = meta["bounds"]

    def step(x, way):   # to the next value the field can hold
        return x + way if whole else math.nextafter(x, way * math.inf)

    for bound, closed, out in ((lo, closed_lo, -1.0), (hi, closed_hi, 1.0)):
        if not math.isinf(bound):
            bound /= factor
            yield (step(bound, out) if closed else bound), False
            yield (bound if closed else step(bound, -out)), True


@pytest.mark.parametrize("base, path", list(_leaves()))
def test_each_leaf_just_outside_its_domain_exits_2_and_at_its_edge_runs(tmp_path, capsys, base,
                                                                        path):
    name, meta, whole, factor = _domain(path)
    edges = list(_edges(meta, whole, factor))
    assert edges, f"{name} has no finite bound"
    for n, (value, inside) in enumerate(edges):
        doc = json.loads(json.dumps(base))
        *parents, key = path
        obj = doc
        for part in parents:
            obj = obj[part]
        # a per-plane list takes the value for every plane
        obj[key] = [value] * len(obj[key]) if isinstance(obj[key], list) else value
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        out = tmp_path / f"out-{n}"
        code = main(["run", "--scenario", str(tmp_path / "scenario.json"), "--step", "300",
                     "--frames", "2", "--out", str(out)])
        err = capsys.readouterr().err
        if not inside:
            assert code == 2 and err.startswith(f"error: {name}: ") and "is outside" in err, err
            assert not out.exists()
        elif code == 3:
            assert "no satellite above" in err, (value, err)
        else:
            # a rule that ties this field to another may still refuse it
            assert code == 0 or code == 2 and "is outside" not in err, (value, err)


# === the run parameters' declared domains, row by row ===

# the flag of each run setting with a declared domain; a sweep's
# access_step_s has none
_FLAGS = {"step_s": "--step", "seed": "--seed", "n_frames": "--frames", "points": "--points",
          "cnr_min_db": "--cnr-min", "cnr_max_db": "--cnr-max"}
_CALLS = {"run_scenario": ["run", "--scenario", "scenario-7", "--step", "300", "--frames", "2"],
          "sweep_cnr": ["sweep", "--scenario", "scenario-7", "--cnr-min", "0", "--cnr-max", "10",
                        "--points", "2", "--frames", "2"]}


def test_each_run_parameter_just_outside_its_domain_exits_2_and_at_its_edge_runs(tmp_path,
                                                                                  capsys):
    rows = run_parameter_domains()
    assert {f.name for _, f, _ in rows} - set(_FLAGS) == {"access_step_s"}
    # an int setting's edges as ints, the text its flag takes
    edges = [(call, f.name, int(value) if f.type == "int" else value, inside)
             for call, f, meta in rows if f.name in _FLAGS
             for value, inside in _edges(meta, f.type == "int", 1.0)]
    # the CNR bounds have no finite bound to stand at
    assert {(call, name) for call, name, _, _ in edges} == {
        ("run_scenario", "step_s"), ("run_scenario", "seed"), ("run_scenario", "n_frames"),
        ("sweep_cnr", "points"), ("sweep_cnr", "n_frames"), ("sweep_cnr", "seed")}
    for n, (call, name, value, inside) in enumerate(edges):
        out = tmp_path / f"out-{n}"
        # a repeated flag takes its last value
        code = main([*_CALLS[call], _FLAGS[name], repr(value), "--out", str(out)])
        err = capsys.readouterr().err
        if inside:
            # a budget may still refuse the value at the edge
            assert code == 0 or code == 2 and err.startswith(f"error: {name}: ") \
                and "the budget of" in err, (call, name, value, err)
        else:
            assert code == 2 and err.startswith(f"error: {name}: {value!r} is outside"), err
            assert not out.exists()
