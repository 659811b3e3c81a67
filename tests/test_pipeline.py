import csv
import json
import math

import numpy as np
import pytest

from rwasim.cli import main
from rwasim.errors import ConfigError
from rwasim.phy import FRAME_MS, Mcs, PhyConfig
from rwasim.pipeline import (
    compare_reports,
    run_scenario,
    sweep_cnr,
    write_outputs,
    write_sweep_csv,
)
from rwasim.scenarios import (
    AircraftSpec,
    ConstellationSpec,
    FlightRoute,
    RfPayloadSpec,
    ScenarioSpec,
    builtin_catalog,
    serialize_scenario,
)

REPORT_KEYS = {
    "scenario_id", "seed", "mode", "step_s", "n_frames", "duration_s",
    "direction", "band", "carrier_ghz", "bandwidth_mhz", "access_percent",
    "handovers", "elevation_deg", "doppler_abs_khz", "loss_db", "cnr_db",
    "cnr_prime_db", "ber", "data_rate_mbps", "slot_loss_fraction",
    "n_slots", "n_erased",
}


def _overhead_geo(gain_over_t=22.0, lon=5.0, threshold=10.0, duration=60.0,
                  **overrides) -> ScenarioSpec:
    """A one-satellite scenario with the terminal almost under the slot.

    The satellite is geosynchronous over ~5 deg E, so a route on the
    equator at that longitude sees it near zenith for the whole (short)
    flight: access is 100 %, there are no handovers, and the link
    barely moves -- a controllable fixture for output-format tests.
    """
    payload = RfPayloadSpec(band="S", antenna_type="patch", beams=1,
                            beam_eirp_dbw=40.0, hpbw_deg=20.0,
                            gain_over_t_dbk=gain_over_t)
    constellation = ConstellationSpec(
        name="GEO-S", altitude_km=35786.0, planes=1, inclinations_deg=(6.0,),
        raans_deg=(20.0,), sats_per_plane=1, pattern="single",
        payloads={"S": payload}, anomaly_offset_deg=-15.0)
    aircraft = AircraftSpec(
        name="testbed", antenna_type="patch", steerable=True, band="S",
        bandwidth_mhz=5.0, beamwidth_deg=(60.0, 60.0), max_gain_dbi=6.0,
        position="main_body", tx_power_dbw=10.0)
    route = FlightRoute(((0.0, 0.0, lon, 100.0),
                         (duration + 60.0, 0.0, lon, 100.0)))
    base = dict(
        id="geo-overhead", aircraft=aircraft, constellation=constellation,
        direction="uplink", band="S", duration_s=duration, route=route,
        phy=PhyConfig(carrier_ghz=2.0, bandwidth_mhz=5.0, scs_khz=15,
                      n_rb=25, mcs=Mcs("QPSK", 0.5)),
        handover_threshold_deg=threshold)
    base.update(overrides)
    return ScenarioSpec(**base)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# === end-to-end runs ===

def test_run_produces_report_and_files(tmp_path):
    result = run_scenario(_overhead_geo(), step_s=5.0, n_frames=20,
                          mode="expected", out_dir=tmp_path)
    rep = result.report
    assert set(rep) == REPORT_KEYS
    assert rep["access_percent"] == 100.0
    assert rep["handovers"] == 0
    assert rep["elevation_deg"]["avg"] == pytest.approx(88.18, abs=0.1)
    assert rep["cnr_db"]["avg"] == pytest.approx(9.98, abs=0.05)
    assert rep["n_slots"] == 20 * 10      # 15 kHz grid: 10 slots per frame
    assert rep["n_erased"] == 0
    assert rep["data_rate_mbps"] == pytest.approx(4.2)
    target = tmp_path / "geo-overhead"
    for name in ("access.csv", "link.csv", "slots.csv", "report.json"):
        assert (target / name).exists()
    assert not (target / "blades.csv").exists()   # no rotor on this airframe


def test_report_json_matches_in_memory_report(tmp_path):
    result = run_scenario(_overhead_geo(), step_s=5.0, n_frames=10,
                          mode="expected", out_dir=tmp_path)
    on_disk = json.loads((tmp_path / "geo-overhead" / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(result.report))


def test_report_recomputable_from_csvs(tmp_path):
    run_scenario(_overhead_geo(), step_s=5.0, n_frames=20, mode="mc",
                 seed=3, out_dir=tmp_path)
    target = tmp_path / "geo-overhead"
    rep = json.loads((target / "report.json").read_text())
    access = _read_csv(target / "access.csv")
    link = _read_csv(target / "link.csv")
    slots = _read_csv(target / "slots.csv")

    served = [int(r["sat_id"]) >= 0 for r in access]
    assert rep["access_percent"] == pytest.approx(
        100.0 * sum(served) / len(served))
    ids = [int(r["sat_id"]) for r, s in zip(access, served) if s]
    assert rep["handovers"] == sum(a != b for a, b in zip(ids, ids[1:]))

    els = [float(r["elevation_deg"]) for r, s in zip(access, served) if s]
    assert rep["elevation_deg"]["avg"] == pytest.approx(np.mean(els), rel=1e-9)
    assert rep["elevation_deg"]["min"] == pytest.approx(np.min(els), rel=1e-9)
    dops = [abs(float(r["doppler_khz"])) for r, s in zip(access, served) if s]
    assert rep["doppler_abs_khz"]["max"] == pytest.approx(np.max(dops), rel=1e-9)

    losses = [float(r["total_db"]) for r, s in zip(link, served) if s]
    cnrs = [float(r["cnr_db"]) for r, s in zip(link, served) if s]
    assert rep["loss_db"]["avg"] == pytest.approx(np.mean(losses), rel=1e-9)
    assert rep["cnr_db"]["avg"] == pytest.approx(np.mean(cnrs), rel=1e-9)

    bits = sum(float(r["payload_bits"]) for r in slots)
    errors = sum(float(r["bit_errors"]) for r in slots)
    erased = sum(int(r["erased"]) for r in slots)
    assert rep["n_slots"] == len(slots)
    assert rep["n_erased"] == erased
    assert rep["ber"] == pytest.approx(errors / bits, rel=1e-9)
    assert rep["slot_loss_fraction"] == pytest.approx(erased / len(slots))
    decoded_bits = sum(float(r["payload_bits"]) for r in slots
                       if not int(r["erased"]) and float(r["bit_errors"]) == 0)
    assert rep["data_rate_mbps"] == pytest.approx(
        decoded_bits / (rep["n_frames"] * FRAME_MS) / 1000.0, rel=1e-9)


def test_same_seed_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        run_scenario(_overhead_geo(gain_over_t=12.0), step_s=5.0, n_frames=20,
                     mode="mc", seed=11, out_dir=tmp_path / sub)
    for name in ("access.csv", "link.csv", "slots.csv", "report.json"):
        a = (tmp_path / "a" / "geo-overhead" / name).read_bytes()
        b = (tmp_path / "b" / "geo-overhead" / name).read_bytes()
        assert a == b, name


def test_seed_changes_monte_carlo_draws():
    mid = _overhead_geo(gain_over_t=12.0)   # CNR ~0 dB: plenty of bit errors
    r0 = run_scenario(mid, step_s=5.0, n_frames=20, mode="mc", seed=0)
    r1 = run_scenario(mid, step_s=5.0, n_frames=20, mode="mc", seed=1)
    assert not np.array_equal(r0.slots.bit_errors, r1.slots.bit_errors)
    assert r0.report["ber"] == pytest.approx(r1.report["ber"], rel=0.2)


def test_cnr_prime_rescales_by_bandwidth_ratio():
    result = run_scenario(_overhead_geo(cnr_prime_bandwidth_mhz=1.0),
                          step_s=5.0, n_frames=5, mode="expected")
    rep = result.report
    assert rep["cnr_prime_db"]["avg"] - rep["cnr_db"]["avg"] == pytest.approx(
        10.0 * math.log10(5.0 / 1.0), rel=1e-9)


def test_run_without_visible_satellite_raises():
    # same orbit, but the aircraft sits on the far side of the planet
    with pytest.raises(RuntimeError, match="no satellite"):
        run_scenario(_overhead_geo(lon=180.0), step_s=5.0, n_frames=5)


def test_zero_frames_still_reports_geometry():
    rep = run_scenario(_overhead_geo(), step_s=5.0, n_frames=0).report
    assert rep["n_slots"] == 0
    assert rep["ber"] == 0.0
    assert rep["access_percent"] == 100.0


def test_rotorcraft_run_writes_blade_table(tmp_path):
    spec = builtin_catalog().scenarios["scenario-15b"]
    result = run_scenario(spec, step_s=60.0, n_frames=10, mode="expected",
                          out_dir=tmp_path)
    assert result.blade_rows, "rotor aircraft must produce schedule segments"
    rows = _read_csv(tmp_path / "scenario-15b" / "blades.csv")
    assert list(rows[0]) == ["elevation_deg", "d_rotor_m", "phi_deg",
                             "t_int_ms", "t_lnk_ms", "duty_cycle"]
    for row in rows:
        blocked = float(row["t_int_ms"])
        clear = float(row["t_lnk_ms"])
        assert blocked > 0.0
        assert float(row["duty_cycle"]) == pytest.approx(
            blocked / (blocked + clear), rel=1e-9)
    assert result.report["n_erased"] > 0


def test_write_outputs_returns_scenario_directory(tmp_path):
    result = run_scenario(_overhead_geo(), step_s=10.0, n_frames=2,
                          mode="expected")
    target = write_outputs(result, tmp_path)
    assert target == tmp_path / "geo-overhead"


# === CNR sweep ===

def test_sweep_waterfall_shape():
    rows = sweep_cnr(_overhead_geo(), -5.0, 15.0, 3, n_frames=5,
                     mode="expected")
    assert [r[0] for r in rows] == [-5.0, 5.0, 15.0]
    bers = [r[1] for r in rows]
    rates = [r[2] for r in rows]
    assert bers[0] > bers[1] > bers[2]
    assert bers[2] < 1e-9                      # clean link decodes everything
    assert rates[0] < 1e-9                     # nothing decodes at -5 dB
    assert rates[2] == pytest.approx(4.2)


def test_sweep_blade_erasures_floor_the_ber():
    spec = builtin_catalog().scenarios["scenario-15b"]
    ((_, ber, _),) = sweep_cnr(spec, 30.0, 30.0, 1, n_frames=5,
                               mode="expected")
    assert 0.01 < ber < 0.5     # erased slots keep the BER up at high CNR


def test_sweep_validation():
    with pytest.raises(ConfigError):
        sweep_cnr(_overhead_geo(), 0.0, 10.0, 0)
    with pytest.raises(ConfigError):
        sweep_cnr(_overhead_geo(), 10.0, 0.0, 5)


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv([(0.0, 0.25, 1.5), (10.0, 0.0, 4.2)], path)
    rows = _read_csv(path)
    assert list(rows[0]) == ["cnr_db", "ber", "data_rate_mbps"]
    assert float(rows[1]["data_rate_mbps"]) == 4.2


# === report comparison ===

def _flatten(diff, prefix=""):
    for key, value in diff.items():
        if isinstance(value, dict) and not {"a", "b"} == set(value):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def test_compare_identical_reports_is_all_zero():
    rep = run_scenario(_overhead_geo(), step_s=10.0, n_frames=5,
                       mode="expected").report
    diff = compare_reports(rep, json.loads(json.dumps(rep)))
    for key, value in _flatten(diff):
        assert value == 0, key


def test_compare_shows_numeric_deltas_and_value_pairs():
    rep = run_scenario(_overhead_geo(), step_s=10.0, n_frames=5,
                       mode="expected").report
    other = json.loads(json.dumps(rep))
    other["cnr_db"]["avg"] += 2.0
    other["band"] = "Ka"
    diff = compare_reports(rep, other)
    assert diff["cnr_db"]["avg"] == pytest.approx(2.0)
    assert diff["band"] == {"a": "S", "b": "Ka"}


def test_compare_rejects_schema_mismatch():
    rep = run_scenario(_overhead_geo(), step_s=10.0, n_frames=5,
                       mode="expected").report
    other = json.loads(json.dumps(rep))
    del other["ber"]
    with pytest.raises(ConfigError, match="schema"):
        compare_reports(rep, other)


# === command line ===

def _scenario_file(tmp_path, spec) -> str:
    path = tmp_path / f"{spec.id}.json"
    path.write_text(json.dumps(serialize_scenario(spec)))
    return str(path)


def test_cli_catalog_lists_builtins(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for sid in ("scenario-6", "scenario-7", "scenario-11",
                "scenario-15a", "scenario-15b", "scenario-19"):
        assert sid in out


def test_cli_run_from_file(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo())
    code = main(["run", "--scenario", token, "--step", "5", "--frames", "10",
                 "--mode", "expected", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "geo-overhead" / "report.json").exists()
    assert "access 100.0%" in capsys.readouterr().out


def test_cli_unknown_scenario_is_config_error(capsys):
    assert main(["run", "--scenario", "scenario-99"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_scenario_file_is_config_error(tmp_path, capsys):
    doc = serialize_scenario(_overhead_geo())
    doc["scenarios"][0]["band"] = "Ka"       # antenna is S band: must fail
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 2


def test_cli_runtime_failure_is_exit_3(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo(lon=180.0))
    assert main(["run", "--scenario", token, "--step", "10",
                 "--out", str(tmp_path / "out")]) == 3
    assert "runtime error" in capsys.readouterr().err


def test_cli_sweep_writes_csv(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo())
    code = main(["sweep", "--scenario", token, "--cnr-min", "0",
                 "--cnr-max", "10", "--points", "2", "--frames", "5",
                 "--mode", "expected", "--out", str(tmp_path / "out")])
    assert code == 0
    rows = _read_csv(tmp_path / "out" / "geo-overhead" / "sweep.csv")
    assert len(rows) == 2
    assert list(rows[0]) == ["cnr_db", "ber", "data_rate_mbps"]


def test_cli_compare_roundtrip(tmp_path, capsys):
    token = _scenario_file(tmp_path, _overhead_geo())
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["run", "--scenario", token, "--step", "5", "--frames",
                     "5", "--mode", "expected", "--out", out]) == 0
    capsys.readouterr()
    report = "geo-overhead/report.json"
    assert main(["compare", f"{out_a}/{report}", f"{out_b}/{report}"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["ber"] == 0
    assert diff["cnr_db"]["avg"] == 0


def test_cli_compare_missing_file(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "no.json"),
                 str(tmp_path / "pe.json")]) == 2
