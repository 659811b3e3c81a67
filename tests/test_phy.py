import dataclasses
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blade_intervals import blocked_intervals
from output_columns import slot_columns
from rwasim import phy as phy_module
from rwasim.blades import BladeGeometry, BladeSchedule, RotorSpec, build_schedule, slot_blocked_ms
from rwasim.errors import ConfigError
from rwasim.phy import (
    FRAME_MS,
    MC_STREAM_TAG,
    MODULATION_ORDER,
    Mcs,
    NTN_BANDS,
    NUMEROLOGIES,
    PhyConfig,
    SlotTable,
    aggregate,
    awgn_ber,
    erased_slots,
    numerology_for,
    q_function,
    simulate_frames,
    sweep_stats,
    transport_block_size,
    uncoded_ber,
    validate_channel,
)
from rwasim.scenarios import builtin_catalog

QPSK_HALF = Mcs("QPSK", 0.5)


def _phy(**kw):
    base = dict(carrier_ghz=2.0, bandwidth_mhz=30.0, scs_khz=30, n_rb=78,
                mcs=QPSK_HALF, ntn_band="n256")
    base.update(kw)
    return PhyConfig(**base)


def _blocked(sched, n_frames, phy=None):
    # back-to-back frames on a rotor clock that starts with the first frame
    num = (phy or _phy()).numerology
    return slot_blocked_ms(sched, np.arange(n_frames) * FRAME_MS, num.slot_ms,
                           num.slots_per_frame)


# --- frame structure ---

def test_numerology_rows():
    n30 = numerology_for(30)
    assert n30.slots_per_frame == 20
    assert n30.slot_ms == 0.5
    assert n30.rb_range == (11, 78)
    assert n30.bandwidth_range_mhz == (5.0, 30.0)
    n120 = numerology_for(120)
    assert n120.slots_per_frame == 80
    assert n120.slot_ms == 0.125


def test_numerology_frame_product_exact():
    for num in NUMEROLOGIES.values():
        assert num.slots_per_frame * num.slot_ms == 10.0


def test_numerology_unknown_scs():
    with pytest.raises(ConfigError):
        numerology_for(45)


# --- bands ---

def test_band_table_shape():
    assert sorted(NTN_BANDS) == ["n254", "n255", "n256", "n510", "n511", "n512"]
    assert NTN_BANDS["n256"].uplink_ghz == (1.98, 2.01)
    assert NTN_BANDS["n510"].uplink_ghz == (27.50, 28.35)
    assert all(NTN_BANDS[b].frequency_range == "FR1" for b in ("n254", "n255", "n256"))
    assert all(NTN_BANDS[b].frequency_range == "FR2" for b in ("n510", "n511", "n512"))


def test_validate_channel_examples():
    validate_channel(_phy(), "uplink")  # n256 / 2.0 GHz / 30 MHz / 30 kHz
    validate_channel(
        _phy(carrier_ghz=28.0, bandwidth_mhz=400.0, scs_khz=120, n_rb=264,
             ntn_band="n510"),
        "uplink")
    with pytest.raises(ConfigError):  # n254 uplink tops out at 1.63 GHz
        validate_channel(_phy(ntn_band="n254"), "uplink")


def test_validate_channel_band_edges():
    # every band accepts its exact boundary carriers and rejects just outside
    for band in NTN_BANDS.values():
        for direction, (lo, hi) in (("uplink", band.uplink_ghz),
                                    ("downlink", band.downlink_ghz)):
            bw = band.bandwidths_mhz[-1]
            scs = max(scs for scs, num in NUMEROLOGIES.items()
                      if num.bandwidth_range_mhz[0] <= bw <= num.bandwidth_range_mhz[1])
            rb = NUMEROLOGIES[scs].rb_range[1]
            for carrier in (lo, hi):
                validate_channel(
                    PhyConfig(carrier, bw, scs, rb, QPSK_HALF, band.name),
                    direction)
            for carrier in (lo - 1e-6, hi + 1e-6):
                with pytest.raises(ConfigError):
                    validate_channel(
                        PhyConfig(carrier, bw, scs, rb, QPSK_HALF, band.name),
                        direction)


def test_validate_channel_numerology_limits():
    with pytest.raises(ConfigError):
        validate_channel(_phy(n_rb=100), "uplink")        # > 78 RB at 30 kHz
    with pytest.raises(ConfigError):
        validate_channel(_phy(bandwidth_mhz=40.0), "uplink")
    with pytest.raises(ConfigError):
        validate_channel(_phy(), "sideways")


def test_validate_channel_without_band():
    # no NTN band: only the numerology constraints apply
    validate_channel(_phy(carrier_ghz=30.0, ntn_band=None), "uplink")
    with pytest.raises(ConfigError):
        validate_channel(_phy(carrier_ghz=30.0, ntn_band=None, n_rb=100), "uplink")


def test_validate_channel_names_what_the_band_does_not_offer():
    # 25 MHz fits the 30 kHz grid but is no n256 channel
    with pytest.raises(ConfigError) as err:
        validate_channel(_phy(bandwidth_mhz=25.0), "uplink")
    assert err.value.field == "bandwidth_mhz"


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_validate_channel_takes_every_spacing_that_holds_a_band_channel(direction):
    # a band offers every spacing whose bandwidth range holds the channel:
    # a (band, spacing, channel) is rejected only for its bandwidth, and
    # taken at any in-range n_rb and carrier otherwise
    for band in NTN_BANDS.values():
        carriers = band.uplink_ghz if direction == "uplink" else band.downlink_ghz
        for scs, num in NUMEROLOGIES.items():
            lo, hi = num.bandwidth_range_mhz
            for bw in band.bandwidths_mhz:
                for carrier, n_rb in zip(carriers, num.rb_range):
                    phy = PhyConfig(carrier, bw, scs, n_rb, QPSK_HALF, band.name)
                    if lo <= bw <= hi:
                        validate_channel(phy, direction)
                        continue
                    with pytest.raises(ConfigError) as err:
                        validate_channel(phy, direction)
                    assert err.value.field == "bandwidth_mhz"


def test_validate_channel_unknown_band():
    with pytest.raises(ConfigError):
        validate_channel(_phy(ntn_band="n999"), "uplink")


# --- transport blocks ---

def test_tbs_oracle():
    assert transport_block_size(25, QPSK_HALF) == 4200
    assert transport_block_size(25, QPSK_HALF, overhead=1.0) == 0


def test_tbs_linearity():
    assert transport_block_size(50, QPSK_HALF) == 2 * transport_block_size(25, QPSK_HALF)


def test_tbs_validation():
    with pytest.raises(ValueError):
        transport_block_size(0, QPSK_HALF)
    with pytest.raises(ValueError):
        transport_block_size(25, QPSK_HALF, overhead=1.5)


def test_mcs_validation():
    with pytest.raises(ConfigError):
        Mcs("8PSK", 0.5)
    with pytest.raises(ConfigError):
        Mcs("QPSK", 0.0)
    with pytest.raises(ConfigError):
        Mcs("QPSK", 0.5, coding_gain_db=-1.0)


# --- error rates ---

def test_qpsk_ber_oracle():
    # frozen Simpson-integral oracle for Q(sqrt(2 * 10^0.96))
    ber = float(uncoded_ber("QPSK", 9.6))
    assert ber == pytest.approx(9.7362e-6, rel=1e-3)
    assert 1e-5 / 1.3 < ber < 1e-5 * 1.3


def test_ber_asymptotes():
    assert float(uncoded_ber("QPSK", 60.0)) == 0.0
    # deep in the noise QPSK approaches a coin flip
    assert float(uncoded_ber("QPSK", -40.0)) == pytest.approx(0.5, abs=0.01)
    assert 0.0 < float(uncoded_ber("64QAM", -40.0)) <= 0.5


def test_coded_ber_is_shifted_uncoded():
    mcs = Mcs("QPSK", 1.0, coding_gain_db=6.0)
    # rate-1 QPSK carries 2 info bits/symbol: Eb/N0 = Es/N0 - 3.01 dB
    es = 8.0
    eb = es - 10.0 * math.log10(2.0)
    assert float(awgn_ber(mcs, es)) == pytest.approx(
        float(uncoded_ber("QPSK", eb + 6.0)), rel=1e-12)
    assert float(awgn_ber(dataclasses.replace(mcs, coding_gain_db=0.0), es)) == pytest.approx(
        float(uncoded_ber("QPSK", eb)), rel=1e-12)


@given(es=st.floats(-5.0, 30.0))
def test_higher_order_worse_at_equal_es(es):
    qpsk = float(awgn_ber(Mcs("QPSK", 1.0, 0.0), es))
    qam16 = float(awgn_ber(Mcs("16QAM", 1.0, 0.0), es))
    assert qam16 >= qpsk - 1e-15


def test_q_function_basics():
    assert float(q_function(0.0)) == pytest.approx(0.5)
    assert float(q_function(3.0)) == pytest.approx(0.00134990, rel=1e-4)


@pytest.mark.parametrize("x, q", [
    (0.0, 0.5),
    (1.0, 0.158655253931457051),
    (3.0, 1.34989803163009453e-3),
    (5.0, 2.86651571879193912e-7),
])
def test_q_function_high_precision(x, q):
    assert float(q_function(x)) == pytest.approx(q, rel=1e-14, abs=0.0)


def test_q_function_edges():
    assert float(q_function(math.inf)) == 0.0
    assert float(q_function(-math.inf)) == 1.0
    assert math.isnan(float(q_function(math.nan)))
    # repeated values, NaNs among them, each get their own result
    x = np.array([math.nan, 1.0, -math.inf, 1.0, math.nan, math.inf, 0.0, -0.0])
    assert np.array_equal(q_function(x), [float(q_function(v)) for v in x], equal_nan=True)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (0,), (2, 0)])
def test_q_function_keeps_input_shape(shape):
    x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape).round(1)
    q = q_function(x)
    assert np.shape(q) == shape
    assert np.array_equal(np.ravel(q), [float(q_function(float(v))) for v in x.ravel()])


def test_import_leaves_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rwasim.cli; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# --- frame simulation ---

def test_clear_slots_at_high_cnr():
    slots = simulate_frames(_phy(), 300.0, 2, mode="mc", seed=1)
    assert len(slots) == 40
    assert not slots.erased.any() and not slots.bit_errors.any() and slots.decoded.all()


def test_montecarlo_matches_analytic_ber():
    # ~1e6 bits per modulation; empirical BER within 3 binomial sigma
    for modulation, cnr_db in (("QPSK", 6.8), ("16QAM", 12.0), ("64QAM", 16.0)):
        mcs = Mcs(modulation, 1.0, coding_gain_db=0.0)
        phy = PhyConfig(2.0, 30.0, 30, 78, mcs, None)
        payload = transport_block_size(78, mcs)
        n_frames = max(1, math.ceil(1e6 / (payload * 20)))
        slots = simulate_frames(phy, cnr_db, n_frames, mode="mc", seed=7)
        n_bits = int(slots.payload_bits.sum())
        assert n_bits >= 1e6
        p = float(awgn_ber(mcs, cnr_db))
        errors = int(slots.bit_errors.sum())
        sigma = math.sqrt(n_bits * p * (1.0 - p))
        assert abs(errors - n_bits * p) < 3.0 * sigma, modulation


def test_erasure_pattern_3_28():
    # 1.6 ms blocked / 13.9 ms clear against 0.5 ms slots: bursts of ~3
    # erasures separated by ~28 clear slots
    rpm = 360.0 / (0.006 * 3 * 15.5)
    rotor = RotorSpec(3, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 1.6 * rotor.rate_deg_per_ms))
    phy = _phy()
    slots = simulate_frames(phy, 40.0, 100, _blocked(sched, 100, phy), mode="expected")
    flags = slots.erased.tolist()

    runs = []  # (value, length) run-length encoding
    for flag in flags:
        if runs and runs[-1][0] == flag:
            runs[-1][1] += 1
        else:
            runs.append([flag, 1])
    interior = runs[1:-1]  # edge runs are truncated by the window
    assert all(2 <= n <= 4 for v, n in interior if v)
    assert all(27 <= n <= 29 for v, n in interior if not v)

    stats = aggregate(slots, 100 * FRAME_MS, mode="expected")
    assert 0.08 <= stats.slot_loss_fraction <= 0.12
    assert 0.08 <= stats.ber <= 0.12  # high CNR: erasures dominate


def test_full_blockage_erases_everything():
    rotor = RotorSpec(4, 0.5, 400, 0.5, 0.5, 5.2)
    sched = build_schedule(rotor, BladeGeometry(0.05, 90.0))  # arcs touch
    slots = simulate_frames(_phy(), 40.0, 3, _blocked(sched, 3), mode="expected")
    assert slots.erased.all()
    stats = aggregate(slots, 3 * FRAME_MS, mode="expected")
    assert stats.ber == 1.0
    assert stats.slot_loss_fraction == 1.0


def test_erase_threshold_zero_any_overlap():
    # a blockage covering 40% of one slot: the majority rule keeps the slot
    rpm = 360.0 / (0.006 * 1 * 100.0)  # single blade, 100 ms period
    rotor = RotorSpec(1, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 0.2 * rotor.rate_deg_per_ms))
    blocked = _blocked(sched, 1)
    assert 0.0 < blocked[0, 0] < 0.5 * _phy().numerology.slot_ms
    majority = simulate_frames(_phy(), 40.0, 1, blocked, mode="expected")
    assert not majority.erased.any()


def test_slot_loss_converges_to_duty_cycle():
    # slot-aligned schedule: 2 ms blocked / 14 ms clear = 16 ms period
    rpm = 360.0 / (0.006 * 2 * 16.0)
    rotor = RotorSpec(2, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 2.0 * rotor.rate_deg_per_ms))
    slots = simulate_frames(_phy(), 40.0, 40, _blocked(sched, 40), mode="expected")
    stats = aggregate(slots, 40 * FRAME_MS, mode="expected")
    assert abs(stats.slot_loss_fraction - sched.duty_cycle) <= 1.0 / len(slots)


def test_rotor_clock_spans_frames():
    # 16 ms blade period vs 10 ms frames: the second frame starts 10 ms
    # into the rotor period, so its blockage lands at 6 ms, not at 0
    rpm = 360.0 / (0.006 * 2 * 16.0)
    rotor = RotorSpec(2, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 2.0 * rotor.rate_deg_per_ms))
    slots = simulate_frames(_phy(), 40.0, 2, _blocked(sched, 2), mode="expected")
    erased_t = slot_columns(slots)["t_start_ms"][slots.erased]
    assert erased_t == pytest.approx([0.0, 0.5, 1.0, 1.5, 16.0, 16.5, 17.0, 17.5])


def test_simulation_deterministic_per_seed():
    phy = _phy()
    a = simulate_frames(phy, 0.0, 4, mode="mc", seed=42)
    b = simulate_frames(phy, 0.0, 4, mode="mc", seed=42)
    assert np.array_equal(a.bit_errors, b.bit_errors)
    c = simulate_frames(phy, 0.0, 4, mode="mc", seed=43)
    assert not np.array_equal(a.bit_errors, c.bit_errors)


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_seed_per_run_equals_one_call_per_run(mode):
    # a sweep's point j equals one simulate_frames and aggregate call of
    # its frames with the single seed seed + j; the seeds cross 2**63 and
    # must not wrap
    phy = _phy()
    sched = build_schedule(RotorSpec(3, 0.5, 1280.0, 0.5, 0.5, 5.2), BladeGeometry(1.0, 20.0))
    n_frames, seed = 3, 2**63 - 2
    grid = np.linspace(-3.0, 1.0, 4)  # every point draws bit errors
    blocked = _blocked(sched, n_frames)
    erased = erased_slots(blocked, phy.numerology)
    assert erased.any() and not erased.all()
    got = sweep_stats(phy, grid, erased, n_frames * FRAME_MS, mode=mode, seed=seed)
    want = []
    for j, cnr in enumerate(grid.tolist()):
        # the CNR per frame, as the sweep's grid: a scalar takes numpy's
        # scalar power, which can differ in the last bit
        slots = simulate_frames(phy, np.full(n_frames, cnr), n_frames, blocked, mode=mode,
                                seed=seed + j)
        assert slots.bit_errors[~slots.erased].any()
        stats = aggregate(slots, n_frames * FRAME_MS, mode=mode)
        want.append((stats.ber, stats.data_rate_mbps))
    assert got == want
    if mode == "mc":  # a seed past 2**64 is not taken modulo 2**64
        wrapped = simulate_frames(phy, grid[0], n_frames, blocked, mode=mode, seed=3)
        assert not np.array_equal(wrapped.bit_errors, simulate_frames(
            phy, grid[0], n_frames, blocked, mode=mode, seed=2**64 + 3).bit_errors)


def test_blocked_ms_must_be_frames_by_slots():
    phy = _phy()  # 20 slots per frame
    simulate_frames(phy, 40.0, 3, np.zeros((3, 20)))
    for shape in [(3, 19), (3, 21), (2, 20), (4, 20), (60,), (3, 20, 1), ()]:
        with pytest.raises(ValueError, match="blocked_ms"):
            simulate_frames(phy, 40.0, 3, np.zeros(shape))


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_erased_flags_give_the_table_of_their_blocked_times(mode):
    # a run passes its erased flags, the acceptance test blocked times:
    # flags thresholded from blocked times give the same table
    rpm = 360.0 / (0.006 * 2 * 16.0)
    rotor = RotorSpec(2, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 2.0 * rotor.rate_deg_per_ms))
    phy = _phy()  # 20 slots per frame
    blocked = _blocked(sched, 30)
    flags = erased_slots(blocked, phy.numerology)
    assert flags.any() and not flags.all()
    cnr = np.linspace(0.0, 8.0, 30)
    want = simulate_frames(phy, cnr, 30, blocked, mode=mode, seed=5)
    got = simulate_frames(phy, cnr, 30, mode=mode, seed=5, erased=flags)
    for col in ("erased", "cnr_db", "ber", "decode_prob", "bit_errors", "decoded"):
        assert np.array_equal(getattr(got, col), getattr(want, col)), col
    with pytest.raises(ValueError, match="not both"):
        simulate_frames(phy, cnr, 30, blocked, mode=mode, erased=flags)
    for shape in [(599,), (601,), (30, 20), ()]:
        with pytest.raises(ValueError, match="erased"):
            simulate_frames(phy, cnr, 30, mode=mode, erased=np.zeros(shape, dtype=bool))


def test_per_frame_cnr_array():
    phy = _phy()
    slots = simulate_frames(phy, np.array([300.0, -20.0]), 2, mode="expected")
    first, second = slots.bit_errors[:20], slots.bit_errors[20:]
    assert np.all(first == 0)
    assert np.all(second > 0)
    for cnr in (np.arange(3.0), np.zeros(40)):  # not per frame; 40 is per slot
        with pytest.raises(ValueError, match="cnr_db"):
            simulate_frames(phy, cnr, 2)


@settings(max_examples=40, deadline=None)
@given(modulation=st.sampled_from(sorted(MODULATION_ORDER)),
       code_rate=st.floats(0.05, 1.0),
       cnrs=st.lists(st.floats(-5.0, 20.0), min_size=1, max_size=30))
# here numpy's scalar power and its array loop differ in the last bit
@example(modulation="16QAM", code_rate=0.5, cnrs=[3.5])
@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_cnr_input_forms_agree(mode, modulation, code_rate, cnrs):
    # a scalar CNR gives, to the last bit, what the same CNR gives as an
    # element of a long array, and a run of it what a per-frame array gives
    phy = _phy(mcs=Mcs(modulation, code_rate))  # 20 slots per frame
    spf = phy.numerology.slots_per_frame
    blocked = np.zeros((6, spf))
    blocked[2, 5:9] = phy.numerology.slot_ms  # some erased slots
    long = simulate_frames(phy, np.array(cnrs), len(cnrs), mode=mode, seed=3)
    assert np.array_equal(awgn_ber(phy.mcs, np.array(cnrs)), long.frame_ber)
    for k, cnr in enumerate(cnrs):
        assert awgn_ber(phy.mcs, cnr) == long.frame_ber[k]
        scalar = simulate_frames(phy, cnr, 6, blocked, mode=mode, seed=3)
        assert scalar.frame_decode_prob[0] == long.frame_decode_prob[k]
        per_frame = simulate_frames(phy, np.full(6, cnr), 6, blocked, mode=mode, seed=3)
        for col in ("cnr_db", "ber", "decode_prob", "bit_errors", "decoded"):
            assert np.array_equal(getattr(per_frame, col), getattr(scalar, col)), col

    # distinct CNRs per frame, some repeated: every slot's columns follow
    # from awgn_ber over the returned cnr_db column, slot by slot
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)
    cnr = np.array([3.0, 7.5, 3.0, -1.0, 7.5, 3.0])
    slots = simulate_frames(phy, cnr, 6, blocked, mode=mode, seed=3)
    assert np.array_equal(slots.cnr_db, np.repeat(cnr, spf))
    clear = ~slots.erased
    ref = awgn_ber(phy.mcs, slots.cnr_db)
    assert np.array_equal(slots.ber[clear], ref[clear])
    assert np.array_equal(slots.decode_prob[clear], (1.0 - ref[clear]) ** payload)
    if mode == "expected":
        assert np.array_equal(slots.bit_errors[clear], np.round(ref[clear] * payload))
    else:
        rng = np.random.default_rng(np.random.SeedSequence((3, MC_STREAM_TAG)))
        assert np.array_equal(slots.bit_errors[clear], rng.binomial(payload, ref[clear]))


def test_expected_mode_is_deterministic():
    phy = _phy()
    a = simulate_frames(phy, 3.0, 5, mode="expected")
    b = simulate_frames(phy, 3.0, 5, mode="expected")
    assert np.array_equal(a.bit_errors, b.bit_errors)
    assert np.array_equal(a.decode_prob, b.decode_prob)


def test_expected_matches_mc_on_average():
    # about 10,000 expected bit errors, so binomial noise is 1 % relative
    # and the 5 % bound sits near 5 sigma
    phy = _phy()
    n_frames = 10_000
    exp = aggregate(simulate_frames(phy, 4.0, n_frames, mode="expected"),
                    n_frames * FRAME_MS, mode="expected")
    mc = aggregate(simulate_frames(phy, 4.0, n_frames, mode="mc", seed=3),
                   n_frames * FRAME_MS, mode="mc")
    assert mc.ber == pytest.approx(exp.ber, rel=0.05)


def test_aggregate_ber_monotone_in_cnr():
    phy = _phy()
    bers = []
    for cnr in (-5.0, 0.0, 5.0, 10.0, 15.0):
        stats = aggregate(simulate_frames(phy, cnr, 2, mode="expected"),
                          2 * FRAME_MS, mode="expected")
        bers.append(stats.ber)
    assert all(a >= b for a, b in zip(bers, bers[1:]))


def _reference_slots(phy, cnr_frames, schedules, offsets, mode, seed):
    """(erased, bit_errors) per slot, walking each frame's blade intervals.

    In "mc" mode every clear slot draws one scalar, in slot order, from
    the run's single stream.
    """
    num = phy.numerology
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)
    rng = np.random.default_rng(np.random.SeedSequence((seed, MC_STREAM_TAG)))
    erased, errors = [], []
    for f, sched in enumerate(schedules):
        blocked = [0.0] * num.slots_per_frame
        if sched is not None:
            phase = offsets[f] % sched.period_ms
            for start, stop in blocked_intervals(sched, FRAME_MS, phase):
                last = min(math.ceil(stop / num.slot_ms), num.slots_per_frame)
                for s in range(int(start / num.slot_ms), last):
                    lo = s * num.slot_ms
                    blocked[s] += min(stop, lo + num.slot_ms) - max(start, lo)
        p = float(awgn_ber(phy.mcs, cnr_frames[f]))
        for b in blocked:
            gone = b >= 0.5 * num.slot_ms  # majority rule
            erased.append(gone)
            if gone:
                errors.append(payload)
            elif mode == "mc":
                errors.append(int(rng.binomial(payload, p)))
            else:
                errors.append(int(round(p * payload)))
    return erased, errors


NO_ROTOR = BladeSchedule(1, 0.0, 1.0, 1.0)


@st.composite
def _slot_cases(draw):
    scs = draw(st.sampled_from(sorted(NUMEROLOGIES)))
    slot_ms = NUMEROLOGIES[scs].slot_ms
    phy = PhyConfig(2.0, 30.0, scs, draw(st.integers(1, 25)),
                    Mcs(draw(st.sampled_from(["QPSK", "16QAM"])), 0.5))
    n_frames = draw(st.integers(1, 6))
    # on a half-slot grid the arithmetic is exact, so blade edges fall on
    # slot boundaries and slots are blocked for exactly the threshold
    aligned = draw(st.booleans())
    grid = slot_ms / 2.0
    pool = [None]
    for _ in range(draw(st.integers(1, 3))):
        n_blades = draw(st.integers(1, 5))
        if aligned:
            units = draw(st.integers(1, 400))
            period = units * grid
            blocked = draw(st.integers(0, units)) * grid
        else:
            period = draw(st.floats(0.3, 200.0))
            blocked = period * draw(st.floats(0.0, 1.0))
        pool.append(BladeSchedule(n_blades, blocked, period - blocked, n_blades * period))
    schedules = [draw(st.sampled_from(pool)) for _ in range(n_frames)]
    if aligned:
        offsets = [draw(st.integers(0, 10**5)) * grid for _ in range(n_frames)]
    else:
        offsets = [draw(st.floats(0.0, 1e5)) for _ in range(n_frames)]
    return dict(
        phy=phy, schedules=schedules, offsets=offsets,
        cnr_frames=[draw(st.floats(-5.0, 15.0)) for _ in range(n_frames)],
        mode=draw(st.sampled_from(["mc", "expected"])),
        seed=draw(st.integers(0, 2**32)))


@settings(max_examples=150, deadline=None)
@given(case=_slot_cases())
def test_slot_table_matches_per_frame_reference(case):
    phy = case["phy"]
    num = phy.numerology
    n_frames = len(case["schedules"])
    # one columnar schedule with an entry per frame; frames without a rotor block 0 ms
    frames = [NO_ROTOR if s is None else s for s in case["schedules"]]
    columnar = BladeSchedule(*(np.array([getattr(s, f.name) for s in frames])
                               for f in dataclasses.fields(BladeSchedule)))
    blocked = slot_blocked_ms(columnar, case["offsets"], num.slot_ms, num.slots_per_frame)
    slots = simulate_frames(phy, np.array(case["cnr_frames"]), n_frames, blocked,
                            mode=case["mode"], seed=case["seed"])
    erased, errors = _reference_slots(**case)
    assert slots.erased.tolist() == erased
    assert slots.bit_errors.tolist() == errors
    assert len(slots) == n_frames * phy.numerology.slots_per_frame
    gone = slots.erased
    assert np.array_equal(slots.bit_errors[gone], slots.payload_bits[gone])
    assert np.all((slots.ber[~gone] >= 0.0) & (slots.ber[~gone] <= 0.5))


# --- the slot table's expanded columns ---

@st.composite
def _table_cases(draw):
    scs = draw(st.sampled_from(sorted(NUMEROLOGIES)))
    phy = PhyConfig(2.0, 30.0, scs, draw(st.integers(1, 25)),
                    Mcs(draw(st.sampled_from(sorted(MODULATION_ORDER))),
                        draw(st.sampled_from([0.3, 0.5, 0.9]))))
    num = phy.numerology
    n_frames = draw(st.integers(1, 15))
    cnr_db = st.one_of(st.floats(-5.0, 15.0), st.just(-np.inf))  # -inf: an outage
    blocked = None
    if draw(st.booleans()):  # a rotor
        n_blades, period = draw(st.integers(1, 5)), draw(st.floats(0.3, 60.0))
        width = period * draw(st.floats(0.0, 1.0))
        sched = BladeSchedule(n_blades, width, period - width, n_blades * period)
        offsets = np.arange(n_frames) * FRAME_MS + draw(st.floats(0.0, 1e3))
        blocked = slot_blocked_ms(sched, offsets, num.slot_ms, num.slots_per_frame)
    if draw(st.booleans()):
        cnr = draw(cnr_db)
    else:
        cnr = np.array([draw(cnr_db) for _ in range(n_frames)])
    return dict(
        phy=phy, n_frames=n_frames, blocked=blocked, cnr=cnr,
        mode=draw(st.sampled_from(["mc", "expected"])),
        seed=draw(st.integers(0, 2**64)),
        draw_slots=draw(st.sampled_from([1, 7, phy_module._DRAW_SLOTS])),
        cut=sorted(draw(st.integers(0, n_frames)) for _ in range(2)))


def _per_slot_columns(phy, cnr, n_frames, blocked, mode, seed):
    """Every slot column built per slot, the way the table was built when it stored them all."""
    num = phy.numerology
    spf = num.slots_per_frame
    n_slots = n_frames * spf
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)

    def to_slots(x):
        return np.repeat(np.broadcast_to(x, (n_frames,)), spf)

    # a scalar CNR is a CNR per frame, like an array: numpy's scalar power
    # can differ from its array loop in the last bit
    frame_ber = awgn_ber(phy.mcs, np.broadcast_to(cnr, (n_frames,)))
    channel_ber = to_slots(frame_ber)
    erased = np.zeros(n_slots, dtype=bool) if blocked is None else (
        blocked >= 0.5 * num.slot_ms).ravel()
    decode_prob = np.where(erased, 0.0, to_slots((1.0 - frame_ber) ** payload))
    if mode == "mc":
        # one binomial call over the clear slots, in slot order
        bit_errors = np.full(n_slots, payload, dtype=np.int64)
        rng = np.random.default_rng(np.random.SeedSequence((seed, MC_STREAM_TAG)))
        bit_errors[~erased] = rng.binomial(payload, channel_ber[~erased])
        decoded = ~erased & (bit_errors == 0)
    else:
        bit_errors = np.where(erased, payload, np.round(channel_ber * payload)).astype(np.int64)
        decoded = decode_prob > 0.5
    return {
        "erased": erased,
        "decoded": decoded,
        "payload_bits": np.full(n_slots, payload, dtype=np.int64),
        "bit_errors": bit_errors,
        "cnr_db": to_slots(cnr),
        "ber": np.where(erased, 1.0, channel_ber),
        "decode_prob": decode_prob,
    }


@settings(max_examples=150, deadline=None)
@given(case=_table_cases())
def test_expanded_columns_equal_per_slot_columns(case):
    # all four numerologies, rotor or none, both modes, seeds past 2**63,
    # and "mc" draws cut into chunks of any size
    args = (case["phy"], case["cnr"], case["n_frames"], case["blocked"])
    with mock.patch.object(phy_module, "_DRAW_SLOTS", case["draw_slots"]):
        slots = simulate_frames(*args, mode=case["mode"], seed=case["seed"])
    want = _per_slot_columns(*args, case["mode"], case["seed"])
    spf = case["phy"].numerology.slots_per_frame
    assert len(slots) == case["n_frames"] * spf and slots.n_frames == case["n_frames"]
    first, stop = case["cut"]
    part = slots.frames(first, stop)
    # a slice of frames is numbered as in the whole table
    assert part.first_frame == first
    for name, column in want.items():
        got = getattr(slots, name)
        assert got.dtype == column.dtype and got.shape == column.shape, name
        assert np.array_equal(got, column), name
        assert np.array_equal(getattr(part, name), column[first * spf:stop * spf]), name


# --- silent draws: BERs whose "mc" draw can only be 0 ---

# 1 - p == 1 for each of these; 2**-53 is the smallest BER with 1 - p < 1
SILENT_BERS = (5e-324, 1e-300, 2.0**-54, 1e-17)


def _builtin_payloads():
    return sorted({transport_block_size(s.phy.n_rb, s.phy.mcs, s.phy.overhead)
                   for s in builtin_catalog().scenarios.values()})


@pytest.mark.parametrize("p", SILENT_BERS)
def test_binomial_at_a_silent_ber_is_zero_from_one_output_a_draw(p):
    # what the skip of silent slots rests on: at 1 - p == 1 numpy's
    # binomial returns 0 after one output of the generator, so it leaves
    # the generator where advance(k) does; at p == 0 it takes none
    assert 1.0 - p == 1.0 and phy_module._silent(np.array([p])).all()
    for payload in _builtin_payloads():
        for seed, k in ((0, 1), (1, 17), (2, 2_000)):
            drawn, skipped, still = (phy_module._mc_stream(seed) for _ in range(3))
            assert not drawn.binomial(payload, p, size=k).any()
            assert not drawn.binomial(payload, np.full(k, p)).any()
            skipped.bit_generator.advance(2 * k)
            assert drawn.bit_generator.state == skipped.bit_generator.state
            assert drawn.binomial(payload, 0.01, size=5).tolist() == \
                skipped.binomial(payload, 0.01, size=5).tolist()
            assert not still.binomial(payload, 0.0, size=k).any()
            assert not still.binomial(payload, np.zeros(k)).any()
            assert still.bit_generator.state == phy_module._mc_stream(seed).bit_generator.state
    assert 1.0 - 2.0**-53 != 1.0 and not phy_module._silent(np.array([2.0**-53])).any()


class _CountingStream:
    """An "mc" stream that counts the draws it makes and the outputs it skips."""

    def __init__(self, rng):
        self.rng, self.drawn, self.skipped = rng, 0, 0
        self.bit_generator = self

    def binomial(self, n, p, size=None):
        draws = self.rng.binomial(n, p, size)
        self.drawn += draws.size
        return draws

    def advance(self, delta):
        self.skipped += delta
        self.rng.bit_generator.advance(delta)


def test_only_silent_slots_skip_their_draws():
    # frames at 2**-53 and 0.1 draw every clear slot, frames at a silent
    # BER skip one output a clear slot, frames at 0 neither; a sweep point
    # at a silent BER or at 0 builds no stream
    phy = _phy()  # 20 slots per frame
    ber = np.array([2.0**-53, 2.0**-53, 1e-17, 0.0, 1e-17, 0.1, 0.0])
    erased = np.zeros(7 * 20, dtype=bool)
    erased[::3] = True
    n_clear = 20 - erased.reshape(7, 20).sum(axis=1)
    streams, stream_of = [], phy_module._mc_stream

    def counting(seed):
        streams.append(_CountingStream(stream_of(seed)))
        return streams[-1]

    with mock.patch.object(phy_module, "awgn_ber", lambda mcs, cnr: ber.copy()), \
            mock.patch.object(phy_module, "_mc_stream", counting):
        simulate_frames(phy, np.zeros(7), 7, mode="mc", erased=erased)
        (stream,) = streams
        assert stream.drawn == n_clear[[0, 1, 5]].sum()
        assert stream.skipped == n_clear[[2, 4]].sum()
        streams.clear()
        sweep_stats(phy, np.zeros(7), erased, 7 * FRAME_MS, mode="mc")
        assert [s.drawn for s in streams] == [len(erased) - erased.sum()] * 3
        assert [s.skipped for s in streams] == [0] * 3


@st.composite
def _draw_cases(draw):
    scs = draw(st.sampled_from(sorted(NUMEROLOGIES)))
    phy = PhyConfig(2.0, 30.0, scs, draw(st.integers(1, 25)),
                    Mcs(draw(st.sampled_from(sorted(MODULATION_ORDER))), 0.5))
    spf = phy.numerology.slots_per_frame
    n_frames = draw(st.integers(0, 12))
    # either BERs themselves, silent ones and those just above among them,
    # or CNRs, infinite ones among them, in runs of frames of one value, so
    # that silent runs start and end anywhere in a chunk of draws
    given_ber = draw(st.booleans())
    value = (st.sampled_from([0.0, *SILENT_BERS, 2.0**-53, 1e-9, 0.01, 0.5]) if given_ber
             else st.one_of(st.sampled_from([math.inf, -math.inf]), st.floats(-5.0, 40.0)))
    values = []
    while len(values) < n_frames:
        values += [draw(value)] * draw(st.integers(1, 4))
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return dict(
        phy=phy, given_ber=given_ber, values=np.array(values[:n_frames]),
        erased=rng.random(n_frames * spf) < share,
        seed=draw(st.integers(0, 2**64)),
        draw_slots=draw(st.sampled_from([1, 7, spf, 3 * spf + 1, phy_module._DRAW_SLOTS])))


@settings(max_examples=150, deadline=None)
@given(case=_draw_cases())
@example(case=dict(phy=_phy(), given_ber=True, values=np.zeros(0), erased=np.zeros(0, bool),
                   seed=0, draw_slots=phy_module._DRAW_SLOTS))  # no frames
def test_mc_draws_equal_a_plain_draw_of_every_clear_slot(case):
    # simulate_frames draws every clear slot in slot order from the run's
    # stream, and sweep_stats every clear slot of point j from the stream
    # of seed + j, whatever they skip
    phy, values, erased, seed = case["phy"], case["values"], case["erased"], case["seed"]
    n_frames, spf = len(values), phy.numerology.slots_per_frame
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)
    ber = values if case["given_ber"] else awgn_ber(phy.mcs, values)
    channel = (lambda mcs, cnr: ber.copy()) if case["given_ber"] else awgn_ber
    with mock.patch.object(phy_module, "awgn_ber", channel), \
            mock.patch.object(phy_module, "_DRAW_SLOTS", case["draw_slots"]):
        slots = simulate_frames(phy, values, n_frames, mode="mc", seed=seed, erased=erased)
        swept = (sweep_stats(phy, values, erased, n_frames * FRAME_MS, mode="mc", seed=seed)
                 if n_frames else [])
    want = np.full(n_frames * spf, payload, dtype=np.int64)
    want[~erased] = phy_module._mc_stream(seed).binomial(payload, np.repeat(ber, spf)[~erased])
    assert np.array_equal(slots.bit_errors, want)
    n_erased, n_clear = int(erased.sum()), int((~erased).sum())
    for j, p in enumerate(ber.tolist()):
        draws = phy_module._mc_stream(seed + j).binomial(payload, p, size=n_clear)
        errors = payload * n_erased + int(draws.sum())
        decoded = n_clear - int(np.count_nonzero(draws))
        assert swept[j] == (errors / (payload * len(erased)),
                            payload * decoded / (n_frames * FRAME_MS * 1e3))


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_a_nan_cnr_is_a_value_error(mode):
    # a NaN CNR has no BER; an infinite one is a channel: no bit errors at
    # +inf, a BER of 1/2 at -inf
    phy = _phy()  # 20 slots per frame
    for cnr in (math.nan, np.array([3.0, math.nan])):
        with pytest.raises(ValueError, match="cnr_db"):
            simulate_frames(phy, cnr, 2, mode=mode)
    with pytest.raises(ValueError, match="cnr_db"):
        sweep_stats(phy, np.array([3.0, math.nan]), np.zeros(40, dtype=bool), 2 * FRAME_MS,
                    mode=mode)
    slots = simulate_frames(phy, np.array([math.inf, -math.inf]), 2, mode=mode)
    assert slots.frame_ber.tolist() == [0.0, 0.5]
    assert not slots.bit_errors[:20].any() and slots.bit_errors[20:].all()
    rows = sweep_stats(phy, np.array([math.inf, -math.inf]), np.zeros(40, dtype=bool),
                       2 * FRAME_MS, mode=mode)
    assert rows[0][0] == 0.0 and rows[1][0] == pytest.approx(0.5, abs=0.01)


def test_expected_decoded_is_decode_probability_above_half():
    # at about 0.6 expected bit errors a slot both rounds to one bit error
    # and decodes with probability exp(-0.6) > 1/2: "expected" mode counts
    # it as decoded, the rule "mc" applies to its drawn errors would not
    phy = _phy()
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)
    lo, hi = 0.0, 30.0  # awgn_ber falls as the CNR rises
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if float(awgn_ber(phy.mcs, mid)) * payload > 0.6 else (lo, mid)
    slots = simulate_frames(phy, lo, 2, mode="expected")
    assert np.all(slots.bit_errors == 1) and np.all(slots.decode_prob > 0.5)
    assert slots.decoded.all()


def test_slot_table_rejects_misfit_columns():
    num = NUMEROLOGIES[15]
    frames = dict(frame_cnr_db=np.zeros(2), frame_ber=np.zeros(2), frame_decode_prob=np.ones(2))
    slots = dict(erased=np.zeros(20, dtype=bool), bit_errors=np.zeros(20, dtype=np.int64))
    SlotTable(num, "mc", 100, **frames, **slots)
    with pytest.raises(ValueError, match="slot columns"):
        SlotTable(num, "mc", 100, **frames, **{**slots, "erased": np.zeros(19, dtype=bool)})
    with pytest.raises(ValueError, match="per-frame"):
        SlotTable(num, "mc", 100, **{**frames, "frame_ber": np.zeros(3)}, **slots)


def test_slot_budget_is_a_config_error():
    phy = _phy()  # 20 slots per frame
    frames = phy_module.MAX_SLOTS // 20
    with mock.patch.object(phy_module, "MAX_SLOTS", 40):
        assert len(simulate_frames(phy, 3.0, 2)) == 40
        with pytest.raises(ConfigError) as err:
            simulate_frames(phy, 3.0, 3)
    assert err.value.field == "n_frames"
    with pytest.raises(ConfigError, match=f"at most {frames} frames"):
        phy_module.check_slot_budget(frames + 1, phy.numerology)


# --- aggregation ---

def _table(erased, payload=1000):
    # frames of 10 slots (15 kHz): error-free clear slots and fully errored erased slots
    erased = np.asarray(erased, dtype=bool)
    n_frames = len(erased) // 10
    return SlotTable(
        numerology=NUMEROLOGIES[15], mode="mc", payload=payload,
        frame_cnr_db=np.full(n_frames, 10.0), frame_ber=np.zeros(n_frames),
        frame_decode_prob=np.ones(n_frames), erased=erased,
        bit_errors=np.where(erased, payload, 0))


def test_aggregate_ten_percent_erased():
    slots = _table([i % 10 == 0 for i in range(100)])
    stats = aggregate(slots, 50.0)
    assert stats.ber == pytest.approx(0.10)
    assert stats.slot_loss_fraction == pytest.approx(0.10)


def test_aggregate_all_clear():
    slots = _table([False] * 310)
    stats = aggregate(slots, 15.5)
    assert stats.ber == 0.0
    assert stats.data_rate_mbps == pytest.approx(310 * 1000 / (15.5 * 1e3))


def test_aggregate_3_of_31():
    # 3 of 31 frames erased whole
    slots = _table(np.repeat([i < 3 for i in range(31)], 10))
    stats = aggregate(slots, 15.5)
    assert stats.slot_loss_fraction == pytest.approx(3 / 31, abs=1e-9)


def _exact_rollup(slots, elapsed_ms):
    """(BER, data rate) of an "expected" table in exact arithmetic, frame by
    frame, each rounded once to a float."""
    payload, spf = slots.payload, slots.numerology.slots_per_frame
    erased = slots.erased.tolist()
    errors = delivered = Fraction(0)
    for f, (ber, prob) in enumerate(zip(slots.frame_ber.tolist(),
                                        slots.frame_decode_prob.tolist())):
        n_clear = erased[f * spf:(f + 1) * spf].count(False)
        errors += payload * ((spf - n_clear) + n_clear * Fraction(ber))
        delivered += payload * n_clear * Fraction(prob)
    return (float(errors / (payload * len(slots))),
            float(delivered / Fraction(elapsed_ms * 1e3)))


@st.composite
def _rollup_cases(draw):
    scs = draw(st.sampled_from(sorted(NUMEROLOGIES)))
    n_frames = draw(st.integers(1, 15))
    pool = draw(st.lists(st.floats(-5.0, 20.0), min_size=1, max_size=3))  # BERs repeat
    n_slots = n_frames * NUMEROLOGIES[scs].slots_per_frame
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return dict(
        scs=scs, n_rb=draw(st.integers(11, 78)),
        mcs=Mcs(draw(st.sampled_from(sorted(MODULATION_ORDER))),
                draw(st.sampled_from([0.3, 0.5, 0.9]))),
        cnr=[draw(st.sampled_from(pool)) for _ in range(n_frames)],
        erased=(rng.random(n_slots) < share).tolist())


@settings(max_examples=150, deadline=None)
@given(case=_rollup_cases())
@example(case=dict(scs=60, n_rb=20, mcs=Mcs("64QAM", 0.9), cnr=[9.0, 2.0, 9.0],
                   erased=[True] * 120))  # all erased
@example(case=dict(scs=120, n_rb=30, mcs=Mcs("16QAM", 0.5), cnr=[4.0, 4.0, 1.0, 4.0],
                   erased=[False] * 320))  # all clear
def test_expected_rollup_matches_exact_arithmetic(case):
    # the BER is exact to one rounding (see test_expected_ber_rounds_once);
    # the rate rounds four times: each group's count x value, the fsum, the
    # product with the payload and the division, each within 2**-53
    # relative on non-negative terms
    phy = PhyConfig(2.0, 30.0, case["scs"], case["n_rb"], case["mcs"])
    num = phy.numerology
    n_frames = len(case["cnr"])
    elapsed_ms = n_frames * FRAME_MS
    blocked = np.where(case["erased"], num.slot_ms, 0.0).reshape(n_frames, -1)
    erased = erased_slots(blocked, num)
    assert erased.tolist() == case["erased"]
    run = simulate_frames(phy, np.array(case["cnr"]), n_frames, blocked, mode="expected")
    # a sweep point holds its first frame's CNR in every frame
    point = simulate_frames(phy, case["cnr"][0], n_frames, blocked, mode="expected")
    stats = aggregate(run, elapsed_ms, mode="expected")
    (swept,) = sweep_stats(phy, np.array(case["cnr"][:1]), erased, elapsed_ms,
                           mode="expected")
    for got, table in (((stats.ber, stats.data_rate_mbps), run), (swept, point)):
        for value, exact in zip(got, _exact_rollup(table, elapsed_ms)):
            assert abs(value - exact) <= 2.0**-51 * exact, (value, exact)
    if all(case["erased"]):
        assert swept == (stats.ber, stats.data_rate_mbps) == (1.0, 0.0)


@st.composite
def _ber_tables(draw):
    num = NUMEROLOGIES[draw(st.sampled_from(sorted(NUMEROLOGIES)))]
    n_frames = draw(st.integers(1, 12))
    # any BER a channel can give, tiny and subnormal ones included; frames repeat them
    pool = draw(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4))
    ber = np.array([draw(st.sampled_from(pool)) for _ in range(n_frames)])
    erased = np.array(draw(st.lists(st.booleans(), min_size=n_frames * num.slots_per_frame,
                                    max_size=n_frames * num.slots_per_frame)))
    payload = draw(st.integers(1, 50_000))
    return SlotTable(num, "expected", payload, np.zeros(n_frames), ber, (1.0 - ber) ** payload,
                     erased, np.where(erased, payload, 0))


@settings(max_examples=200, deadline=None)
@given(slots=_ber_tables())
@example(slots=SlotTable(NUMEROLOGIES[15], "expected", 7, np.zeros(2),
                         np.array([0.1, 5e-324]), np.ones(2), np.zeros(20, bool),
                         np.zeros(20, np.int64)))
def test_expected_ber_rounds_once(slots):
    # the BER of an "expected" roll-up is its exact value, erased slots at
    # 1 and each clear slot at its frame's BER over all slots, rounded once,
    # so within half an ulp; a float sum rounded before the division can
    # end up more than one ulp off
    spf = slots.numerology.slots_per_frame
    n_clear = spf - slots.erased.reshape(-1, spf).sum(axis=1)
    exact = (int(np.count_nonzero(slots.erased))
             + sum(int(c) * Fraction(b) for c, b in zip(n_clear, slots.frame_ber.tolist())))
    exact /= len(slots)
    assert aggregate(slots, FRAME_MS * slots.n_frames, mode="expected").ber == float(exact)
    # a sweep point is one group: all of its frames hold the first frame's BER
    point = Fraction(int(np.count_nonzero(slots.erased))) + int(n_clear.sum()) * Fraction(
        float(slots.frame_ber[0]))
    with mock.patch.object(phy_module, "awgn_ber", lambda mcs, cnr: slots.frame_ber[:1]):
        ((ber, _),) = sweep_stats(_phy(), np.zeros(1), slots.erased, 10.0, mode="expected")
    assert ber == float(point / len(slots))


def test_expected_rollup_of_a_nan_ber_is_nan():
    ber = np.array([math.nan, 0.1])
    slots = SlotTable(NUMEROLOGIES[15], "expected", 7, np.zeros(2), ber, (1.0 - ber) ** 7,
                      np.zeros(20, bool), np.zeros(20, np.int64))
    stats = aggregate(slots, 2 * FRAME_MS, mode="expected")
    assert math.isnan(stats.ber) and math.isnan(stats.data_rate_mbps)


@pytest.mark.parametrize("mode", ["mc", "expected"])
def test_sweep_stats_of_erased_slots_only(mode):
    # every slot erased: BER 1 and no data at any CNR, as aggregate gives
    phy = _phy()
    blocked = np.full((2, 20), phy.numerology.slot_ms)
    stats = aggregate(simulate_frames(phy, 40.0, 2, blocked, mode=mode), 2 * FRAME_MS, mode=mode)
    assert (stats.ber, stats.data_rate_mbps) == (1.0, 0.0)
    got = sweep_stats(phy, np.array([-5.0, 40.0]), erased_slots(blocked, phy.numerology),
                      2 * FRAME_MS, mode=mode, seed=1)
    assert got == [(1.0, 0.0)] * 2


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate(_table([]), 10.0)
    with pytest.raises(ValueError):
        aggregate(_table([False] * 10), 0.0)
