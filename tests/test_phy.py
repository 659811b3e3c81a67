import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwasim.blades import (BladeGeometry, BladeSchedule, RotorSpec, blocked_intervals,
                           build_schedule)
from rwasim.errors import ConfigError
from rwasim.phy import (
    FRAME_MS,
    Mcs,
    NTN_BANDS,
    NUMEROLOGIES,
    PhyConfig,
    SlotTable,
    _per_frame_rng,
    aggregate,
    awgn_ber,
    numerology_for,
    q_function,
    simulate_frames,
    transport_block_size,
    uncoded_ber,
    validate_channel,
)

QPSK_HALF = Mcs("QPSK", 0.5)


def _phy(**kw):
    base = dict(carrier_ghz=2.0, bandwidth_mhz=30.0, scs_khz=30, n_rb=78,
                mcs=QPSK_HALF, ntn_band="n256")
    base.update(kw)
    return PhyConfig(**base)


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
            scs = band.scs_khz[-1]
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
    assert float(awgn_ber(mcs, es, coded=False)) == pytest.approx(
        float(uncoded_ber("QPSK", eb)), rel=1e-12)


@given(es=st.floats(-5.0, 30.0))
def test_higher_order_worse_at_equal_es(es):
    qpsk = float(awgn_ber(Mcs("QPSK", 1.0, 0.0), es, coded=False))
    qam16 = float(awgn_ber(Mcs("16QAM", 1.0, 0.0), es, coded=False))
    assert qam16 >= qpsk - 1e-15


def test_q_function_basics():
    assert float(q_function(0.0)) == pytest.approx(0.5)
    assert float(q_function(3.0)) == pytest.approx(0.00134990, rel=1e-4)


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
    slots = simulate_frames(phy, 40.0, 100, schedules=sched, mode="expected")
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
    slots = simulate_frames(_phy(), 40.0, 3, schedules=sched, mode="expected")
    assert slots.erased.all()
    stats = aggregate(slots, 3 * FRAME_MS, mode="expected")
    assert stats.ber == 1.0
    assert stats.slot_loss_fraction == 1.0


def test_erase_threshold_zero_any_overlap():
    # a blockage covering 40% of one slot: majority rule keeps the slot,
    # any-overlap mode erases it
    rpm = 360.0 / (0.006 * 1 * 100.0)  # single blade, 100 ms period
    rotor = RotorSpec(1, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 0.2 * rotor.rate_deg_per_ms))
    majority = simulate_frames(_phy(), 40.0, 1, schedules=sched, mode="expected")
    assert not majority.erased.any()
    any_overlap = simulate_frames(_phy(), 40.0, 1, schedules=sched,
                                  mode="expected", erase_threshold=0.0)
    assert any_overlap.erased[0] and not any_overlap.erased[1:].any()
    # a threshold whose ms value underflows to 0 still erases only blocked slots
    tiny = simulate_frames(_phy(), 40.0, 1, schedules=sched,
                           mode="expected", erase_threshold=5e-324)
    assert np.array_equal(tiny.erased, any_overlap.erased)


def test_slot_loss_converges_to_duty_cycle():
    # slot-aligned schedule: 2 ms blocked / 14 ms clear = 16 ms period
    rpm = 360.0 / (0.006 * 2 * 16.0)
    rotor = RotorSpec(2, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 2.0 * rotor.rate_deg_per_ms))
    slots = simulate_frames(_phy(), 40.0, 40, schedules=sched, mode="expected")
    stats = aggregate(slots, 40 * FRAME_MS, mode="expected")
    assert abs(stats.slot_loss_fraction - sched.duty_cycle) <= 1.0 / len(slots)


def test_rotor_clock_spans_frames():
    # 16 ms blade period vs 10 ms frames: the second frame starts 10 ms
    # into the rotor period, so its blockage lands at 6 ms, not at 0
    rpm = 360.0 / (0.006 * 2 * 16.0)
    rotor = RotorSpec(2, 0.1, rpm, 1.0, 0.5, 5.0)
    sched = build_schedule(rotor, BladeGeometry(1.0, 2.0 * rotor.rate_deg_per_ms))
    slots = simulate_frames(_phy(), 40.0, 2, schedules=sched, mode="expected")
    erased_t = slots.t_start_ms[slots.erased]
    assert erased_t == pytest.approx([0.0, 0.5, 1.0, 1.5, 16.0, 16.5, 17.0, 17.5])


def test_simulation_deterministic_per_seed():
    phy = _phy()
    a = simulate_frames(phy, 0.0, 4, mode="mc", seed=42)
    b = simulate_frames(phy, 0.0, 4, mode="mc", seed=42)
    assert np.array_equal(a.bit_errors, b.bit_errors)
    c = simulate_frames(phy, 0.0, 4, mode="mc", seed=43)
    assert not np.array_equal(a.bit_errors, c.bit_errors)


def test_per_frame_cnr_array():
    phy = _phy()
    slots = simulate_frames(phy, np.array([300.0, -20.0]), 2, mode="expected")
    first, second = slots.bit_errors[:20], slots.bit_errors[20:]
    assert np.all(first == 0)
    assert np.all(second > 0)
    with pytest.raises(ValueError):
        simulate_frames(phy, np.arange(3.0), 2)


def test_expected_mode_is_deterministic():
    phy = _phy()
    a = simulate_frames(phy, 3.0, 5, mode="expected")
    b = simulate_frames(phy, 3.0, 5, mode="expected")
    assert np.array_equal(a.bit_errors, b.bit_errors)
    assert np.array_equal(a.decode_prob, b.decode_prob)


def test_expected_matches_mc_on_average():
    phy = _phy()
    exp = aggregate(simulate_frames(phy, 4.0, 50, mode="expected"),
                    50 * FRAME_MS, mode="expected")
    mc = aggregate(simulate_frames(phy, 4.0, 50, mode="mc", seed=3),
                   50 * FRAME_MS, mode="mc")
    assert mc.ber == pytest.approx(exp.ber, rel=0.05)


def test_aggregate_ber_monotone_in_cnr():
    phy = _phy()
    bers = []
    for cnr in (-5.0, 0.0, 5.0, 10.0, 15.0):
        stats = aggregate(simulate_frames(phy, cnr, 2, mode="expected"),
                          2 * FRAME_MS, mode="expected")
        bers.append(stats.ber)
    assert all(a >= b for a, b in zip(bers, bers[1:]))


def _reference_slots(phy, cnr_frames, schedules, offsets, mode, seed, threshold):
    """(erased, bit_errors) per slot, walking each frame's blade intervals."""
    num = phy.numerology
    payload = transport_block_size(phy.n_rb, phy.mcs, phy.overhead)
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
        rng = _per_frame_rng(seed, f)
        p = float(awgn_ber(phy.mcs, cnr_frames[f]))
        for b in blocked:
            gone = b > 0.0 and b >= threshold * num.slot_ms
            erased.append(gone)
            if gone:
                errors.append(payload)
            elif mode == "mc":
                errors.append(int(rng.binomial(payload, p)))
            else:
                errors.append(int(round(p * payload)))
    return erased, errors


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
        rotation = n_blades * period
        pool.append(BladeSchedule(n_blades, 360.0 / rotation, blocked, period - blocked,
                                  rotation, n_blades * (period - blocked)))
    schedules = [draw(st.sampled_from(pool)) for _ in range(n_frames)]
    if aligned:
        offsets = [draw(st.integers(0, 10**5)) * grid for _ in range(n_frames)]
    else:
        offsets = [draw(st.floats(0.0, 1e5)) for _ in range(n_frames)]
    return dict(
        phy=phy, schedules=schedules, offsets=offsets,
        cnr_frames=[draw(st.floats(-5.0, 15.0)) for _ in range(n_frames)],
        mode=draw(st.sampled_from(["mc", "expected"])),
        seed=draw(st.integers(0, 2**32)),
        threshold=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))))


@settings(max_examples=150, deadline=None)
@given(case=_slot_cases())
def test_slot_table_matches_per_frame_reference(case):
    phy = case["phy"]
    n_frames = len(case["schedules"])
    slots = simulate_frames(phy, np.array(case["cnr_frames"]), n_frames,
                            schedules=case["schedules"],
                            frame_offsets_ms=np.array(case["offsets"]),
                            mode=case["mode"], seed=case["seed"],
                            erase_threshold=case["threshold"])
    erased, errors = _reference_slots(**case)
    assert slots.erased.tolist() == erased
    assert slots.bit_errors.tolist() == errors
    assert len(slots) == n_frames * phy.numerology.slots_per_frame
    gone = slots.erased
    assert np.array_equal(slots.bit_errors[gone], slots.payload_bits[gone])
    assert np.all((slots.ber[~gone] >= 0.0) & (slots.ber[~gone] <= 0.5))


# --- aggregation ---

def _table(erased, payload=1000):
    # error-free clear slots and fully errored erased slots
    erased = np.asarray(erased, dtype=bool)
    n = len(erased)
    return SlotTable(
        slot_index=np.arange(n), t_start_ms=np.arange(n) * 0.5, erased=erased,
        decoded=~erased, payload_bits=np.full(n, payload),
        bit_errors=np.where(erased, payload, 0), cnr_db=np.full(n, 10.0),
        ber=np.where(erased, 1.0, 0.0), decode_prob=np.where(erased, 0.0, 1.0))


def test_aggregate_ten_percent_erased():
    slots = _table([i % 10 == 0 for i in range(100)])
    stats = aggregate(slots, 50.0)
    assert stats.ber == pytest.approx(0.10)
    assert stats.slot_loss_fraction == pytest.approx(0.10)


def test_aggregate_all_clear():
    slots = _table([False] * 31)
    stats = aggregate(slots, 15.5)
    assert stats.ber == 0.0
    assert stats.data_rate_mbps == pytest.approx(31 * 1000 / (15.5 * 1e3))


def test_aggregate_3_of_31():
    slots = _table([i < 3 for i in range(31)])
    stats = aggregate(slots, 15.5)
    assert stats.slot_loss_fraction == pytest.approx(3 / 31, abs=1e-9)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate(_table([]), 10.0)
    with pytest.raises(ValueError):
        aggregate(_table([False]), 0.0)
