import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blade_intervals import blocked_intervals
from rwasim.blades import (
    REGEN_FRACTION,
    BladeGeometry,
    BladeSchedule,
    RotorSpec,
    blockage_arc,
    blocked_ms,
    build_schedule,
    crossing,
    regenerations,
    schedule,
    schedule_timeline,
    slot_blocked_ms,
    speed_ratios,
)
from rwasim.errors import ConfigError
from rwasim.phy import FRAME_MS, NUMEROLOGIES

H135 = RotorSpec(n_blades=4, blade_width_m=0.29, rpm=400,
                 shaft_offset_m=3.45, rotor_height_m=0.5, tip_radius_m=5.2)


def test_rotation_rate():
    assert H135.rate_deg_per_ms == pytest.approx(2.4)
    assert H135.rotation_ms == pytest.approx(150.0)


def test_rotor_validation():
    for args, field in [((0, 0.1, 400, 1.0, 0.5, 2.0), "n_blades"),
                        ((2, -0.1, 400, 1.0, 0.5, 2.0), "blade_width_m"),
                        ((2, 0.1, 0, 1.0, 0.5, 2.0), "rpm"),
                        ((2, 0.1, 400, -1.0, 0.5, 2.0), "shaft_offset_m")]:
        with pytest.raises(ConfigError) as err:
            RotorSpec(*args)
        assert err.value.field == field


def test_interference_point_no_offset():
    # antenna directly under the shaft, elevation 45: crossing at height/tan(45)
    rotor = RotorSpec(4, 0.29, 400, 0.0, 0.5, 5.2)
    assert crossing(rotor, 45.0)[0] == pytest.approx(0.5)


def test_interference_point_vertical():
    rotor = RotorSpec(4, 0.29, 400, 1.0, 0.5, 5.2)
    assert crossing(rotor, 90.0)[0] == pytest.approx(1.0)


def test_interference_point_miss():
    # shallow elevation pushes the crossing beyond the blade tip
    rotor = RotorSpec(4, 0.29, 400, 0.0, 0.5, 1.0)
    radius, arc = crossing(rotor, 10.0)
    assert radius == math.inf and arc == 0.0


def test_interference_point_domain():
    with pytest.raises(ValueError):
        crossing(H135, 0.0)
    with pytest.raises(ValueError):
        crossing(H135, 90.5)


def test_blockage_arc_oracle():
    # 0.1745 m chord at 1 m radius is very nearly 10 degrees
    assert blockage_arc(0.1745, 1.0) == pytest.approx(9.99811, abs=0.01)


def test_blockage_arc_full_circle():
    radius = 1.3
    assert blockage_arc(2.0 * math.pi * radius, radius) == pytest.approx(360.0)


def test_blockage_arc_inverse_radius():
    assert blockage_arc(0.2, 2.0) == pytest.approx(blockage_arc(0.2, 1.0) / 2.0)


def test_schedule_worked_example():
    # 10 deg arc, 400 rpm, 4 blades
    rotor = RotorSpec(4, 0.29, 400, 3.45, 0.5, 5.2)
    sched = build_schedule(rotor, BladeGeometry(radius_m=1.0, arc_deg=10.0))
    assert sched.blocked_ms == pytest.approx(4.1666667)
    assert sched.rotation_ms == pytest.approx(150.0)
    assert rotor.n_blades * sched.clear_ms == pytest.approx(133.333333)
    assert sched.clear_ms == pytest.approx(33.333333)


def test_schedule_single_blade():
    rotor = RotorSpec(1, 0.29, 400, 3.45, 0.5, 5.2)
    sched = build_schedule(rotor, BladeGeometry(1.0, 10.0))
    assert sched.clear_ms == pytest.approx(sched.rotation_ms - sched.blocked_ms)


def test_schedule_overlapping_arcs_rejected():
    rotor = RotorSpec(4, 0.29, 400, 3.45, 0.5, 5.2)
    with pytest.raises(ValueError):
        build_schedule(rotor, BladeGeometry(0.01, 100.0))


def _schedule_at(rotor, elevation_deg):
    return schedule(rotor, float(blocked_ms(rotor, elevation_deg)))


def test_schedule_for_elevation_clamps():
    # tiny radius blows the arc past 360/n; the clamped schedule is fully blocked.
    # At 3 blades and 380 rpm, n * ((360 / n) / rate) rounds above 360 / rate:
    # the clear time is held at 0 instead of going negative or raising
    for rotor in (RotorSpec(4, 0.5, 400, 0.5, 0.5, 5.2), RotorSpec(3, 0.5, 380, 0.5, 0.5, 5.2)):
        sched = _schedule_at(rotor, 45.0)  # crossing at the shaft
        assert sched.blocked_ms == pytest.approx(sched.period_ms)
        assert rotor.n_blades * sched.clear_ms == pytest.approx(0.0, abs=1e-12)
        assert sched.clear_ms >= 0.0


def test_schedule_for_elevation_miss_is_clear():
    rotor = RotorSpec(4, 0.29, 400, 0.0, 0.5, 1.0)
    sched = _schedule_at(rotor, 5.0)
    assert sched.blocked_ms == 0.0
    assert rotor.n_blades * sched.clear_ms == pytest.approx(sched.rotation_ms)


def test_alpha900_average_blockage():
    # the small-UAV rotor blocks for ~1.6 ms and clears for ~14 ms per blade
    # period around its typical service elevation
    alpha = RotorSpec(3, 0.093, 1280, 0.5, 0.12, 0.9)
    sched = _schedule_at(alpha, 61.6)
    assert sched.blocked_ms == pytest.approx(1.6, abs=0.1)
    assert sched.clear_ms == pytest.approx(13.9, abs=0.3)


@given(
    n=st.integers(1, 8),
    width=st.floats(0.01, 0.5),
    rpm=st.floats(50.0, 3000.0),
    radius=st.floats(0.2, 8.0),
)
def test_conservation_property(n, width, rpm, radius):
    rotor = RotorSpec(n, width, rpm, 1.0, 0.5, 10.0)
    arc = blockage_arc(width, radius)
    if n * arc > 360.0:
        return
    sched = build_schedule(rotor, BladeGeometry(radius, arc))
    total = sched.n_blades * (sched.blocked_ms + sched.clear_ms)
    assert abs(total - sched.rotation_ms) < 1e-12 * max(1.0, sched.rotation_ms)


@given(rpm=st.floats(50.0, 3000.0), width=st.floats(0.01, 0.5))
def test_blockage_decreases_with_radius(rpm, width):
    rotor = RotorSpec(4, width, rpm, 1.0, 0.5, 10.0)
    radii = [0.5, 1.0, 2.0, 4.0, 8.0]
    blocked = []
    for r in radii:
        arc = blockage_arc(width, r)
        if 4 * arc > 360.0:
            continue
        blocked.append(build_schedule(rotor, BladeGeometry(r, arc)).blocked_ms)
    assert all(a > b for a, b in zip(blocked, blocked[1:]))


@given(rpm=st.floats(50.0, 3000.0), scale=st.floats(1.1, 10.0))
def test_duty_cycle_rpm_invariant(rpm, scale):
    geom = BladeGeometry(2.0, 8.0)
    slow = build_schedule(RotorSpec(4, 0.29, rpm, 1.0, 0.5, 5.0), geom)
    fast = build_schedule(RotorSpec(4, 0.29, rpm * scale, 1.0, 0.5, 5.0), geom)
    assert slow.duty_cycle == pytest.approx(fast.duty_cycle, rel=1e-9)


def test_speed_ratio_3_2():
    geom = BladeGeometry(2.0, 8.0)
    fast = RotorSpec(4, 0.29, 1280, 1.0, 0.5, 5.0)
    slow = RotorSpec(4, 0.29, 400, 1.0, 0.5, 5.0)
    t_ratio, rot_ratio = speed_ratios(fast, slow, geom)
    assert t_ratio == pytest.approx(1.0 / 3.2, rel=1e-9)
    assert rot_ratio == pytest.approx(1.0 / 3.2, rel=1e-9)


def test_speed_ratio_equal_rpm():
    geom = BladeGeometry(2.0, 8.0)
    rotor = RotorSpec(4, 0.29, 400, 1.0, 0.5, 5.0)
    assert speed_ratios(rotor, rotor, geom) == (pytest.approx(1.0), pytest.approx(1.0))


def _schedule_1_6_13_9():
    # construct the 1.6 ms blocked / 13.9 ms clear pattern directly:
    # 3 blades with a 15.5 ms blade period need rpm = 360/(0.006*3*15.5)
    rpm = 360.0 / (0.006 * 3 * 15.5)
    rotor = RotorSpec(3, 0.1, rpm, 1.0, 0.5, 5.0)
    arc = 1.6 * rotor.rate_deg_per_ms
    return build_schedule(rotor, BladeGeometry(1.0, arc))


def test_blocked_intervals_oracle():
    sched = _schedule_1_6_13_9()
    assert sched.blocked_ms == pytest.approx(1.6, rel=1e-9)
    assert sched.clear_ms == pytest.approx(13.9, rel=1e-9)
    ivals = blocked_intervals(sched, 31.0)
    assert len(ivals) == 2
    assert ivals[0] == (pytest.approx(0.0), pytest.approx(1.6))
    assert ivals[1] == (pytest.approx(15.5), pytest.approx(17.1))


def test_blocked_intervals_phase():
    # 0.5 ms into the blade period at window start
    ivals = blocked_intervals(_schedule_1_6_13_9(), 31.0, phase_ms=0.5)
    assert ivals[0] == (pytest.approx(0.0), pytest.approx(1.1))
    assert ivals[1] == (pytest.approx(15.0), pytest.approx(16.6))


def test_blocked_intervals_truncated():
    ivals = blocked_intervals(_schedule_1_6_13_9(), 1.0)
    assert ivals == [(pytest.approx(0.0), pytest.approx(1.0))]


def test_blocked_intervals_empty_when_clear():
    rotor = RotorSpec(4, 0.29, 400, 0.0, 0.5, 1.0)
    sched = _schedule_at(rotor, 5.0)
    assert blocked_intervals(sched, 100.0) == []


@given(
    phase=st.floats(0.0, 15.5),
    periods=st.integers(1, 6),
)
def test_blocked_measure_over_full_periods(phase, periods):
    # over k whole periods the blocked measure is exactly k * blocked_ms
    sched = _schedule_1_6_13_9()
    span = periods * sched.period_ms
    ivals = blocked_intervals(sched, span, phase_ms=phase)
    for (a, b), (c, d) in zip(ivals, ivals[1:]):
        assert b <= c  # disjoint and sorted
    total = sum(b - a for a, b in ivals)
    assert total == pytest.approx(periods * sched.blocked_ms, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    n_blades=st.integers(1, 6),
    rpm=st.floats(100.0, 2000.0),
    fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    scs=st.sampled_from(sorted(NUMEROLOGIES)),
    n_frames=st.integers(200, 2000),
    start_ms=st.floats(0.0, 1e6),
)
def test_slot_blocked_mean_tends_to_blocked_fraction(n_blades, rpm, fraction, scs,
                                                      n_frames, start_ms):
    # Every whole blade period of the run holds exactly blocked_ms; the rest
    # is shorter than a period, so it holds at most a partial pulse at each
    # end, together no more than blocked_ms.  Over a run of T ms the mean
    # blocked share of a slot is then within blocked_ms / T of the fraction.
    rotor = RotorSpec(n_blades, 0.3, rpm, 1.0, 0.5, 5.0)
    sched = schedule(rotor, fraction * rotor.rotation_ms / n_blades)
    num = NUMEROLOGIES[scs]
    offsets = start_ms + np.arange(n_frames) * FRAME_MS
    blocked = slot_blocked_ms(sched, offsets, num.slot_ms, num.slots_per_frame)
    assert blocked.shape == (n_frames, num.slots_per_frame)
    run_ms = n_frames * FRAME_MS
    mean = float(np.mean(blocked / num.slot_ms))
    assert abs(mean - sched.blocked_ms / sched.period_ms) <= sched.blocked_ms / run_ms + 1e-9


def _walk_blocked(schedules, offsets, slot_ms, slots_per_frame):
    """Per-frame walk of ``blocked_intervals``: each slot sums its overlaps in pulse order."""
    out = []
    for sched, offset in zip(schedules, offsets):
        blocked = [0.0] * slots_per_frame
        phase = offset % sched.period_ms if sched.blocked_ms > 0.0 else 0.0
        for start, stop in blocked_intervals(sched, slots_per_frame * slot_ms, phase):
            last = min(math.ceil(stop / slot_ms), slots_per_frame)
            for s in range(int(start / slot_ms), last):
                lo = s * slot_ms
                blocked[s] += min(stop, lo + slot_ms) - max(start, lo)
        out.append(blocked)
    return np.array(out)


def _blade_schedule(n_blades, period, blocked):
    return BladeSchedule(n_blades, blocked, period - blocked, n_blades * period)


@st.composite
def _slot_blocked_cases(draw):
    num = NUMEROLOGIES[draw(st.sampled_from(sorted(NUMEROLOGIES)))]
    n_frames = draw(st.integers(1, 8))
    # on a half-slot grid the arithmetic is exact, so blade edges fall on
    # slot boundaries; periods go down to 0.3 ms, where every pulse of a
    # frame's span reaches every frame
    aligned = draw(st.booleans())
    grid = num.slot_ms / 2.0

    def pick():
        n_blades = draw(st.integers(1, 5))
        if aligned:
            units = draw(st.integers(1, 200))
            return _blade_schedule(n_blades, units * grid, draw(st.integers(0, units)) * grid)
        period = draw(st.one_of(st.floats(0.3, 2.0), st.floats(0.3, 200.0)))
        return _blade_schedule(n_blades, period, period * draw(st.floats(0.0, 1.0)))

    if draw(st.booleans()):
        schedules = [pick()] * n_frames        # one schedule for every frame
    else:
        pool = [pick() for _ in range(draw(st.integers(1, 3)))]
        schedules = [draw(st.sampled_from(pool)) for _ in range(n_frames)]
    if aligned:
        offsets = [draw(st.integers(0, 10**5)) * grid for _ in range(n_frames)]
    else:
        offsets = [draw(st.floats(0.0, 1e5)) for _ in range(n_frames)]
    return num, schedules, offsets


@settings(max_examples=300, deadline=None)
@given(case=_slot_blocked_cases())
def test_slot_blocked_equals_per_frame_walk(case):
    num, schedules, offsets = case
    columnar = BladeSchedule(*(np.array([getattr(s, f.name) for s in schedules])
                               for f in dataclasses.fields(BladeSchedule)))
    want = _walk_blocked(schedules, offsets, num.slot_ms, num.slots_per_frame)
    got = slot_blocked_ms(columnar, offsets, num.slot_ms, num.slots_per_frame)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def test_timeline_regeneration_threshold():
    rotor = RotorSpec(4, 0.29, 400, 3.45, 0.5, 5.2)
    # 0.1 deg of elevation drift moves blocked time well under 5%: reused
    segment, schedules = schedule_timeline(rotor, [50.0, 50.1, 50.2])
    assert segment.tolist() == [0, 0, 0] and len(schedules.blocked_ms) == 1
    # a 20 deg jump forces a rebuild
    segment, schedules = schedule_timeline(rotor, [50.0, 70.0])
    assert segment.tolist() == [0, 1]
    assert schedules.blocked_ms[1] < schedules.blocked_ms[0]


def _regeneration_starts(blocked):
    """The first sample of every segment, by the rule written out sample by sample."""
    starts, have = [], 0.0
    for i, want in enumerate(blocked):
        if not starts:
            regenerate = True
        elif have == 0.0 or want == 0.0:
            regenerate = want != have
        else:
            regenerate = abs(want - have) / have > REGEN_FRACTION
        if regenerate:
            starts.append(i)
            have = want
    return starts


def _check_regenerations(blocked):
    segment, starts = regenerations(np.array(blocked, dtype=float))
    want = _regeneration_starts(blocked)
    assert starts.tolist() == want
    assert segment.tolist() == [sum(s <= i for s in want) - 1 for i in range(len(blocked))]
    return starts.tolist()


def test_regenerations_follow_blockage_to_zero_and_back():
    assert _check_regenerations([2.0, 2.01, 0.0, 0.0, 2.0, 2.01, 0.0]) == [0, 2, 4, 6]
    assert _check_regenerations([0.0, 0.0, 1e-300, 1e-300]) == [0, 2]
    assert _check_regenerations([]) == []


def test_regenerations_at_exactly_the_fraction():
    have = 20.0
    up, down = have * (1.0 + REGEN_FRACTION), have * (1.0 - REGEN_FRACTION)
    # 21 and 19 are exactly REGEN_FRACTION from 20 in floats
    assert abs(up - have) / have == REGEN_FRACTION == abs(down - have) / have
    for want, regenerates in [(up, False), (math.nextafter(up, math.inf), True),
                              (math.nextafter(up, 0.0), False), (down, False),
                              (math.nextafter(down, 0.0), True),
                              (math.nextafter(down, math.inf), False)]:
        assert _check_regenerations([have, want]) == ([0, 1] if regenerates else [0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 1.05, 0.95, 20.0, 21.0, 19.0])
                | st.floats(0.0, 30.0), max_size=40))
def test_regenerations_match_the_rule_sample_by_sample(blocked):
    _check_regenerations(blocked)


def test_timeline_tracks_blockage_appearing():
    rotor = RotorSpec(4, 0.29, 400, 0.0, 0.5, 1.0)
    segment, schedules = schedule_timeline(rotor, [5.0, 45.0])  # miss, then hit
    assert schedules.blocked_ms[segment[0]] == 0.0
    assert schedules.blocked_ms[segment[1]] > 0.0


SCHEDULE_COLUMNS = ("n_blades", "blocked_ms", "clear_ms", "rotation_ms", "period_ms",
                    "duty_cycle")


@pytest.mark.parametrize("rotor", [RotorSpec(4, 0.5, 400, 0.5, 0.5, 5.2),
                                   RotorSpec(3, 0.5, 380, 0.5, 0.5, 5.2)])
def test_columnar_schedule_equals_scalar_schedules(rotor):
    # misses (0 ms), hits, and crossings at the shaft that clamp to a full
    # blade period (for 3 blades at 380 rpm the clear time clamps to 0)
    el = np.array([2.0, 5.0, 20.0, 30.0, 45.0, 50.0, 61.6, 70.0, 89.0, 90.0])
    blocked = blocked_ms(rotor, el)
    full = 360.0 / rotor.n_blades / rotor.rate_deg_per_ms
    assert np.any(blocked == 0.0) and np.any(blocked == full)
    assert np.any((blocked > 0.0) & (blocked < full))
    columnar = schedule(rotor, blocked)
    for i, b in enumerate(blocked.tolist()):
        scalar = schedule(rotor, float(b))
        for name in SCHEDULE_COLUMNS:
            got = float(np.broadcast_to(getattr(columnar, name), blocked.shape)[i])
            assert got.hex() == float(getattr(scalar, name)).hex(), (name, i)
        assert scalar.clear_ms >= 0.0
