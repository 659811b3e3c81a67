import math

import pytest
from hypothesis import given, strategies as st

from rwasim.errors import ConfigError
from rwasim.linkbudget import (
    BACKLOBE_FLOOR_DBI,
    LossModel,
    atmospheric_loss,
    compute_cnr,
    fspl,
    off_boresight_gain,
    pointing_offset,
    rescale_cnr,
)

MODEL = LossModel()


def test_fspl_oracle():
    assert fspl(1000.0, 2.0) == pytest.approx(158.4706, abs=0.001)
    # GEO slant range at Ku band sits just above 207 dB
    assert fspl(39500.0, 14.0) == pytest.approx(207.3045, abs=0.001)


def test_fspl_doubling_distance():
    assert fspl(2000.0, 2.0) - fspl(1000.0, 2.0) == pytest.approx(6.0206, abs=0.001)


def test_fspl_rejects_nonpositive():
    with pytest.raises(ValueError):
        fspl(0.0, 2.0)
    with pytest.raises(ValueError):
        fspl(1000.0, -1.0)


@given(
    d0=st.floats(100.0, 50000.0), d1=st.floats(100.0, 50000.0),
    f=st.floats(0.5, 40.0),
)
def test_fspl_monotone_in_distance(d0, d1, f):
    lo, hi = sorted((d0, d1))
    assert fspl(lo, f) <= fspl(hi, f) + 1e-12


def test_atmosphere_zero_rain():
    gas, cloud, rain = atmospheric_loss(MODEL, "Ka", 40.0, rain_rate_mmh=0.0)
    assert rain == 0.0
    assert gas > 0.0 and cloud > 0.0


def test_atmosphere_cosecant_scaling():
    gas90, _, _ = atmospheric_loss(MODEL, "S", 90.0)
    gas30, _, _ = atmospheric_loss(MODEL, "S", 30.0)
    assert gas30 == pytest.approx(2.0 * gas90, rel=1e-12)


def test_atmosphere_golden_ka():
    # frozen hand evaluation: Ka coefficients, 25 mm/h rain, elevation 40
    gas, cloud, rain = atmospheric_loss(MODEL, "Ka", 40.0, rain_rate_mmh=25.0)
    assert gas == pytest.approx(0.933434, abs=1e-5)
    assert cloud == pytest.approx(1.244579, abs=1e-5)
    assert rain == pytest.approx(17.501893, abs=1e-5)


def test_rain_path_capped_at_grazing():
    near_horizon = atmospheric_loss(MODEL, "Ka", 0.5, rain_rate_mmh=10.0)[2]
    # 3 km / sin(0.5 deg) would be ~344 km of rain; the cap keeps it at 20
    assert near_horizon == pytest.approx(0.15 * 10.0 * 20.0, rel=1e-9)


def test_unknown_band_rejected():
    with pytest.raises(ConfigError):
        atmospheric_loss(MODEL, "X", 40.0)


def test_model_without_the_band_names_the_band():
    # a library caller's model may leave out a band the scenario uses
    with pytest.raises(ConfigError) as err:
        atmospheric_loss(LossModel(bands={}), "Ka", 45.0)
    assert err.value.field == "band"


def _total_loss(band, distance_km, frequency_ghz, el, rain_rate_mmh=0.0):
    """Free-space plus atmospheric loss, summed as the link timeline does."""
    gas, cloud, rain = atmospheric_loss(MODEL, band, el, rain_rate_mmh)
    free = fspl(distance_km, frequency_ghz)
    return free, gas, cloud, rain, free + gas + rain + cloud


def test_path_loss_totals():
    free, gas, cloud, rain, total = _total_loss("Ka", 1000.0, 20.0, 40.0, rain_rate_mmh=25.0)
    parts = free + gas + rain + cloud
    assert total == pytest.approx(parts, rel=1e-12)
    assert free == pytest.approx(fspl(1000.0, 20.0))


@given(rate=st.floats(0.1, 100.0), el=st.floats(5.0, 90.0))
def test_rain_strictly_increases_loss(rate, el):
    dry = _total_loss("Ku", 2000.0, 14.0, el)[-1]
    wet = _total_loss("Ku", 2000.0, 14.0, el, rain_rate_mmh=rate)[-1]
    assert wet > dry


def test_off_boresight_shape():
    assert off_boresight_gain(30.0, 4.0, 0.0) == 30.0
    assert off_boresight_gain(30.0, 4.0, 2.0) == pytest.approx(27.0)   # hpbw/2 -> -3 dB
    assert off_boresight_gain(30.0, 4.0, 4.0) == pytest.approx(18.0)   # hpbw -> -12 dB
    assert off_boresight_gain(30.0, 4.0, 60.0) == BACKLOBE_FLOOR_DBI


def test_off_boresight_rejects_bad_hpbw():
    with pytest.raises(ValueError):
        off_boresight_gain(30.0, 0.0, 1.0)


def test_pointing_offset_cases():
    assert pointing_offset(50.0, 120.0, 50.0, 120.0) == pytest.approx(0.0)
    # zenith-pointing antenna vs satellite at elevation 50: 40 deg off
    assert pointing_offset(90.0, 0.0, 50.0, 77.0) == pytest.approx(40.0, abs=1e-9)
    assert pointing_offset(0.0, 0.0, 0.0, 90.0) == pytest.approx(90.0)


def test_cnr_oracle():
    # eirp 50 dBW, G/T 5 dB/K, loss 180 dB, 400 MHz noise bandwidth
    assert compute_cnr(50.0, 5.0, 180.0, 400.0) == pytest.approx(17.5794, abs=0.001)


def test_cnr_linear_in_eirp():
    base = compute_cnr(50.0, 5.0, 180.0, 400.0)
    assert compute_cnr(53.0, 5.0, 180.0, 400.0) == pytest.approx(base + 3.0)


def test_cnr_penalty_and_margin_subtract():
    base = compute_cnr(50.0, 5.0, 180.0, 400.0)
    assert compute_cnr(50.0, 5.0, 180.0, 400.0,
                       pointing_penalty_db=2.0, margin_db=1.5) == pytest.approx(base - 3.5)


def test_rescale_oracles():
    assert rescale_cnr(1.1, 30.0, 5.0) - 1.1 == pytest.approx(7.7815125, abs=1e-6)
    assert rescale_cnr(0.1, 400.0, 200.0) - 0.1 == pytest.approx(3.01029996, abs=1e-6)
    assert rescale_cnr(7.0, 30.0, 30.0) == 7.0


@given(cnr=st.floats(-40.0, 40.0), b=st.floats(1.0, 400.0), bp=st.floats(1.0, 400.0))
def test_rescale_identity(cnr, b, bp):
    # delta depends only on the bandwidth ratio
    delta = rescale_cnr(cnr, b, bp) - cnr
    assert delta == pytest.approx(10.0 * math.log10(b / bp), abs=1e-9)
    # and is exactly undone by the inverse rescale
    assert rescale_cnr(rescale_cnr(cnr, b, bp), bp, b) == pytest.approx(cnr, abs=1e-9)
