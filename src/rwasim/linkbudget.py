"""Link-budget building blocks: path loss, atmosphere, gains and CNR.

All gains and losses are in dB, powers in dBW, bandwidths in MHz.  The
functions take scalars or numpy arrays, so the link timeline evaluates
every served sample in one pass.  The
atmosphere model is deliberately simple — frequency-band lookup tables
and a cosecant slant-path scaling — because the simulator only needs
representative attenuation levels, not forecast accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import BOLTZMANN_DB
from .errors import ConfigError, check_domains, domain


def fspl(distance_km, frequency_ghz: float):
    """Free-space path loss in dB for km/GHz inputs."""
    if (np.asarray(distance_km) <= 0).any() or frequency_ghz <= 0:
        raise ValueError("distance and frequency must be > 0")
    return 92.45 + 20.0 * np.log10(distance_km) + 20.0 * math.log10(frequency_ghz)


@dataclass(frozen=True)
class BandAtmosphere:
    """Per-band atmospheric coefficients; rain attenuates by k * R^alpha dB/km."""

    zenith_gas_db: float = domain("[0, 1000]", "gaseous; of order 100 dB at the 60 GHz oxygen line")
    zenith_cloud_db: float = domain("[0, 1000]", "cloud and fog; tens of dB at most")
    rain_k: float = domain("[0, 10]", "ITU-R P.838's k is about 1 at 100 GHz")
    rain_alpha: float = domain("(0, 2]", "ITU-R P.838's exponents lie near 1 at every frequency")

    def __post_init__(self) -> None:
        check_domains(self)


# Representative mid-band coefficients for the bands the simulator uses.
DEFAULT_BAND_ATMOSPHERE: dict[str, BandAtmosphere] = {
    "S": BandAtmosphere(0.035, 0.05, 8.5e-5, 1.07),
    "Ku": BandAtmosphere(0.25, 0.30, 0.037, 1.14),
    "Ka": BandAtmosphere(0.60, 0.80, 0.15, 1.00),
}


@dataclass(frozen=True)
class LossModel:
    """Atmospheric model configuration.

    ``rain_height_km`` bounds the vertical extent of rain; the slant
    path through rain is ``rain_height / sin(elevation)`` capped at
    ``slant_cap_km`` so grazing elevations stay finite.
    """

    bands: dict[str, BandAtmosphere] = field(
        default_factory=lambda: dict(DEFAULT_BAND_ATMOSPHERE))
    rain_height_km: float = domain("(0, 20]", "rain falls from below the tropopause", default=3.0)
    slant_cap_km: float = domain("(0, 1000]", "no rain cell is 1000 km across", default=20.0)

    def __post_init__(self) -> None:
        check_domains(self)

    def band(self, name: str) -> BandAtmosphere:
        try:
            return self.bands[name]
        except KeyError:
            raise ConfigError(
                f"no atmosphere coefficients for band {name!r} "
                f"(have {sorted(self.bands)})",
                field="band",
            ) from None


def atmospheric_loss(model: LossModel, band: str, elevation_deg, rain_rate_mmh=0.0):
    """(gas, cloud, rain) attenuation in dB along the slant path.

    Gas and cloud terms scale the zenith values by the cosecant of the
    elevation; rain multiplies the specific attenuation ``k * R^alpha``
    by the capped slant path through the rain layer.  Elevation must be
    in (0, 90].
    """
    el = np.asarray(elevation_deg, dtype=float)
    rate = np.asarray(rain_rate_mmh, dtype=float)
    if not ((el > 0.0) & (el <= 90.0)).all():
        raise ValueError("elevation_deg must be in (0, 90]")
    if (rate < 0.0).any():
        raise ValueError("rain_rate_mmh must be >= 0")
    params = model.band(band)
    cosec = 1.0 / np.sin(np.radians(el))
    gas = params.zenith_gas_db * cosec
    cloud = params.zenith_cloud_db * cosec
    wet = rate > 0.0
    path = np.minimum(model.rain_height_km * cosec, model.slant_cap_km)
    rain = np.where(wet, params.rain_k * rate ** params.rain_alpha * path, 0.0)
    return gas, cloud, rain[()]


# === antenna terms ===

BACKLOBE_FLOOR_DBI = -10.0


def off_boresight_gain(max_gain_dbi: float, hpbw_deg: float, offset_deg):
    """Antenna gain at an angle off boresight.

    Uses the common parabolic roll-off of 12 dB at one half-power
    beamwidth off axis, floored at the back-lobe level.
    """
    if hpbw_deg <= 0:
        raise ValueError("hpbw_deg must be > 0")
    return np.maximum(max_gain_dbi - 12.0 * (np.asarray(offset_deg) / hpbw_deg) ** 2,
                      BACKLOBE_FLOOR_DBI)


def pointing_offset(
    boresight_elevation_deg: float,
    boresight_azimuth_deg: float,
    elevation_deg,
    azimuth_deg,
):
    """Great-circle angle between a fixed boresight and a target (deg)."""
    el_b = np.radians(boresight_elevation_deg)
    el_t = np.radians(elevation_deg)
    daz = np.radians(np.asarray(azimuth_deg) - boresight_azimuth_deg)
    cos_angle = np.sin(el_b) * np.sin(el_t) + np.cos(el_b) * np.cos(el_t) * np.cos(daz)
    return np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0)))


# === carrier-to-noise ===

def compute_cnr(
    eirp_dbw: float,
    gain_over_t_dbk: float,
    loss_db,
    bandwidth_mhz: float,
    pointing_penalty_db=0.0,
    margin_db: float = 0.0,
):
    """Carrier-to-noise ratio in dB over the given noise bandwidth.

    ``margin_db`` lumps polarization and implementation losses that the
    simulator does not model individually.
    """
    if bandwidth_mhz <= 0:
        raise ValueError("bandwidth_mhz must be > 0")
    noise_bw_db = 10.0 * math.log10(bandwidth_mhz * 1e6)
    return (eirp_dbw - pointing_penalty_db + gain_over_t_dbk - loss_db
            - margin_db - BOLTZMANN_DB - noise_bw_db)


def rescale_cnr(cnr_db: float, bandwidth_mhz: float, new_bandwidth_mhz: float) -> float:
    """CNR over a different noise bandwidth (same carrier power)."""
    if bandwidth_mhz <= 0 or new_bandwidth_mhz <= 0:
        raise ValueError("bandwidths must be > 0")
    return cnr_db + 10.0 * math.log10(bandwidth_mhz / new_bandwidth_mhz)

