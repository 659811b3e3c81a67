"""Link-budget building blocks: path loss, atmosphere, gains and CNR.

All gains and losses are in dB, powers in dBW, bandwidths in MHz.  The
atmosphere model is deliberately simple — frequency-band lookup tables
and a cosecant slant-path scaling — because the simulator only needs
representative attenuation levels, not forecast accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .constants import BOLTZMANN_DB
from .errors import ConfigError


def fspl(distance_km: float, frequency_ghz: float) -> float:
    """Free-space path loss in dB for km/GHz inputs."""
    if distance_km <= 0 or frequency_ghz <= 0:
        raise ValueError("distance and frequency must be > 0")
    return 92.45 + 20.0 * math.log10(distance_km) + 20.0 * math.log10(frequency_ghz)


@dataclass(frozen=True)
class BandAtmosphere:
    """Per-band atmospheric coefficients."""

    zenith_gas_db: float      # gaseous absorption looking straight up
    zenith_cloud_db: float    # cloud/fog attenuation looking straight up
    rain_k: float             # specific rain attenuation: k * R^alpha dB/km
    rain_alpha: float


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
    rain_height_km: float = 3.0
    slant_cap_km: float = 20.0

    def band(self, name: str) -> BandAtmosphere:
        try:
            return self.bands[name]
        except KeyError:
            raise ConfigError(
                f"no atmosphere coefficients for band {name!r} "
                f"(have {sorted(self.bands)})",
                field="band",
            ) from None

    def with_overrides(self, overrides: dict) -> "LossModel":
        """New model with scalar fields and/or band entries replaced."""
        bands = dict(self.bands)
        for name, params in overrides.get("bands", {}).items():
            base = bands.get(name, BandAtmosphere(0.0, 0.0, 0.0, 1.0))
            bands[name] = replace(base, **params)
        scalars = {k: v for k, v in overrides.items() if k != "bands"}
        return replace(self, bands=bands, **scalars)


@dataclass(frozen=True)
class LossBreakdown:
    """Total propagation loss split into its components (dB)."""

    fspl_db: float
    gas_db: float
    rain_db: float
    cloud_db: float

    @property
    def total_db(self) -> float:
        return self.fspl_db + self.gas_db + self.rain_db + self.cloud_db


def atmospheric_loss(
    model: LossModel,
    band: str,
    elevation_deg: float,
    rain_rate_mmh: float = 0.0,
) -> tuple[float, float, float]:
    """(gas, cloud, rain) attenuation in dB along the slant path.

    Gas and cloud terms scale the zenith values by the cosecant of the
    elevation; rain multiplies the specific attenuation ``k * R^alpha``
    by the capped slant path through the rain layer.  Elevation must be
    in (0, 90].
    """
    if not 0.0 < elevation_deg <= 90.0:
        raise ValueError("elevation_deg must be in (0, 90]")
    if rain_rate_mmh < 0.0:
        raise ValueError("rain_rate_mmh must be >= 0")
    params = model.band(band)
    cosec = 1.0 / math.sin(math.radians(elevation_deg))
    gas = params.zenith_gas_db * cosec
    cloud = params.zenith_cloud_db * cosec
    if rain_rate_mmh > 0.0:
        path = min(model.rain_height_km * cosec, model.slant_cap_km)
        rain = params.rain_k * rain_rate_mmh ** params.rain_alpha * path
    else:
        rain = 0.0
    return gas, cloud, rain


def path_loss(
    model: LossModel,
    band: str,
    distance_km: float,
    frequency_ghz: float,
    elevation_deg: float,
    rain_rate_mmh: float = 0.0,
) -> LossBreakdown:
    """Free-space plus atmospheric loss for one geometry sample."""
    gas, cloud, rain = atmospheric_loss(model, band, elevation_deg, rain_rate_mmh)
    return LossBreakdown(
        fspl_db=fspl(distance_km, frequency_ghz),
        gas_db=gas,
        rain_db=rain,
        cloud_db=cloud,
    )


# === antenna terms ===

BACKLOBE_FLOOR_DBI = -10.0


def off_boresight_gain(
    max_gain_dbi: float,
    hpbw_deg: float,
    offset_deg: float,
    floor_dbi: float = BACKLOBE_FLOOR_DBI,
) -> float:
    """Antenna gain at an angle off boresight.

    Uses the common parabolic roll-off of 12 dB at one half-power
    beamwidth off axis, floored at the back-lobe level.
    """
    if hpbw_deg <= 0:
        raise ValueError("hpbw_deg must be > 0")
    gain = max_gain_dbi - 12.0 * (offset_deg / hpbw_deg) ** 2
    return max(gain, floor_dbi)


def pointing_offset(
    boresight_elevation_deg: float,
    boresight_azimuth_deg: float,
    elevation_deg: float,
    azimuth_deg: float,
) -> float:
    """Great-circle angle between a fixed boresight and a target (deg)."""
    el_b = math.radians(boresight_elevation_deg)
    el_t = math.radians(elevation_deg)
    daz = math.radians(azimuth_deg - boresight_azimuth_deg)
    cos_angle = math.sin(el_b) * math.sin(el_t) + math.cos(el_b) * math.cos(el_t) * math.cos(daz)
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))


# === carrier-to-noise ===

def compute_cnr(
    eirp_dbw: float,
    gain_over_t_dbk: float,
    loss_db: float,
    bandwidth_mhz: float,
    pointing_penalty_db: float = 0.0,
    margin_db: float = 0.0,
) -> float:
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

