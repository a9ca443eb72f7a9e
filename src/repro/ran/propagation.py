"""Radio propagation: log-distance path loss, shadowing, and a
capacity mapping.

The model is the standard urban-macro abstraction: received power (RSRP)
falls with log-distance, plus lognormal shadowing that is *spatially
correlated* (a shadow doesn't flicker packet to packet), and link
capacity follows a truncated Shannon curve on the resulting SNR.
"""

from __future__ import annotations

import math
import random

from .geometry import Point

#: 3GPP-flavored urban macro defaults.
DEFAULT_TX_POWER_DBM = 46.0       # eNodeB, 20 W
DEFAULT_PATH_LOSS_EXPONENT = 3.7
DEFAULT_REFERENCE_LOSS_DB = 34.0  # at 1 m, ~2 GHz
DEFAULT_SHADOWING_SIGMA_DB = 7.0
DEFAULT_SHADOW_CORRELATION_M = 50.0  # decorrelation distance
NOISE_FLOOR_DBM = -104.0          # 10 MHz LTE carrier
MAX_SPECTRAL_EFFICIENCY = 5.55    # 64-QAM cap (bits/s/Hz)
DEFAULT_BANDWIDTH_HZ = 10e6


def path_loss_db(distance_m: float,
                 exponent: float = DEFAULT_PATH_LOSS_EXPONENT) -> float:
    """Log-distance path loss (dB)."""
    distance = max(distance_m, 1.0)
    return DEFAULT_REFERENCE_LOSS_DB \
        + 10.0 * exponent * math.log10(distance)


class ShadowingField:
    """Spatially-correlated lognormal shadowing along a trajectory.

    Gudmundson-style: the shadowing value decorrelates exponentially with
    distance travelled.  One independent field per (cell, UE) pair.

    This is the scalar reference and stays on ``rng.gauss``.  Drives
    sample through :meth:`repro.ran.selection.CellSelector.measure_rsrp`,
    which makes the same normals itself, from the same ``random()``
    draws, as a pair per cell every other tick; the tests hold the two
    equal, so a stdlib that changes ``gauss`` fails them.
    """

    def __init__(self, sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB,
                 seed: int = 0):
        self.sigma_db = sigma_db
        self.rng = random.Random(seed)
        self._value = self.rng.gauss(0.0, sigma_db)
        self._last_position: Point = None

    def sample(self, position: Point) -> float:
        if self._last_position is None:
            self._last_position = position
            return self._value
        moved = position.distance_to(self._last_position)
        self._last_position = position
        rho = math.exp(-moved / DEFAULT_SHADOW_CORRELATION_M)
        innovation_sigma = self.sigma_db * math.sqrt(max(0.0, 1 - rho ** 2))
        self._value = rho * self._value + self.rng.gauss(0, innovation_sigma)
        return self._value


def rsrp_dbm(tx_power_dbm: float, distance_m: float,
             shadowing_db: float = 0.0,
             exponent: float = DEFAULT_PATH_LOSS_EXPONENT) -> float:
    """Received power at the UE."""
    return tx_power_dbm - path_loss_db(distance_m, exponent) + shadowing_db


def snr_db(rsrp: float) -> float:
    """Signal-to-noise ratio implied by the received power."""
    return rsrp - NOISE_FLOOR_DBM


def capacity_bps(rsrp: float) -> float:
    """Truncated-Shannon downlink capacity for one UE owning the cell."""
    snr_linear = 10.0 ** (snr_db(rsrp) / 10.0)
    efficiency = min(math.log2(1.0 + snr_linear), MAX_SPECTRAL_EFFICIENCY)
    return max(DEFAULT_BANDWIDTH_HZ * efficiency * 0.75, 1e5)  # 25% overhead
