"""Voice quality scoring: the ITU-T G.107 E-model, simplified.

The paper reports VoIP quality as the Mean Opinion Score "numerically
derived from the packet loss, latency, and jitter measured during the
call".  This module implements that derivation: the E-model's R-factor
from one-way delay (including the jitter buffer) and effective packet
loss, mapped to MOS.  A perfect narrowband call scores ~4.4; the paper's
Table 1 values sit at 4.25-4.38.
"""

from __future__ import annotations

R_MAX = 93.2          # default R for G.711 with no impairments
BPL_G711 = 25.1       # packet-loss robustness factor (with PLC)
IE_G711 = 0.0


def delay_impairment(one_way_delay_ms: float) -> float:
    """Id: impairment from mouth-to-ear delay (G.107 approximation)."""
    d = max(one_way_delay_ms, 0.0)
    impairment = 0.024 * d
    if d > 177.3:
        impairment += 0.11 * (d - 177.3)
    return impairment


def loss_impairment(loss_rate: float) -> float:
    """Ie-eff: impairment from random packet loss (G.711 + PLC
    parameters; BurstR = 1)."""
    loss_pct = max(min(loss_rate, 1.0), 0.0) * 100.0
    return IE_G711 + (95.0 - IE_G711) * loss_pct / (loss_pct + BPL_G711)


def r_factor(one_way_delay_ms: float, loss_rate: float) -> float:
    """The E-model transmission rating."""
    r = R_MAX - delay_impairment(one_way_delay_ms) \
        - loss_impairment(loss_rate)
    return max(0.0, min(100.0, r))


def r_to_mos(r: float) -> float:
    """ITU-T G.107 Annex B mapping from R to MOS (1.0 .. ~4.5)."""
    if r <= 0:
        return 1.0
    if r >= 100:
        return 4.5
    mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)
    # The cubic dips fractionally below 1.0 for very small R; MOS is
    # defined on [1.0, 4.5].
    return max(1.0, min(4.5, mos))


def mos_from_network_stats(one_way_delay_ms: float, jitter_ms: float,
                           loss_rate: float) -> float:
    """MOS from measured network stats.

    The jitter buffer must absorb jitter, so effective delay grows with
    it (a common de-jitter sizing rule: delay + 2x jitter).
    """
    effective_delay = one_way_delay_ms + 2.0 * max(jitter_ms, 0.0)
    return r_to_mos(r_factor(effective_delay, loss_rate))
