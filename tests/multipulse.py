"""Dense multi-pulse and offset-QAM oracles, and the pulse helpers only they use.

The modem runs one prototype filter; FBMC and other multi-filter waveforms are
context for it.  These oracles express them on top of the single-pulse dense
reference (:func:`gfdm_modem.reference.build_matrix`), so a later multi-pulse
plan has a ground truth to match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gfdm_modem.errors import ConfigError
from gfdm_modem.numerics import dft
from gfdm_modem.pulses import PrototypePulse, occupied_bands
from gfdm_modem.reference import build_matrix, oracle_modulate


def shift_pulse(pulse: PrototypePulse, shift: int) -> PrototypePulse:
    """Circularly delay the time pulse by ``shift`` samples."""
    g = np.roll(pulse.time, shift)
    return PrototypePulse(pulse.kind, pulse.params, pulse.alpha, pulse.delta, g, dft(g))


def freq_overlap(pulse: PrototypePulse) -> int:
    """Number of consecutive subcarrier bands covering the pulse spectrum.

    The spectrum is split into K bands of M bins.  Returns the smallest L such
    that all :func:`occupied_bands` fall inside L cyclically consecutive bands.
    """
    k, m = pulse.params.k, pulse.params.m
    active = occupied_bands(pulse.freq.reshape(k, m))
    count = active.size
    if count == 0:
        return 0
    if count == k:
        return k
    # Largest cyclic gap between active bands bounds the covering window.
    gaps = np.diff(np.concatenate([active, [active[0] + k]]))
    return k - int(gaps.max()) + 1


@dataclass(frozen=True, eq=False)
class MultiPulseComponent:
    """One pulse of a multi-pulse block with its active sets and symbols."""

    pulse: PrototypePulse
    k_on: tuple[int, ...]
    m_on: tuple[int, ...]
    grid: np.ndarray


def compose_multipulse(components: list[MultiPulseComponent]) -> np.ndarray:
    """Superpose per-pulse modulated blocks, each restricted to its active set."""
    if not components:
        raise ConfigError("multi-pulse composition needs at least one component")
    n = components[0].pulse.params.n
    out = np.zeros(n, dtype=np.complex128)
    for comp in components:
        p = comp.pulse.params
        if p.n != n:
            raise ConfigError(f"component block length {p.n} does not match {n}")
        mask = np.zeros((p.k, p.m))
        mask[np.ix_(list(comp.k_on), list(comp.m_on))] = 1.0
        out += oracle_modulate(build_matrix(comp.pulse), comp.grid * mask)
    return out


def fbmc_oqam_modulate(d_qam: np.ndarray, pulse: PrototypePulse) -> np.ndarray:
    """Offset-QAM two-stream block from complex QAM symbols.

    The real parts feed the prototype as-is, the imaginary parts feed a copy
    delayed by half a subsymbol (K/2 samples); both streams carry the
    alternating phase pattern that keeps neighbours orthogonal:
    stream 0 multiplies even subcarriers by j, stream 1 odd subcarriers by j.
    """
    params = pulse.params
    if params.k % 2 != 0:
        raise ConfigError("offset-QAM staggering needs an even subcarrier count")
    if d_qam.shape != (params.k, params.m):
        raise ConfigError(f"grid shape {d_qam.shape} does not match {params.k}x{params.m}")
    k_idx = np.arange(params.k)
    theta0 = np.where(k_idx % 2 == 0, 1j, 1.0)
    theta1 = np.where(k_idx % 2 == 0, 1.0, 1j)
    d0 = theta0[:, None] * d_qam.real
    d1 = theta1[:, None] * d_qam.imag
    x0 = oracle_modulate(build_matrix(pulse), d0)
    x1 = oracle_modulate(build_matrix(shift_pulse(pulse, params.k // 2)), d1)
    return x0 + x1
