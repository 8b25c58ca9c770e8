"""Direct-convolution modem with parallel multiply-accumulate chains.

The block circular convolution is evaluated against prestored pulse matrices:
one transform bank, then elementwise multiply-accumulate over L chains, then
(for modulation in the frequency domain) a final N-point inverse transform.
The time-domain flavour always runs M chains; the frequency-domain flavour
runs one chain per occupied subcarrier band of the pulse spectrum, which is
where sparse pulses pay off.

Chains are a hardware concept.  This functional model stores each chain set
as one read-only stack: the time-domain set is a zero-copy view of the cyclic
shifts of one base matrix, the frequency-domain set a broadcast of its band
rows.  The chains compute what the FFT pipeline's stage 1 -> window -> stage 2
computes, so each ``precompute_*`` checks the block length against ``n_max``
and the chain count against ``l_max``, and returns its mode's :mod:`fft_modem`
stage table with the stack in the window slot; the counter charges L*N
multiplications per pass.  The ``direct_*`` runners are one run of such a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainLimitExceeded, ConfigError, OverlapTooLarge
from .fft_modem import ArchConfig, _cyclic_shifts, bypass, preset, run_demodulator, run_modulator
from .numerics import MulCounter, dft, polyphase
from .pulses import GfdmParams, PrototypePulse, occupied_bands

__all__ = [
    "DirectLimits",
    "precompute_td_mod",
    "precompute_fd_mod",
    "precompute_td_demod",
    "precompute_fd_demod",
    "direct_modulate_td",
    "direct_modulate_fd",
    "direct_demodulate_td",
    "direct_demodulate_fd",
]


@dataclass(frozen=True)
class DirectLimits:
    """Hardware budget: parallel multiplier chains and maximum FFT length."""

    l_max: int = 16
    n_max: int = 2048

    def __post_init__(self) -> None:
        if self.l_max < 1 or self.n_max < 1:
            raise ConfigError("direct-architecture limits must be positive")


def _check_block(params: GfdmParams, limits: DirectLimits) -> GfdmParams:
    if params.n > limits.n_max:
        raise ConfigError(f"block length {params.n} exceeds the {limits.n_max}-point FFT limit")
    return params


def _shift_table(mode: str, params: GfdmParams, base: np.ndarray, limits: DirectLimits) -> ArchConfig:
    """A time-domain table: the M cyclic column shifts of the K x M ``base``, as a view, one chain each."""
    if params.m > limits.l_max:
        raise ChainLimitExceeded(f"{params.m} chains needed, only {limits.l_max} available")
    return preset(mode, params, _cyclic_shifts(base, tuple(range(params.m))))


def _band_table(
    mode: str, params: GfdmParams, bands: np.ndarray, limits: DirectLimits, force_full: bool
) -> ArchConfig:
    """A frequency-domain table: each occupied row of the K x M ``bands`` (all K with
    ``force_full``) broadcast across K columns, one chain each."""
    parts = tuple(range(params.k)) if force_full else tuple(occupied_bands(bands).tolist())
    if len(parts) > limits.l_max:
        raise OverlapTooLarge(
            f"{'receive ' if mode == 'FD_DEMOD' else ''}pulse occupies {len(parts)} subcarrier bands, "
            f"only {limits.l_max} chains available"
        )
    taps = np.broadcast_to(bands[list(parts), :, None], (len(parts), params.m, params.k))
    return preset(mode, params, taps, parts)


def precompute_td_mod(pulse: PrototypePulse, limits: DirectLimits = DirectLimits()) -> ArchConfig:
    """Table for time-domain modulation.

    Chain matrix m is the scaled transposed polyphase of the pulse with its
    columns cyclically shifted by m, so chain m sees the pulse aligned to
    subsymbol m.
    """
    p = _check_block(pulse.params, limits)
    return _shift_table("TD_MOD", p, p.k * polyphase(pulse.time, p.m, p.k).T, limits)


def precompute_fd_mod(
    pulse: PrototypePulse, limits: DirectLimits = DirectLimits(), force_full: bool = False
) -> ArchConfig:
    """Table for frequency-domain modulation.

    One chain matrix per occupied subcarrier band of the pulse spectrum: that
    band of the transposed polyphase of ``g_f`` broadcast across K columns.
    ``force_full`` keeps all K bands regardless of sparsity (the generic,
    non-sparse engine).
    """
    p = _check_block(pulse.params, limits)
    return _band_table("FD_MOD", p, polyphase(pulse.freq, p.k, p.m), limits, force_full)


def precompute_td_demod(w_rx: np.ndarray, limits: DirectLimits = DirectLimits()) -> ArchConfig:
    """Table for time-domain demodulation from the TD receive window."""
    w = np.asarray(w_rx, dtype=np.complex128)
    params = _check_block(GfdmParams(*w.shape), limits)
    # K x M receive-pulse polyphase
    return _shift_table("TD_DEMOD", params, dft(w.T, inverse=True, normalized=True).T, limits)


def precompute_fd_demod(
    w_rx: np.ndarray, limits: DirectLimits = DirectLimits(), force_full: bool = False
) -> ArchConfig:
    """Table for frequency-domain demodulation from the FD receive window.

    The receive pulse spectrum is the columnwise forward transform of the
    window; its band occupancy decides the chain count.  A matched filter on a
    sparse pulse stays sparse, a zero-forcing window generally occupies all K
    bands and needs the full chain set.
    """
    w = np.asarray(w_rx, dtype=np.complex128)
    params = _check_block(GfdmParams(*w.shape), limits)
    return _band_table("FD_DEMOD", params, dft(w, normalized=True), limits, force_full)  # row l: band l


def direct_modulate_td(grid: np.ndarray, table: ArchConfig, counter: MulCounter | None = None) -> np.ndarray:
    """Time-domain block via K-point IDFT bank plus M multiply-accumulate chains."""
    return run_modulator(table, grid, counter)


def direct_modulate_fd(
    grid: np.ndarray, table: ArchConfig, emit_time: bool = False, counter: MulCounter | None = None
) -> np.ndarray:
    """Frequency-domain block via M-point DFT bank plus per-band chains (time block with ``emit_time``)."""
    return run_modulator(table if emit_time else bypass(table, 3), grid, counter)


def direct_demodulate_td(y_eq: np.ndarray, table: ArchConfig, counter: MulCounter | None = None) -> np.ndarray:
    """Grid estimate from a time-domain equalized block (the table's N-point IDFT bypassed)."""
    return run_demodulator(bypass(table, 0), y_eq, counter)


def direct_demodulate_fd(yf_eq: np.ndarray, table: ArchConfig, counter: MulCounter | None = None) -> np.ndarray:
    """Grid estimate from a frequency-domain equalized block."""
    return run_demodulator(table, yf_eq, counter)
