"""Direct-convolution modem with parallel multiply-accumulate chains.

The block circular convolution is evaluated against prestored pulse
coefficients: one transform bank, then elementwise multiply-accumulate over L
chains, then (for modulation in the frequency domain) a final N-point inverse
transform.  Every chain follows one rule: chain l multiplies a stored tap row
by the stream cyclically shifted by ``partitions[l]``.  Circular convolution
commutes, so the two domains differ only in the rows they hold: the
time-domain flavour holds all M rows of the pulse's time polyphase, the
frequency-domain flavour one row of its band matrix per occupied subcarrier
band, which is where sparse pulses pay off.

Chains are a hardware concept.  This functional model stores each chain set
as one read-only stack, each tap row broadcast across the stream's columns.
The chains compute what the FFT pipeline's stage 1 -> window -> stage 2
computes, so each ``precompute_*`` checks the block length against ``n_max``
and the chain count against ``l_max``, and returns its mode's :mod:`fft_modem`
stage table with the stack in the window slot; the counter charges L*N
multiplications per pass.  The ``direct_*`` runners are one run of such a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainLimitExceeded, ConfigError, OverlapTooLarge
from .fft_modem import ArchConfig, bypass, preset, run_demodulator, run_modulator
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


def _chain_table(
    mode: str, params: GfdmParams, taps: np.ndarray, limits: DirectLimits, full: bool = True
) -> ArchConfig:
    """The table of ``mode`` whose chain ``l`` holds row ``partitions[l]`` of ``taps``: all rows, or
    with ``full`` unset the occupied ones.  Refuses the block length, then the chain count."""
    if params.n > limits.n_max:
        raise ConfigError(f"block length {params.n} exceeds the {limits.n_max}-point FFT limit")
    parts = tuple(range(len(taps))) if full else tuple(occupied_bands(taps).tolist())
    if len(parts) > limits.l_max:
        if mode.startswith("TD"):
            raise ChainLimitExceeded(f"{len(parts)} chains needed, only {limits.l_max} available")
        raise OverlapTooLarge(
            f"{'receive ' if mode == 'FD_DEMOD' else ''}pulse occupies {len(parts)} subcarrier bands, "
            f"only {limits.l_max} chains available"
        )
    rows, cols = taps.shape  # each tap row broadcast across the stream's columns
    stack = np.broadcast_to(taps.take(parts, axis=0)[:, :, None], (len(parts), cols, rows))
    return preset(mode, params, stack, parts)


def precompute_td_mod(pulse: PrototypePulse, limits: DirectLimits = DirectLimits()) -> ArchConfig:
    """Table for time-domain modulation.

    Chain m holds row m of the K-scaled M x K time polyphase of the pulse and
    multiplies it by the K-IDFT bank's output cyclically shifted by m subsymbols.
    """
    p = pulse.params
    return _chain_table("TD_MOD", p, p.k * polyphase(pulse.time, p.m, p.k), limits)


def precompute_fd_mod(
    pulse: PrototypePulse, limits: DirectLimits = DirectLimits(), force_full: bool = False
) -> ArchConfig:
    """Table for frequency-domain modulation.

    One chain per occupied subcarrier band of the pulse spectrum, holding that
    band's row of the polyphase of ``g_f``.  ``force_full`` keeps all K bands
    regardless of sparsity (the generic, non-sparse engine).
    """
    p = pulse.params
    return _chain_table("FD_MOD", p, polyphase(pulse.freq, p.k, p.m), limits, force_full)


def precompute_td_demod(w_rx: np.ndarray, limits: DirectLimits = DirectLimits()) -> ArchConfig:
    """Table for time-domain demodulation from the TD receive window.

    Chain m holds row m of the M x K receive-pulse time polyphase (the scaled
    M-point inverse transform of each column of the transposed window) and
    multiplies it by the time block cyclically shifted by m subsymbols.
    """
    w = np.asarray(w_rx, dtype=np.complex128)
    return _chain_table("TD_DEMOD", GfdmParams(*w.shape), dft(w.T, inverse=True, normalized=True), limits)


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
    return _chain_table("FD_DEMOD", GfdmParams(*w.shape), dft(w, normalized=True), limits, force_full)


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
