"""Direct-convolution modem with parallel multiply-accumulate chains.

The block circular convolution is evaluated against prestored tap rows: one
transform bank, then elementwise multiply-accumulate over L chains, then (for
modulation in the frequency domain) a final N-point inverse transform.  Every
chain follows one rule: chain l multiplies a stored tap row by the stream
cyclically shifted by ``partitions[l]``.

The chains compute what the FFT pipeline's stage 1 -> window -> stage 2
computes, so every table comes from its mode's own K x M window by one rule:
the tap rows are the window's stage transform, stages 1 and 2 folded in.  In
the time domain all M rows are held, in frequency one row per occupied
subcarrier band, which is where sparse windows pay off.  The rule checks the
chain budget ``l_max``, a plain int under the one count rule
(``numerics.check_positive``), then the block length against
:data:`MAX_DIRECT_N` and the chain count against ``l_max``, and returns the
mode's :mod:`fft_modem` stage table with the tap rows in the window slot; the
counter charges L*N multiplications per pass.  A table build validates no
geometry anew: it takes ``fft_modem.window_geometry``, held per window shape.
The four ``precompute_*`` are that rule bound to a mode.  A pass computes each
output sample as one BLAS dot over its L chains, taken in descending shift
order, as the table holds them.  The ``direct_*`` runners are one run of such
a table.
"""

from __future__ import annotations

import numpy as np

from .errors import ChainLimitExceeded, ConfigError
from .fft_modem import ArchConfig, bypass, preset, run_demodulator, run_modulator, window_geometry
from .numerics import MulCounter, check_positive, dft
from .pulses import occupied_bands

__all__ = [
    "MAX_DIRECT_N",
    "precompute_td_mod",
    "precompute_fd_mod",
    "precompute_td_demod",
    "precompute_fd_demod",
    "direct_modulate_td",
    "direct_modulate_fd",
    "direct_demodulate_td",
    "direct_demodulate_fd",
]


#: The direct engine's block bound: its transform cores take at most this many points.
MAX_DIRECT_N = 2048

def _chain_table(mode: str, window: np.ndarray, l_max: int, full: bool = True) -> ArchConfig:
    """The table of ``mode`` whose chain ``l`` holds row ``partitions[l]`` of the K x M window's stage
    transform: all rows, or with ``full`` unset the occupied ones, on at most ``l_max`` chains.
    Refuses ``l_max``, then N, then the chain count."""
    l_max = check_positive("l_max", l_max)
    w = np.asarray(window, dtype=np.complex128)
    params, td = window_geometry(w), mode.startswith("TD")
    if params.n > MAX_DIRECT_N:
        raise ConfigError(f"block length {params.n} exceeds the {MAX_DIRECT_N}-point FFT limit")
    taps = dft(w.T if td else w, inverse=td, normalized=True)
    parts = range(len(taps)) if full else tuple(occupied_bands(taps).tolist())
    if len(parts) > l_max:
        raise ChainLimitExceeded(
            f"{len(parts)} chains needed, only {l_max} available" if td else
            f"{'receive ' if mode == 'FD_DEMOD' else ''}pulse occupies {len(parts)} subcarrier bands, "
            f"only {l_max} chains available"
        )
    # preset copies the rows into the layout a chain pass reads: the full set takes its range unscanned.
    return preset(mode, params, taps if full else taps.take(parts, axis=0), parts)


def precompute_td_mod(w_td: np.ndarray, l_max: int) -> ArchConfig:
    """Table for time-domain modulation from the TD transmit window: M chains over the K-IDFT bank."""
    return _chain_table("TD_MOD", w_td, l_max)


def precompute_fd_mod(w_fd: np.ndarray, l_max: int, force_full: bool = False) -> ArchConfig:
    """Table for frequency-domain modulation from the FD transmit window: one chain per occupied band
    of the pulse spectrum, or with ``force_full`` all K (the generic, non-sparse engine)."""
    return _chain_table("FD_MOD", w_fd, l_max, force_full)


def precompute_td_demod(w_rx: np.ndarray, l_max: int) -> ArchConfig:
    """Table for time-domain demodulation from the TD receive window: M chains over the time block."""
    return _chain_table("TD_DEMOD", w_rx, l_max)


def precompute_fd_demod(w_rx: np.ndarray, l_max: int, force_full: bool = False) -> ArchConfig:
    """Table for frequency-domain demodulation from the FD receive window.  A matched filter on a
    sparse pulse stays sparse, a zero-forcing window generally occupies all K bands."""
    return _chain_table("FD_DEMOD", w_rx, l_max, force_full)


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
