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
computes, so this module builds and checks the chain sets and each pass runs
as its mode's :mod:`fft_modem` stage table with the stack in the window slot
(:func:`chain_table`); the counter charges L*N multiplications per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainLimitExceeded, ConfigError, OverlapTooLarge
from .fft_modem import ArchConfig, _cyclic_shifts, bypass, preset, run_demodulator, run_modulator
from .numerics import MulCounter, dft, polyphase
from .pulses import GfdmParams, PrototypePulse

__all__ = [
    "DirectLimits",
    "DirectPulseSet",
    "precompute_td_mod",
    "precompute_fd_mod",
    "precompute_td_demod",
    "precompute_fd_demod",
    "chain_table",
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


@dataclass(frozen=True, eq=False)
class DirectPulseSet:
    """Prestored chain matrices for one direction and domain.

    ``taps`` is a read-only ``(L, rows, cols)`` stack: for ``"TD"`` the M
    cyclic column shifts of one K x M matrix (a view, not copies), for
    ``"FD"`` one M x K matrix per occupied subcarrier band listed in
    ``partitions``, each its band row broadcast across the K columns.
    """

    domain: str
    direction: str
    params: GfdmParams
    taps: np.ndarray
    partitions: tuple[int, ...]

    @property
    def mats(self) -> tuple[np.ndarray, ...]:
        return tuple(self.taps)

    @property
    def overlap(self) -> int:
        return len(self.taps)


def _check_block(params: GfdmParams, limits: DirectLimits) -> GfdmParams:
    if params.n > limits.n_max:
        raise ConfigError(f"block length {params.n} exceeds the {limits.n_max}-point FFT limit")
    return params


def _shift_set(direction: str, params: GfdmParams, base: np.ndarray) -> DirectPulseSet:
    """A time-domain set: the M cyclic column shifts of the K x M ``base``, as a view."""
    shifts = tuple(range(params.m))
    return DirectPulseSet("TD", direction, params, _cyclic_shifts(base, shifts), shifts)


def _band_set(
    direction: str, params: GfdmParams, bands: np.ndarray, limits: DirectLimits, tol: float, force_full: bool
) -> DirectPulseSet:
    """A frequency-domain set: each occupied row of the K x M ``bands`` (all K with
    ``force_full``) broadcast across K columns, one chain each."""
    if force_full:
        parts = tuple(range(params.k))
    else:
        band_on = np.abs(bands).max(axis=1) > tol * np.abs(bands).max()
        parts = tuple(int(i) for i in np.flatnonzero(band_on))
    if len(parts) > limits.l_max:
        raise OverlapTooLarge(
            f"{'receive ' if direction == 'demod' else ''}pulse occupies {len(parts)} subcarrier bands, "
            f"only {limits.l_max} chains available"
        )
    taps = np.broadcast_to(bands[list(parts), :, None], (len(parts), params.m, params.k))
    return DirectPulseSet("FD", direction, params, taps, parts)


def precompute_td_mod(pulse: PrototypePulse, limits: DirectLimits = DirectLimits()) -> DirectPulseSet:
    """Chain matrices for time-domain modulation.

    Matrix m is the scaled transposed polyphase of the pulse with its columns
    cyclically shifted by m, so chain m sees the pulse aligned to subsymbol m.
    """
    p = _check_block(pulse.params, limits)
    return _shift_set("mod", p, p.k * polyphase(pulse.time, p.m, p.k).T)


def precompute_fd_mod(
    pulse: PrototypePulse,
    limits: DirectLimits = DirectLimits(),
    tol: float = 1e-12,
    force_full: bool = False,
) -> DirectPulseSet:
    """Chain matrices for frequency-domain modulation.

    One matrix per occupied subcarrier band of the pulse spectrum: that band
    of the transposed polyphase of ``g_f`` broadcast across K columns.
    ``force_full`` keeps all K bands regardless of sparsity (the generic,
    non-sparse engine).
    """
    p = _check_block(pulse.params, limits)
    return _band_set("mod", p, polyphase(pulse.freq, p.k, p.m), limits, tol, force_full)


def precompute_td_demod(w_rx: np.ndarray, limits: DirectLimits = DirectLimits()) -> DirectPulseSet:
    """Chain matrices for time-domain demodulation from the TD receive window."""
    w = np.asarray(w_rx, dtype=np.complex128)
    params = _check_block(GfdmParams(*w.shape), limits)
    return _shift_set("demod", params, dft(w.T, inverse=True, normalized=True).T)  # K x M receive-pulse polyphase


def precompute_fd_demod(
    w_rx: np.ndarray,
    limits: DirectLimits = DirectLimits(),
    tol: float = 1e-12,
    force_full: bool = False,
) -> DirectPulseSet:
    """Chain matrices for frequency-domain demodulation from the FD receive window.

    The receive pulse spectrum is the columnwise forward transform of the
    window; its band occupancy decides the chain count.  A matched filter on a
    sparse pulse stays sparse, a zero-forcing window generally occupies all K
    bands and needs the full chain set.
    """
    w = np.asarray(w_rx, dtype=np.complex128)
    params = _check_block(GfdmParams(*w.shape), limits)
    return _band_set("demod", params, dft(w, normalized=True), limits, tol, force_full)  # row l: band l


def chain_table(pset: DirectPulseSet, mode: str, limits: DirectLimits = DirectLimits()) -> ArchConfig:
    """The stage table that runs ``pset`` in ``mode``, once the set fits the mode and ``limits``."""
    if f"{pset.domain}_{pset.direction.upper()}" != mode:
        raise ConfigError(f"pulse set is {pset.domain}/{pset.direction}, needed {mode}")
    if pset.overlap > limits.l_max:
        raise ChainLimitExceeded(f"{pset.overlap} chains needed, only {limits.l_max} available")
    _check_block(pset.params, limits)
    return preset(mode, pset.params, pset.taps, pset.partitions if pset.domain == "FD" else None)


def direct_modulate_td(
    grid: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Time-domain block via K-point IDFT bank plus M multiply-accumulate chains."""
    return run_modulator(chain_table(pset, "TD_MOD", limits), grid, counter)


def direct_modulate_fd(
    grid: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    emit_time: bool = False,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Frequency-domain block via M-point DFT bank plus per-band chains (time block with ``emit_time``)."""
    cfg = chain_table(pset, "FD_MOD", limits)
    return run_modulator(cfg if emit_time else bypass(cfg, 3), grid, counter)


def direct_demodulate_td(
    y_eq: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Grid estimate from a time-domain equalized block (the table's N-point IDFT bypassed)."""
    return run_demodulator(bypass(chain_table(pset, "TD_DEMOD", limits), 0), y_eq, counter)


def direct_demodulate_fd(
    yf_eq: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Grid estimate from a frequency-domain equalized block."""
    return run_demodulator(chain_table(pset, "FD_DEMOD", limits), yf_eq, counter)
