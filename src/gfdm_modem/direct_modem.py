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
rows.  Each pass is one batched row x shift-stack product over read-only views,
and the counter still charges L*N multiplications per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ChainLimitExceeded, ConfigError, OverlapTooLarge
from .numerics import MulCounter, dft, polyphase
from .pulses import GfdmParams, PrototypePulse

__all__ = [
    "DirectLimits",
    "DirectPulseSet",
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


def _cyclic_shifts(a: np.ndarray, shifts: tuple[int, ...] | None = None) -> np.ndarray:
    """Stack whose slice ``i`` is ``np.roll(a, shifts[i], axis=1)``.

    All ``cols`` shifts in ascending order (the default) are a read-only,
    zero-copy view of ``[a, a]``; a proper subset is gathered from that view.
    """
    cols = a.shape[1]
    doubled = np.concatenate([a, a], axis=1)
    s_row, s_col = doubled.strides
    view = as_strided(doubled[:, cols:], (cols, len(a), cols), (-s_col, s_row, s_col), writeable=False)
    if shifts is None or shifts == tuple(range(cols)):
        return view
    return view[list(shifts)]


def _chain_pass(rows: np.ndarray, stack: np.ndarray, counter: MulCounter | None) -> np.ndarray:
    """Output row ``i``: ``rows[i]``, its L chain inputs, times the L x cols matrix ``stack[:, i]``."""
    if counter is not None:
        counter.add(stack.size)  # one multiplication per stack entry: L*N
    return np.matmul(rows[:, None, :], stack.transpose(1, 0, 2))[:, 0, :]


def _check_block(params: GfdmParams, limits: DirectLimits) -> None:
    if params.n > limits.n_max:
        raise ConfigError(f"block length {params.n} exceeds the {limits.n_max}-point FFT limit")


def precompute_td_mod(pulse: PrototypePulse, limits: DirectLimits = DirectLimits()) -> DirectPulseSet:
    """Chain matrices for time-domain modulation.

    Matrix m is the scaled transposed polyphase of the pulse with its columns
    cyclically shifted by m, so chain m sees the pulse aligned to subsymbol m.
    """
    p = pulse.params
    _check_block(p, limits)
    base = p.k * polyphase(pulse.time, p.m, p.k).T
    return DirectPulseSet("TD", "mod", p, _cyclic_shifts(base), tuple(range(p.m)))


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
    p = pulse.params
    _check_block(p, limits)
    vg = polyphase(pulse.freq, p.k, p.m)
    if force_full:
        parts = tuple(range(p.k))
    else:
        band_on = np.abs(vg).max(axis=1) > tol * np.abs(pulse.freq).max()
        parts = tuple(int(i) for i in np.flatnonzero(band_on))
    if len(parts) > limits.l_max:
        raise OverlapTooLarge(
            f"pulse occupies {len(parts)} subcarrier bands, only {limits.l_max} chains available"
        )
    taps = np.broadcast_to(vg[list(parts), :, None], (len(parts), p.m, p.k))
    return DirectPulseSet("FD", "mod", p, taps, parts)


def precompute_td_demod(
    w_rx: np.ndarray, limits: DirectLimits = DirectLimits()
) -> DirectPulseSet:
    """Chain matrices for time-domain demodulation from the TD receive window."""
    w = np.asarray(w_rx, dtype=np.complex128)
    params = GfdmParams(w.shape[0], w.shape[1])
    _check_block(params, limits)
    base = (dft(w.T, inverse=True) / params.m).T  # K x M receive-pulse polyphase, transposed
    return DirectPulseSet("TD", "demod", params, _cyclic_shifts(base), tuple(range(params.m)))


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
    params = GfdmParams(w.shape[0], w.shape[1])
    _check_block(params, limits)
    spec = dft(w)  # K x M, row l is band l of the receive pulse spectrum
    if force_full:
        parts = tuple(range(params.k))
    else:
        band_on = np.abs(spec).max(axis=1) > tol * np.abs(spec).max()
        parts = tuple(int(i) for i in np.flatnonzero(band_on))
    if len(parts) > limits.l_max:
        raise OverlapTooLarge(
            f"receive pulse occupies {len(parts)} subcarrier bands, only "
            f"{limits.l_max} chains available"
        )
    taps = np.broadcast_to(spec[list(parts), :, None] / params.k, (len(parts), params.m, params.k))
    return DirectPulseSet("FD", "demod", params, taps, parts)


def _check_set(pset: DirectPulseSet, domain: str, direction: str, limits: DirectLimits) -> None:
    if pset.domain != domain or pset.direction != direction:
        raise ConfigError(
            f"pulse set is {pset.domain}/{pset.direction}, needed {domain}/{direction}"
        )
    if pset.overlap > limits.l_max:
        raise ChainLimitExceeded(
            f"{pset.overlap} chains needed, only {limits.l_max} available"
        )
    _check_block(pset.params, limits)


def direct_modulate_td(
    grid: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Time-domain block via K-point IDFT bank plus M multiply-accumulate chains."""
    _check_set(pset, "TD", "mod", limits)
    p = pset.params
    if grid.shape != (p.k, p.m):
        raise ConfigError(f"grid shape {grid.shape} does not match {p.k}x{p.m}")
    spread = dft(np.asarray(grid, dtype=np.complex128), inverse=True, counter=counter)
    spread /= p.k
    acc = _chain_pass(spread, pset.taps, counter)
    return acc.flatten(order="F")


def direct_modulate_fd(
    grid: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    emit_time: bool = False,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Frequency-domain block via M-point DFT bank plus per-band chains."""
    _check_set(pset, "FD", "mod", limits)
    p = pset.params
    if grid.shape != (p.k, p.m):
        raise ConfigError(f"grid shape {grid.shape} does not match {p.k}x{p.m}")
    spread = dft(np.asarray(grid, dtype=np.complex128).T, counter=counter)  # M x K
    acc = _chain_pass(pset.taps[:, :, 0].T, _cyclic_shifts(spread, pset.partitions), counter)
    xf = acc.flatten(order="F")
    if emit_time:
        xt = dft(xf, inverse=True, counter=counter)
        xt /= p.n
        return xt
    return xf


def direct_demodulate_td(
    y_eq: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Grid estimate from a time-domain equalized block."""
    _check_set(pset, "TD", "demod", limits)
    p = pset.params
    y = np.asarray(y_eq, dtype=np.complex128).reshape(-1)
    if y.size != p.n:
        raise ConfigError(f"block length {y.size} does not match N={p.n}")
    vy = polyphase(y, p.m, p.k).T  # K x M, column m is polyphase component m
    acc = _chain_pass(vy, pset.taps, counter)
    return dft(acc, counter=counter)


def direct_demodulate_fd(
    yf_eq: np.ndarray,
    pset: DirectPulseSet,
    limits: DirectLimits = DirectLimits(),
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Grid estimate from a frequency-domain equalized block."""
    _check_set(pset, "FD", "demod", limits)
    p = pset.params
    yf = np.asarray(yf_eq, dtype=np.complex128).reshape(-1)
    if yf.size != p.n:
        raise ConfigError(f"block length {yf.size} does not match N={p.n}")
    vy = polyphase(yf, p.k, p.m).T  # M x K
    acc = _chain_pass(pset.taps[:, :, 0].T, _cyclic_shifts(vy, pset.partitions), counter)
    grid_hat = dft(acc, inverse=True, counter=counter)
    grid_hat /= p.m
    return grid_hat.T
