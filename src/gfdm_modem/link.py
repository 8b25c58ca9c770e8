"""End-to-end evaluation chain: map, modulate, frame, channel, equalize, demodulate.

The chain is assembled from a run configuration and meters every modem
transform and window product on one counter, so the measured total can be
reconciled against the closed-form figures.  The direct frequency-domain
route runs its generic full-band chain set here; the sparse short-cut is a
library feature exercised separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, channel, direct_modem, fft_modem, reference
from .channel import ChannelSpec, uniform64_array
from .config import RunConfig
from .numerics import MulCounter, dft
from .pulses import PrototypePulse, make_prototype, tx_window, window_pair

__all__ = ["LoopbackReport", "run_loopback", "modulate_block", "demodulate_block", "qpsk_symbols"]

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
_SYMBOL_STREAM_OFFSET = 1 << 40  # keeps symbol draws clear of the noise draws


def qpsk_symbols(seed: int, count: int) -> np.ndarray:
    """Deterministic unit-power QPSK symbols."""
    idx = (uniform64_array(seed, _SYMBOL_STREAM_OFFSET, count) * 4).astype(np.intp) % 4
    return _QPSK[idx]


def _pulse_for(cfg: RunConfig) -> PrototypePulse:
    return make_prototype(cfg.pulse.upper(), cfg.params, cfg.alpha, cfg.delta)


def _cm_kind(cfg: RunConfig) -> str:
    return {
        ("fft", "td"): "FFT_TD_FD",
        ("fft", "fd"): "FFT_FD_FD",
        ("direct", "td"): "DIR_TD_TD",
        ("direct", "fd"): "DIR_FD_FD",
    }[(cfg.arch, cfg.domain)]


def modulate_block(
    cfg: RunConfig,
    grid: np.ndarray,
    pulse: PrototypePulse | None = None,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Time-domain core block for the configured architecture and domain."""
    pulse = pulse or _pulse_for(cfg)
    if cfg.arch == "fft":
        w_tx = tx_window(pulse, cfg.domain.upper())
        if cfg.domain == "td":
            return fft_modem.modulate_td(grid, w_tx, counter)
        return fft_modem.modulate_fd(grid, w_tx, emit_time=True, counter=counter)
    limits = direct_modem.DirectLimits(l_max=cfg.l_max)
    if cfg.domain == "td":
        pset = direct_modem.precompute_td_mod(pulse, limits)
        return direct_modem.direct_modulate_td(grid, pset, limits, counter)
    pset = direct_modem.precompute_fd_mod(pulse, limits, force_full=True)
    return direct_modem.direct_modulate_fd(grid, pset, limits, emit_time=True, counter=counter)


def demodulate_block(
    cfg: RunConfig,
    yf_eq: np.ndarray,
    pulse: PrototypePulse | None = None,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Grid estimate from the frequency-domain equalized block.

    The FFT pipeline always demodulates in the frequency domain, which makes
    the equalizer transform the only extra one on the link; the direct engine
    demodulates in the domain it modulated in.
    """
    pulse = pulse or _pulse_for(cfg)
    if cfg.arch == "fft":
        wp = window_pair(pulse, "FD", cfg.rx.upper())
        return fft_modem.demodulate_fd(yf_eq, wp.w_rx, counter)
    limits = direct_modem.DirectLimits(l_max=cfg.l_max)
    if cfg.domain == "td":
        # Time-domain receiver: bring the equalized block back first.
        wp = window_pair(pulse, "TD", cfg.rx.upper())
        y_eq = dft(yf_eq, inverse=True, counter=counter) / cfg.n
        pset = direct_modem.precompute_td_demod(wp.w_rx, limits)
        return direct_modem.direct_demodulate_td(y_eq, pset, limits, counter)
    wp = window_pair(pulse, "FD", cfg.rx.upper())
    pset = direct_modem.precompute_fd_demod(wp.w_rx, limits, force_full=True)
    return direct_modem.direct_demodulate_fd(yf_eq, pset, limits, counter)


@dataclass(frozen=True)
class LoopbackReport:
    kind: str
    k: int
    m: int
    n_symbols: int
    nmse: float
    ser: float
    measured_cm: int
    formula_cm: int

    @property
    def cm_match(self) -> bool:
        return self.measured_cm == self.formula_cm

    def __str__(self) -> str:
        return (
            f"loopback {self.kind} K={self.k} M={self.m}: "
            f"nmse={self.nmse:.3e} ser={self.ser:.3e} "
            f"cm measured={self.measured_cm} formula={self.formula_cm} "
            f"({'match' if self.cm_match else 'MISMATCH'})"
        )


def run_loopback(cfg: RunConfig) -> LoopbackReport:
    """One full block through the evaluation chain of the configured link."""
    params = cfg.params
    pulse = _pulse_for(cfg)
    d_on = qpsk_symbols(cfg.seed, params.n_active)
    grid = reference.map_symbols(d_on, params)

    counter = MulCounter()
    x = modulate_block(cfg, grid, pulse, counter)
    framed = channel.add_cp(x, cfg.n_cp, cfg.n_cs)
    received = channel.apply_channel(
        framed, ChannelSpec(np.asarray(cfg.channel_taps), cfg.snr_db, cfg.seed)
    )
    core = channel.remove_cp(received, cfg.n_cp, cfg.n_cs)
    yf_eq = channel.fd_equalize_zf(core, np.asarray(cfg.channel_taps), counter=counter)
    grid_hat = demodulate_block(cfg, yf_eq, pulse, counter)
    d_hat = reference.demap_symbols(grid_hat, params)

    if cfg.rx == "mf":
        # Matched filtering leaves a positive per-symbol gain; normalize it out
        # of the error metric so the report stays comparable.
        gain = float(np.vdot(d_on, d_hat).real / np.vdot(d_on, d_on).real)
        if gain > 0:
            d_hat = d_hat / gain
    err = d_hat - d_on
    nmse = float(np.vdot(err, err).real / np.vdot(d_on, d_on).real)
    hard = np.sign(d_hat.real) + 1j * np.sign(d_hat.imag)
    sent = np.sign(d_on.real) + 1j * np.sign(d_on.imag)
    ser = float(np.mean(hard != sent))

    kind = _cm_kind(cfg)
    return LoopbackReport(
        kind=kind,
        k=cfg.k,
        m=cfg.m,
        n_symbols=params.n_active,
        nmse=nmse,
        ser=ser,
        measured_cm=counter.count,
        formula_cm=analysis.cm_count(kind, cfg.k, cfg.m),
    )
