"""End-to-end evaluation chain: map, modulate, frame, channel, equalize, demodulate.

As the modem loads its pulse and window memories and its stage tables when
reconfigured, the configuration is held in two read-only levels that later
blocks stream through.  The :class:`Waveform` is the prototype pulse and its
time- and frequency-domain transmit windows, keyed by the geometry (``k, m``
and the sorted, de-duplicated ``k_on, m_on``) and ``pulse, alpha, delta``.
The :class:`ModemPlan` is the geometry, the cost kind and the stage tables of
both directions (FFT presets, or the tables ``direct_modem.precompute_*``
return: the same presets with chain tap rows in the window slot), keyed by
those fields plus ``rx, arch, domain, l_max``; it is derived from the held
waveform, so a switch of engine, domain or receiver synthesizes no pulse and
transforms no transmit window.  A new plan builds only the tables whose inputs
changed and takes the others from the held plan: a table's key is the
waveform, the engine, its own mode (``FD_DEMOD`` for the FFT receiver in both
domains), ``rx`` for a demodulator and ``l_max`` for a chain table, so a ``rx``
switch keeps the modulator and an FFT ``domain`` switch the demodulator.
Neither key holds the seed, SNR, channel or prefix.  Each level holds one
slot, the last one used, and nothing else is held.  A failed plan build
(a direct block over ``n_max`` or ``l_max`` too) raises on every call and
leaves the held plan in place (the waveform it was derived from may stay
loaded).  The chain's other configuration-only tables are held the same way:
the symbol gather index on the geometry (``GfdmParams.active_index``) and the
channel response in the equalizer (``channel.channel_response``).  The chain meters every modem transform and
window product on one counter, so the measured total can be reconciled
against the closed-form figures.  The FFT pipeline demodulates in the
frequency domain, the direct engine in the domain it modulated in: its
time-domain demodulator's stage 0 takes the equalized spectrum back to time.
The direct frequency-domain route runs its generic full-band chain set here;
the sparse short-cut is a library feature exercised separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, channel, direct_modem, fft_modem, reference
from .channel import ChannelSpec, splitmix64_words
from .config import RunConfig
from .numerics import MulCounter
from .pulses import GfdmParams, PrototypePulse, make_prototype, rx_window, tx_window

__all__ = ["LoopbackReport", "Waveform", "ModemPlan", "waveform_for", "plan_for", "run_loopback",
           "modulate_block", "demodulate_block", "qpsk_symbols"]

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
_SYMBOL_STREAM_OFFSET = 1 << 40  # keeps symbol draws clear of the noise draws


def qpsk_symbols(seed: int, count: int) -> np.ndarray:
    """Deterministic unit-power QPSK symbols, ``floor(4u) % 4`` of each stream word ``u``.

    The index is the top two bits of the integer word ``z`` after a carry of 2**11
    when its top bit is set: there ``(z >> 11) + 0.5`` rounds half to even in ``u``.
    """
    z = splitmix64_words(seed, _SYMBOL_STREAM_OFFSET, count)
    carry = np.right_shift(z, np.uint64(63))
    carry <<= np.uint64(11)
    z += carry
    z >>= np.uint64(62)
    return _QPSK[z.view(np.int64)]  # a signed index gathers without a cast


@dataclass(frozen=True, eq=False)
class Waveform:
    """The prototype pulse and its TD and FD transmit windows, all read-only."""

    pulse: PrototypePulse
    w_td: np.ndarray
    w_fd: np.ndarray

    @classmethod
    def build(cls, cfg: RunConfig) -> Waveform:
        """Synthesize the pulse and both transmit windows, and make them read-only."""
        pulse = make_prototype(cfg.pulse.upper(), cfg.params, cfg.alpha, cfg.delta)
        wave = cls(pulse, tx_window(pulse, "TD"), tx_window(pulse, "FD"))
        for arr in (pulse.time, pulse.freq, wave.w_td, wave.w_fd):
            arr.flags.writeable = False
        return wave

    def w_tx(self, domain: str) -> np.ndarray:
        """Transmit window of the processing domain ``"TD"`` or ``"FD"``."""
        return self.w_td if domain == "TD" else self.w_fd


@dataclass(frozen=True, eq=False)
class ModemPlan:
    """A configured modem: geometry, cost kind and the stage tables of both directions."""

    params: GfdmParams
    kind: str
    mod: fft_modem.ArchConfig
    demod: fft_modem.ArchConfig

    @classmethod
    def build(
        cls, cfg: RunConfig, mod: fft_modem.ArchConfig | None = None, demod: fft_modem.ArchConfig | None = None
    ) -> ModemPlan:
        """Derive the tables from the loaded waveform, each receive window from its transmit window.

        A table given as ``mod`` or ``demod`` (one built from the same inputs) is taken as it is.
        """
        wave = waveform_for(cfg)
        pulse, params, d, rx = wave.pulse, wave.pulse.params, cfg.domain.upper(), cfg.rx.upper()
        if cfg.arch == "fft":
            mod = mod or fft_modem.preset(f"{d}_MOD", params, wave.w_tx(d))
            demod = demod or fft_modem.preset("FD_DEMOD", params, rx_window(wave.w_fd, rx))
            return cls(params, f"FFT_{d}_FD", mod, demod)
        limits = direct_modem.DirectLimits(l_max=cfg.l_max)
        if d == "TD":
            mod = mod or direct_modem.precompute_td_mod(pulse, limits)
            demod = demod or direct_modem.precompute_td_demod(rx_window(wave.w_td, rx), limits)
        else:
            mod = mod or direct_modem.precompute_fd_mod(pulse, limits, force_full=True)
            demod = demod or direct_modem.precompute_fd_demod(rx_window(wave.w_fd, rx), limits, force_full=True)
        return cls(params, f"DIR_{d}_{d}", mod, demod)

    def modulate(self, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
        """Time-domain core block of a K x M symbol grid."""
        return fft_modem.run_modulator(self.mod, grid, counter)

    def demodulate(self, yf_eq: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
        """Grid estimate from the frequency-domain equalized block."""
        return fft_modem.run_demodulator(self.demod, yf_eq, counter)


def _waveform_key(cfg: RunConfig) -> tuple:
    # GfdmParams sorts and de-duplicates the active sets: k_on=(2, 1) keys as (1, 2),
    # None as the full range; the pulse kind keys in the upper case it is built in.
    return (cfg.params, cfg.pulse.upper(), cfg.alpha, cfg.delta)


def _plan_key(cfg: RunConfig) -> tuple:
    return (*_waveform_key(cfg), cfg.rx, cfg.arch, cfg.domain, cfg.l_max)


def _table_keys(cfg: RunConfig) -> tuple[tuple, tuple]:
    """Keys of what the modulator and the demodulator table are each built from."""
    wave, d = _waveform_key(cfg), cfg.domain.upper()
    if cfg.arch == "fft":  # the FFT receiver works in frequency in both domains
        return (wave, "fft", f"{d}_MOD"), (wave, "fft", "FD_DEMOD", cfg.rx)
    return (wave, "direct", f"{d}_MOD", cfg.l_max), (wave, "direct", f"{d}_DEMOD", cfg.rx, cfg.l_max)


# One tuple per level, replaced whole: a reader never pairs a key with another key's
# content.  Holding more costs memory for every configuration ever run.  The plan's
# tuple also holds the keys of its two tables, which the next build compares.
_waveform: tuple[tuple, Waveform | None] = ((), None)
_loaded: tuple[tuple, ModemPlan | None, tuple[tuple, tuple]] = ((), None, ((), ()))


def waveform_for(cfg: RunConfig) -> Waveform:
    """The loaded waveform when ``cfg`` has its key, else a new waveform, which is loaded."""
    global _waveform
    key = _waveform_key(cfg)
    if _waveform[0] != key:
        _waveform = (key, Waveform.build(cfg))
    return _waveform[1]


def plan_for(cfg: RunConfig) -> ModemPlan:
    """The loaded plan when ``cfg`` has its key, else a new plan, which is loaded.

    A new plan takes each of the loaded plan's tables whose key it shares and builds
    the others; a refused build raises on every call and leaves the loaded plan.
    """
    global _loaded
    key = _plan_key(cfg)
    if _loaded[0] != key:
        keys = _table_keys(cfg)
        _, held, held_keys = _loaded
        mod = held.mod if keys[0] == held_keys[0] else None
        demod = held.demod if keys[1] == held_keys[1] else None
        _loaded = (key, ModemPlan.build(cfg, mod, demod), keys)
    return _loaded[1]


def modulate_block(cfg: RunConfig, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Time-domain core block for the configured architecture and domain."""
    return plan_for(cfg).modulate(grid, counter)


def demodulate_block(cfg: RunConfig, yf_eq: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Grid estimate from the frequency-domain equalized block."""
    return plan_for(cfg).demodulate(yf_eq, counter)


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
    plan = plan_for(cfg)
    params = plan.params
    d_on = qpsk_symbols(cfg.seed, params.n_active)
    grid = reference.map_symbols(d_on, params)

    counter = MulCounter()
    x = plan.modulate(grid, counter)
    framed = channel.add_cp(x, cfg.n_cp, cfg.n_cs)
    spec = ChannelSpec(np.asarray(cfg.channel_taps), cfg.snr_db, cfg.seed)
    received = channel.apply_channel(framed, spec)
    core = channel.remove_cp(received, cfg.n_cp, cfg.n_cs)
    yf_eq = channel.fd_equalize_zf(core, spec.taps, counter=counter)
    grid_hat = plan.demodulate(yf_eq, counter)
    d_hat = reference.demap_symbols(grid_hat, params)

    power = np.vdot(d_on, d_on).real
    if cfg.rx == "mf":
        # Matched filtering leaves a positive per-symbol gain; normalize it out
        # of the error metric so the report stays comparable.  numpy divides a
        # complex by a real as a product with its reciprocal: so does the float view.
        gain = float(np.vdot(d_on, d_hat).real / power)
        if gain > 0:
            d_hat = (d_hat.view(np.float64) * (1 / gain)).view(np.complex128)
    err = d_hat - d_on
    nmse = float(np.vdot(err, err).real / power)
    # A symbol is wrong when the sign of either part differs: one 2-byte word of the pair's flags.
    wrong = np.sign(d_hat.view(np.float64)) != np.sign(d_on.view(np.float64))
    ser = float(np.count_nonzero(wrong.view(np.uint16)) / d_on.size)

    return LoopbackReport(
        kind=plan.kind,
        k=cfg.k,
        m=cfg.m,
        n_symbols=params.n_active,
        nmse=nmse,
        ser=ser,
        measured_cm=counter.count,
        formula_cm=analysis.cm_count(plan.kind, cfg.k, cfg.m),
    )
