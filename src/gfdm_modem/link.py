"""End-to-end evaluation chain: map, modulate, frame, channel, equalize, demodulate.

As the modem loads its pulse and window memories and its stage tables when
reconfigured, the configuration is held in read-only tables that later blocks
stream through.  Two rules hold them.  Data that depends only on the geometry
is held per geometry, in a ``numerics.Held`` store: least recently used first
out, its arrays read-only and bounded by ``numerics.HELD_BYTES``, and a build
that raises holds and evicts nothing.  :func:`_windows` is one: it holds the
``GfdmParams`` and both transmit windows of a waveform key, the geometry
(``GfdmParams`` sorts and de-duplicates ``k_on, m_on``) and the upper-case
``pulse`` with ``alpha, delta``, and keeps no pulse samples; the equalizer's channel responses
(``channel.channel_response``) are the other.  So a rotation over a few
geometries synthesizes each pulse once.  The tables of a configuration live
in its plan, and :func:`_plan` holds the last plan, keyed by the waveform key
plus ``rx, arch, domain, l_max``.  A plan reads its waveform's geometry and
windows once and builds, by one unheld table rule (:func:`_table`), the
modulator's table from ``w_tx(d)``, then the receive window
``rx_window(w_tx(d_rx), rx)`` and the demodulator's table from it (``d_rx`` is
``"FD"`` for the FFT receiver in both domains): an FFT preset of the window, or
the direct chain table whose tap rows are that window's stage transform.  So a
switch of engine, domain or receiver synthesizes no pulse, and a direct
configuration with several faults reports the first of block length, chain
count, singular zero-forcing window.  A plan holds its kind's
``analysis.cm_count``; :func:`_cm_count` keeps every count it computed, one
per kind and geometry.
The channel is the configuration's own checked ``ChannelSpec``,
``cfg.channel``; a block passes it to ``apply_channel`` with
its seed, its only per-block channel input, and to the equalizer.  A refused
configuration (a singular zero-forcing window, a direct block over
``direct_modem.MAX_DIRECT_N`` or ``l_max``) raises on every call and leaves
the held plan in place.  A plan's geometry is
the ``GfdmParams`` held with its windows (equal by value to the configuration's),
so the symbol gather index (``GfdmParams.active_index``) is built once per held
geometry, not once per configuration, and a table rebuild validates no
geometry anew.  The chain meters every modem transform and window product on
one counter, so the measured total can be reconciled against the closed-form
figures.  The FFT pipeline demodulates in the frequency domain, the direct
engine in the domain it modulated in: its time-domain demodulator's stage 0
takes the equalized spectrum back to time.
The direct frequency-domain route runs its generic full-band chain set here;
the sparse short-cut is a library feature exercised separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import analysis, channel, direct_modem, fft_modem, reference
from .channel import splitmix64_words
from .config import RunConfig
from .numerics import SINGULAR_EPS, Held, MulCounter, finite_only, finite_result
from .pulses import GfdmParams, make_prototype, rx_window, tx_window

__all__ = ["LoopbackReport", "ModemPlan", "plan_for", "run_loopback", "modulate_block", "demodulate_block",
           "qpsk_symbols"]

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)
_SYMBOL_STREAM_OFFSET = 1 << 40  # keeps symbol draws clear of the noise draws
_S11, _S62, _S63 = map(np.uint64, (11, 62, 63))  # the index's shift counts, built once


def qpsk_symbols(seed: int, count: int) -> np.ndarray:
    """Deterministic unit-power QPSK symbols, ``floor(4u) % 4`` of each stream word ``u``.

    The index is the top two bits of the integer word ``z`` after a carry of 2**11
    when its top bit is set: there ``(z >> 11) + 0.5`` rounds half to even in ``u``.
    """
    z = splitmix64_words(seed, _SYMBOL_STREAM_OFFSET, count)
    carry = np.right_shift(z, _S63)
    carry <<= _S11
    z += carry
    z >>= _S62
    return _QPSK[z.view(np.int64)]  # a signed index gathers without a cast


@dataclass(frozen=True, eq=False)
class ModemPlan:
    """A configured modem: geometry, cost kind, its ``analysis.cm_count`` and both directions' tables."""

    params: GfdmParams
    kind: str
    formula_cm: int
    mod: fft_modem.ArchConfig
    demod: fft_modem.ArchConfig

    def modulate(self, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
        """Time-domain core block of a K x M symbol grid."""
        return fft_modem.run_modulator(self.mod, grid, counter)

    def demodulate(self, yf_eq: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
        """Grid estimate from the frequency-domain equalized block."""
        return fft_modem.run_demodulator(self.demod, yf_eq, counter)


# A waveform key ``wave`` is ``(params, pulse, alpha, delta)``, the arguments of ``_windows``.
@Held
def _windows(params: GfdmParams, pulse: str, alpha: float, delta: float) -> tuple:
    """``(params, w_td, w_fd)``: the geometry and the pulse's two transmit windows, held read-only."""
    proto = make_prototype(pulse, params, alpha, delta)
    return params, tx_window(proto, "TD"), tx_window(proto, "FD")


def _table(arch: str, mode: str, params: GfdmParams, window: np.ndarray, l_max: int) -> fft_modem.ArchConfig:
    """The stage table of ``mode`` from its window: an FFT preset of it, or the direct chain table of it."""
    if arch == "fft":
        return fft_modem.preset(mode, params, window)
    build = getattr(direct_modem, f"precompute_{mode.lower()}")  # looked up per call, so a patched name sees it
    return build(window, l_max) if mode.startswith("TD") else build(window, l_max, force_full=True)


# Only the last configuration's plan is held: holding more costs memory for every configuration ever run.
@lru_cache(maxsize=1)
def _plan(wave: tuple, rx: str, arch: str, domain: str, l_max: int) -> ModemPlan:
    # The held geometry (equal to wave[0]), so its gather index is built once per held geometry.
    params, w_td, w_fd = _windows(*wave)
    d, fft = domain.upper(), arch == "fft"
    d_rx, w_tx = "FD" if fft else d, {"TD": w_td, "FD": w_fd}  # the FFT receiver works in frequency
    mod = _table(arch, f"{d}_MOD", params, w_tx[d], l_max)
    demod = _table(arch, f"{d_rx}_DEMOD", params, rx_window(w_tx[d_rx], rx.upper()), l_max)
    kind = f"{'FFT' if fft else 'DIR'}_{d}_{d_rx}"
    return ModemPlan(params, kind, _cm_count(kind, params.k, params.m), mod, demod)


# The closed-form count per (kind, K, M), held like ``numerics._size_cost``: the keys are bounded
# by the kinds times the legal geometries, and a refused argument raises on every call.
_cm_count = cache(analysis.cm_count)


def plan_for(cfg: RunConfig) -> ModemPlan:
    """The held plan when ``cfg`` has its key, else a new plan, which is held."""
    return _plan((cfg.params, cfg.pulse.upper(), cfg.alpha, cfg.delta), cfg.rx, cfg.arch, cfg.domain, cfg.l_max)


def modulate_block(cfg: RunConfig, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Time-domain core block for the configured architecture and domain (``numerics.finite_only``,
    ``numerics.finite_result``)."""
    with finite_only():
        return finite_result(plan_for(cfg).modulate(grid, counter))


def demodulate_block(cfg: RunConfig, yf_eq: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Grid estimate from the frequency-domain equalized block (``numerics.finite_only``,
    ``numerics.finite_result``)."""
    with finite_only():
        return finite_result(plan_for(cfg).demodulate(yf_eq, counter))


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
    """One full block through the evaluation chain of the configured link.

    The chain runs under ``numerics.finite_only`` and its grid estimate passes
    ``numerics.finite_result``: finite input whose arithmetic overflows raises
    ``FloatingPointError`` instead of reporting nan.
    """
    with finite_only():
        plan = plan_for(cfg)
        params = plan.params
        d_on = qpsk_symbols(cfg.seed, params.n_active)
        grid = reference.map_symbols(d_on, params)

        counter = MulCounter()
        x = plan.modulate(grid, counter)
        framed = channel.add_cp(x, cfg.n_cp, cfg.n_cs)
        received = channel.apply_channel(framed, cfg.channel, cfg.seed)
        core = channel.remove_cp(received, cfg.n_cp, cfg.n_cs)
        yf_eq = channel.fd_equalize_zf(core, cfg.channel, counter=counter)
        grid_hat = finite_result(plan.demodulate(yf_eq, counter))
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
        # A part is right only when its product with the sent part exceeds SINGULAR_EPS, so a part of
        # roundoff (like a 0.0 one) or NaN is wrong; a symbol is wrong when either part is: one 2-byte word.
        wrong = ~(d_hat.view(np.float64) * d_on.view(np.float64) > SINGULAR_EPS)
        ser = float(np.count_nonzero(wrong.view(np.uint16)) / d_on.size)

    return LoopbackReport(
        kind=plan.kind,
        k=cfg.k,
        m=cfg.m,
        n_symbols=params.n_active,
        nmse=nmse,
        ser=ser,
        measured_cm=counter.count,
        formula_cm=plan.formula_cm,
    )
