"""Prototype pulse synthesis and Zak-domain modem windows.

A prototype pulse is stored as the pair ``(g, g_f)`` of its ``N`` time samples
and its ``N``-point spectrum, normalized to unit time-domain energy.  The
transmit window of a ``K x M`` block geometry is the ``K x M`` matrix of Zak
coefficients of the pulse; modulation and demodulation reduce to elementwise
multiplication by such windows.

The window of the time-domain processing path and the window of the
frequency-domain path are different matrices: they are coupled elementwise by
the phase ``exp(-2j*pi*p*q/N)``.  Every operation here therefore takes the
target domain explicitly, and receive windows are derived from the transmit
window of the same domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, SingularWindow
from .numerics import SINGULAR_EPS, check_grid, dft, is_int, zak_freq, zak_time

__all__ = [
    "GfdmParams",
    "PrototypePulse",
    "WindowPair",
    "PULSE_KINDS",
    "check_pulse_spec",
    "make_prototype",
    "tx_window",
    "rx_window",
    "window_pair",
    "occupied_bands",
]

PULSE_KINDS = ("RC", "RRC", "DIRICHLET", "RECT_TD")

#: A subcarrier band whose peak magnitude is at most this fraction of the spectrum peak is empty.
BAND_EPS = 1e-12


@dataclass(frozen=True)
class GfdmParams:
    """Block geometry: K subcarriers times M subsymbols, with active sets."""

    k: int
    m: int
    k_on: tuple[int, ...] = field(default=())
    m_on: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        # Held as ints, as RunConfig holds them: a small numpy integer would wrap in n or active_index.
        k, m = check_grid(self.k, self.m)
        for name in ("k_on", "m_on"):
            if not all(map(is_int, getattr(self, name) or ())):
                raise ConfigError(f"{name} must hold integers, got {getattr(self, name)!r}")
        k_on = tuple(sorted(set(map(int, self.k_on)))) if self.k_on else tuple(range(k))
        m_on = tuple(sorted(set(map(int, self.m_on)))) if self.m_on else tuple(range(m))
        if not k_on or k_on[0] < 0 or k_on[-1] >= k:
            raise ConfigError(f"active subcarrier set out of range for K={k}: {k_on}")
        if not m_on or m_on[0] < 0 or m_on[-1] >= m:
            raise ConfigError(f"active subsymbol set out of range for M={m}: {m_on}")
        for name, value in (("k", k), ("m", m), ("k_on", k_on), ("m_on", m_on)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.k * self.m

    @property
    def n_active(self) -> int:
        return len(self.k_on) * len(self.m_on)

    @cached_property
    def active_index(self) -> np.ndarray:
        """Read-only flat (row-major) grid index of the active positions, subcarrier index fastest."""
        index = (np.asarray(self.k_on)[:, None] * self.m + np.asarray(self.m_on)).ravel(order="F")
        index.flags.writeable = False
        return index


@dataclass(frozen=True, eq=False)
class PrototypePulse:
    """Unit-energy prototype pulse with matched time and frequency samples."""

    kind: str
    params: GfdmParams
    alpha: float
    delta: float
    time: np.ndarray
    freq: np.ndarray


@dataclass(frozen=True, eq=False)
class WindowPair:
    """Transmit and receive windows of one processing domain."""

    w_tx: np.ndarray
    w_rx: np.ndarray
    rx_kind: str
    domain: str


def _rc_profile(u: np.ndarray, alpha: float) -> np.ndarray:
    """Raised-cosine frequency profile r_alpha(u) with unit passband."""
    u = np.abs(u)
    out = np.zeros_like(u)
    out[u <= (1 - alpha) / 2] = 1.0
    if alpha > 0:
        roll = (u > (1 - alpha) / 2) & (u <= (1 + alpha) / 2)
        out[roll] = 0.5 * (1 + np.cos((np.pi / alpha) * (u[roll] - (1 - alpha) / 2)))
    return out


def check_pulse_spec(kind: str, alpha: float, delta: float) -> None:
    """Reject an unknown pulse kind, a rolloff outside [0, 1] or a shift other than 0 or 1/2."""
    if kind not in PULSE_KINDS:
        raise ConfigError(f"unknown pulse kind {kind!r}, expected one of {PULSE_KINDS}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"rolloff must be in [0, 1], got {alpha}")
    if delta not in (0.0, 0.5):
        raise ConfigError(f"frequency-grid shift must be 0 or 1/2, got {delta}")


def make_prototype(kind: str, params: GfdmParams, alpha: float = 0.0, delta: float = 0.0) -> PrototypePulse:
    """Synthesize a prototype pulse.

    ``RC``/``RRC`` sample the (root) raised-cosine profile on the grid
    ``u = (q + delta)/M`` over the bins ``q = -M .. M-1``; ``delta`` is the
    half-sample shift that keeps even/even geometries invertible.
    ``DIRICHLET`` is flat over the M bins of subcarrier band 0 and
    ``RECT_TD`` is flat over the K samples of subsymbol 0.

    A singular transmit window (for example RC with ``alpha=0``, ``delta=0``
    on an even/even geometry) is not an error here; it surfaces when a
    zero-forcing receive window is requested.
    """
    check_pulse_spec(kind, alpha, delta)
    k, m, n = params.k, params.m, params.n
    if kind in ("RC", "RRC"):
        if k < 2:
            raise ConfigError("the raised-cosine grid spans two subcarrier bands, needs K >= 2")
        gf = np.zeros(n, dtype=np.complex128)
        q = np.arange(-m, m)
        prof = _rc_profile((q + delta) / m, alpha)
        if kind == "RRC":
            prof = np.sqrt(prof)
        gf[q % n] = prof
        g = dft(gf, inverse=True, normalized=True)
    elif kind == "DIRICHLET":
        gf = np.zeros(n, dtype=np.complex128)
        gf[:m] = 1.0
        g = dft(gf, inverse=True, normalized=True)
    else:  # RECT_TD
        g = np.zeros(n, dtype=np.complex128)
        g[:k] = 1.0
        gf = dft(g)

    energy = np.linalg.norm(g)
    if energy == 0.0:
        raise ConfigError("degenerate pulse with zero energy")
    return PrototypePulse(kind, params, float(alpha), float(delta), g / energy, gf / energy)


def tx_window(pulse: PrototypePulse, domain: str) -> np.ndarray:
    """K x M transmit window of the given processing domain.

    ``TD`` builds it from the Zak transform of the time pulse, ``FD`` from the
    dual Zak transform of the spectrum.  The two matrices agree only up to the
    elementwise phase ``exp(-2j*pi*p*q/N)``.
    """
    k, m = pulse.params.k, pulse.params.m
    if domain == "TD":
        return k * zak_time(pulse.time, m, k).T
    if domain == "FD":
        return k * zak_freq(pulse.freq, k, m)
    raise ConfigError(f"domain must be 'TD' or 'FD', got {domain!r}")


def rx_window(w_tx: np.ndarray, kind: str) -> np.ndarray:
    """Receive window matching a transmit window of the same domain.

    ``ZF`` inverts the window elementwise so that demodulation after
    modulation is the identity (``w_rx * w_tx == 1``); it raises :class:`SingularWindow`
    when any entry of ``w_tx`` has magnitude at most ``numerics.SINGULAR_EPS``.
    ``MF`` is the plain conjugate without renormalization.
    """
    w = np.asarray(w_tx)
    if kind == "ZF":
        low = np.abs(w).min()
        if low <= SINGULAR_EPS:
            raise SingularWindow(
                f"transmit window has |entry|={low:.3e} <= {SINGULAR_EPS:.1e}; "
                "zero-forcing dual does not exist for this pulse and geometry"
            )
        return 1.0 / w
    if kind == "MF":
        return w.conj()
    raise ConfigError(f"receive window kind must be 'ZF' or 'MF', got {kind!r}")


def window_pair(pulse: PrototypePulse, domain: str, rx_kind: str) -> WindowPair:
    """Transmit/receive window pair for one domain."""
    w_tx = tx_window(pulse, domain)
    return WindowPair(w_tx, rx_window(w_tx, rx_kind), rx_kind, domain)


def occupied_bands(bands: np.ndarray) -> np.ndarray:
    """Indices of the occupied rows of a K x M band matrix (row l: subcarrier band l).

    A band is occupied when its peak magnitude exceeds ``BAND_EPS`` times the
    peak of the whole matrix.
    """
    peaks = np.abs(bands).max(axis=1)
    return np.flatnonzero(peaks > BAND_EPS * peaks.max())
