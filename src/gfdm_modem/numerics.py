"""Deterministic complex-vector kernels.

Power-of-two DFT/IDFT with an explicit complex-multiplication counter,
polyphase reshaping, and the discrete Zak transforms in both domains.  The
transform values come from numpy's pocketfft gufuncs
(``numpy.fft._pocketfft_umath``, numpy >= 2.0), the kernels ``numpy.fft``
itself calls, called directly so that a transform pays for its arithmetic and
not for the ``numpy.fft`` wrapper; the counter charges the radix-2 cost model
below, which describes the hardware transform core whatever computes the
values.

Conventions
-----------
* The DFT matrix is ``F[a, b] = exp(-2j*pi*a*b/n)`` and the inverse kernel is
  its conjugate ``F^H``.  Neither carries a ``1/n`` factor unless :func:`dft` is
  asked for it (``normalized``); every other scale factor is the caller's.
* ``polyphase(a, Q, P)`` is the row-major ``Q x P`` reshape, so row ``q`` holds
  ``a[q*P : (q+1)*P]`` and column ``p`` is ``a`` decimated by ``P`` with
  phase ``p``.
* Transform cost is counted as ``(n/2) * log2(n)`` complex multiplications per
  length-``n`` vector for ``n > 2`` and zero for ``n <= 2`` (the 2-point
  butterfly needs additions only).
* :class:`Held` is the store of the tables that depend only on a geometry (``link``'s transmit
  windows, ``channel``'s responses): least recently used first out, bounded by :data:`HELD_BYTES`.
* The numeric input rules the modules share live here: :func:`is_int`, the count rule
  :func:`check_positive`, :func:`is_pow2`, :func:`check_grid`, the block bound
  :data:`MAX_N`, the zero-forcing threshold :data:`SINGULAR_EPS` and the
  finite-range rule: :func:`finite_only` around a computation, :func:`finite_result`
  on its result.  The link's own rules live in ``channel``: the real-number rule
  ``check_real``, the seed rule ``check_seed``, the framing rule ``check_framing``, and
  the taps and SNR rules ``check_taps`` and ``check_snr_db``, which only ``ChannelSpec`` runs.
"""

from __future__ import annotations

import numbers
from functools import cache

import numpy as np
from numpy.fft import _pocketfft_umath as pocketfft

from .errors import ConfigError

__all__ = [
    "HELD_BYTES",
    "Held",
    "MAX_N",
    "MulCounter",
    "SINGULAR_EPS",
    "check_grid",
    "check_positive",
    "dft",
    "fft_mul_count",
    "finite_only",
    "finite_result",
    "is_int",
    "is_pow2",
    "polyphase",
    "zak_time",
    "zak_freq",
]


#: Zero-forcing refuses a window entry or a channel frequency bin whose magnitude is at most this.
SINGULAR_EPS = 1e-8

#: The largest block K*M a modem is built for: a larger one is refused before anything is allocated.
#: The largest any test or workload runs is 4096; an N = 2**20 loopback peaks at ~318 MB.
MAX_N = 2**20


def is_int(v) -> bool:
    """The one integer rule: an int or a numpy integer, never a bool (exact type first: ABCs are slow)."""
    return type(v) is int or (not isinstance(v, bool) and isinstance(v, numbers.Integral))


def check_positive(name: str, value) -> int:
    """The one count rule: ``value`` as an int; reject a bool, a non-integer or one below 1."""
    if not (is_int(value) and value >= 1):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def is_pow2(n) -> bool:
    return is_int(n) and n >= 1 and n & (n - 1) == 0


def finite_only() -> np.errstate:
    """Finite in, finite out: an overflow, invalid operation or division by zero raises ``FloatingPointError``."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


def finite_result(a):
    """``a`` if every entry is finite, else ``FloatingPointError``: the finite-range rule where numpy
    checks no flag, as in a BLAS dot."""
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite result")
    return a


def check_grid(k, m) -> tuple[int, int]:
    """``(K, M)`` as ints; reject a K or M that is not a power-of-two integer."""
    if not (is_pow2(k) and is_pow2(m)):
        raise ConfigError(f"K and M must be powers of two, got K={k}, M={m}")
    return int(k), int(m)


class MulCounter:
    """Monotone counter of complex multiplications.

    One counter belongs to one modem instance; beside the :class:`Held` stores it
    is the only mutable state in the numeric layer.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int) -> None:
        if k < 0:
            raise ValueError("counter increments must be nonnegative")
        self.count += k

    def __repr__(self) -> str:
        return f"MulCounter(count={self.count})"


#: The array bytes one :class:`Held` store keeps; only the entry just used may hold more, alone.
HELD_BYTES = 1 << 20


class Held:
    """A least-recently-used store of built tables, bounded by the bytes of their arrays.

    ``Held(build)`` called with ``build``'s positional arguments returns the value held for them, else
    builds, holds and returns it.  An entry's bytes are the ``nbytes`` of the value, or of the arrays
    in a tuple value; :attr:`nbytes` is their sum.  A build evicts the least recently used entries
    until the new one fits :data:`HELD_BYTES`, never the entry just used, so one above the budget
    is held alone.  A build that raises holds and evicts nothing, and raises again on the next call.
    """

    __slots__ = ("_build", "_entries", "nbytes")

    def __init__(self, build) -> None:
        self._build = build
        self._entries: dict = {}  # key -> (value, bytes), least recently used first
        self.nbytes = 0

    def __call__(self, *key):
        entries = self._entries
        entry = entries.pop(key, None)
        if entry is None:
            value = self._build(*key)
            size = value.nbytes if isinstance(value, np.ndarray) else sum(
                v.nbytes for v in value if isinstance(v, np.ndarray))
            self.nbytes += size
            while entries and self.nbytes > HELD_BYTES:
                self.nbytes -= entries.pop(next(iter(entries)))[1]
            entry = value, size
        entries[key] = entry  # the most recently used, last
        return entry[0]

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        """Drop every entry, as ``functools.lru_cache``'s method of that name."""
        self._entries.clear()
        self.nbytes = 0


def fft_mul_count(n: int) -> int:
    """Complex multiplications of one length-``n`` radix-2 transform."""
    if not is_pow2(n):
        raise ConfigError(f"transform size must be a power of two, got {n}")
    n = int(n)
    return (n // 2) * (n.bit_length() - 1) if n > 2 else 0


_size_cost = cache(fft_mul_count)  # per size: dft passes a.shape's int, an exact key; a refusal is not held


def dft(
    x: np.ndarray, inverse: bool = False, counter: MulCounter | None = None, normalized: bool = False
) -> np.ndarray:
    """Transform along axis 0 of a 1-D or 2-D array, unnormalized unless ``normalized``.

    A 2-D input is treated as a batch of column vectors.  The counter is
    charged :func:`fft_mul_count` per column.  The values are those of
    ``numpy.fft.fft``/``ifft`` along axis 0, bit for bit: this calls the
    pocketfft gufunc those call, without their per-call wrapper, into an output
    laid out as ``np.empty_like`` of the input.  ``normalized`` is the gufunc's
    ``1/n`` factor: ``n`` is a power of two, so each value equals the division
    afterwards (a zero keeps its sign), without its extra pass.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim not in (1, 2):
        raise ConfigError("dft expects a vector or a batch of column vectors")
    n = a.shape[0]
    cost = _size_cost(n)  # the one power-of-two check, run once per size
    transform = pocketfft.ifft if inverse else pocketfft.fft
    out = transform(a, 1 / n if normalized else 1, axes=[(0,), (), (0,)], out=np.empty_like(a))
    if counter is not None:
        counter.add(cost * (1 if a.ndim == 1 else a.shape[1]))
    return out


def polyphase(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape a length ``rows*cols`` vector into its ``rows x cols`` polyphase matrix.

    ``out[q, p] = a[p + q*cols]``: column ``p`` samples ``a`` by the factor
    ``cols`` starting at phase ``p``.
    """
    v = np.asarray(a)
    if v.ndim != 1 or v.size != rows * cols:
        raise ConfigError(
            f"polyphase needs a vector of length {rows}*{cols}={rows * cols}, got shape {v.shape}"
        )
    return v.reshape(rows, cols)


def zak_time(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Discrete Zak transform: forward DFT down each polyphase column."""
    return dft(polyphase(a, rows, cols))


def zak_freq(af: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Dual Zak transform of a spectrum: scaled inverse DFT down each polyphase column."""
    return dft(polyphase(af, rows, cols), inverse=True, normalized=True)
