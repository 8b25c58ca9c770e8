"""Deterministic complex-vector kernels.

Power-of-two DFT/IDFT with an explicit complex-multiplication counter,
polyphase reshaping, and the discrete Zak transforms in both domains.  The
transform values come from ``numpy.fft``; the counter charges the radix-2
cost model below, which describes the hardware transform core whatever
computes the values.

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
* The input rules every module shares live here: :func:`is_int`, :func:`is_pow2`,
  :func:`check_grid`, the zero-forcing threshold :data:`SINGULAR_EPS` and the
  finite-range rule :func:`finite_only`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError

__all__ = [
    "MulCounter",
    "SINGULAR_EPS",
    "check_grid",
    "dft",
    "fft_mul_count",
    "finite_only",
    "is_int",
    "is_pow2",
    "polyphase",
    "zak_time",
    "zak_freq",
]


#: Zero-forcing refuses a window entry or a channel frequency bin whose magnitude is at most this.
SINGULAR_EPS = 1e-8


def is_int(v) -> bool:
    """The one integer rule: an int or a numpy integer, never a bool (exact type first: ABCs are slow)."""
    return type(v) is int or (not isinstance(v, bool) and isinstance(v, numbers.Integral))


def is_pow2(n) -> bool:
    return is_int(n) and n >= 1 and n & (n - 1) == 0


def finite_only() -> np.errstate:
    """Finite in, finite out: an overflow, invalid operation or division by zero raises ``FloatingPointError``."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


def check_grid(k, m) -> tuple[int, int]:
    """``(K, M)`` as ints; reject a K or M that is not a power-of-two integer."""
    if not (is_pow2(k) and is_pow2(m)):
        raise ConfigError(f"K and M must be powers of two, got K={k}, M={m}")
    return int(k), int(m)


class MulCounter:
    """Monotone counter of complex multiplications.

    One counter belongs to one modem instance; it is the only mutable state in
    the numeric layer.
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


def fft_mul_count(n: int) -> int:
    """Complex multiplications of one length-``n`` radix-2 transform."""
    if not is_pow2(n):
        raise ConfigError(f"transform size must be a power of two, got {n}")
    n = int(n)
    return (n // 2) * (n.bit_length() - 1) if n > 2 else 0


def dft(
    x: np.ndarray, inverse: bool = False, counter: MulCounter | None = None, normalized: bool = False
) -> np.ndarray:
    """Transform along axis 0 of a 1-D or 2-D array, unnormalized unless ``normalized``.

    A 2-D input is treated as a batch of column vectors.  The counter is
    charged :func:`fft_mul_count` per column.  ``normalized`` divides by ``n``
    through ``numpy.fft``'s ``norm``: ``n`` is a power of two, so each value equals
    the division afterwards (a zero keeps its sign), without its extra pass.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim not in (1, 2):
        raise ConfigError("dft expects a vector or a batch of column vectors")
    n = a.shape[0]
    cost = fft_mul_count(n)  # the one power-of-two check
    transform = np.fft.ifft if inverse else np.fft.fft
    out = transform(a, axis=0, norm="backward" if normalized == inverse else "forward")
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
