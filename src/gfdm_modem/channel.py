"""Cyclic-prefix framing, multipath channel, and one-tap frequency equalizer.

The noise generator is fully specified so runs are reproducible anywhere:
sample i draws two 64-bit words from a splitmix64 stream seeded by the user,
maps them to uniforms, and applies the Box-Muller transform.  Identical seeds
give bit-identical noise.

:func:`uniform64` specifies one word of the stream; :func:`uniform64_array`
computes many from the ``uint64`` words of :func:`splitmix64_words`, equal word
for word.  The Box-Muller transcendentals are ``math.log`` per sample and numpy's
complex128 ``exp(j*theta)``: a generic loop calling libm ``cexp`` per element,
with no CPU-dispatched kernel, so it returns the libm ``cos`` and ``sin`` of
``cmath.exp`` bit for bit.  numpy's float64 ``log`` is CPU-dispatched (its last
bit may depend on the CPU), so the logarithm stays on ``math``.

:func:`apply_channel` convolves by shifted adds, one whole-array multiply-add
per tap, rather than with ``np.convolve``, whose complex path does one BLAS dot
per output sample.  The equalizer treats the N-point channel response as a
configuration table: :func:`channel_response` holds the last one built, keyed by
the taps, N and the null-bin threshold, read-only, in one slot replaced whole.
A failed build (too many taps, a null bin) raises on every call and leaves the
held response in place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularChannel
from .numerics import MulCounter, dft

__all__ = [
    "ChannelSpec",
    "check_seed",
    "check_snr_db",
    "snr_ratio",
    "check_taps",
    "add_cp",
    "remove_cp",
    "apply_channel",
    "fd_equalize_zf",
    "channel_response",
    "gaussian_pairs",
    "splitmix64_words",
    "uniform64",
    "uniform64_array",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_snr_db(snr_db: float) -> None:
    """Reject an SNR that is neither finite nor ``+inf`` (noiseless): NaN and ``-inf`` name no channel."""
    if not (math.isfinite(snr_db) or snr_db == math.inf):
        raise ConfigError(f"snr_db must be finite or +inf (noiseless), got {snr_db}")


def snr_ratio(snr_db: float) -> float:
    """The linear SNR ``10 ** (snr_db / 10)``; reject a finite SNR whose ratio overflows or is 0."""
    check_snr_db(snr_db)
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if math.isfinite(snr_db) and not 0.0 < ratio < math.inf:
        fault = "overflows" if ratio else "is 0"
        raise ConfigError(f"snr_db {snr_db} is out of range: 10 ** (snr_db / 10) {fault}")
    return ratio


def check_seed(seed) -> int:
    """The noise seed as an int; reject a bool, a non-integer, or one outside the stream's 64 bits."""
    # type() first: a ChannelSpec is built per block, and the ABC check is several times slower.
    if type(seed) is not int and (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        # The noise stream takes the seed modulo 2**64; a larger one would alias.
        raise ConfigError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return int(seed)


def check_taps(taps) -> np.ndarray:
    """The impulse response as a 1-D complex array; reject one that is empty or not finite."""
    t = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
    if t.ndim != 1 or t.size < 1:
        raise ConfigError("channel needs at least one tap")
    if not np.isfinite(t).all():
        raise ConfigError(f"channel taps must be finite, got {t.tolist()}")
    return t


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Impulse response, per-sample SNR in dB (``inf`` for noiseless), seed."""

    taps: np.ndarray
    snr_db: float = math.inf
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "taps", check_taps(self.taps))
        check_snr_db(self.snr_db)
        object.__setattr__(self, "seed", check_seed(self.seed))


def add_cp(x: np.ndarray, n_cp: int, n_cs: int = 0) -> np.ndarray:
    """Prepend the last ``n_cp`` samples and append the first ``n_cs``."""
    x = np.asarray(x).reshape(-1)
    if not 0 <= n_cp <= x.size or not 0 <= n_cs <= x.size:
        raise ConfigError(f"prefix/suffix lengths out of range for block of {x.size}")
    parts = []
    if n_cp:
        parts.append(x[-n_cp:])
    parts.append(x)
    if n_cs:
        parts.append(x[:n_cs])
    return np.concatenate(parts) if len(parts) > 1 else x.copy()


def remove_cp(y: np.ndarray, n_cp: int, n_cs: int = 0) -> np.ndarray:
    """Strip prefix and suffix, returning the core block."""
    y = np.asarray(y).reshape(-1)
    n = y.size - n_cp - n_cs
    if n < 1:
        raise ConfigError("framed block shorter than its prefix plus suffix")
    return y[n_cp : n_cp + n]


def uniform64(seed: int, index: int) -> float:
    """Uniform in (0, 1) from word ``index`` of the splitmix64 stream."""
    state = (seed + (index + 1) * _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    # 53-bit mantissa, offset keeps the value strictly positive for log().
    return ((z >> 11) + 0.5) / (1 << 53)


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``z`` of :func:`uniform64` at ``start .. start+count-1``; ``uint64`` wraps as the scalar mask."""
    index = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + index * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def uniform64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of :func:`uniform64`, bit for bit.

    ``z >> 11`` fits the float64 mantissa, so the conversion and the
    power-of-two scaling are exact.
    """
    z = splitmix64_words(seed, start, count)
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) / (1 << 53)


def gaussian_pairs(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """``count`` standard complex Gaussians (unit variance per complex sample)."""
    u = uniform64_array(seed, offset, 2 * count)
    # sqrt and products are correctly rounded, so numpy matches the scalar arithmetic.
    # numpy's complex128 exp is not CPU-dispatched (libm cexp per element, the cos/sin
    # of cmath.exp); its float64 log is, so log stays on math per sample.
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), np.float64, count))
    j_theta = np.zeros(count, dtype=np.complex128)
    j_theta.imag = 2 * math.pi * u[1::2]
    trig = np.exp(j_theta)
    out = np.empty(count, dtype=np.complex128)
    out.real = r * trig.real
    out.imag = r * trig.imag
    return out / math.sqrt(2.0)


def apply_channel(x_framed: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """Linear convolution with the taps, truncated to the transmitted length,
    plus circularly symmetric Gaussian noise at the configured per-sample SNR.
    """
    x = np.asarray(x_framed, dtype=np.complex128).reshape(-1)
    taps, n = spec.taps, x.size
    y = taps[0] * x
    for j in range(1, min(taps.size, n)):
        y[j:] += taps[j] * x[: n - j]
    if math.isfinite(spec.snr_db):
        power = float(np.mean(np.abs(x) ** 2))
        sigma2 = power / snr_ratio(spec.snr_db)
        if not math.isfinite(sigma2):
            raise ConfigError(f"noise variance {sigma2} is not finite (power {power}, snr_db {spec.snr_db})")
        y = y + math.sqrt(sigma2) * gaussian_pairs(spec.seed, x.size)
    return y


def fd_equalize_zf(
    y: np.ndarray,
    taps: np.ndarray,
    eps: float = 1e-8,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """One-tap zero-forcing equalizer; output stays in the frequency domain.

    Only the N-point transform of ``y`` is metered, the per-bin division is part
    of the equalizer and outside the modem cost accounting.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    hf = channel_response(taps, y.size, eps)
    yf = dft(y, counter=counter)
    yf /= hf
    return yf


# One (key, response) tuple, replaced whole, as ``link`` holds its waveform and plan.
_response: tuple[tuple, np.ndarray | None] = ((), None)


def channel_response(taps, n: int, eps: float = 1e-8) -> np.ndarray:
    """The held read-only N-point response of the taps, built anew when taps, N or eps change."""
    global _response
    t = check_taps(taps)
    key = (t.tobytes(), n, eps)
    if _response[0] != key:
        if t.size > n:
            raise ConfigError("more channel taps than block samples")
        h = np.zeros(n, dtype=np.complex128)
        h[: t.size] = t
        hf = dft(h)
        if np.abs(hf).min() <= eps:
            raise SingularChannel("channel frequency response has a null bin")
        hf.flags.writeable = False
        _response = (key, hf)
    return _response[1]
