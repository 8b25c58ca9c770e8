"""Cyclic-prefix framing, multipath channel, and one-tap frequency equalizer.

The noise generator is fully specified so runs are reproducible anywhere:
sample i draws two 64-bit words from a splitmix64 stream seeded by the user,
maps them to uniforms, and applies the Box-Muller transform.  Identical seeds
give bit-identical noise.

:func:`uniform64` specifies one word of the stream; :func:`uniform64_array`
computes many from the ``uint64`` words of :func:`splitmix64_words`, equal word
for word.  Every stream reads its words through one argument rule: the seed is
:func:`check_seed`'s, and the start and count are integers >= 0 with
``start + count <= 2**64 - 1`` (and at most ``2**63 - 1`` words, numpy's largest
array), so no seed, start or count wraps onto another stream's words; anything
else is a ``ConfigError``.  The Box-Muller transcendentals are ``math.log`` per
sample and numpy's complex128 ``exp(j*theta)``: a generic loop calling libm
``cexp`` per element, with no CPU-dispatched kernel, so it returns the libm
``cos`` and ``sin`` of ``cmath.exp`` bit for bit.  numpy's float64 ``log`` is
CPU-dispatched (its last bit may depend on the CPU), so the logarithm stays on
``math``.

Each stream runs in place on one buffer: the words are mixed in one array,
each xor-shift through one scratch array; the uniforms are converted and scaled
in the words' bytes; ``math.log`` reads every second uniform through a
memoryview; the angles, ``exp``, the radius and the ``1/sqrt(2)`` scaling run in
the output array.  The bits are those of the out-of-place passes.

The log pass costs ~89 ns per sample on a 2-core Xeon under CPython 3.11, about
31% of an untraced K=M=64 awgn block (``gaussian_pairs`` as a whole is ~54%).
It calls ``math.log`` through ``itertools.starmap`` over a one-element ``zip``:
``math.log`` takes an optional ``base``, so CPython passes it an argument tuple;
``map`` builds a new one per sample (~114 ns per sample), while ``zip`` hands
over its own and reuses it.  The same function runs on the same floats, so the
bits are unchanged.

:func:`apply_channel` convolves by shifted adds, one whole-array multiply-add
per tap, rather than with ``np.convolve``, whose complex path does one BLAS dot
per output sample.  The equalizer treats the N-point channel response as a
configuration table, built by one ``functools.lru_cache(maxsize=1)`` builder
keyed by its arguments, the taps' bytes and N: it holds the last response built,
read-only, and a failed build (too many taps, a bin of magnitude at most
``numerics.SINGULAR_EPS``) raises on every call and keeps the held response.
``link`` holds one :class:`ChannelSpec` per configuration, checked when built, and
:meth:`ChannelSpec.with_seed` checks only the seed, a block's one channel input.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap

import numpy as np

from .errors import ConfigError, SingularChannel
from .numerics import SINGULAR_EPS, MulCounter, dft, is_int

__all__ = [
    "ChannelSpec",
    "check_seed",
    "check_real",
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
_MAX_WORDS = (1 << 63) - 1  # numpy's largest array length
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GAMMA64, _MIX1_64, _MIX2_64, _S11, _S27, _S30, _S31 = map(np.uint64, (_GAMMA, _MIX1, _MIX2, 11, 27, 30, 31))


def check_real(name: str, value) -> float:
    """``value`` as a float; reject a bool, a value that is not a real number, or one beyond float range."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a real number within float range") from None


def check_snr_db(snr_db: float) -> float:
    """The SNR as a float; reject one that is not a real number, or neither finite nor ``+inf``
    (noiseless): NaN and ``-inf`` name no channel."""
    snr_db = check_real("snr_db", snr_db)
    if not (math.isfinite(snr_db) or snr_db == math.inf):
        raise ConfigError(f"snr_db must be finite or +inf (noiseless), got {snr_db}")
    return snr_db


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
    if not is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        # The noise stream takes the seed modulo 2**64; a larger one would alias.
        raise ConfigError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return int(seed)


def check_taps(taps) -> np.ndarray:
    """The impulse response as a 1-D complex array; reject one that is empty, not finite, or not an
    ordered sequence of numbers (no str, bool or None); a numeric array is judged by dtype, with no loop."""
    numeric = isinstance(taps, np.ndarray) and taps.dtype.kind in "iufc"
    if not numeric and (isinstance(taps, (str, bytes)) or not isinstance(taps, Sequence)
                        or any(isinstance(t, bool) or not isinstance(t, numbers.Number) for t in taps)):
        raise ConfigError(f"channel_taps must be a sequence of numbers, got {taps!r}")
    try:
        t = np.atleast_1d(np.asarray(taps, dtype=np.complex128))
    except OverflowError:
        raise ConfigError("channel taps must be finite, got an integer beyond float range") from None
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
        object.__setattr__(self, "snr_db", check_snr_db(self.snr_db))
        object.__setattr__(self, "seed", check_seed(self.seed))

    def with_seed(self, seed) -> ChannelSpec:
        """This channel (its taps array shared, its rules passed) with noise seed ``seed``, checked alone."""
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, seed=check_seed(seed))
        return spec


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


def _check_span(start, count, width: int = 1) -> tuple[int, int]:
    """``(start, count)`` as ints; reject a bool, a non-integer, a negative value, or a read
    past word ``2**64 - 2``: word ``i`` is mixed from ``(i + 1) * gamma`` modulo 2**64, so a
    larger index would alias a stream's first words.  ``width`` words are read per item, at
    most ``2**63 - 1`` in all: numpy's ``arange`` returns an empty array for a longer span."""
    for name, value in (("start", start), ("count", count)):
        if not is_int(value):
            raise ConfigError(f"stream {name} must be an integer, got {value!r}")
    start, count = int(start), int(count)
    words = width * count
    if start < 0 or not 0 <= words <= _MAX_WORDS or start + words > _MASK64:
        raise ConfigError(f"stream start {start} and count {count} must be >= 0 and read "
                          f"at most 2**63 - 1 words, none past word 2**64 - 2")
    return start, count


def uniform64(seed: int, index: int) -> float:
    """Uniform in (0, 1) from word ``index`` of the splitmix64 stream."""
    seed, index = check_seed(seed), _check_span(index, 1)[0]
    state = (seed + (index + 1) * _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    # 53-bit mantissa, offset keeps the value strictly positive for log().
    return ((z >> 11) + 0.5) / (1 << 53)


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``z`` of :func:`uniform64` at ``start .. start+count-1``; ``uint64`` wraps as the scalar mask."""
    seed, (start, count) = check_seed(seed), _check_span(start, count)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA64
    z += np.uint64(seed)
    t = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=t)
    z *= _MIX1_64
    z ^= np.right_shift(z, _S27, out=t)
    z *= _MIX2_64
    z ^= np.right_shift(z, _S31, out=t)
    return z


def uniform64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of :func:`uniform64`, bit for bit, in the words' buffer.

    ``z >> 11`` fits the float64 mantissa, so the conversion is exact, the ``+ 0.5``
    rounds as the scalar's, and the power-of-two scaling ``2.0**-53`` is exact.
    """
    z = splitmix64_words(seed, start, count)
    z >>= _S11
    u = np.add(z, 0.5, out=z.view(np.float64))
    u *= 2.0**-53
    return u


def gaussian_pairs(seed: int, count: int) -> np.ndarray:
    """``count`` standard complex Gaussians (unit variance per complex sample), from word 0 on."""
    count = _check_span(0, count, 2)[1]
    u = uniform64_array(seed, 0, 2 * count)
    # sqrt and products are correctly rounded, so numpy matches the scalar arithmetic.
    # numpy's complex128 exp is not CPU-dispatched (libm cexp per element, the cos/sin
    # of cmath.exp); its float64 log is, so log stays on math per sample.  math.log has
    # an optional base, so each call takes an argument tuple: map would build one per
    # sample, starmap passes zip's, which zip reuses (~89 vs ~114 ns/sample, same bits).
    r = np.fromiter(starmap(math.log, zip(memoryview(u)[::2])), np.float64, count)
    r *= -2.0
    np.sqrt(r, out=r)
    out = np.zeros(count, dtype=np.complex128)
    np.multiply(u[1::2], 2 * math.pi, out=out.imag)
    np.exp(out, out=out)
    out.real *= r
    out.imag *= r
    # numpy divides a complex by a real s as (re + im*0) * (1.0/s): on these finite,
    # nonzero parts, the same bits as the float view's product with 1.0/s.
    parts = out.view(np.float64)
    parts *= 1.0 / math.sqrt(2.0)
    return out


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
        noise = gaussian_pairs(spec.seed, x.size)
        noise *= math.sqrt(sigma2)
        y += noise
    return y


def fd_equalize_zf(y: np.ndarray, taps: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """One-tap zero-forcing equalizer; output stays in the frequency domain.

    Only the N-point transform of ``y`` is metered, the per-bin division is part
    of the equalizer and outside the modem cost accounting.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    hf = channel_response(taps, y.size)
    yf = dft(y, counter=counter)
    yf /= hf
    return yf


def channel_response(taps, n: int) -> np.ndarray:
    """The held read-only N-point response of the taps, built anew when the taps or N change.

    Taps given as a 1-D complex array (``ChannelSpec.taps``) are keyed as they are and checked
    only on a new key: the held key's taps passed :func:`check_taps` when it was built.
    """
    vector = isinstance(taps, np.ndarray) and taps.dtype == np.complex128 and taps.ndim == 1
    return _response((taps if vector else check_taps(taps)).tobytes(), n)


@lru_cache(maxsize=1)  # the last response only: one per block length and channel in use
def _response(taps: bytes, n: int) -> np.ndarray:
    t = check_taps(np.frombuffer(taps, dtype=np.complex128))
    if t.size > n:
        raise ConfigError("more channel taps than block samples")
    h = np.zeros(n, dtype=np.complex128)
    h[: t.size] = t
    hf = dft(h)
    if np.abs(hf).min() <= SINGULAR_EPS:
        raise SingularChannel("channel frequency response has a null bin")
    hf.flags.writeable = False
    return hf
