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
else is a ``ConfigError``.

Sample i of :func:`gaussian_pairs` is ``sqrt(-log u) * (cos 2*pi*v + 1j*sin 2*pi*v)`` for the
uniforms ``u, v`` of words ``2i, 2i+1``: the Box-Muller transform, with unit variance per
complex sample.  It is computed with float64 operations that are exact or correctly rounded on
every IEEE-754 host: ``+ - * /`` and ``sqrt``, ``frexp``, ``rint``, ``take`` and a cast
(``copyto``), each one numpy ufunc or array call, so no two are fused into an FMA, and no libm
function is called.
The order of the operations below is the stream's specification; a product ``a*b*c`` is
``(a*b)*c``.

* ``-log u`` (Tang's table-driven logarithm): ``m, e = frexp(u)``; ``y = 256*m`` (exact, in
  ``[128, 256)``); ``c = rint(y)``; ``s = (c - y) / (y + c)`` (``c - y`` exact, ``|s| <= 1/511``);
  ``z = s*s``; ``g = (z*(2/5) + 2/3)*z*s``; ``a = ((g + e*-LN2_LO) + LO[c]) + 2*s``;
  ``-log u = e*-LN2_HI + (HI[c] + a)``.  ``LN2_HI + LN2_LO`` is fdlibm's split of ``ln 2``
  (``e * LN2_HI`` is exact) and ``HI[c] + LO[c]`` is ``-log(c/256)``.
* ``(cos, sin)(2*pi*v)``: ``t = 1024*v`` (exact); ``j = rint(t)``; ``x = (t - j)*(2*pi/1024)``
  (``|x| <= pi/1024``); ``w = x*x``; ``cm = (w*(1/24) + -1/2)*w`` and
  ``sn = (w*(1/120) + -1/6)*w*x + x``, the Taylor polynomials of ``cos x - 1`` and ``sin x``;
  ``cos = C[j] + (C[j]*cm - S[j]*sn)``, ``sin = S[j] + (S[j]*cm + C[j]*sn)``, where
  ``C[j], S[j]`` are ``(cos, sin)(2*pi*j/1024)``.
* The sample: ``r = sqrt(-log u)``; its parts are ``cos*r`` and ``sin*r``.

The tables are built at import from exact inputs by the same operations (series over numpy
arrays, see :func:`_log_tables` and :func:`_cos_sin_tables`).  The logarithm is within 1 ulp of
the exact value and the ``(cos, sin)`` pair within ~2.3e-16, so every sample is within ~1e-15
relative of the one libm's ``log`` and ``cexp`` gave before this specification.  On a 2-core
Xeon, ``gaussian_pairs(seed, 4112)`` takes ~0.16 ms, a third of it the words; with libm it took
~0.58 ms.

Each stream runs in place where it can: the words are mixed in one array, each xor-shift
through one scratch array, and the uniforms are converted and scaled in the words' bytes.
:func:`gaussian_pairs` runs the steps above through a few reused buffers (``out=``; ``take``
with ``mode="clip"``, whose indices are in range, and casts by ``copyto``), at most six
count-sized at once beside the uniforms and the radius, and writes the samples over the spent
uniforms.

:func:`apply_channel` convolves by shifted adds, one whole-array multiply-add
per tap, rather than with ``np.convolve``, whose complex path does one BLAS dot
per output sample.  The equalizer treats the N-point channel response as a
table of the taps and the block length, held read-only per ``(taps bytes, N)``
in a ``numerics.Held`` store (least recently used first out, bounded by
``numerics.HELD_BYTES``), the store ``link`` holds its transmit windows in; a
failed build (too many taps, a bin of magnitude at most
``numerics.SINGULAR_EPS``) raises on every call and holds or evicts nothing.
:func:`check_framing` is the one framing rule, of :func:`add_cp`, :func:`remove_cp` and
``config.RunConfig``: integer prefix and suffix lengths, each in ``[0, N]`` for a core of N samples.
A :class:`ChannelSpec` is the configured channel, ``(taps, snr_db)``, and the one home of the
taps rule (:func:`check_taps`) and the SNR rule (:func:`check_snr_db`, and the range of the linear
ratio): it runs both when built and holds a read-only copy of the taps and the ratio, so
:func:`apply_channel`, :func:`fd_equalize_zf` and :func:`channel_response`, which take a spec, run
neither rule again.  ``config.RunConfig`` builds its spec once, as ``cfg.channel``.  The noise
seed, a block's one channel input, is an argument of :func:`apply_channel`, checked on every call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularChannel
from .numerics import SINGULAR_EPS, Held, MulCounter, dft, is_int

__all__ = [
    "ChannelSpec",
    "check_seed",
    "check_real",
    "check_snr_db",
    "check_taps",
    "check_framing",
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


def check_seed(seed) -> int:
    """The noise seed as an int; reject a bool, a non-integer, or one outside the stream's 64 bits."""
    if not is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        # The noise stream takes the seed modulo 2**64; a larger one would alias.
        raise ConfigError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return int(seed)


def check_taps(taps) -> np.ndarray:
    """The impulse response as a new 1-D complex array; reject one that is empty, not finite, or not an
    ordered sequence of numbers (no str, bool or None); a numeric array is judged by dtype, with no loop."""
    numeric = isinstance(taps, np.ndarray) and taps.dtype.kind in "iufc"
    if not numeric and (isinstance(taps, (str, bytes)) or not isinstance(taps, Sequence)
                        or any(isinstance(t, bool) or not isinstance(t, numbers.Number) for t in taps)):
        raise ConfigError(f"channel_taps must be a sequence of numbers, got {taps!r}")
    try:
        t = np.array(taps, dtype=np.complex128, ndmin=1)
    except OverflowError:
        raise ConfigError("channel taps must be finite, got an integer beyond float range") from None
    if t.ndim != 1 or t.size < 1:
        raise ConfigError("channel needs at least one tap")
    if not np.isfinite(t).all():
        raise ConfigError(f"channel taps must be finite, got {t.tolist()}")
    return t


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Impulse response and per-sample SNR in dB (``inf`` for noiseless), checked when built: the taps
    by :func:`check_taps`, held as a read-only copy, and the SNR by :func:`check_snr_db`.  ``ratio`` is
    the linear SNR ``10 ** (snr_db / 10)``, computed here once; a finite SNR whose ratio overflows or
    is 0 is refused."""

    taps: np.ndarray
    snr_db: float = math.inf
    ratio: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        taps, snr_db = check_taps(self.taps), check_snr_db(self.snr_db)
        taps.flags.writeable = False
        try:
            ratio = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            ratio = math.inf
        if math.isfinite(snr_db) and not 0.0 < ratio < math.inf:
            fault = "overflows" if ratio else "is 0"
            raise ConfigError(f"snr_db {snr_db} is out of range: 10 ** (snr_db / 10) {fault}")
        for name, value in (("taps", taps), ("snr_db", snr_db), ("ratio", ratio)):
            object.__setattr__(self, name, value)


def check_framing(size: int, n_cp, n_cs, framed: bool = False) -> int:
    """The framing rule: the core length N of a block of ``size`` samples, ``size - n_cp - n_cs``
    when ``framed``.  ``n_cp`` and ``n_cs`` must be integers (``numerics.is_int``), each in
    ``[0, N]``, and a framed block must hold a core of at least one sample."""
    for name, value in (("n_cp", n_cp), ("n_cs", n_cs)):
        if not is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    n = size - n_cp - n_cs if framed else size
    if framed and n < 1:
        raise ConfigError("framed block shorter than its prefix plus suffix")
    if not (0 <= n_cp <= n and 0 <= n_cs <= n):
        raise ConfigError("prefix/suffix lengths must lie in [0, N]")
    return n


def add_cp(x: np.ndarray, n_cp: int, n_cs: int = 0) -> np.ndarray:
    """Prepend the last ``n_cp`` samples and append the first ``n_cs`` (:func:`check_framing`)."""
    x = np.asarray(x).reshape(-1)
    check_framing(x.size, n_cp, n_cs)
    parts = []
    if n_cp:
        parts.append(x[-n_cp:])
    parts.append(x)
    if n_cs:
        parts.append(x[:n_cs])
    return np.concatenate(parts) if len(parts) > 1 else x.copy()


def remove_cp(y: np.ndarray, n_cp: int, n_cs: int = 0) -> np.ndarray:
    """Strip prefix and suffix, returning the core block (:func:`check_framing`)."""
    y = np.asarray(y).reshape(-1)
    n = check_framing(y.size, n_cp, n_cs, framed=True)
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


#: fdlibm's split of ``ln 2``: ``_LN2_HI`` has 32 significant bits, so ``e * _LN2_HI`` is exact.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_TURN = math.pi / 512  # 2*pi/1024, the step of the (cos, sin) table


def _log_tables() -> tuple[np.ndarray, np.ndarray]:
    """``-log(c/256)`` as ``HI[c] + LO[c]`` at ``c = 128 .. 256`` (lower entries are never read).

    ``-log(c/256) = 2 atanh(q)`` for ``q = (256 - c) / (256 + c) <= 1/3``: the quotient is carried
    as ``q + q_lo`` (Veltkamp's split of ``q`` makes the remainder exact) into the series to ``q**35``.
    """
    c = np.arange(128.0, 257.0)
    a, b = 256.0 - c, 256.0 + c
    q = a / b
    split = q * 134217729.0  # 2**27 + 1
    q_hi = split - (split - q)
    q_lo = ((a - q_hi * b) - (q - q_hi) * b) / b
    z = q * q
    p = 1.0 / 35
    for k in range(33, 1, -2):
        p = p * z + 1.0 / k
    two_q, tail = 2.0 * q, 2.0 * (q_lo + q * z * p)
    hi, lo = np.zeros(257), np.zeros(257)
    hi[128:] = two_q + tail
    lo[128:] = (two_q - hi[128:]) + tail
    return hi, lo


def _cos_sin_tables() -> tuple[np.ndarray, np.ndarray]:
    """``(cos, sin)(2*pi*j/1024)`` at ``j = 0 .. 1024``: Taylor series to degree 20 and 21 over
    the first octant, whose entries the circle's symmetries place in the other seven."""
    a = np.arange(129.0) * _TURN
    w = a * a
    cos_p = sin_p = 0.0
    for k in range(20, 0, -2):
        cos_p = cos_p * w + (-1) ** (k // 2) / math.factorial(k)
    for k in range(21, 1, -2):
        sin_p = sin_p * w + (-1) ** (k // 2) / math.factorial(k)
    c8, s8 = 1.0 + w * cos_p, a + a * w * sin_p
    cq, sq = np.concatenate([c8, s8[127::-1]]), np.concatenate([s8, c8[127::-1]])
    return np.concatenate([cq, -sq[1:], -cq[1:], sq[1:]]), np.concatenate([sq, cq[1:], -sq[1:], -cq[1:]])


_LOG_HI, _LOG_LO = _log_tables()
_COS, _SIN = _cos_sin_tables()
for _table in (_LOG_HI, _LOG_LO, _COS, _SIN):
    _table.flags.writeable = False


def _minus_log(u: np.ndarray) -> np.ndarray:
    """``-log u`` for uniforms ``u`` in (0, 1] (0 at ``u = 1``, which the stream can give), as the
    module docstring specifies, through five count-sized buffers and one of exponents."""
    y, e = np.frexp(u)
    y *= 256.0
    c = np.rint(y)
    s = c - y
    y += c
    s /= y  # s = (c - y) / (y + c)
    z = np.multiply(s, s, out=y)
    g = z * (2.0 / 5)
    g += 2.0 / 3
    g *= z
    g *= s  # g = (z*(2/5) + 2/3)*z*s
    ef = np.empty_like(g)
    np.copyto(ef, e)  # e.astype(np.float64)
    g += np.multiply(ef, -_LN2_LO, out=z)
    ci = z.view(np.intp)
    np.copyto(ci, c, casting="unsafe")  # c.astype(np.intp)
    g += _LOG_LO.take(ci, out=c, mode="clip")
    s += s
    g += s  # a = ((g + e*-LN2_LO) + LO[c]) + 2*s
    out = _LOG_HI.take(ci, out=c, mode="clip")
    out += g
    ef *= -_LN2_HI
    out += ef  # e*-LN2_HI + (HI[c] + a)
    return out


def _cos_sin_turns(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(cos, sin)(2*pi*v)`` for ``v`` in [0, 1], as the module docstring specifies, through six
    count-sized buffers."""
    x = v * 1024.0
    j = np.rint(x)
    x -= j
    x *= _TURN  # x = (t - j)*(2*pi/1024)
    w = x * x
    cm = w * (1.0 / 24)
    cm += -0.5
    cm *= w  # cos x - 1
    sn = w * (1.0 / 120)
    sn += -1.0 / 6
    sn *= w
    sn *= x
    sn += x  # sin x
    ji = w.view(np.intp)
    np.copyto(ji, j, casting="unsafe")  # j.astype(np.intp)
    cj, sj = _COS.take(ji, out=j, mode="clip"), _SIN.take(ji, out=x, mode="clip")
    cos = np.multiply(cj, cm, out=w)
    cos -= np.multiply(sj, sn, out=np.empty_like(sn))
    cos += cj  # C[j] + (C[j]*cm - S[j]*sn)
    cm *= sj
    cj *= sn
    cm += cj
    cm += sj  # S[j] + (S[j]*cm + C[j]*sn)
    return cos, cm


def gaussian_pairs(seed: int, count: int) -> np.ndarray:
    """``count`` standard complex Gaussians (unit variance per complex sample), from word 0 on:
    sample i is ``sqrt(-log u) * exp(2j*pi*v)`` for the uniforms ``u, v`` of words ``2i, 2i+1``."""
    count = _check_span(0, count, 2)[1]
    u = uniform64_array(seed, 0, 2 * count)
    r = _minus_log(u[0::2])
    np.sqrt(r, out=r)
    cos, sin = _cos_sin_turns(u[1::2])
    out = u.view(np.complex128)  # the uniforms are spent: the samples take their bytes
    np.multiply(cos, r, out=out.real)
    np.multiply(sin, r, out=out.imag)
    return out


def apply_channel(x_framed: np.ndarray, spec: ChannelSpec, seed: int = 0) -> np.ndarray:
    """Linear convolution with the taps, truncated to the transmitted length,
    plus circularly symmetric Gaussian noise at the configured per-sample SNR,
    drawn from stream ``seed`` (checked first, on a noiseless channel too).
    """
    seed = check_seed(seed)
    x = np.asarray(x_framed, dtype=np.complex128).reshape(-1)
    taps, n = spec.taps, x.size
    y = taps[0] * x
    for j in range(1, min(taps.size, n)):
        y[j:] += taps[j] * x[: n - j]
    if math.isfinite(spec.snr_db):
        power = float(np.mean(np.abs(x) ** 2))
        sigma2 = power / spec.ratio
        if not math.isfinite(sigma2):
            raise ConfigError(f"noise variance {sigma2} is not finite (power {power}, snr_db {spec.snr_db})")
        noise = gaussian_pairs(seed, x.size)
        noise *= math.sqrt(sigma2)
        y += noise
    return y


def fd_equalize_zf(y: np.ndarray, spec: ChannelSpec, counter: MulCounter | None = None) -> np.ndarray:
    """One-tap zero-forcing equalizer of ``spec``'s channel; output stays in the frequency domain.

    Only the N-point transform of ``y`` is metered, the per-bin division is part
    of the equalizer and outside the modem cost accounting.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    hf = channel_response(spec, y.size)
    yf = dft(y, counter=counter)
    yf /= hf
    return yf


def channel_response(spec: ChannelSpec, n: int) -> np.ndarray:
    """The held read-only N-point response of ``spec``'s taps, built when its taps and N are not held."""
    return _response(spec.taps.tobytes(), n)


@Held  # per (taps, N): a rotation over a few block lengths and channels builds each response once
def _response(taps: bytes, n: int) -> np.ndarray:
    t = np.frombuffer(taps, dtype=np.complex128)  # a ChannelSpec's taps, checked when it was built
    if t.size > n:
        raise ConfigError("more channel taps than block samples")
    h = np.zeros(n, dtype=np.complex128)
    h[: t.size] = t
    hf = dft(h)
    if np.abs(hf).min() <= SINGULAR_EPS:
        raise SingularChannel("channel frequency response has a null bin")
    hf.flags.writeable = False
    return hf
