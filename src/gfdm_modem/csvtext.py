"""CSV sample text, a whole column at a time: the bytes ``repr`` gives, the values ``float`` gives.

:func:`format_rows` writes ``f"{i},{re!r},{im!r}"`` rows and :func:`parse_numbers` reads text in that
grammar, each without a Python call per number.  Every number is certified or handed over, one at a time:

* Writing, ``repr``'s shortest round-trip digits come from ``x * 10**(16 - E)`` as a double-double (Dekker's
  exact product against a table of ``10**p`` held as hi + lo), the fewest digits whose nearest candidate
  lies strictly inside x's rounding interval, laid out by ``repr``'s rule (positional for a decimal point
  in (-4, 16], ``.0`` on whole numbers, else ``e±XX``).
* Reading, a mantissa below 2**53 with a power of ten up to 10**22 is one correctly rounded IEEE
  operation (Clinger's exact case); any other goes through a double-double product.
* A number the arithmetic cannot certify (near a tie or a rounding boundary, a power of two, outside
  the table, over 8 + 24 digits, not finite) goes through ``repr`` or ``float`` itself.

Text outside the writer's grammar is not read here: :func:`parse_numbers` returns None and
``blockio`` parses it line by line.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows", "parse_numbers"]


#: 10**p is tabled for p in [-_P_MAX, _P_MAX]; both directions stay inside it, where every product is normal.
_P_MAX = 250
#: The writer certifies |x| in [2**-_E2_MAX, 2**(_E2_MAX + 1)) that is not a power of two.
_E2_MAX = 768
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves whose products are exact
_MARGIN = 2.0**-30  # a decision this close to a rounding boundary is not certified (the error is below 2**-46)
_POW10 = np.array([10**k for k in range(19)], np.int64)
_TENS = np.array([float(10**k) for k in range(25)])  # 10**0 .. 10**22 are exact doubles
_NUMBER_WIDTH = 24  # len(repr(-1.2345678901234567e-308)), the longest repr of a float


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


def _tens_dd() -> np.ndarray:
    """Rows hi, lo, hi's upper and lower Veltkamp halves of 10**p for p in [-_P_MAX, _P_MAX], column
    p + _P_MAX: hi is 10**p correctly rounded and lo the rest correctly rounded, from Python integers."""
    rows = []
    for p in range(-_P_MAX, _P_MAX + 1):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    return np.array([hi, lo, *_split(hi)])


_TENS_DD = _tens_dd()  # built when the module is first imported, on the first CSV read or write


def _scale17(a: np.ndarray, exp10: np.ndarray, e2: np.ndarray):
    """``a * 10**(16 - exp10)`` as the nearest integer ``c17`` plus ``frac`` in [-1/2, 1/2], within ~2**-48,
    and half the gap between ``a`` and its neighbours (``a`` normal, biased binary exponent ``e2``) on the
    same scale."""
    hi, lo, hi_h, hi_l = np.take(_TENS_DD, 16 - exp10 + _P_MAX, axis=1)
    a_h, a_l = _split(a)
    ph = a * hi  # a * hi = ph + the Dekker error term below, exactly
    t = (((a_h * hi_h - ph) + a_h * hi_l) + a_l * hi_h) + a_l * hi_l + a * lo
    whole = np.rint(ph)
    t += ph - whole
    near = np.rint(t)
    half = hi * ((e2 - 53) << 52).view(np.float64)  # hi * 2**(e2 - 1076): half an ulp of a, scaled
    return whole.astype(np.int64) + near.astype(np.int64), t - near, half


def _shortest(x: np.ndarray):
    """``repr``'s digits of each float: x = ±digits * 10**(exp10 - count + 1), with ``count`` digits the fewest
    that read back as x, and of those the nearest.  ``sure`` is False where the choice is not certified: x
    not finite, a power of two (its lower gap is half its upper) or outside the window, or a decision within
    ``_MARGIN`` of a tie or of a rounding boundary.  Zero is digits 0, count 1, exp10 0."""
    a = np.abs(x)
    bits = a.view(np.int64)
    e2 = bits >> 52
    zero = bits == 0
    sure = (np.abs(e2 - 1023) <= _E2_MAX) & ((bits & (2**52 - 1)) != 0)
    a[~sure] = 1.0  # a stand-in that raises no floating-point flag below
    e2 = bits >> 52
    exp10 = np.floor(np.log10(a)).astype(np.int64)  # may be one off next to a power of ten: mended below
    c17, frac, half = _scale17(a, exp10, e2)
    off = np.flatnonzero((c17 < _POW10[16]) | (c17 >= 10 * _POW10[16]))
    if off.size:
        exp10[off] += np.where(c17[off] < _POW10[16], -1, 1)
        c17[off], frac[off], half[off] = _scale17(a[off], exp10[off], e2[off])
        sure[off[(c17[off] < _POW10[16]) | (c17[off] >= 10 * _POW10[16])]] = False
    sure &= np.abs(frac) < half - _MARGIN  # 17 digits: c17 reads back as x
    # Drop one more trailing digit while the nearest candidate with that many digits still lies strictly
    # inside x's rounding interval (the interval is symmetric off powers of two, so no other one can).
    # The interval is under 23 units of the 17th digit wide, so below 16 digits only a c17 within 12 of a
    # multiple of 100 can fit.
    digits, inside, unsure = _nearest(c17, frac, half, 1)
    sure &= ~unsure
    inside &= sure
    digits = np.where(inside, digits, c17)
    count = 17 - inside
    tail = c17 % 100
    live = np.flatnonzero(inside & ((tail <= 12) | (tail >= 88)))
    for j in range(2, 17):
        if not live.size:
            break
        candidate, inside, unsure = _nearest(c17[live], frac[live], half[live], j)
        sure[live[unsure]] = False
        live = live[inside]
        digits[live] = candidate[inside]
        count[live] = 17 - j
    carry = digits == _POW10[count]  # 9.99...e-30 rounded up to 10: 1e-29
    digits[carry] //= 10
    exp10[carry] += 1
    digits[zero], count[zero], exp10[zero], sure[zero] = 0, 1, 0, True
    return digits, count, exp10, sure


def _nearest(c17, frac, half, j):
    """The nearest candidate with 17 - j digits to ``c17 + frac``, whether it lies certainly inside the
    rounding interval ``half`` wide on each side, and whether that is uncertain (a tie, or a boundary)."""
    step = _POW10[j]
    q = c17 // step
    r = c17 - q * step
    u = (2 * r - step) + 2 * frac  # > 0: q + 1 is nearer than q
    up = u > 0
    dist = np.abs((up * step - r) - frac)
    inside = (dist < half - _MARGIN) & (np.abs(u) > _MARGIN)
    return q + up, inside, ~inside & (dist <= half + _MARGIN)


def _digit_rows(groups: np.ndarray, width: int = 8) -> np.ndarray:
    """The decimal digits (values 0-9) of rows of ``width``-digit groups, most significant first, as
    (width * len(groups), n) uint8: each step splits every row in two, in the narrowest integer type."""
    rows = groups
    while width > 1:
        width //= 2
        top = rows // 10**width
        out = np.empty((2 * len(rows), rows.shape[1]), np.int16 if width > 2 else np.uint8)
        out[0::2] = top
        out[1::2] = rows - top * 10**width
        rows = out
    return rows


def _number_text(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``x`` in ASCII, one NUL-padded column each: (_NUMBER_WIDTH, len(x)) uint8."""
    digits, count, exp10, sure = _shortest(x)
    point = exp10 + 1  # repr's decimal point: positional for point in (-4, 16], else d.ddde±XX
    expo = (point < -3) | (point > 16)
    small = ~expo & (point < 1)  # 0.000ddd: the zeros come out of the digit rows
    zeros = small * (1 - point)
    # Rows 2-22: `zeros` zeros, the 17 digits padded with zeros, then more zeros; two blank rows above
    # and three below, so that a shift by one or two rows stays inside.
    full = digits * _POW10[17 - count]
    lead = _POW10[zeros]
    q = full // lead
    rows = np.zeros((26, x.size), np.uint8)
    rows[2] = q // _POW10[16]
    rows[3:19] = _digit_rows(np.array([q // 10**8 % 10**8, q % 10**8], np.int32))
    rows[19:23] = _digit_rows(((full - q * lead) * _POW10[4 - zeros]).astype(np.int16)[None], 4)
    rows[2:23] += 48
    # Text: sign, the digits before the point, '.', the rest, then the exponent.
    sign = np.signbit(x).view(np.uint8)
    dot = ~expo | (count > 1)
    head = np.where(expo | small, 1, point)  # digits before '.'
    run = np.where(expo, count, np.where(small, zeros + count, np.maximum(count, point + 1)))
    at = (sign + head).astype(np.uint8)
    last = (sign + run + dot).astype(np.uint8)
    pos = np.arange(_NUMBER_WIDTH, dtype=np.uint8)[:, None]
    text = rows[1:25] - rows[2:26]  # uint8 wraps, so `+ difference * sign` selects a row or the one above
    text *= sign
    text += rows[2:26]
    text *= pos < at
    after = rows[0:24] - rows[1:25]
    after *= sign
    after += rows[1:25]
    after *= pos > at
    after *= pos < last
    text += after
    text += ((pos == at) & dot).view(np.uint8) * 46
    text[0] += sign * 45
    ex = np.flatnonzero(expo & sure)
    if ex.size:
        e, at = exp10[ex], last[ex].astype(np.intp)
        text[at, ex] = ord("e")
        text[at + 1, ex] = np.where(e < 0, ord("-"), ord("+"))
        e = np.abs(e)
        wide = e >= 100
        text[at[wide] + 2, ex[wide]] = 48 + e[wide] // 100
        at += 2 + wide
        text[at, ex] = 48 + e // 10 % 10
        text[at + 1, ex] = 48 + e % 10
    odd = np.flatnonzero(~sure)
    if odd.size:
        reprs = np.array([repr(v).encode() for v in x[odd].tolist()], dtype=f"S{_NUMBER_WIDTH}")
        text[:, odd] = reprs.view(np.uint8).reshape(-1, _NUMBER_WIDTH).T
    return text[: np.flatnonzero(text.any(axis=1))[-1] + 1] if x.size else text  # trailing NUL rows cut


def _index_text(count: int) -> np.ndarray:
    """The row numbers 0 .. count - 1 in ASCII, NUL-padded on the left: (width, count) uint8."""
    width = len(str(max(count - 1, 0)))
    i, groups = np.arange(count), []
    for _ in range(-(-width // 8)):
        i, low = np.divmod(i, 10**8)
        groups.insert(0, low)
    rows = (_digit_rows(np.array(groups, np.int32))[-width:] + 48).astype(np.uint8)
    for r in range(width - 1):
        rows[r, : 10 ** (width - 1 - r)] = 0  # leading zeros
    return rows


def format_rows(header: bytes, vec: np.ndarray, nl: bytes) -> bytes:
    """``header + nl + b"".join(f"{i},{re!r},{im!r}" + nl)`` over the samples, built a column at a time:
    each line laid out in fixed NUL-padded fields, the NULs then deleted."""
    text = _number_text(np.ascontiguousarray(vec).view(np.float64))  # re0, im0, re1, im1, ...
    index = _index_text(vec.size)
    w, n = len(index), len(text)
    lines = np.zeros((vec.size + 1, max(w + 2 * n + 2, len(header)) + len(nl)), np.uint8)
    lines[0, : len(header) + len(nl)] = np.frombuffer(header + nl, np.uint8)
    if vec.size:
        lines[1:, :w] = index.T
        lines[1:, w] = lines[1:, w + n + 1] = ord(",")
        lines[1:, w + 1 : w + n + 1] = text[:, 0::2].T
        lines[1:, w + n + 2 : w + 2 * n + 2] = text[:, 1::2].T
        lines[1:, w + 2 * n + 2 : w + 2 * n + 2 + len(nl)] = np.frombuffer(nl, np.uint8)
    return lines.tobytes().translate(None, b"\0")


_ASCII_ZEROS = 0x3030303030303030  # eight '0' characters in a little-endian 64-bit word
_KEEP = np.array([0] + [2**64 - 2 ** (64 - 8 * k) for k in range(1, 9)], np.uint64)  # the last k bytes


def parse_numbers(header: bytes, raw: bytes) -> np.ndarray | None:
    """The numbers of CSV text in the writer's own grammar, re and im interleaved, or None for any other
    text.  The grammar: an optional ``header`` line, then lines ``digits,number,number``, each line ended by
    ``\\n``, a number being ``-?digits(.digits)?(e[+-]digits)?`` with one to three exponent digits."""
    start = len(header) + 1 if raw.startswith(header + b"\n") else 0
    b = np.frombuffer(raw, np.uint8, offset=start)
    if not b.size or b[-1] != 10:
        return None
    marks = np.flatnonzero((b - 48) >= 10)  # every byte that is no digit (uint8 wraps below '0')
    kind = b[marks]
    commas, ends = marks.compress(kind == 44), marks.compress(kind == 10)
    if commas.size != 2 * ends.size:
        return None
    commas = commas.reshape(-1, 2)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if not ((starts < commas[:, 0]) & (commas[:, 0] + 1 < commas[:, 1]) & (commas[:, 1] + 1 < ends)).all():
        return None
    beg = (commas + 1).ravel()  # the numbers [beg, end), re then im on each line
    end = np.column_stack((commas[:, 1], ends)).ravel()
    neg = b[beg] == 45
    head = beg + neg
    # Each '.', 'e' and sign must sit where the grammar puts it; with them counted, all else is digits.
    dots, exps = marks.compress(kind == 46), marks.compress(kind == 101)
    mend = end.copy()  # the end of the digits before the exponent
    exp10 = np.zeros(beg.size, np.int64)  # the exponent's value
    if exps.size:
        owner = _owners(exps, beg, end)
        if owner is None:
            return None
        sign, count = b[exps + 1], end[owner] - exps - 2
        if not (((sign == 43) | (sign == 45)) & (count >= 1) & (count <= 3)).all():
            return None
        value = sum((b[end[owner] - k] - 48).astype(np.int64) * (count >= k) * 10 ** (k - 1) for k in (1, 2, 3))
        exp10[owner] = np.where(sign == 45, -value, value)
        mend[owner] = exps
    if dots.size == beg.size:  # a '.' in every number, the writer's positional form
        if not ((head < dots) & (dots + 1 < mend)).all():
            return None
        point = dots  # the end of the digits before '.'
    else:
        point = mend.copy()
        if dots.size:
            owner = _owners(dots, beg, end)
            if owner is None or not ((head[owner] < dots) & (dots + 1 < mend[owner])).all():
                return None
            point[owner] = dots
    if (point <= head).any() or marks.size != 3 * ends.size + dots.size + 2 * exps.size + np.count_nonzero(neg):
        return None
    # The digits before '.' (up to 8) and after it (up to 24), 8 at a time.
    n_int, n_frac = point - head, np.maximum(mend - point - 1, 0)
    words = np.frombuffer(b"".join((bytes(24), memoryview(raw)[start:], bytes(16 - b.size % 8))), "<u8")
    whole = (b.take(point - 1) - 48).astype(np.uint64)  # one digit before '.', the common case
    wide = np.flatnonzero(n_int > 1)
    if wide.size:
        whole[wide] = _digit_words(words, point[wide] + 24, n_int[wide], 1)[0]
    w = _digit_words(words, mend + 24, n_frac, 3)
    frac = (w[0] * 10**8 + w[1]) * 10**8 + w[2]  # wraps when there are too many digits: not sure then
    size = whole * _TENS.take(n_frac, mode="clip") + w[0] * 1e16  # within 1e16 of the mantissa
    sure = (n_int <= 8) & (n_frac <= 24) & (size < 9e18)
    mant = (whole * _POW10.take(n_frac, mode="clip").view(np.uint64) + frac).view(np.int64)
    values, sure = _to_double(mant, exp10 - n_frac, sure)
    values *= 1 - 2 * neg
    for i in np.flatnonzero(~sure).tolist():
        values[i] = float(raw[start + beg[i] : start + end[i]])
    return values


def _digit_words(words: np.ndarray, stop: np.ndarray, count: np.ndarray, k: int) -> np.ndarray:
    """The values of the ``count`` ASCII digits (at most 8 * ``k``) just before byte ``stop`` of the text
    held as little-endian 64-bit ``words``, as ``k`` rows of 8 digits, most significant first (missing
    ones are zero).  Each row comes from two aligned words and a mask, then three multiply-shift steps
    add up digit pairs, fours and eights (SWAR)."""
    first = stop - 8 * k
    at, shift = first >> 3, (first.view(np.uint64) & 7) << 3  # the same for every row
    both = words.take(at + np.arange(k + 1)[:, None])
    w = both[:-1] >> shift
    w |= both[1:] << 64 - shift  # a shift by 64 gives 0
    w ^= _ASCII_ZEROS
    w &= _KEEP.take(count - 8 * np.arange(k - 1, -1, -1)[:, None], mode="clip")  # 0 to 8 digits a row
    w = (w * 2561 >> 8) & 0x00FF00FF00FF00FF
    w = (w * 6553601 >> 16) & 0x0000FFFF0000FFFF
    return (w * 42949672960001 >> 32) & 0xFFFFFFFF


def _owners(pos: np.ndarray, beg: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The number each position lies in, at most one position per number, or None if one lies outside."""
    owner = np.searchsorted(end, pos)
    if (owner >= end.size).any():
        return None
    if not ((beg[owner] <= pos) & (np.diff(owner, prepend=-1) > 0)).all():
        return None
    return owner


def _to_double(mant: np.ndarray, exp10: np.ndarray, sure: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mant * 10**exp10`` correctly rounded, as ``float`` reads it, where ``sure``; ``sure`` is cleared where
    that cannot be certified (too far out, or within ``_MARGIN`` ulp of a tie)."""
    m = mant.astype(np.float64)
    # Clinger's exact case: the mantissa and the power of ten are both exact doubles, so one IEEE operation
    # rounds correctly (a multiplication or division by 1 is exact).
    values = m * _TENS.take(exp10, mode="clip") / _TENS.take(-exp10, mode="clip")
    exact = (mant < 2**53) & (exp10 >= -22) & (exp10 <= 22)
    # Otherwise a double-double product, rounded by its high part where its low part is certainly under
    # half an ulp (and the high part is no power of two, whose lower gap is half its upper).
    rest = np.flatnonzero(sure & ~exact & (mant != 0))
    if rest.size:
        e = exp10[rest]
        inside = np.abs(e) <= _P_MAX
        hi, lo, hi_h, hi_l = np.take(_TENS_DD, e + _P_MAX, axis=1, mode="clip")
        mh = m[rest]
        ml = (mant[rest] - mh.astype(np.int64)).astype(np.float64)  # exact: |ml| <= 2**10
        m_h, m_l = _split(mh)
        ph = mh * hi
        t = (((m_h * hi_h - ph) + m_h * hi_l) + m_l * hi_h) + m_l * hi_l + (mh * lo + ml * hi)
        high = ph + t
        low = t - (high - ph)
        bits = high.view(np.int64)
        ulp = ((bits >> 52) - 52 << 52).view(np.float64)
        ok = inside & (np.abs(low) < ulp * (0.5 - _MARGIN)) & ((bits & (2**52 - 1)) != 0)
        values[rest] = high
        sure[rest[~ok]] = False
    return values, sure
