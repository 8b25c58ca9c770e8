"""Closed-form complexity, latency, and resource figures.

Complex-multiplication totals cover the modulator, the demodulator, and the
N-point equalizer transform of a frequency-domain-equalized link; a loopback
report compares its total against the instrumented counter of the run
(``LoopbackReport.cm_match``).  Latency figures model pipelined block processing
from first symbol in to last symbol out, built on the paper's fixed table of
FFT-core processing cycles per size and its multiplier delay.  :func:`sweep`
writes the ``analyze`` command's CSV table of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .errors import ConfigError, MissingCostEntry
from .numerics import check_grid, check_positive, fft_mul_count

__all__ = [
    "ARCH_KINDS",
    "LATENCY_KINDS",
    "ResourceCount",
    "cm_count",
    "latency",
    "latency_delta",
    "resources",
    "sweep",
]

ARCH_KINDS = (
    "FFT_TD_FD",
    "FFT_TD_TD",
    "FFT_FD_FD",
    "DIR_TD_FD",
    "DIR_TD_TD",
    "DIR_FD_FD",
    "DIR_FD_FD_SPARSE",
)

LATENCY_KINDS = ("FFT_TD_FD", "DIR_TD_TD", "DIR_FD_FD")

#: Processing cycles of a pipelined streaming radix-2 FFT core, by size.
#: Sizes 2 and 4 are deliberately absent; requesting them is an error rather
#: than an extrapolation.
FFT_CYCLES = MappingProxyType(
    {8: 57, 16: 110, 32: 126, 64: 177, 128: 241, 256: 387, 512: 643, 1024: 1170, 2048: 2194}
)

#: Latency of one complex multiplier, in cycles.
T_MUL = 12


def _p(size: int) -> int:
    """Cycles of a ``size``-point transform from :data:`FFT_CYCLES`."""
    try:
        return FFT_CYCLES[size]
    except KeyError:
        raise MissingCostEntry(f"no cycle figure for a {size}-point transform") from None


@dataclass(frozen=True)
class ResourceCount:
    fft_cores: int
    multipliers: int
    rw_rams: int
    r_or_w_rams: int


def cm_count(kind: str, k: int, m: int, l: int | None = None) -> int:
    """Total complex multiplications of one modulate-equalize-demodulate block.

    Each kind sums the stages of its two preset tables and the equalizer's N-point
    transform: ``t(s)`` is one stage of ``N // s`` ``s``-point transforms, each
    :func:`~gfdm_modem.numerics.fft_mul_count`, and a window multiplier or chain costs N.
    With K and M other than 2 this is the generic closed form, e.g. FFT_TD_FD =
    2 N log2 N + 2 N; a 2-point stage costs 0 here, as in the counter, not N / 2.
    The band overlap ``l``, when given, must be a positive integer.
    """
    k, m = check_grid(k, m)
    n = k * m
    if l is not None:
        l = check_positive("the band overlap L", l)

    def t(size: int) -> int:
        return (n // size) * fft_mul_count(size)

    if kind == "FFT_TD_FD":
        return 3 * t(k) + 3 * t(m) + t(n) + 2 * n
    if kind == "FFT_TD_TD":
        return 2 * t(k) + 4 * t(m) + 2 * t(n) + 2 * n
    if kind == "FFT_FD_FD":
        return 4 * t(k) + 2 * t(m) + 2 * t(n) + 2 * n
    if kind == "DIR_TD_FD":
        return t(k) + t(m) + t(n) + (k + m) * n
    if kind == "DIR_TD_TD":
        return 2 * t(k) + 2 * t(n) + 2 * m * n
    if kind == "DIR_FD_FD":
        return 2 * t(m) + 2 * t(n) + 2 * k * n
    if kind == "DIR_FD_FD_SPARSE":
        if l is None:
            raise ConfigError("the sparse frequency-domain count needs the band overlap L")
        return 2 * t(m) + 2 * t(n) + 2 * l * n
    raise ConfigError(f"unknown architecture kind {kind!r}")


def latency(kind: str, k: int, m: int) -> int:
    """Block latency in cycles, first symbol in to last symbol out."""
    k, m = check_grid(k, m)
    n = k * m
    if kind == "FFT_TD_FD":
        return 6 * n + 3 * (k + m) + _p(n) + 3 * (_p(k) + _p(m)) + 2 * T_MUL
    if kind == "DIR_TD_TD":
        return 5 * n + 2 * k + 2 * _p(n) + 2 * _p(k) + 2 * T_MUL
    if kind == "DIR_FD_FD":
        return 5 * n + 2 * m + 2 * _p(n) + 2 * _p(m) + 2 * T_MUL
    raise ConfigError(f"latency is defined for {LATENCY_KINDS}, got {kind!r}")


def latency_delta(k: int, m: int) -> int:
    """Extra cycles of the FFT pipeline over the direct time-domain modem."""
    return latency("FFT_TD_FD", k, m) - latency("DIR_TD_TD", k, m)


def resources(kind: str, l_max: int = 16) -> ResourceCount:
    """FPGA resource budget of either architecture."""
    chains = 2 * check_positive("l_max", l_max)
    if kind == "FFT_BASED":
        return ResourceCount(fft_cores=7, multipliers=2, rw_rams=4, r_or_w_rams=2)
    if kind == "DIRECT":
        return ResourceCount(fft_cores=4, multipliers=chains, rw_rams=chains, r_or_w_rams=chains)
    raise ConfigError(f"resource kind must be 'FFT_BASED' or 'DIRECT', got {kind!r}")


def sweep(kinds: list[str], geometries: list[tuple[int, int]], l: int | None = None) -> str:
    """The ``analyze`` table: a ``kind,K,M,N,cm,latency,delta,increase_pct,status`` CSV row per
    kind and geometry, kinds outermost, each kind checked before any of its geometries.

    Rows whose transform sizes are missing from the cost table are emitted
    with empty latency fields and a ``missing cost entry`` status instead of
    failing the whole sweep.
    """
    lines = ["kind,K,M,N,cm,latency,delta,increase_pct,status"]
    for kind in kinds:
        if kind not in ARCH_KINDS:
            raise ConfigError(f"unknown architecture kind {kind!r}")
        for k, m in geometries:
            cells = [kind, k, m, k * m, cm_count(kind, k, m, l), "", "", "", "ok"]
            if kind in LATENCY_KINDS:
                try:
                    lat, delta, base = latency(kind, k, m), latency_delta(k, m), latency("DIR_TD_TD", k, m)
                    cells[5:8] = lat, delta, f"{100.0 * delta / base:.1f}"
                except MissingCostEntry:
                    cells[8] = "missing cost entry"
            lines.append(",".join(map(str, cells)))
    return "\n".join(lines) + "\n"
