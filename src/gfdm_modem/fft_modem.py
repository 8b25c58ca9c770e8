"""Reconfigurable FFT-pipeline modem.

One engine covers time-domain and frequency-domain modulation and
demodulation.  The sample stream passes through four configurable transform
stages, two transpose memories, and one window step:

    stage[0] -> memory A -> stage[1] -> window -> stage[2] -> memory B -> stage[3]

Each stage runs batched radix-2 transforms over consecutive chunks of the
stream and can be disabled (pass-through).  A memory writes the stream into a
matrix column by column and reads it back row by row, i.e. it transposes; a
``None`` memory passes the stream on.  The window step consumes the stream
column by column as its matrix: one multiplier with an elementwise window, or
L multiply-accumulate chains with ``(L, rows)`` tap rows, where chain ``l``
multiplies tap row ``l`` by the stream cyclically shifted by
``partitions[l]``.  Stage 1 -> window -> stage 2 is a circular convolution,
which the chains compute directly, so the direct architecture's tables are
the presets with tap rows, stages 1 and 2 disabled and no memories:

    TD_MOD: K-IDFT -> chains              FD_MOD: M-DFT -> chains -> N-IDFT
    TD_DEMOD: N-IDFT -> chains -> K-DFT   FD_DEMOD: chains -> M-IDFT

Presets reproduce the four canonical configurations from a K x M window (or
tap rows) and hold every layout rule: the table's window, memories and
``grid``.  Their stages depend only on (mode, K, M, chains) and their memories
on the window shape, so each stage tuple and memory pair is built once and
shared; so is the geometry of a window shape, whose one rule is
:func:`window_geometry`.  Streams between stages are column-major vectors of
the current logical matrix.  Inverse stages of the presets are
``normalized`` (they divide by their size) so that all block scaling lives in
the stage table; hand-built stages default to the unnormalized kernel.

As in hardware, the memories move no data: between stages the stream is a 2-D
array read row by row, and a memory is a strided transposed view of it.  Each
stage transforms its chunk rows, a ``normalized`` stage's ``1/size`` inside the
transform call; the window is read in stream layout as a view of the held
matrix.  The chains make each output sample one BLAS dot of its row's taps
with the stream's cyclic shifts, summed in descending shift order: the full
set's shifts are then a view of the stream with a +1 element stride, which
BLAS reads in place; a chain table holds its taps in their layout and marks a full
set when built.  Only the output is flattened, copied where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import ConfigError
from .numerics import MulCounter, check_int, dft, is_pow2
from .pulses import GfdmParams

__all__ = [
    "StageConfig",
    "MemoryConfig",
    "ArchConfig",
    "MODES",
    "preset",
    "bypass",
    "single_stage_config",
    "run_pipeline",
    "run_modulator",
    "run_demodulator",
    "modulate_td",
    "modulate_fd",
    "demodulate_td",
    "demodulate_fd",
    "window_geometry",
]

MODES = ("TD_MOD", "FD_MOD", "TD_DEMOD", "FD_DEMOD")


@dataclass(frozen=True)
class StageConfig:
    """One transform core: size, direction, enable, and whether it divides by its size."""

    size: int
    inverse: bool = False
    enabled: bool = True
    normalized: bool = False

    def __post_init__(self) -> None:
        if self.enabled and not is_pow2(self.size):
            raise ConfigError(f"enabled stage size must be a power of two, got {self.size}")


@dataclass(frozen=True)
class MemoryConfig:
    """Transpose memory: written as ``rows x cols`` column by column."""

    rows: int
    cols: int


@dataclass(frozen=True, eq=False)
class ArchConfig:
    """Full pipeline configuration in execution order.

    ``window`` is a ``rows x cols`` window, or with ``partitions`` the ``(L, rows)`` tap rows
    of L chains: chain ``l`` multiplies tap row ``l`` by the stream cyclically shifted by
    ``partitions[l]``.  ``grid`` is the K x M symbol grid of a preset's modem, and ``full`` marks
    partitions that are ``range(cols)`` in order; ``preset`` sets both.
    """

    mode: str
    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    mem_a: MemoryConfig | None = None
    mem_b: MemoryConfig | None = None
    window: np.ndarray | None = None
    partitions: tuple[int, ...] | None = None
    grid: tuple[int, int] | None = None
    full: bool = False


def single_stage_config(size: int, inverse: bool) -> ArchConfig:
    """Pipeline reduced to one unnormalized transform, e.g. the plain IFFT of OFDM."""
    off = StageConfig(size, enabled=False)
    return ArchConfig(mode="BYPASS", stages=(StageConfig(size, inverse=inverse), off, off, off))


def bypass(cfg: ArchConfig, *indices: int) -> ArchConfig:
    """``cfg`` with the stages at ``indices`` disabled (passed through)."""
    stages = tuple(replace(s, enabled=False) if i in indices else s for i, s in enumerate(cfg.stages))
    return replace(cfg, stages=stages)


#: The geometry of a K x M window shape, built and validated once per shape (power-of-two sizes
#: keep the shapes few; a refused shape raises on every call and is not held).
_geometry = cache(GfdmParams)


def window_geometry(window: np.ndarray) -> GfdmParams:
    """The held geometry of a window's K x M shape: the one window-shape rule, refusing any other ndim."""
    shape = np.shape(window)
    if len(shape) != 2:
        raise ConfigError(f"a window must be a K x M matrix, got shape {shape}")
    return _geometry(*shape)


@cache
def _preset_stages(mode: str, k: int, m: int, chains: bool) -> tuple[StageConfig, ...]:
    """The four stages of a preset, built once per key and shared (power-of-two sizes keep keys few)."""
    def stage(size: int, inverse: bool = False, enabled: bool = True) -> StageConfig:
        return StageConfig(size, inverse, enabled, normalized=inverse)

    mid, n = not chains, k * m  # chains compute stage 1 -> window -> stage 2 themselves
    if mode == "TD_MOD":
        return (stage(k, True), stage(m, False, mid), stage(m, True, mid), stage(n, enabled=False))
    if mode == "FD_MOD":
        return (stage(m), stage(k, True, mid), stage(k, False, mid), stage(n, True))
    if mode == "TD_DEMOD":
        return (stage(n, True), stage(m, False, mid), stage(m, True, mid), stage(k))
    return (stage(n, True, False), stage(k, True, mid), stage(k, False, mid), stage(m, True))  # FD_DEMOD


@cache
def _preset_memories(rows: int, cols: int) -> tuple[MemoryConfig, MemoryConfig]:
    """Memories A and B around a ``rows x cols`` window, built once per shape and shared.  Memory A
    writes the transposed window shape, so the window reads its stream in place."""
    return MemoryConfig(cols, rows), MemoryConfig(rows, cols)


def preset(
    mode: str, params: GfdmParams, window: np.ndarray, partitions: tuple[int, ...] | None = None
) -> ArchConfig:
    """Canonical stage table for one of the four operating modes.

    ``window`` is the plain K x M window in every mode; the time-domain modes
    store its transpose, which memory A's output reads in place.  With
    ``partitions`` (one per chain, each in ``range(cols)``) it is instead the
    ``(L, rows)`` tap rows of the direct table's L chains, which have no memory
    before them: ``rows x cols`` is K x M in the time domain, M x K in frequency.
    The table holds a read-only view of the window, or a read-only copy of the tap rows
    in the chains' matmul layout, read as ``(L, rows)``; a ``range`` is not scanned.
    """
    k, m = params.k, params.m
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    td = mode.startswith("TD")
    window = np.asarray(window, dtype=np.complex128)
    if partitions is not None:
        rows, cols = (k, m) if td else (m, k)
        if window.shape != (len(partitions), rows):
            raise ConfigError(f"mode {mode} stores one tap row of {rows} per partition, got {window.shape}")
        if partitions != range(cols):  # direct_modem's full set is valid as built
            ints = [check_int("chain partition", p) for p in partitions]  # a bool is no partition
            if ints and (min(ints) < 0 or max(ints) >= cols):
                raise ConfigError(f"chain partitions must lie in range({cols}), got {partitions}")
        # The (rows, L) taps a chain pass hands to matmul, chains descending; ``window`` reads them as (L, rows).
        partitions, held = tuple(partitions), np.array(window[::-1].T, order="C")
        held.flags.writeable = False
        return ArchConfig(mode, _preset_stages(mode, k, m, True), None, None, held.T[::-1], partitions, (k, m),
                          partitions == tuple(range(cols)))
    if window.shape != (k, m):
        raise ConfigError(f"mode {mode} takes a {k}x{m} window, got {window.shape}")
    view = (window.T if td else window).view()
    view.flags.writeable = False
    return ArchConfig(mode, _preset_stages(mode, k, m, False), *_preset_memories(*view.shape), view, None, (k, m))


def _run_stage(s: np.ndarray, stage: StageConfig, counter: MulCounter | None) -> np.ndarray:
    if not stage.enabled:
        return s
    if s.size % stage.size:
        raise ConfigError(f"stream length {s.size} is not a multiple of stage size {stage.size}")
    return dft(s.reshape(-1, stage.size).T, stage.inverse, counter, stage.normalized).T


def _run_memory(s: np.ndarray, mem: MemoryConfig | None) -> np.ndarray:
    if mem is None:
        return s
    if s.size != mem.rows * mem.cols:
        raise ConfigError(f"stream length {s.size} does not fill a {mem.rows}x{mem.cols} memory")
    return s.reshape(mem.cols, mem.rows).T


def _cyclic_shifts(a: np.ndarray, shifts: tuple[int, ...] | None) -> np.ndarray:
    """Stack whose slice ``i`` is ``np.roll(a, shifts[i], axis=1)``.

    ``None``, all ``cols`` shifts in descending order, is a read-only, zero-copy view of ``[a, a]``,
    written row-major whatever the layout of ``a``, whose shift axis has stride +1 element:
    slice ``c`` reads ``[a, a][:, c + 1 : c + 1 + cols]``.  A tuple is gathered from it.
    """
    rows, cols = a.shape
    doubled = np.empty((rows, 2 * cols), a.dtype)
    doubled[:, :cols] = doubled[:, cols:] = a
    item = doubled.itemsize
    view = np.ndarray((cols, rows, cols), a.dtype, doubled, item, (item, 2 * cols * item, item))
    view.flags.writeable = False
    return view if shifts is None else view[[cols - 1 - p for p in shifts]]


def _grid(cfg: ArchConfig) -> tuple[int, int]:
    """The table's K x M grid, which chains and the modem runners read; ``preset`` sets it."""
    if cfg.grid is None:
        raise ConfigError(f"{cfg.mode} table has no K x M grid; build it with preset")
    return cfg.grid


def _run_window(s: np.ndarray, cfg: ArchConfig, counter: MulCounter | None) -> np.ndarray:
    w, chains = cfg.window, cfg.partitions is not None
    n = math.prod(_grid(cfg)) if chains else w.size
    if s.size != n:
        raise ConfigError(f"stream length {s.size} does not match window size {n}")
    if chains:
        # Output sample j of row i (the stream read column by column): one dot of row i's L taps
        # with sample j of the L cyclic shifts.  The chains are summed in reverse order, so the
        # full set's shifts descend and read the stream with a +1 stride, which matmul's
        # (1, L) @ (L, 1) case hands to the BLAS dot without a copy; so are the table's held taps.
        taps = w[::-1].T
        shifts = _cyclic_shifts(s.reshape(-1, len(taps)).T, None if cfg.full else cfg.partitions[::-1])
        s = np.matmul(shifts.transpose(1, 2, 0)[:, :, None, :], taps[:, None, :, None])[:, :, 0, 0].T
    else:
        s = s * w.T.reshape(s.shape)
    if counter is not None:
        counter.add(len(w) * n if chains else n)  # one multiplier: N multiplications; L chains: L*N
    return s


def run_pipeline(cfg: ArchConfig, stream: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Push one block through the configured pipeline."""
    s = np.asarray(stream, dtype=np.complex128).reshape(-1)
    s = _run_stage(s, cfg.stages[0], counter)
    s = _run_memory(s, cfg.mem_a)
    s = _run_stage(s, cfg.stages[1], counter)
    if cfg.window is not None:
        s = _run_window(s, cfg, counter)
    s = _run_stage(s, cfg.stages[2], counter)
    s = _run_memory(s, cfg.mem_b)
    s = _run_stage(s, cfg.stages[3], counter)
    return s.reshape(-1)


def run_modulator(cfg: ArchConfig, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Block of a K x M symbol grid through a ``TD_MOD`` or ``FD_MOD`` table."""
    if np.shape(grid) != _grid(cfg):
        raise ConfigError(f"grid shape {np.shape(grid)} does not match window {cfg.grid}")
    return run_pipeline(cfg, np.asarray(grid).flatten(order="F" if cfg.mode == "TD_MOD" else "C"), counter)


def run_demodulator(cfg: ArchConfig, block: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate of a block through a ``TD_DEMOD`` or ``FD_DEMOD`` table."""
    k, m = _grid(cfg)
    out = run_pipeline(cfg, block, counter)
    return out.reshape(m, k).T if cfg.mode == "TD_DEMOD" else out.reshape(k, m)


def modulate_td(grid: np.ndarray, w_tx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Time-domain block from a K x M symbol grid and the TD transmit window."""
    return run_modulator(preset("TD_MOD", window_geometry(w_tx), w_tx), grid, counter)


def modulate_fd(
    grid: np.ndarray,
    w_tx: np.ndarray,
    emit_time: bool = False,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Frequency-domain block (or its time block with ``emit_time``).

    ``w_tx`` must be the FD-domain transmit window.  With ``emit_time`` the
    final N-point inverse stage runs and the output equals
    :func:`modulate_td` of the matching TD window.
    """
    cfg = preset("FD_MOD", window_geometry(w_tx), w_tx)
    return run_modulator(cfg if emit_time else bypass(cfg, 3), grid, counter)


def demodulate_fd(yf_eq: np.ndarray, w_rx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate from a frequency-domain equalized block."""
    return run_demodulator(preset("FD_DEMOD", window_geometry(w_rx), w_rx), yf_eq, counter)


def demodulate_td(y_eq: np.ndarray, w_rx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate from a time-domain equalized block."""
    return run_demodulator(bypass(preset("TD_DEMOD", window_geometry(w_rx), w_rx), 0), y_eq, counter)
