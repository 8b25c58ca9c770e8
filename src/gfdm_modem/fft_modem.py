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
L multiply-accumulate chains with an ``(L, rows, cols)`` stack, where chain
``l`` multiplies its stored tap row by the stream cyclically shifted by
``partitions[l]``.  Stage 1 -> window -> stage 2 is a circular convolution,
which the chains compute directly, so the direct architecture's tables are
the presets with a chain stack, stages 1 and 2 disabled and no memories:

    TD_MOD: K-IDFT -> chains              FD_MOD: M-DFT -> chains -> N-IDFT
    TD_DEMOD: N-IDFT -> chains -> K-DFT   FD_DEMOD: chains -> M-IDFT

Presets reproduce the four canonical configurations; their stages depend only
on (mode, K, M, chains), so each stage tuple is built once and shared.  Streams
between stages are column-major vectors of the current logical matrix.  Inverse
stages of the presets carry their ``1/size`` factor so that all block scaling
lives in the stage table; hand-built stages default to the unnormalized kernel.

As in hardware, the memories move no data: between stages the stream is a 2-D
array read row by row, and a memory is a strided transposed view of it.  Each
stage transforms its chunk rows, a ``1/size`` scale inside the transform call
and any other scale on its fresh output in place; the window is read in stream
layout as a view of the held matrix, the chains read their stack and a view of
the stream's cyclic shifts.  Only the output is flattened, copied where needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import ConfigError
from .numerics import MulCounter, dft, is_pow2
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
]

MODES = ("TD_MOD", "FD_MOD", "TD_DEMOD", "FD_DEMOD")


@dataclass(frozen=True)
class StageConfig:
    """One transform core: size, direction, enable, and output scale."""

    size: int
    inverse: bool = False
    enabled: bool = True
    scale: float = 1.0

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

    ``window`` is a ``rows x cols`` window or an ``(L, rows, cols)`` chain stack, each
    matrix one tap row broadcast across the columns; chain ``l`` multiplies its row by
    the stream cyclically shifted by ``partitions[l]``.
    """

    mode: str
    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    mem_a: MemoryConfig | None = None
    mem_b: MemoryConfig | None = None
    window: np.ndarray | None = None
    partitions: tuple[int, ...] | None = None


def single_stage_config(size: int, inverse: bool, scale: float = 1.0) -> ArchConfig:
    """Pipeline reduced to one transform, e.g. the plain IFFT of OFDM."""
    off = StageConfig(size, enabled=False)
    return ArchConfig(
        mode="BYPASS",
        stages=(StageConfig(size, inverse=inverse, scale=scale), off, off, off),
    )


def bypass(cfg: ArchConfig, *indices: int) -> ArchConfig:
    """``cfg`` with the stages at ``indices`` disabled (passed through)."""
    stages = tuple(replace(s, enabled=False) if i in indices else s for i, s in enumerate(cfg.stages))
    return replace(cfg, stages=stages)


@cache
def _preset_stages(mode: str, k: int, m: int, chains: bool) -> tuple[StageConfig, ...]:
    """The four stages of a preset, built once per key and shared (power-of-two sizes keep keys few)."""
    def stage(size: int, inverse: bool = False, enabled: bool = True) -> StageConfig:
        return StageConfig(size, inverse, enabled, 1.0 / size if inverse else 1.0)

    mid, n = not chains, k * m  # chains compute stage 1 -> window -> stage 2 themselves
    if mode == "TD_MOD":
        return (stage(k, True), stage(m, False, mid), stage(m, True, mid), stage(n, enabled=False))
    if mode == "FD_MOD":
        return (stage(m), stage(k, True, mid), stage(k, False, mid), stage(n, True))
    if mode == "TD_DEMOD":
        return (stage(n, True), stage(m, False, mid), stage(m, True, mid), stage(k))
    return (stage(n, True, False), stage(k, True, mid), stage(k, False, mid), stage(m, True))  # FD_DEMOD


def preset(
    mode: str, params: GfdmParams, window: np.ndarray, partitions: tuple[int, ...] | None = None
) -> ArchConfig:
    """Canonical stage table for one of the four operating modes.

    The window argument must already be laid out for the mode: the
    time-domain modes store the transposed (M x K) window, the
    frequency-domain modes the plain K x M window.  A chain stack with one
    partition per chain gives the direct table; with no memory before it, its
    matrices are K x M in the time domain, M x K in frequency.
    """
    k, m = params.k, params.m
    window = np.asarray(window, dtype=np.complex128)
    chains = window.ndim == 3
    want = (m, k) if (mode in ("TD_MOD", "TD_DEMOD")) != chains else (k, m)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    if window.ndim not in (2, 3) or window.shape[-2:] != want:
        raise ConfigError(f"mode {mode} stores a {want[0]}x{want[1]} window, got {window.shape}")
    if chains and (partitions is None or len(partitions) != len(window)):
        raise ConfigError(f"a stack of {len(window)} chains needs one partition each, got {partitions}")
    stages = _preset_stages(mode, k, m, chains)
    if chains:
        return ArchConfig(mode, stages, None, None, window, partitions)
    # Memory A writes the transposed window shape, so the window reads its stream in place.
    return ArchConfig(mode, stages, MemoryConfig(*want[::-1]), MemoryConfig(*want), window)


def _run_stage(s: np.ndarray, stage: StageConfig, counter: MulCounter | None) -> np.ndarray:
    if not stage.enabled:
        return s
    if s.size % stage.size:
        raise ConfigError(f"stream length {s.size} is not a multiple of stage size {stage.size}")
    normalized = stage.scale == 1.0 / stage.size  # the 1/size factor rides in the transform call
    out = dft(s.reshape(-1, stage.size).T, stage.inverse, counter, normalized)
    if stage.scale != 1.0 and not normalized:
        out *= stage.scale
    return out.T


def _run_memory(s: np.ndarray, mem: MemoryConfig | None) -> np.ndarray:
    if mem is None:
        return s
    if s.size != mem.rows * mem.cols:
        raise ConfigError(f"stream length {s.size} does not fill a {mem.rows}x{mem.cols} memory")
    return s.reshape(mem.cols, mem.rows).T


def _cyclic_shifts(a: np.ndarray, shifts: tuple[int, ...]) -> np.ndarray:
    """Stack whose slice ``i`` is ``np.roll(a, shifts[i], axis=1)``.

    All ``cols`` shifts in ascending order are a read-only, zero-copy view of ``[a, a]``,
    written row-major whatever the layout of ``a``; a proper subset is gathered from that view.
    """
    rows, cols = a.shape
    doubled = np.empty((rows, 2 * cols), a.dtype)
    doubled[:, :cols] = doubled[:, cols:] = a
    item = doubled.itemsize
    view = np.ndarray((cols, rows, cols), a.dtype, doubled, cols * item, (-item, 2 * cols * item, item))
    view.flags.writeable = False
    if shifts == tuple(range(cols)):
        return view
    return view[list(shifts)]


def _run_window(s: np.ndarray, cfg: ArchConfig, counter: MulCounter | None) -> np.ndarray:
    w = cfg.window
    rows, cols = w.shape[-2:]
    if s.size != rows * cols:
        raise ConfigError(f"stream length {s.size} does not match window size {rows * cols}")
    if w.ndim == 2:
        s = s * w.T.reshape(s.shape)
    else:
        # Output row i: its L taps times the L x cols matrix of its cyclic shifts by the partitions,
        # the stream read column by column.
        shifts = _cyclic_shifts(s.reshape(cols, rows).T, cfg.partitions)
        s = np.matmul(w[:, :, 0].T[:, None, :], shifts.transpose(1, 0, 2))[:, 0, :].T
    if counter is not None:
        counter.add(w.size)  # one multiplication per window entry: N, or L*N on L chains
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


def _grid_shape(cfg: ArchConfig) -> tuple[int, int]:
    """K x M: the TD modes stream the grid column by column, the FD modes row by row, and
    memory A transposes it before a window; a chain matrix has no memory before it."""
    rows, cols = cfg.window.shape[-2:]
    return (cols, rows) if (cfg.window.ndim == 2) == cfg.mode.startswith("TD") else (rows, cols)


def run_modulator(cfg: ArchConfig, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Block of a K x M symbol grid through a ``TD_MOD`` or ``FD_MOD`` table."""
    shape = _grid_shape(cfg)
    if np.shape(grid) != shape:
        raise ConfigError(f"grid shape {np.shape(grid)} does not match window {shape}")
    return run_pipeline(cfg, np.asarray(grid).flatten(order="F" if cfg.mode == "TD_MOD" else "C"), counter)


def run_demodulator(cfg: ArchConfig, block: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate of a block through a ``TD_DEMOD`` or ``FD_DEMOD`` table."""
    k, m = _grid_shape(cfg)
    out = run_pipeline(cfg, block, counter)
    return out.reshape(m, k).T if cfg.mode == "TD_DEMOD" else out.reshape(k, m)


def modulate_td(grid: np.ndarray, w_tx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Time-domain block from a K x M symbol grid and the TD transmit window."""
    w = np.asarray(w_tx)
    return run_modulator(preset("TD_MOD", GfdmParams(*w.shape), w.T), grid, counter)


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
    w = np.asarray(w_tx)
    cfg = preset("FD_MOD", GfdmParams(*w.shape), w)
    return run_modulator(cfg if emit_time else bypass(cfg, 3), grid, counter)


def demodulate_fd(yf_eq: np.ndarray, w_rx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate from a frequency-domain equalized block."""
    w = np.asarray(w_rx)
    return run_demodulator(preset("FD_DEMOD", GfdmParams(*w.shape), w), yf_eq, counter)


def demodulate_td(y_eq: np.ndarray, w_rx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate from a time-domain equalized block."""
    w = np.asarray(w_rx)
    return run_demodulator(bypass(preset("TD_DEMOD", GfdmParams(*w.shape), w.T), 0), y_eq, counter)
