"""Reconfigurable FFT-pipeline modem.

One engine covers time-domain and frequency-domain modulation and
demodulation.  The sample stream passes through four configurable transform
stages, two transpose memories, and one window multiplier:

    stage[0] -> memory A -> stage[1] -> window -> stage[2] -> memory B -> stage[3]

Each stage runs batched radix-2 transforms over consecutive chunks of the
stream and can be disabled (pass-through).  A memory writes the stream into a
matrix column by column and reads it back row by row, i.e. it transposes; its
indexing can also be disabled.  The window multiplier consumes its stored
matrix in the same column-major stream order.

Presets reproduce the four canonical configurations.  Streams between stages
are column-major vectors of the current logical matrix.  Inverse stages of the
presets carry their ``1/size`` factor so that all block scaling lives in the
stage table; hand-built stages default to the unnormalized kernel.

As in hardware, the memories move no data: between stages the stream is a 2-D
array read row by row, and a memory is a strided transposed view of it.  Each
stage transforms its chunk rows and scales its own fresh output in place; the
window is read in stream layout as a view of the held matrix.  Only the output
is flattened, copied where its layout needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    transpose: bool = True


@dataclass(frozen=True, eq=False)
class ArchConfig:
    """Full pipeline configuration in execution order."""

    mode: str
    stages: tuple[StageConfig, StageConfig, StageConfig, StageConfig]
    mem_a: MemoryConfig | None = None
    mem_b: MemoryConfig | None = None
    window: np.ndarray | None = None


def single_stage_config(size: int, inverse: bool, scale: float = 1.0) -> ArchConfig:
    """Pipeline reduced to one transform, e.g. the plain IFFT of OFDM."""
    off = StageConfig(size, enabled=False)
    return ArchConfig(
        mode="BYPASS",
        stages=(StageConfig(size, inverse=inverse, scale=scale), off, off, off),
    )


def preset(mode: str, params: GfdmParams, window: np.ndarray) -> ArchConfig:
    """Canonical stage table for one of the four operating modes.

    The window argument must already be laid out for the mode: the
    time-domain modes store the transposed (M x K) window, the
    frequency-domain modes the plain K x M window.
    """
    k, m, n = params.k, params.m, params.n
    window = np.asarray(window, dtype=np.complex128)
    want = (m, k) if mode in ("TD_MOD", "TD_DEMOD") else (k, m)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    if window.shape != want:
        raise ConfigError(f"mode {mode} stores a {want[0]}x{want[1]} window, got {window.shape}")

    if mode == "TD_MOD":
        stages = (
            StageConfig(k, inverse=True, scale=1.0 / k),
            StageConfig(m),
            StageConfig(m, inverse=True, scale=1.0 / m),
            StageConfig(n, enabled=False),
        )
        mem_a, mem_b = MemoryConfig(k, m), MemoryConfig(m, k)
    elif mode == "FD_MOD":
        stages = (
            StageConfig(m),
            StageConfig(k, inverse=True, scale=1.0 / k),
            StageConfig(k),
            StageConfig(n, inverse=True, scale=1.0 / n),
        )
        mem_a, mem_b = MemoryConfig(m, k), MemoryConfig(k, m)
    elif mode == "TD_DEMOD":
        stages = (
            StageConfig(n, inverse=True, scale=1.0 / n),
            StageConfig(m),
            StageConfig(m, inverse=True, scale=1.0 / m),
            StageConfig(k),
        )
        mem_a, mem_b = MemoryConfig(k, m), MemoryConfig(m, k)
    else:  # FD_DEMOD
        stages = (
            StageConfig(n, inverse=True, scale=1.0 / n, enabled=False),
            StageConfig(k, inverse=True, scale=1.0 / k),
            StageConfig(k),
            StageConfig(m, inverse=True, scale=1.0 / m),
        )
        mem_a, mem_b = MemoryConfig(m, k), MemoryConfig(k, m)

    return ArchConfig(mode, stages, mem_a, mem_b, window)


def _run_stage(s: np.ndarray, stage: StageConfig, counter: MulCounter | None) -> np.ndarray:
    if not stage.enabled:
        return s
    if s.size % stage.size:
        raise ConfigError(f"stream length {s.size} is not a multiple of stage size {stage.size}")
    out = dft(s.reshape(-1, stage.size).T, inverse=stage.inverse, counter=counter)
    if stage.scale != 1.0:
        out *= stage.scale
    return out.T


def _run_memory(s: np.ndarray, mem: MemoryConfig | None) -> np.ndarray:
    if mem is None or not mem.transpose:
        return s
    if s.size != mem.rows * mem.cols:
        raise ConfigError(f"stream length {s.size} does not fill a {mem.rows}x{mem.cols} memory")
    return s.reshape(mem.cols, mem.rows).T


def run_pipeline(cfg: ArchConfig, stream: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Push one block through the configured pipeline."""
    s = np.asarray(stream, dtype=np.complex128).reshape(-1)
    s = _run_stage(s, cfg.stages[0], counter)
    s = _run_memory(s, cfg.mem_a)
    s = _run_stage(s, cfg.stages[1], counter)
    if cfg.window is not None:
        if s.size != cfg.window.size:
            raise ConfigError(
                f"stream length {s.size} does not match window size {cfg.window.size}"
            )
        s = s * cfg.window.T.reshape(s.shape)
        if counter is not None:
            counter.add(s.size)
    s = _run_stage(s, cfg.stages[2], counter)
    s = _run_memory(s, cfg.mem_b)
    s = _run_stage(s, cfg.stages[3], counter)
    return s.reshape(-1)


def run_modulator(cfg: ArchConfig, grid: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Block of a K x M symbol grid through a ``TD_MOD`` or ``FD_MOD`` table."""
    td = cfg.mode == "TD_MOD"
    shape = cfg.window.T.shape if td else cfg.window.shape
    if np.shape(grid) != shape:
        raise ConfigError(f"grid shape {np.shape(grid)} does not match window {shape}")
    return run_pipeline(cfg, np.asarray(grid).flatten(order="F" if td else "C"), counter)


def run_demodulator(cfg: ArchConfig, block: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate of a block through a ``TD_DEMOD`` or ``FD_DEMOD`` table."""
    out = run_pipeline(cfg, block, counter).reshape(cfg.window.shape)
    return out.T if cfg.mode == "TD_DEMOD" else out


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
    if not emit_time:
        cfg = replace(cfg, stages=cfg.stages[:3] + (replace(cfg.stages[3], enabled=False),))
    return run_modulator(cfg, grid, counter)


def demodulate_fd(yf_eq: np.ndarray, w_rx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate from a frequency-domain equalized block."""
    w = np.asarray(w_rx)
    return run_demodulator(preset("FD_DEMOD", GfdmParams(*w.shape), w), yf_eq, counter)


def demodulate_td(y_eq: np.ndarray, w_rx: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """K x M grid estimate from a time-domain equalized block."""
    w = np.asarray(w_rx)
    cfg = preset("TD_DEMOD", GfdmParams(*w.shape), w.T)
    cfg = replace(cfg, stages=(replace(cfg.stages[0], enabled=False),) + cfg.stages[1:])
    return run_demodulator(cfg, y_eq, counter)
