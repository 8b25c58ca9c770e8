"""Ground-truth dense implementations used to verify the fast engines.

Everything here is deliberately naive: the full N x N modulation matrix,
O(N^2) modulation, dense solves for zero-forcing demodulation, plus symbol
mapping, multi-pulse superposition, and OQAM-precoded two-stream generation.
Intended for N up to a few thousand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularMatrix
from .pulses import GfdmParams, PrototypePulse, shift_pulse

__all__ = [
    "ModMatrix",
    "MultiPulseComponent",
    "build_matrix",
    "oracle_modulate",
    "oracle_demod_mf",
    "oracle_demod_zf",
    "map_symbols",
    "demap_symbols",
    "compose_multipulse",
    "fbmc_oqam_modulate",
]

#: A squared condition number at or above this classifies the matrix as singular.
COND_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class ModMatrix:
    """Dense modulation matrix together with its block geometry."""

    mat: np.ndarray
    params: GfdmParams


def build_matrix(pulse: PrototypePulse) -> ModMatrix:
    """N x N modulation matrix; column ``k + m*K`` is the (k, m) pulse.

    The (k, m) pulse is the prototype circularly delayed by ``m*K`` samples
    and modulated onto subcarrier k: ``g[(n - m*K) mod N] * exp(2j*pi*n*k/K)``.
    """
    k, m, n = pulse.params.k, pulse.params.m, pulse.params.n
    idx = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(idx, np.arange(k)) / k)  # N x K
    shifts = np.empty((n, m), dtype=np.complex128)
    for mm in range(m):
        shifts[:, mm] = np.roll(pulse.time, mm * k)
    cols = phases[:, :, None] * shifts[:, None, :]  # N x K x M
    return ModMatrix(cols.transpose(0, 2, 1).reshape(n, n), pulse.params)


def oracle_modulate(mm: ModMatrix, grid: np.ndarray) -> np.ndarray:
    """x = A vec(D) with the column-major symbol vector d[k + m*K] = D[k, m]."""
    if grid.shape != (mm.params.k, mm.params.m):
        raise ConfigError(f"grid shape {grid.shape} does not match {mm.params.k}x{mm.params.m}")
    return mm.mat @ grid.flatten(order="F")


def oracle_demod_mf(mm: ModMatrix, x: np.ndarray) -> np.ndarray:
    """Matched-filter grid estimate unvec(A^H x)."""
    return (mm.mat.conj().T @ x).reshape((mm.params.k, mm.params.m), order="F")


def oracle_demod_zf(mm: ModMatrix, x: np.ndarray) -> np.ndarray:
    """Zero-forcing grid estimate unvec(A^-1 x) by dense solve; a singular A is refused.

    A counts as singular when cond(A)^2 = (smax / smin)^2 from its singular values reaches
    ``COND_LIMIT``: a solve there returns wrong estimates without an error.
    """
    sv = np.linalg.svd(mm.mat, compute_uv=False)
    if sv[0] ** 2 >= COND_LIMIT * sv[-1] ** 2:
        raise SingularMatrix("modulation matrix is numerically singular")
    try:
        d = np.linalg.solve(mm.mat, x)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return d.reshape((mm.params.k, mm.params.m), order="F")


def map_symbols(d_on: np.ndarray, params: GfdmParams) -> np.ndarray:
    """Scatter active symbols onto the K x M grid, subcarrier index fastest."""
    d_on = np.asarray(d_on).reshape(-1)
    if d_on.size != params.n_active:
        raise ConfigError(
            f"expected {params.n_active} symbols for the active set, got {d_on.size}"
        )
    grid = np.zeros(params.n, dtype=np.complex128)
    grid[params.active_index] = d_on
    return grid.reshape(params.k, params.m)


def demap_symbols(grid: np.ndarray, params: GfdmParams) -> np.ndarray:
    """Gather the active grid positions back into a symbol vector."""
    if grid.shape != (params.k, params.m):
        raise ConfigError(f"grid shape {grid.shape} does not match {params.k}x{params.m}")
    return grid.reshape(-1)[params.active_index].astype(np.complex128, copy=False)


@dataclass(frozen=True, eq=False)
class MultiPulseComponent:
    """One pulse of a multi-pulse block with its active sets and symbols."""

    pulse: PrototypePulse
    k_on: tuple[int, ...]
    m_on: tuple[int, ...]
    grid: np.ndarray


def compose_multipulse(components: list[MultiPulseComponent]) -> np.ndarray:
    """Superpose per-pulse modulated blocks, each restricted to its active set."""
    if not components:
        raise ConfigError("multi-pulse composition needs at least one component")
    n = components[0].pulse.params.n
    out = np.zeros(n, dtype=np.complex128)
    for comp in components:
        p = comp.pulse.params
        if p.n != n:
            raise ConfigError(f"component block length {p.n} does not match {n}")
        mask = np.zeros((p.k, p.m))
        mask[np.ix_(list(comp.k_on), list(comp.m_on))] = 1.0
        out += oracle_modulate(build_matrix(comp.pulse), comp.grid * mask)
    return out


def fbmc_oqam_modulate(d_qam: np.ndarray, pulse: PrototypePulse) -> np.ndarray:
    """Offset-QAM two-stream block from complex QAM symbols.

    The real parts feed the prototype as-is, the imaginary parts feed a copy
    delayed by half a subsymbol (K/2 samples); both streams carry the
    alternating phase pattern that keeps neighbours orthogonal:
    stream 0 multiplies even subcarriers by j, stream 1 odd subcarriers by j.
    """
    params = pulse.params
    if params.k % 2 != 0:
        raise ConfigError("offset-QAM staggering needs an even subcarrier count")
    if d_qam.shape != (params.k, params.m):
        raise ConfigError(f"grid shape {d_qam.shape} does not match {params.k}x{params.m}")
    k_idx = np.arange(params.k)
    theta0 = np.where(k_idx % 2 == 0, 1j, 1.0)
    theta1 = np.where(k_idx % 2 == 0, 1.0, 1j)
    d0 = theta0[:, None] * d_qam.real
    d1 = theta1[:, None] * d_qam.imag
    x0 = oracle_modulate(build_matrix(pulse), d0)
    x1 = oracle_modulate(build_matrix(shift_pulse(pulse, params.k // 2)), d1)
    return x0 + x1
