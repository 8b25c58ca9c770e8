"""Property tests of both block engines over the legal geometry space.

The FFT pipeline and the direct chains run one stage-table interpreter
(``fft_modem.run_pipeline``; a direct table is a preset with tap rows).  Every
example draws one geometry, pulse and receiver and runs an engine's four modes
(TD and FD, modulation and demodulation) through its public entry points, each
mode on its own counter.  Three properties hold:

* all eight modes of both engines equal one dense matrix oracle build;
* each FFT counter equals the sum over its enabled stages of the transform cost
  times the vectors transformed, plus N for the window, and the TD and FD paths
  of one block agree (duality);
* each direct chain pass equals the per-chain loop it replaced (kept here as
  the reference: one ``np.roll``/``np.tile`` matrix per chain, accumulated in
  ascending chain order), its count is the closed form, and it equals the FFT
  engine's output.

A hand-picked geometry and pulse is an ``@example`` row of the property that
makes its assertion.
"""

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gfdm_modem.direct_modem import (
    direct_demodulate_fd,
    direct_demodulate_td,
    direct_modulate_fd,
    direct_modulate_td,
    precompute_fd_demod,
    precompute_fd_mod,
    precompute_td_demod,
    precompute_td_mod,
)
from gfdm_modem.errors import SingularMatrix, SingularWindow
from gfdm_modem.fft_modem import demodulate_fd, demodulate_td, modulate_fd, modulate_td
from gfdm_modem.numerics import MulCounter, dft, fft_mul_count
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window
from gfdm_modem.reference import build_matrix, oracle_demod_mf, oracle_demod_zf, oracle_modulate

#: The dense ZF oracle takes a full SVD (``np.linalg.svd(..., compute_uv=False)``) before its solve
#: (about 0.85 s at N=1024 on one core, ~90% of it the SVD, and O(N^3) beyond), so the oracle property
#: draws N <= 512.  The FFT property covers N <= 4096, the direct one the engine's limit, N <= 2048.
LOG2_N_ORACLE = 9
LOG2_N_FFT = 12
LOG2_N_DIRECT = 11

#: Each mode's entry points: the FFT wrapper, the direct table builder and the direct chain pass.
ENTRY = {
    "TD_MOD": (modulate_td, precompute_td_mod, direct_modulate_td),
    "FD_MOD": (modulate_fd, precompute_fd_mod, direct_modulate_fd),
    "TD_DEMOD": (demodulate_td, precompute_td_demod, direct_demodulate_td),
    "FD_DEMOD": (demodulate_fd, precompute_fd_demod, direct_demodulate_fd),
}


def cases(log2_n_max):
    # K = 2**i and M = 2**j in 2..64 with K*M <= 2**log2_n_max.
    geometry = st.integers(1, 6).flatmap(
        lambda i: st.integers(1, min(6, log2_n_max - i)).map(lambda j: (2**i, 2**j))
    )
    return st.fixed_dictionaries({
        "km": geometry,
        "kind": st.sampled_from(["RC", "RRC", "DIRICHLET", "RECT_TD"]),
        "alpha": st.floats(0.0, 1.0),
        "delta": st.sampled_from([0.0, 0.5]),
        "rx": st.sampled_from(["ZF", "MF"]),
        "force_full": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
    })


def picked(km, kind, rx="ZF", force_full=False):
    """A hand-picked case: RC and RRC with alpha = delta = 1/2, the other kinds, which take neither, with 0."""
    half = 0.5 if kind in ("RC", "RRC") else 0.0
    return {"km": km, "kind": kind, "alpha": half, "delta": half, "rx": rx, "force_full": force_full, "seed": 0}


def run_all(engine, case):
    """Run the four modes of ``engine`` (``"fft"`` or ``"direct"``) on one case, each with its own counter.

    Returns the pulse, receive windows, transmit grid, received block and a dict
    ``mode -> (table, output, count)``; the table is the direct chain table, ``None`` for the FFT wrappers.
    """
    k, m = case["km"]
    params = GfdmParams(k, m)
    pulse = make_prototype(case["kind"], params, case["alpha"], case["delta"])
    w_tx = {d: tx_window(pulse, d) for d in ("TD", "FD")}
    try:
        w_rx = {d: rx_window(w_tx[d], case["rx"]) for d in ("TD", "FD")}
    except SingularWindow:
        assume(False)
    rng = np.random.default_rng(case["seed"])
    grid = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    y = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    windows = {"TD_MOD": w_tx["TD"], "FD_MOD": w_tx["FD"], "TD_DEMOD": w_rx["TD"], "FD_DEMOD": w_rx["FD"]}
    blocks = {"TD_MOD": grid, "FD_MOD": grid, "TD_DEMOD": y, "FD_DEMOD": dft(y)}
    out = {}
    for mode, (wrapper, build, chains) in ENTRY.items():
        counter = MulCounter()
        if engine == "fft":
            out[mode] = (None, wrapper(blocks[mode], windows[mode], counter), counter.count)
            continue
        full = {"force_full": case["force_full"]} if mode.startswith("FD") else {}
        table = build(windows[mode], max(k, m), **full)
        out[mode] = (table, chains(blocks[mode], table, counter), counter.count)
    return pulse, w_rx, grid, y, out


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@example(picked((8, 4), "RC"))
@example(picked((8, 4), "RRC"))
@given(cases(LOG2_N_ORACLE))
def test_both_engines_match_one_dense_oracle(case):
    pulse, _, grid, y, fft = run_all("fft", case)
    direct = run_all("direct", case)[-1]
    mat = build_matrix(pulse)
    x = oracle_modulate(mat, grid)
    if case["rx"] == "MF":
        # The MF window is the unnormalized conjugate of the K-scaled transmit window.
        d = pulse.params.k * oracle_demod_mf(mat, y)
    else:
        try:
            d = oracle_demod_zf(mat, y)
        except SingularMatrix:
            assume(False)
    for engine, out in (("fft", fft), ("direct", direct)):
        for mode, (_, got, _) in out.items():
            assert rel_err(got, x if mode.endswith("_MOD") else d) <= 1e-10, (engine, mode)


def stage_sum(mode, k, m):
    """Transform cost of each enabled FFT stage times the vectors it transforms, plus N for the window."""
    n = k * m
    sizes = {
        "TD_MOD": (k, m, m),
        "FD_MOD": (m, k, k, n),
        "TD_DEMOD": (m, m, k),
        "FD_DEMOD": (k, k, m),
    }[mode]
    return sum(fft_mul_count(size) * (n // size) for size in sizes) + n


@example(picked((4, 4), "RC"))
@example(picked((8, 4), "RC"))
@example(picked((8, 4), "RC", rx="MF"))
@example(picked((4, 8), "RC"))
@example(picked((16, 8), "RC"))
@given(cases(LOG2_N_FFT))
def test_fft_counts_per_stage_and_is_dual(case):
    out = run_all("fft", case)[-1]
    for mode, (_, _, count) in out.items():
        assert count == stage_sum(mode, *case["km"]), mode
    assert rel_err(out["TD_DEMOD"][1], out["FD_DEMOD"][1]) <= 1e-10
    assert rel_err(out["FD_MOD"][1], out["TD_MOD"][1]) <= 1e-10


def loop_chains(mode, pulse, w_rx, grid, y, partitions):
    """The per-chain engine: L stored matrices, one multiply-accumulate each."""
    p = pulse.params
    domain, direction = mode.split("_")
    if domain == "TD":
        if direction == "MOD":
            base = p.k * pulse.time.reshape(p.m, p.k).T
            vec = dft(grid, inverse=True) / p.k
        else:
            base = (dft(w_rx["TD"].T, inverse=True) / p.m).T
            vec = y.reshape(p.m, p.k).T
        acc = np.zeros((p.k, p.m), dtype=np.complex128)
        for m in range(p.m):
            acc += np.roll(base, m, axis=1) * vec[:, [m]]
        return acc.flatten(order="F") if direction == "MOD" else dft(acc)
    if direction == "MOD":
        bands = pulse.freq.reshape(p.k, p.m)
        vec = dft(grid.T)
    else:
        bands = dft(w_rx["FD"])
        vec = dft(y).reshape(p.k, p.m).T
    acc = np.zeros((p.m, p.k), dtype=np.complex128)
    for l in partitions:
        mat = np.tile(bands[l, :][:, None], (1, p.k))
        acc += (mat if direction == "MOD" else mat / p.k) * np.roll(vec, l, axis=1)
    if direction == "DEMOD":
        return (dft(acc, inverse=True) / p.m).T
    return dft(acc.flatten(order="F"), inverse=True) / p.n


def closed_form(mode, k, m, chains):
    bank = m * fft_mul_count(k) if mode.startswith("TD") else k * fft_mul_count(m)
    tail = fft_mul_count(k * m) if mode == "FD_MOD" else 0
    return bank + chains * k * m + tail


@example(picked((8, 4), "RC", force_full=True))
@example(picked((8, 8), "RC"))
@example(picked((8, 4), "DIRICHLET", rx="MF"))
@example(picked((16, 8), "RC"))
@example(picked((16, 8), "DIRICHLET", rx="MF"))
@given(cases(LOG2_N_DIRECT))
def test_direct_matches_per_chain_loop_count_and_fft_engine(case):
    pulse, w_rx, grid, y, out = run_all("direct", case)
    fft = run_all("fft", case)[-1]
    k, m = case["km"]
    for mode, (table, got, count) in out.items():
        assert rel_err(got, loop_chains(mode, pulse, w_rx, grid, y, table.partitions)) <= 1e-12, mode
        assert count == closed_form(mode, k, m, len(table.window)), mode
        if mode.startswith("TD"):
            assert len(table.window) == m, mode
        elif case["force_full"]:
            assert table.partitions == tuple(range(k)), mode
        assert rel_err(got, fft[mode][1]) <= 1e-10, mode
