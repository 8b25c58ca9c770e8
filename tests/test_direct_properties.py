"""Property tests of the direct-convolution engine over the legal geometry space.

Every example runs all four chain passes (TD and FD, modulation and
demodulation) on one drawn geometry, pulse and receiver.  Each pass must
equal the per-chain loop it replaced (kept here as the reference: one
``np.roll``/``np.tile`` matrix per chain, accumulated in ascending chain
order), the dense matrix oracle, and the closed-form multiplication count.
"""

import numpy as np
from hypothesis import assume, given
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
from gfdm_modem.numerics import MulCounter, dft, fft_mul_count
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window
from gfdm_modem.reference import build_matrix, oracle_demod_mf, oracle_demod_zf, oracle_modulate

#: The dense ZF oracle takes a full SVD (``np.linalg.svd(..., compute_uv=False)``) before
#: its solve (about 0.85 s at N=1024 on one core, ~90% of it the SVD, and O(N^3) beyond),
#: so the oracle property draws N <= 512; the loop and count property covers N <= 2048.
LOG2_N_MAX = 11
LOG2_N_ORACLE = 9


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


def run_all(case):
    """Run the four chain passes of one case, each with its own counter.

    Returns the pulse, receive windows, transmit grid, received block and a
    dict ``(domain, direction) -> (table, output, count)``.
    """
    k, m = case["km"]
    params = GfdmParams(k, m)
    pulse = make_prototype(case["kind"], params, case["alpha"], case["delta"])
    try:
        w_rx = {d: rx_window(tx_window(pulse, d), case["rx"]) for d in ("TD", "FD")}
    except SingularWindow:
        assume(False)
    l_max = max(k, m)
    full = case["force_full"]
    rng = np.random.default_rng(case["seed"])
    grid = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    y = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    passes = {
        ("TD", "mod"): (precompute_td_mod(tx_window(pulse, "TD"), l_max),
                        lambda t, c: direct_modulate_td(grid, t, c)),
        ("FD", "mod"): (precompute_fd_mod(tx_window(pulse, "FD"), l_max, force_full=full),
                        lambda t, c: direct_modulate_fd(grid, t, c)),
        ("TD", "demod"): (precompute_td_demod(w_rx["TD"], l_max),
                          lambda t, c: direct_demodulate_td(y, t, c)),
        ("FD", "demod"): (precompute_fd_demod(w_rx["FD"], l_max, force_full=full),
                          lambda t, c: direct_demodulate_fd(dft(y), t, c)),
    }
    out = {}
    for key, (table, run) in passes.items():
        counter = MulCounter()
        out[key] = (table, run(table, counter), counter.count)
    return pulse, w_rx, grid, y, out


def loop_chains(key, case, pulse, w_rx, grid, y, partitions):
    """The per-chain engine: L stored matrices, one multiply-accumulate each."""
    p = pulse.params
    domain, direction = key
    if domain == "TD":
        if direction == "mod":
            base = p.k * pulse.time.reshape(p.m, p.k).T
            vec = dft(grid, inverse=True) / p.k
        else:
            base = (dft(w_rx["TD"].T, inverse=True) / p.m).T
            vec = y.reshape(p.m, p.k).T
        acc = np.zeros((p.k, p.m), dtype=np.complex128)
        for m in range(p.m):
            acc += np.roll(base, m, axis=1) * vec[:, [m]]
        return acc.flatten(order="F") if direction == "mod" else dft(acc)
    if direction == "mod":
        bands = pulse.freq.reshape(p.k, p.m)
        vec = dft(grid.T)
    else:
        bands = dft(w_rx["FD"])
        vec = dft(y).reshape(p.k, p.m).T
    acc = np.zeros((p.m, p.k), dtype=np.complex128)
    for l in partitions:
        mat = np.tile(bands[l, :][:, None], (1, p.k))
        acc += (mat if direction == "mod" else mat / p.k) * np.roll(vec, l, axis=1)
    if direction == "demod":
        return (dft(acc, inverse=True) / p.m).T
    return dft(acc.flatten(order="F"), inverse=True) / p.n


def closed_form(key, case, params, overlap):
    k, m, n = params.k, params.m, params.n
    bank = m * fft_mul_count(k) if key[0] == "TD" else k * fft_mul_count(m)
    tail = fft_mul_count(n) if key == ("FD", "mod") else 0
    return bank + overlap * n + tail


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@given(cases(LOG2_N_MAX))
def test_chains_match_per_chain_loop_and_count(case):
    pulse, w_rx, grid, y, out = run_all(case)
    params = pulse.params
    for key, (table, got, count) in out.items():
        ref = loop_chains(key, case, pulse, w_rx, grid, y, table.partitions)
        assert rel_err(got, ref) <= 1e-12, key
        assert count == closed_form(key, case, params, len(table.window)), key
        if key[0] == "TD":
            assert len(table.window) == params.m
        elif case["force_full"]:
            assert table.partitions == tuple(range(params.k))


@given(cases(LOG2_N_ORACLE))
def test_chains_match_dense_oracle(case):
    pulse, _, grid, y, out = run_all(case)
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
    refs = {
        ("TD", "mod"): x,
        ("FD", "mod"): x,
        ("TD", "demod"): d,
        ("FD", "demod"): d,
    }
    for key, (_, got, _) in out.items():
        assert rel_err(got, refs[key]) <= 1e-10, key
