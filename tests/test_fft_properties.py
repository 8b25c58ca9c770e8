"""Property tests of the FFT-pipeline presets over the legal geometry space.

Every example runs all four presets (TD and FD, modulation and demodulation)
through the public entry points on one drawn geometry, pulse and receiver.
Each must equal the dense matrix oracle, its counter must equal the sum over
its enabled stages of the transform cost times the vectors transformed plus N
for the window, and the TD and FD paths of one block must agree (duality).
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from gfdm_modem.errors import SingularMatrix, SingularWindow
from gfdm_modem.fft_modem import demodulate_fd, demodulate_td, modulate_fd, modulate_td
from gfdm_modem.numerics import MulCounter, dft, fft_mul_count
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window
from gfdm_modem.reference import build_matrix, oracle_demod_mf, oracle_demod_zf, oracle_modulate

#: As in the direct-engine properties: the dense ZF oracle (a full SVD before its
#: solve) bounds the oracle property to N <= 512; the count property covers N <= 4096.
LOG2_N_MAX = 12
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
        "seed": st.integers(0, 2**32 - 1),
    })


def run_all(case):
    """Run the four presets of one case, each with its own counter.

    Returns the pulse, transmit grid, received time block and a dict
    ``mode -> (output, count)``.
    """
    k, m = case["km"]
    params = GfdmParams(k, m)
    pulse = make_prototype(case["kind"], params, case["alpha"], case["delta"])
    try:
        w_tx = {d: tx_window(pulse, d) for d in ("TD", "FD")}
        w_rx = {d: rx_window(w_tx[d], case["rx"]) for d in ("TD", "FD")}
    except SingularWindow:
        assume(False)
    rng = np.random.default_rng(case["seed"])
    grid = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    y = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
    runs = {
        "TD_MOD": lambda c: modulate_td(grid, w_tx["TD"], c),
        "FD_MOD": lambda c: modulate_fd(grid, w_tx["FD"], c),
        "TD_DEMOD": lambda c: demodulate_td(y, w_rx["TD"], c),
        "FD_DEMOD": lambda c: demodulate_fd(dft(y), w_rx["FD"], c),
    }
    out = {}
    for mode, run in runs.items():
        counter = MulCounter()
        out[mode] = (run(counter), counter.count)
    return pulse, grid, y, out


def stage_sum(mode, case):
    """Transform cost of each enabled stage times the vectors it transforms, plus N for the window."""
    k, m = case["km"]
    n = k * m
    sizes = {
        "TD_MOD": (k, m, m),
        "FD_MOD": (m, k, k, n),
        "TD_DEMOD": (m, m, k),
        "FD_DEMOD": (k, k, m),
    }[mode]
    return sum(fft_mul_count(size) * (n // size) for size in sizes) + n


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@given(cases(LOG2_N_MAX))
def test_presets_count_per_stage_and_are_dual(case):
    _, _, _, out = run_all(case)
    for mode, (_, count) in out.items():
        assert count == stage_sum(mode, case), mode
    assert rel_err(out["TD_DEMOD"][0], out["FD_DEMOD"][0]) <= 1e-10
    assert rel_err(out["FD_MOD"][0], out["TD_MOD"][0]) <= 1e-10


@given(cases(LOG2_N_ORACLE))
def test_presets_match_dense_oracle(case):
    pulse, grid, y, out = run_all(case)
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
        "TD_MOD": x,
        "FD_MOD": x,
        "TD_DEMOD": d,
        "FD_DEMOD": d,
    }
    for mode, (got, _) in out.items():
        assert rel_err(got, refs[mode]) <= 1e-10, mode
