"""Tests for prototype pulse synthesis, windows, and band overlap."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfdm_modem.direct_modem import precompute_fd_mod
from gfdm_modem.errors import ConfigError, SingularWindow
from gfdm_modem.numerics import dft
from gfdm_modem.pulses import (
    GfdmParams,
    PrototypePulse,
    make_prototype,
    occupied_bands,
    rx_window,
    tx_window,
    window_pair,
)

from multipulse import freq_overlap


def rc_samples(k, m, alpha, delta):
    """Independent sampling of the raised-cosine profile used as test oracle."""
    n = k * m
    gf = np.zeros(n)
    for q in range(-m, m):
        u = abs((q + delta) / m)
        if u <= (1 - alpha) / 2:
            gf[q % n] = 1.0
        elif alpha > 0 and u <= (1 + alpha) / 2:
            gf[q % n] = 0.5 * (1 + np.cos((np.pi / alpha) * (u - (1 - alpha) / 2)))
    return gf


class TestMakePrototype:
    def test_rect_td_with_single_subsymbol_is_ofdm(self):
        pulse = make_prototype("RECT_TD", GfdmParams(4, 1))
        assert_allclose(pulse.time, np.full(4, 0.5), atol=1e-14)

    def test_rc_nonzero_bin_count(self):
        # Count frozen from the independently sampled profile: the outermost
        # grid points fall beyond the rolloff edge, leaving 6 live bins here.
        pulse = make_prototype("RC", GfdmParams(4, 4), alpha=0.5, delta=0.5)
        oracle = rc_samples(4, 4, 0.5, 0.5)
        expected = int(np.count_nonzero(oracle))
        assert expected == 6
        live = np.abs(pulse.freq) > 1e-12 * np.abs(pulse.freq).max()
        assert int(live.sum()) == expected
        assert freq_overlap(pulse) == 2

    @pytest.mark.parametrize("kind,alpha", [("RC", 0.5), ("RRC", 0.5), ("DIRICHLET", 0.0), ("RECT_TD", 0.0)])
    def test_unit_energy_and_parseval(self, kind, alpha):
        params = GfdmParams(8, 4)
        pulse = make_prototype(kind, params, alpha, 0.5 if kind in ("RC", "RRC") else 0.0)
        assert abs(np.linalg.norm(pulse.time) ** 2 - 1.0) <= 1e-12
        assert abs(np.linalg.norm(pulse.freq) ** 2 - params.n) <= 1e-9 * params.n

    def test_freq_matches_time_transform(self):
        pulse = make_prototype("RRC", GfdmParams(8, 8), 0.3, 0.5)
        assert np.abs(dft(pulse.time) - pulse.freq).max() <= 1e-10

    def test_rc_symmetries(self):
        even = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.0)
        assert np.abs(even.freq.imag).max() <= 1e-12
        gf = even.freq.real
        n = even.params.n
        assert_allclose(gf[(-np.arange(n)) % n], gf, atol=1e-12)

        shifted = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
        assert np.abs(shifted.freq.imag).max() <= 1e-12
        g = shifted.time
        assert np.abs(g[(-np.arange(n)) % n] - g.conj()).max() <= 1e-10

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_prototype("RC", GfdmParams(4, 4), alpha=1.5)
        with pytest.raises(ConfigError):
            make_prototype("RC", GfdmParams(4, 4), alpha=0.5, delta=0.3)
        with pytest.raises(ConfigError):
            make_prototype("GAUSS", GfdmParams(4, 4))


class TestTxWindow:
    def test_domains_are_phase_coupled(self):
        # The TD and FD windows of one pulse differ elementwise by
        # exp(-2j*pi*p*q/N); they agree only where that phase is unity.
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_td = tx_window(pulse, "TD")
        w_fd = tx_window(pulse, "FD")
        p = np.arange(params.k)[:, None]
        q = np.arange(params.m)[None, :]
        coupling = np.exp(-2j * np.pi * p * q / params.n)
        assert np.abs(w_fd - coupling * w_td).max() <= 1e-10
        assert_allclose(w_fd[0], w_td[0], atol=1e-12)
        assert_allclose(w_fd[:, 0], w_td[:, 0], atol=1e-12)

    @settings(max_examples=100)
    @given(
        # K = 2**i and M = 2**j with N <= 2048; the raised-cosine kinds need K >= 2
        km=st.integers(0, 7).flatmap(lambda i: st.integers(0, min(7, 11 - i)).map(lambda j: (2**i, 2**j))),
        kind=st.sampled_from(["RC", "RRC", "DIRICHLET", "RECT_TD"]),
        alpha_delta=st.sampled_from([(0.5, 0.5), (0.25, 0.0), (1.0, 0.5)]),
    )
    def test_fd_window_is_the_td_window_times_the_coupling_phase(self, km, kind, alpha_delta):
        # w_fd[k, m] = w_td[k, m] * exp(-2j*pi*k*m/N), k the row and m the column, to roundoff.
        k, m = km
        assume(k >= 2 or kind not in ("RC", "RRC"))
        pulse = make_prototype(kind, GfdmParams(k, m), *alpha_delta)
        w_td, w_fd = tx_window(pulse, "TD"), tx_window(pulse, "FD")
        phase = np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(m)) / (k * m))
        peak = np.abs(w_fd).max()
        assert np.abs(w_fd - w_td * phase).max() <= 1e-13 * peak
        # The opposite sign misses by O(1) wherever the phase is not real on some entry of an
        # invertible window (K = M = 2 with delta = 0 zeroes the one entry where it is not).
        if min(k, m) >= 2 and np.abs(w_td).min() > 1e-8 * peak:
            assert np.abs(w_fd - w_td * phase.conj()).max() >= 0.5 * peak

    def test_single_subsymbol_rect(self):
        pulse = make_prototype("RECT_TD", GfdmParams(4, 1))
        w = tx_window(pulse, "TD")
        assert_allclose(w, np.full((4, 1), 2.0), atol=1e-12)

    def test_single_carrier_impulse(self):
        params = GfdmParams(1, 4)
        time = np.zeros(4, dtype=complex)
        time[0] = 1.0
        pulse = PrototypePulse("RECT_TD", params, 0.0, 0.0, time, dft(time))
        w = tx_window(pulse, "TD")
        assert_allclose(w, np.ones((1, 4)), atol=1e-12)

    def test_bad_domain(self):
        pulse = make_prototype("DIRICHLET", GfdmParams(4, 4))
        with pytest.raises(ConfigError):
            tx_window(pulse, "XX")


def raw_pulse(k, m, time, freq):
    """A pulse that holds the given samples as they are, so ``tx_window`` reads exactly them."""
    return PrototypePulse("RC", GfdmParams(k, m), 0.0, 0.0, np.asarray(time, complex), np.asarray(freq, complex))


def naive_columns(v, inverse=False):
    """The O(n^2) unnormalized DFT (or IDFT) down each column, by the matrix of its definition."""
    n = len(v)
    return np.exp((1 if inverse else -1) * 2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) @ v


class TestZakWindows:
    """``tx_window`` is K times one transform down the columns of a polyphase matrix, the row-major
    ``Q x P`` reshape whose row ``q`` holds ``a[q*P : (q+1)*P]``: in TD the DFT of the time pulse's
    M x K matrix, transposed (the Zak transform); in FD the 1/K inverse DFT of the spectrum's K x M
    matrix (the dual Zak transform)."""

    def test_time_impulse_fills_row_zero(self):
        a = np.zeros(8)
        a[0] = 1.0
        assert_allclose(tx_window(raw_pulse(2, 4, a, a), "TD"), [[2] * 4, [0] * 4], atol=1e-14)

    def test_time_all_ones_fills_column_zero(self):
        assert_allclose(tx_window(raw_pulse(2, 2, np.ones(4), np.ones(4)), "TD"), [[4, 0], [4, 0]], atol=1e-14)

    def test_freq_impulse_fills_column_zero(self):
        af = np.zeros(4)
        af[0] = 1.0
        assert_allclose(tx_window(raw_pulse(2, 2, af, af), "FD"), [[1, 0], [1, 0]], atol=1e-14)

    def test_flat_spectrum_fills_row_zero(self):
        # The spectrum of a time impulse is flat; its dual Zak transform sits on the first polyphase row.
        assert_allclose(tx_window(raw_pulse(2, 2, np.ones(4), np.ones(4)), "FD"), [[2, 2], [0, 0]], atol=1e-14)

    @pytest.mark.parametrize("k,m", [(4, 8), (8, 4), (2, 16)])
    def test_both_domains_match_the_naive_transform_per_column(self, k, m):
        rng = np.random.default_rng(8)
        a, af = (rng.standard_normal(k * m) + 1j * rng.standard_normal(k * m) for _ in range(2))
        pulse = raw_pulse(k, m, a, af)
        assert_allclose(tx_window(pulse, "TD"), k * naive_columns(a.reshape(m, k)).T, atol=1e-11)
        assert_allclose(tx_window(pulse, "FD"), naive_columns(af.reshape(k, m), inverse=True), atol=1e-11)


class TestRxWindow:
    def test_zf_inverts_elementwise(self):
        w_tx = np.full((2, 2), 2.0 + 0j)
        assert_allclose(rx_window(w_tx, "ZF"), np.full((2, 2), 0.5), atol=1e-14)

    def test_zf_product_is_one(self):
        pulse = make_prototype("RC", GfdmParams(8, 8), 0.5, 0.5)
        for domain in ("TD", "FD"):
            w_tx = tx_window(pulse, domain)
            w_rx = rx_window(w_tx, "ZF")
            assert np.abs(w_rx * w_tx - 1.0).max() <= 1e-12

    def test_mf_is_conjugate(self):
        pulse = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
        w_tx = tx_window(pulse, "TD")
        assert_allclose(rx_window(w_tx, "MF"), w_tx.conj())

    def test_even_even_sharp_rolloff_is_singular(self):
        pulse = make_prototype("RC", GfdmParams(4, 4), alpha=0.0, delta=0.0)
        w_tx = tx_window(pulse, "TD")
        assert np.abs(w_tx).min() <= 1e-10  # the genuine frame singularity
        with pytest.raises(SingularWindow):
            rx_window(w_tx, "ZF")

    def test_half_shift_resolves_singularity(self):
        pulse = make_prototype("RC", GfdmParams(4, 4), alpha=0.0, delta=0.5)
        w_tx = tx_window(pulse, "TD")
        w_rx = rx_window(w_tx, "ZF")
        assert np.abs(w_rx * w_tx - 1.0).max() <= 1e-12

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            rx_window(np.ones((2, 2)), "MMSE")

    def test_window_pair_is_the_transmit_window_and_its_receive_window(self):
        pulse = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
        w_tx, w_rx = window_pair(pulse, "FD", "ZF")
        assert (w_tx == tx_window(pulse, "FD")).all() and (w_rx == rx_window(w_tx, "ZF")).all()


class TestFreqOverlap:
    def test_dirichlet_single_band(self):
        assert freq_overlap(make_prototype("DIRICHLET", GfdmParams(8, 4))) == 1

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_rc_two_bands(self, alpha):
        assert freq_overlap(make_prototype("RC", GfdmParams(8, 4), alpha, 0.5)) == 2

    def test_full_band_pulse(self):
        params = GfdmParams(8, 4)
        time = np.zeros(params.n, dtype=complex)
        time[0] = 1.0  # impulse: flat spectrum occupies every band
        pulse = PrototypePulse("RECT_TD", params, 0.0, 0.0, time, dft(time))
        assert freq_overlap(pulse) == params.k

    def test_occupied_bands_threshold(self):
        # Occupied: a band peak above 1e-12 of the matrix peak, whatever the band's other bins hold.
        bands = np.zeros((5, 3), dtype=complex)
        bands[0, 2] = -2.0j
        bands[1, 0] = 2e-12
        bands[2, 1] = 2.0000001e-12
        bands[4] = [1e-30, 0.5, 1e-30]
        assert occupied_bands(bands).tolist() == [0, 2, 4]

    def test_counts_the_bands_the_sparse_chain_set_uses(self):
        # A gap-free support: the covering count is the occupied count, and the
        # sparse direct modulator runs one chain per occupied band.
        pulse = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
        table = precompute_fd_mod(tx_window(pulse, "FD"), 16)
        assert table.partitions == tuple(occupied_bands(pulse.freq.reshape(8, 4)).tolist())
        assert freq_overlap(pulse) == len(table.window) == 2


class TestGfdmParams:
    def test_defaults_are_full_sets(self):
        p = GfdmParams(4, 2)
        assert p.k_on == (0, 1, 2, 3)
        assert p.m_on == (0, 1)
        assert p.n == 8 and p.n_active == 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            GfdmParams(3, 4)
        with pytest.raises(ConfigError):
            GfdmParams(4, 4, k_on=(4,))
        with pytest.raises(ConfigError):
            GfdmParams(4, 4, m_on=(-1,))
