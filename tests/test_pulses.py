"""Tests for prototype pulse synthesis, windows, and band overlap."""

import numpy as np
import pytest
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


class TestRxWindow:
    def test_zf_inverts_elementwise(self):
        w_tx = np.full((2, 2), 2.0 + 0j)
        assert_allclose(rx_window(w_tx, "ZF"), np.full((2, 2), 0.5), atol=1e-14)

    def test_zf_product_is_one(self):
        pulse = make_prototype("RC", GfdmParams(8, 8), 0.5, 0.5)
        for domain in ("TD", "FD"):
            wp = window_pair(pulse, domain, "ZF")
            assert np.abs(wp.w_rx * wp.w_tx - 1.0).max() <= 1e-12

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
        wp = window_pair(pulse, "TD", "ZF")
        assert np.abs(wp.w_rx * wp.w_tx - 1.0).max() <= 1e-12

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            rx_window(np.ones((2, 2)), "MMSE")


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
        table = precompute_fd_mod(tx_window(pulse, "FD"))
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
