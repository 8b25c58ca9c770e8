"""Tests for the parallel multiply-accumulate (direct-convolution) engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfdm_modem.direct_modem import (
    DirectLimits,
    direct_demodulate_fd,
    direct_demodulate_td,
    direct_modulate_fd,
    direct_modulate_td,
    precompute_fd_demod,
    precompute_fd_mod,
    precompute_td_demod,
    precompute_td_mod,
)
from gfdm_modem.errors import ChainLimitExceeded, ConfigError, OverlapTooLarge, SingularWindow
from gfdm_modem.fft_modem import demodulate_fd, modulate_fd, modulate_td
from gfdm_modem.fft_modem import demodulate_td as fft_demodulate_td
from gfdm_modem.numerics import MulCounter, dft, fft_mul_count, polyphase
from gfdm_modem.pulses import GfdmParams, make_prototype, occupied_bands, tx_window, window_pair
from gfdm_modem.reference import build_matrix, oracle_modulate


def random_grid(params, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((params.k, params.m)) + 1j * rng.standard_normal((params.k, params.m))


class TestChainTables:
    """Every table runs one chain rule: chain l holds tap row ``partitions[l]`` across all columns."""

    @staticmethod
    def taps(pulse, w_td, w_fd):
        """Each mode's tap matrix: the time polyphase rows (TD) or the band rows (FD)."""
        p = pulse.params
        return {
            "TD_MOD": p.k * polyphase(pulse.time, p.m, p.k),
            "FD_MOD": polyphase(pulse.freq, p.k, p.m),
            "TD_DEMOD": dft(w_td.T, inverse=True, normalized=True),
            "FD_DEMOD": dft(w_fd, normalized=True),
        }

    @settings(max_examples=60, deadline=None)
    @given(
        # K = 2**i and M = 2**j in 2..64 with N <= 2048
        km=st.integers(1, 6).flatmap(lambda i: st.integers(1, min(6, 11 - i)).map(lambda j: (2**i, 2**j))),
        kind=st.sampled_from(["RC", "RRC", "DIRICHLET", "RECT_TD"]),
        alpha=st.floats(0.0, 1.0),
        rx=st.sampled_from(["ZF", "MF"]),
        force_full=st.booleans(),
    )
    def test_chain_l_holds_tap_row_partitions_l(self, km, kind, alpha, rx, force_full):
        params = GfdmParams(*km)
        pulse = make_prototype(kind, params, alpha, 0.5)
        try:
            w_td, w_fd = (window_pair(pulse, d, rx).w_rx for d in ("TD", "FD"))
        except SingularWindow:
            assume(False)
        limits = DirectLimits(l_max=max(km))
        tables = {
            "TD_MOD": precompute_td_mod(pulse, limits),
            "FD_MOD": precompute_fd_mod(pulse, limits, force_full),
            "TD_DEMOD": precompute_td_demod(w_td, limits),
            "FD_DEMOD": precompute_fd_demod(w_fd, limits, force_full),
        }
        for mode, taps in self.taps(pulse, w_td, w_fd).items():
            table = tables[mode]
            if mode.startswith("TD"):
                want = tuple(range(params.m))
            else:
                want = tuple(range(params.k)) if force_full else tuple(occupied_bands(taps).tolist())
            assert table.partitions == want, mode
            assert table.window.shape == (len(table.partitions), taps.shape[1], taps.shape[0]), mode
            for chain, part in zip(table.window, table.partitions):
                assert (chain == taps[part][:, None]).all(), (mode, part)
            assert not table.window.flags.writeable, mode


class TestPrecomputeMod:
    def test_fd_partition_counts(self):
        assert len(precompute_fd_mod(make_prototype("DIRICHLET", GfdmParams(8, 4))).window) == 1
        assert len(precompute_fd_mod(make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)).window) == 2

    def test_fd_replicated_columns(self):
        table = precompute_fd_mod(make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5))
        for mat in table.window:
            assert_allclose(mat, np.tile(mat[:, [0]], (1, 8)), atol=1e-14)

    def test_fd_overlap_limit(self):
        params = GfdmParams(64, 4)
        time = np.zeros(params.n, dtype=complex)
        time[0] = 1.0  # impulse occupies all 64 bands
        pulse = make_prototype("RC", params, 0.5, 0.5)
        full = type(pulse)(pulse.kind, params, 0.5, 0.5, time, dft(time))
        with pytest.raises(OverlapTooLarge, match="^pulse occupies 64 subcarrier bands, only 16 chains available$"):
            precompute_fd_mod(full, DirectLimits(l_max=16))


class TestModulate:
    def test_td_matches_fft_engine(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        grid = random_grid(params, 0)
        ref = modulate_td(grid, tx_window(pulse, "TD"))
        got = direct_modulate_td(grid, precompute_td_mod(pulse))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_td_matches_oracle(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RRC", params, 0.5, 0.5)
        grid = random_grid(params, 1)
        ref = oracle_modulate(build_matrix(pulse), grid)
        got = direct_modulate_td(grid, precompute_td_mod(pulse))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_single_subsymbol_is_windowed_idft(self):
        params = GfdmParams(8, 1)
        pulse = make_prototype("RECT_TD", params)
        grid = random_grid(params, 2)
        got = direct_modulate_td(grid, precompute_td_mod(pulse))
        expect = pulse.time * dft(grid[:, 0], inverse=True)
        assert np.abs(got - expect).max() <= 1e-12

    def test_chain_limit(self):
        # The chain count is refused when the table is built, after the block length.
        params = GfdmParams(32, 64)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx = window_pair(pulse, "TD", "ZF").w_rx
        with pytest.raises(ChainLimitExceeded, match="^64 chains needed, only 16 available$"):
            precompute_td_mod(pulse, DirectLimits(l_max=16))
        with pytest.raises(ChainLimitExceeded, match="^64 chains needed, only 16 available$"):
            precompute_td_demod(w_rx, DirectLimits(l_max=16))
        big = make_prototype("RC", GfdmParams(64, 64), 0.5, 0.5)
        for build in (precompute_td_mod, precompute_fd_mod):
            with pytest.raises(ConfigError, match="^block length 4096 exceeds the 2048-point FFT limit$"):
                build(big, DirectLimits(l_max=16))

    def test_fd_matches_fft_engine(self):
        params = GfdmParams(8, 8)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        grid = random_grid(params, 4)
        ref = modulate_fd(grid, tx_window(pulse, "FD"))
        got = direct_modulate_fd(grid, precompute_fd_mod(pulse))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        ref_t = modulate_fd(grid, tx_window(pulse, "FD"), emit_time=True)
        got_t = direct_modulate_fd(grid, precompute_fd_mod(pulse), emit_time=True)
        assert np.abs(got_t - ref_t).max() <= 1e-10 * np.abs(ref_t).max()

    def test_fd_zero_grid(self):
        params = GfdmParams(8, 4)
        table = precompute_fd_mod(make_prototype("DIRICHLET", params))
        got = direct_modulate_fd(np.zeros((8, 4), complex), table)
        assert_allclose(got, np.zeros(32), atol=1e-14)

    def test_fd_single_subcarrier_support(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)  # spans two bands
        grid = np.zeros((8, 4), dtype=complex)
        k0 = 3
        grid[k0, :] = 1.0
        spec = direct_modulate_fd(grid, precompute_fd_mod(pulse))
        live_bands = {int(q) // params.m for q in np.flatnonzero(np.abs(spec) > 1e-9)}
        assert live_bands <= {k0, (k0 - 1) % params.k, (k0 + 1) % params.k}


class TestPrecomputeDemod:
    def test_mf_dirichlet_single_partition(self):
        params = GfdmParams(8, 4)
        wp = window_pair(make_prototype("DIRICHLET", params), "FD", "MF")
        assert len(precompute_fd_demod(wp.w_rx).window) == 1

    def test_zf_spreads_beyond_chain_budget(self):
        params = GfdmParams(64, 4)
        wp = window_pair(make_prototype("RC", params, 0.5, 0.5), "FD", "ZF")
        with pytest.raises(OverlapTooLarge, match="^receive pulse occupies 32 subcarrier bands, only 16 chains"):
            precompute_fd_demod(wp.w_rx, DirectLimits(l_max=16))
        table = precompute_fd_demod(wp.w_rx, DirectLimits(l_max=64))
        # Computed support of the inverted window: 32 occupied bands here,
        # far past any practical chain budget.
        assert len(table.window) == 32

    def test_td_always_m_matrices(self):
        params = GfdmParams(8, 4)
        wp = window_pair(make_prototype("RC", params, 0.5, 0.5), "TD", "ZF")
        assert len(precompute_td_demod(wp.w_rx).window) == params.m


class TestDemodulate:
    def test_td_zf_loopback(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        wp = window_pair(pulse, "TD", "ZF")
        grid = random_grid(params, 5)
        x = direct_modulate_td(grid, precompute_td_mod(pulse))
        est = direct_demodulate_td(x, precompute_td_demod(wp.w_rx))
        assert np.abs(est - grid).max() <= 1e-9

    def test_fd_zf_loopback(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        wp = window_pair(pulse, "FD", "ZF")
        grid = random_grid(params, 6)
        spec = direct_modulate_fd(grid, precompute_fd_mod(pulse))
        table = precompute_fd_demod(wp.w_rx, force_full=True)
        est = direct_demodulate_fd(spec, table)
        assert np.abs(est - grid).max() <= 1e-9

    def test_matches_fft_demodulator_on_arbitrary_input(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        rng = np.random.default_rng(20)
        y = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
        wp_td = window_pair(pulse, "TD", "ZF")
        ref_td = fft_demodulate_td(y, wp_td.w_rx)
        got_td = direct_demodulate_td(y, precompute_td_demod(wp_td.w_rx))
        assert np.abs(got_td - ref_td).max() <= 1e-10 * np.abs(ref_td).max()
        wp_fd = window_pair(pulse, "FD", "ZF")
        ref_fd = demodulate_fd(dft(y), wp_fd.w_rx)
        got_fd = direct_demodulate_fd(dft(y), precompute_fd_demod(wp_fd.w_rx, force_full=True))
        assert np.abs(got_fd - ref_fd).max() <= 1e-10 * np.abs(ref_fd).max()

    def test_matches_fft_demodulator_mf_dirichlet(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("DIRICHLET", params)
        wp = window_pair(pulse, "FD", "MF")
        grid = random_grid(params, 7)
        spec = dft(modulate_td(grid, tx_window(pulse, "TD")))
        ref = demodulate_fd(spec, wp.w_rx)
        got = direct_demodulate_fd(spec, precompute_fd_demod(wp.w_rx))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_zero_input(self):
        params = GfdmParams(4, 4)
        wp = window_pair(make_prototype("DIRICHLET", params), "TD", "ZF")
        est = direct_demodulate_td(np.zeros(16, complex), precompute_td_demod(wp.w_rx))
        assert_allclose(est, np.zeros((4, 4)), atol=1e-14)


class TestInstrumentation:
    def test_td_modulation_count(self):
        params = GfdmParams(16, 8)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        counter = MulCounter()
        direct_modulate_td(random_grid(params, 8), precompute_td_mod(pulse), counter=counter)
        n = params.n
        assert counter.count == params.m * fft_mul_count(params.k) + params.m * n

    def test_fd_sparse_demod_count(self):
        params = GfdmParams(16, 8)
        pulse = make_prototype("DIRICHLET", params)
        wp = window_pair(pulse, "FD", "MF")
        table = precompute_fd_demod(wp.w_rx)
        counter = MulCounter()
        direct_demodulate_fd(np.ones(params.n, complex), table, counter=counter)
        assert counter.count == params.k * fft_mul_count(params.m) + len(table.window) * params.n


class TestAliasing:
    """Chain sets are shared read-only views; nothing may write through them."""

    @staticmethod
    def all_passes(params, force_full):
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_td = window_pair(pulse, "TD", "ZF").w_rx
        w_fd = window_pair(pulse, "FD", "ZF").w_rx
        grid = random_grid(params, 30)
        rng = np.random.default_rng(31)
        y = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
        yf = dft(y)
        limits = DirectLimits(l_max=max(params.k, params.m))
        inputs = {"time": pulse.time, "freq": pulse.freq, "w_td": w_td, "w_fd": w_fd,
                  "grid": grid, "y": y, "yf": yf}
        before = {name: arr.copy() for name, arr in inputs.items()}
        tables = {
            "td-mod": precompute_td_mod(pulse, limits),
            "fd-mod": precompute_fd_mod(pulse, limits, force_full=force_full),
            "td-demod": precompute_td_demod(w_td, limits),
            "fd-demod": precompute_fd_demod(w_fd, limits, force_full=force_full),
        }
        runs = {
            "td-mod": lambda: direct_modulate_td(grid, tables["td-mod"]),
            "fd-mod": lambda: direct_modulate_fd(grid, tables["fd-mod"], emit_time=True),
            "td-demod": lambda: direct_demodulate_td(y, tables["td-demod"]),
            "fd-demod": lambda: direct_demodulate_fd(yf, tables["fd-demod"]),
        }
        return inputs, before, tables, runs

    @pytest.mark.parametrize("force_full", [False, True])
    def test_taps_and_mats_are_read_only(self, force_full):
        _, _, tables, _ = self.all_passes(GfdmParams(8, 4), force_full)
        for name, table in tables.items():
            assert not table.window.flags.writeable, name
            with pytest.raises(ValueError):
                table.window[0, 0, 0] = 1.0
            for mat in table.window:
                assert not mat.flags.writeable, name
                with pytest.raises(ValueError):
                    mat[0, 0] = 1.0

    @pytest.mark.parametrize("force_full", [False, True])
    def test_inputs_and_sets_left_bit_identical(self, force_full):
        inputs, before, tables, runs = self.all_passes(GfdmParams(8, 4), force_full)
        taps_before = {name: np.array(table.window) for name, table in tables.items()}
        first = {name: run() for name, run in runs.items()}
        for name, out in first.items():
            # Scribbling on one result must not reach any set, input or later result.
            for table in tables.values():
                assert not np.shares_memory(out, table.window), name
            out[...] = np.nan
        second = {name: run() for name, run in runs.items()}
        for name, arr in inputs.items():
            assert np.array_equal(arr, before[name]), name
        for name, table in tables.items():
            assert np.array_equal(table.window, taps_before[name]), name
        for name, run in runs.items():
            assert np.array_equal(second[name], run()), name
            assert np.isfinite(second[name]).all(), name


class TestChainAllocation:
    """Each pass reads its L*N stack of cyclic shifts in place; no pass materialises it."""

    GEOMETRIES = [GfdmParams(32, 64), GfdmParams(64, 32)]  # N=2048, l_max=64: up to 64 chains

    @pytest.mark.parametrize("params", GEOMETRIES)
    def test_peak_allocation_stays_below_a_materialised_stack(self, params):
        _, _, tables, runs = TestAliasing.all_passes(params, force_full=True)
        limit = 16 * params.n * 16  # 512 KB; the stack of 32 or 64 chains is 1 or 2 MB
        for name, run in runs.items():
            assert len(tables[name].window) * params.n * 16 >= 2 * limit, name
            run()  # first use of each numpy kernel is not per-block cost
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit, (name, peak)
