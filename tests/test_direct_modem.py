"""Tests for the parallel multiply-accumulate (direct-convolution) engine."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
from gfdm_modem.errors import ChainLimitExceeded, ConfigError, SingularWindow
from gfdm_modem.numerics import dft
from gfdm_modem.pulses import GfdmParams, make_prototype, occupied_bands, rx_window, tx_window


def random_grid(params, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((params.k, params.m)) + 1j * rng.standard_normal((params.k, params.m))


class TestChainTables:
    """Every table runs one chain rule: chain l holds tap row ``partitions[l]``."""

    @staticmethod
    def taps(windows):
        """Each mode's tap matrix: the stage transform of its own K x M window."""
        return {mode: dft(w.T if mode.startswith("TD") else w, inverse=mode.startswith("TD"), normalized=True)
                for mode, w in windows.items()}

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
            w_td, w_fd = (rx_window(tx_window(pulse, d), rx) for d in ("TD", "FD"))
        except SingularWindow:
            assume(False)
        l_max = max(km)
        windows = {"TD_MOD": tx_window(pulse, "TD"), "FD_MOD": tx_window(pulse, "FD"),
                   "TD_DEMOD": w_td, "FD_DEMOD": w_fd}
        tables = {
            "TD_MOD": precompute_td_mod(windows["TD_MOD"], l_max),
            "FD_MOD": precompute_fd_mod(windows["FD_MOD"], l_max, force_full),
            "TD_DEMOD": precompute_td_demod(w_td, l_max),
            "FD_DEMOD": precompute_fd_demod(w_fd, l_max, force_full),
        }
        for mode, taps in self.taps(windows).items():
            table = tables[mode]
            if mode.startswith("TD"):
                want = tuple(range(params.m))
            else:
                want = tuple(range(params.k)) if force_full else tuple(occupied_bands(taps).tolist())
            assert table.partitions == want, mode
            assert table.window.shape == (len(table.partitions), taps.shape[1]), mode
            assert np.array_equal(table.window, taps[list(table.partitions)]), mode
            assert not table.window.flags.writeable, mode

    @settings(max_examples=60, deadline=None)
    @given(
        # K = 2**i and M = 2**j in 1..64 with N <= 2048
        km=st.integers(0, 6).flatmap(lambda i: st.integers(0, min(6, 11 - i)).map(lambda j: (2**i, 2**j))),
        kind=st.sampled_from(["RC", "RRC", "DIRICHLET", "RECT_TD"]),
        alpha=st.floats(0.0, 1.0),
        delta=st.sampled_from([0.0, 0.5]),
    )
    def test_modulator_taps_are_the_pulse_polyphase(self, km, kind, alpha, delta):
        # The rule on a transmit window gives the pulse formulas: K times the M x K time
        # polyphase of g, and the K x M polyphase of g_f with the same occupied bands.
        assume(km[0] >= 2 or kind not in ("RC", "RRC"))
        p = GfdmParams(*km)
        pulse = make_prototype(kind, p, alpha, delta)
        l_max = max(km)
        old = {"TD": p.k * pulse.time.reshape(p.m, p.k), "FD": pulse.freq.reshape(p.k, p.m)}
        new = {"TD": precompute_td_mod(tx_window(pulse, "TD"), l_max).window,
               "FD": precompute_fd_mod(tx_window(pulse, "FD"), l_max, force_full=True).window}
        for d in ("TD", "FD"):
            assert np.abs(new[d] - old[d]).max() <= 1e-15 * np.abs(old[d]).max(), d
        sparse = precompute_fd_mod(tx_window(pulse, "FD"), l_max)
        assert sparse.partitions == tuple(occupied_bands(old["FD"]).tolist())


class TestPrecomputeMod:
    def test_fd_partition_counts(self):
        assert len(precompute_fd_mod(tx_window(make_prototype("DIRICHLET", GfdmParams(8, 4)), "FD"), 16).window) == 1
        assert len(precompute_fd_mod(tx_window(make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5), "FD"), 16).window) == 2

    def test_fd_one_tap_row_per_chain(self):
        # Each chain holds one row of M taps, applied alike to all K columns of the stream.
        pulse = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
        w_fd = tx_window(pulse, "FD")
        table = precompute_fd_mod(w_fd, 16)
        assert table.window.shape == (2, 4) and table.grid == (8, 4)
        assert np.array_equal(table.window, dft(w_fd, normalized=True)[list(table.partitions)])

    def test_fd_overlap_limit(self):
        params = GfdmParams(64, 4)
        time = np.zeros(params.n, dtype=complex)
        time[0] = 1.0  # impulse occupies all 64 bands
        pulse = make_prototype("RC", params, 0.5, 0.5)
        full = type(pulse)(pulse.kind, params, 0.5, 0.5, time, dft(time))
        with pytest.raises(ChainLimitExceeded, match="^pulse occupies 64 subcarrier bands, only 16 chains available$"):
            precompute_fd_mod(tx_window(full, "FD"), 16)


class TestModulate:
    def test_single_subsymbol_is_windowed_idft(self):
        params = GfdmParams(8, 1)
        pulse = make_prototype("RECT_TD", params)
        grid = random_grid(params, 2)
        got = direct_modulate_td(grid, precompute_td_mod(tx_window(pulse, "TD"), 16))
        expect = pulse.time * dft(grid[:, 0], inverse=True)
        assert np.abs(got - expect).max() <= 1e-12

    def test_chain_limit(self):
        # The chain count is refused when the table is built, after the chain budget's rule and the block length.
        params = GfdmParams(32, 64)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx = rx_window(tx_window(pulse, "TD"), "ZF")
        with pytest.raises(ChainLimitExceeded, match="^64 chains needed, only 16 available$"):
            precompute_td_mod(tx_window(pulse, "TD"), 16)
        with pytest.raises(ChainLimitExceeded, match="^64 chains needed, only 16 available$"):
            precompute_td_demod(w_rx, 16)
        big = make_prototype("RC", GfdmParams(64, 64), 0.5, 0.5)
        for build, d in ((precompute_td_mod, "TD"), (precompute_fd_mod, "FD")):
            with pytest.raises(ConfigError, match="^block length 4096 exceeds the 2048-point FFT limit$"):
                build(tx_window(big, d), 16)
            with pytest.raises(ConfigError, match="^l_max must be a positive integer, got 0$"):
                build(tx_window(big, d), 0)  # the chain budget's rule comes first

    @pytest.mark.parametrize("build", [precompute_td_mod, precompute_fd_mod, precompute_td_demod, precompute_fd_demod])
    def test_window_of_no_legal_geometry_refused_on_every_call(self, build):
        # A table build takes the geometry held for its window shape; a shape GfdmParams refuses is never held.
        with pytest.raises(ConfigError) as want:
            GfdmParams(12, 4)
        for _ in range(2):
            with pytest.raises(ConfigError, match=f"^{re.escape(str(want.value))}$"):
                build(np.ones((12, 4), complex), 16)

    def test_fd_zero_grid(self):
        params = GfdmParams(8, 4)
        table = precompute_fd_mod(tx_window(make_prototype("DIRICHLET", params), "FD"), 16)
        got = direct_modulate_fd(np.zeros((8, 4), complex), table)
        assert_allclose(got, np.zeros(32), atol=1e-14)

    def test_fd_single_subcarrier_support(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)  # spans two bands
        grid = np.zeros((8, 4), dtype=complex)
        k0 = 3
        grid[k0, :] = 1.0
        spec = dft(direct_modulate_fd(grid, precompute_fd_mod(tx_window(pulse, "FD"), 16)))
        live_bands = {int(q) // params.m for q in np.flatnonzero(np.abs(spec) > 1e-9)}
        assert live_bands <= {k0, (k0 - 1) % params.k, (k0 + 1) % params.k}


class TestPrecomputeDemod:
    def test_mf_dirichlet_single_partition(self):
        params = GfdmParams(8, 4)
        w_rx = rx_window(tx_window(make_prototype("DIRICHLET", params), "FD"), "MF")
        assert len(precompute_fd_demod(w_rx, 16).window) == 1

    def test_zf_spreads_beyond_chain_budget(self):
        params = GfdmParams(64, 4)
        w_rx = rx_window(tx_window(make_prototype("RC", params, 0.5, 0.5), "FD"), "ZF")
        with pytest.raises(ChainLimitExceeded, match="^receive pulse occupies 32 subcarrier bands, only 16 chains"):
            precompute_fd_demod(w_rx, 16)
        table = precompute_fd_demod(w_rx, 64)
        # Computed support of the inverted window: 32 occupied bands here,
        # far past any practical chain budget.
        assert len(table.window) == 32

    def test_td_always_m_matrices(self):
        params = GfdmParams(8, 4)
        w_rx = rx_window(tx_window(make_prototype("RC", params, 0.5, 0.5), "TD"), "ZF")
        assert len(precompute_td_demod(w_rx, 16).window) == params.m


class TestDemodulate:
    def test_td_zf_loopback(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx = rx_window(tx_window(pulse, "TD"), "ZF")
        grid = random_grid(params, 5)
        x = direct_modulate_td(grid, precompute_td_mod(tx_window(pulse, "TD"), 16))
        est = direct_demodulate_td(x, precompute_td_demod(w_rx, 16))
        assert np.abs(est - grid).max() <= 1e-9

    def test_fd_zf_loopback(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx = rx_window(tx_window(pulse, "FD"), "ZF")
        grid = random_grid(params, 6)
        spec = dft(direct_modulate_fd(grid, precompute_fd_mod(tx_window(pulse, "FD"), 16)))
        table = precompute_fd_demod(w_rx, 16, force_full=True)
        est = direct_demodulate_fd(spec, table)
        assert np.abs(est - grid).max() <= 1e-9

    def test_zero_input(self):
        params = GfdmParams(4, 4)
        w_rx = rx_window(tx_window(make_prototype("DIRICHLET", params), "TD"), "ZF")
        est = direct_demodulate_td(np.zeros(16, complex), precompute_td_demod(w_rx, 16))
        assert_allclose(est, np.zeros((4, 4)), atol=1e-14)


class TestAliasing:
    """Chain sets are shared read-only views; nothing may write through them."""

    @staticmethod
    def all_passes(params, force_full):
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_td = rx_window(tx_window(pulse, "TD"), "ZF")
        w_fd = rx_window(tx_window(pulse, "FD"), "ZF")
        grid = random_grid(params, 30)
        rng = np.random.default_rng(31)
        y = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
        yf = dft(y)
        l_max = max(params.k, params.m)
        inputs = {"time": pulse.time, "freq": pulse.freq, "w_td": w_td, "w_fd": w_fd,
                  "grid": grid, "y": y, "yf": yf}
        before = {name: arr.copy() for name, arr in inputs.items()}
        tables = {
            "td-mod": precompute_td_mod(tx_window(pulse, "TD"), l_max),
            "fd-mod": precompute_fd_mod(tx_window(pulse, "FD"), l_max, force_full=force_full),
            "td-demod": precompute_td_demod(w_td, l_max),
            "fd-demod": precompute_fd_demod(w_fd, l_max, force_full=force_full),
        }
        runs = {
            "td-mod": lambda: direct_modulate_td(grid, tables["td-mod"]),
            "fd-mod": lambda: direct_modulate_fd(grid, tables["fd-mod"]),
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
                table.window[0, 0] = 1.0
            for row in table.window:
                assert not row.flags.writeable, name
                with pytest.raises(ValueError):
                    row[0] = 1.0

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
