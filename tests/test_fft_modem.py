"""Tests for the staged FFT pipeline: presets, wrappers, and oracle agreement."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfdm_modem import direct_modem, fft_modem
from gfdm_modem.analysis import cm_count
from gfdm_modem.errors import ConfigError
from gfdm_modem.fft_modem import (
    MODES,
    ArchConfig,
    MemoryConfig,
    StageConfig,
    _cyclic_shifts,
    _run_window,
    bypass,
    demodulate_fd,
    demodulate_td,
    modulate_fd,
    modulate_td,
    preset,
    run_demodulator,
    run_modulator,
    run_pipeline,
    single_stage_config,
)
from gfdm_modem.numerics import MulCounter, check_int, dft
from gfdm_modem.pulses import (
    GfdmParams,
    PrototypePulse,
    make_prototype,
    rx_window,
    tx_window,
)
from gfdm_modem.reference import build_matrix, oracle_demod_mf


def random_grid(params, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((params.k, params.m)) + 1j * rng.standard_normal((params.k, params.m))


class TestPresets:
    def test_td_modulator_row(self):
        cfg = preset("TD_MOD", GfdmParams(8, 4), np.ones((8, 4)))
        assert [s.size for s in cfg.stages[:3]] == [8, 4, 4]
        assert [s.inverse for s in cfg.stages[:3]] == [True, False, True]
        assert [s.enabled for s in cfg.stages] == [True, True, True, False]

    def test_fd_modulator_row(self):
        cfg = preset("FD_MOD", GfdmParams(8, 4), np.ones((8, 4)))
        assert [s.size for s in cfg.stages] == [4, 8, 8, 32]
        assert [s.inverse for s in cfg.stages] == [False, True, False, True]
        assert all(s.enabled for s in cfg.stages)

    def test_fd_demodulator_row(self):
        cfg = preset("FD_DEMOD", GfdmParams(8, 4), np.ones((8, 4)))
        assert not cfg.stages[0].enabled
        assert [s.size for s in cfg.stages[1:]] == [8, 8, 4]
        assert [s.inverse for s in cfg.stages[1:]] == [True, False, True]

    def test_td_demodulator_row(self):
        cfg = preset("TD_DEMOD", GfdmParams(8, 4), np.ones((8, 4)))
        assert [s.size for s in cfg.stages] == [32, 4, 4, 8]
        assert [s.inverse for s in cfg.stages] == [True, False, True, False]
        assert all(s.enabled for s in cfg.stages)

    def test_window_shape_checked(self):
        with pytest.raises(ConfigError, match="takes a 8x4 window"):
            preset("TD_MOD", GfdmParams(8, 4), np.ones((4, 8)))
        with pytest.raises(ConfigError):
            preset("NOPE", GfdmParams(8, 4), np.ones((8, 4)))

    @pytest.mark.parametrize("mode", MODES)
    def test_plain_window_in_every_mode_the_td_modes_store_its_transpose(self, mode):
        window = np.arange(32, dtype=complex).reshape(8, 4)
        cfg = preset(mode, GfdmParams(8, 4), window)
        assert cfg.grid == (8, 4)
        assert np.array_equal(cfg.window, window.T if mode.startswith("TD") else window)
        assert np.shares_memory(cfg.window, window)  # a view: no copy of a complex128 window
        assert (cfg.mem_a.rows, cfg.mem_a.cols) == cfg.window.shape[::-1]
        assert (cfg.mem_b.rows, cfg.mem_b.cols) == cfg.window.shape

    @pytest.mark.parametrize("chains", [False, True], ids=["window", "chains"])
    @pytest.mark.parametrize("mode", MODES)
    def test_table_is_read_only_and_the_callers_window_stays_writeable(self, mode, chains):
        rows = 8 if mode.startswith("TD") else 4
        window = np.ones((2, rows), dtype=complex) if chains else np.ones((8, 4), dtype=complex)
        cfg = preset(mode, GfdmParams(8, 4), window, (0, 1) if chains else None)
        assert not cfg.window.flags.writeable
        with pytest.raises(ValueError):
            cfg.window[0, 0] = 2.0
        assert window.flags.writeable
        window[0, 0] = 3.0  # the caller may still write its own array


class TestModulate:
    def test_ofdm_like_impulse(self):
        params = GfdmParams(4, 1)
        pulse = make_prototype("RECT_TD", params)
        grid = np.zeros((4, 1), dtype=complex)
        grid[0, 0] = 1.0
        x = modulate_td(grid, tx_window(pulse, "TD"))
        assert_allclose(x, np.full(4, 0.5), atol=1e-12)

    def test_single_carrier_multiplexing(self):
        params = GfdmParams(1, 4)
        time = np.zeros(4, dtype=complex)
        time[0] = 1.0
        pulse = PrototypePulse("RECT_TD", params, 0.0, 0.0, time, dft(time))
        grid = np.arange(1, 5, dtype=complex).reshape(1, 4)
        x = modulate_td(grid, tx_window(pulse, "TD"))
        assert_allclose(x, grid[0], atol=1e-12)

    def test_dirichlet_block_structure(self):
        params = GfdmParams(4, 2)
        pulse = make_prototype("DIRICHLET", params)
        grid = np.zeros((4, 2), dtype=complex)
        grid[2, :] = 1.0  # single active subcarrier
        spec = dft(modulate_fd(grid, tx_window(pulse, "FD")))
        live = np.abs(spec) > 1e-12
        assert live[2 * 2 : 3 * 2].any()
        assert not live[: 2 * 2].any() and not live[3 * 2 :].any()

    def test_zero_grid(self):
        params = GfdmParams(4, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        x = modulate_fd(np.zeros((4, 4), complex), tx_window(pulse, "FD"))
        assert_allclose(x, np.zeros(16), atol=1e-14)

    def test_linearity(self):
        params = GfdmParams(8, 4)
        w = tx_window(make_prototype("RRC", params, 0.5, 0.5), "TD")
        a, b = random_grid(params, 10), random_grid(params, 11)
        lhs = modulate_td(0.7j * a + 2.0 * b, w)
        rhs = 0.7j * modulate_td(a, w) + 2.0 * modulate_td(b, w)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


class TestDemodulate:
    def test_zf_round_trip_fd(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx_fd = rx_window(tx_window(pulse, "FD"), "ZF")
        grid = random_grid(params, 12)
        spec = dft(modulate_td(grid, tx_window(pulse, "TD")))
        est = demodulate_fd(spec, w_rx_fd)
        assert np.abs(est - grid).max() <= 1e-9

    def test_zf_round_trip_td(self):
        params = GfdmParams(8, 8)
        pulse = make_prototype("RRC", params, 0.5, 0.5)
        w_tx = tx_window(pulse, "TD")
        w_rx = rx_window(w_tx, "ZF")
        grid = random_grid(params, 13)
        est = demodulate_td(modulate_td(grid, w_tx), w_rx)
        assert np.abs(est - grid).max() <= 1e-9

    def test_mf_on_orthogonal_pulse_is_scaled_identity(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("DIRICHLET", params)
        w_rx = rx_window(tx_window(pulse, "FD"), "MF")
        grid = random_grid(params, 14)
        x = modulate_td(grid, tx_window(pulse, "TD"))
        est = demodulate_fd(dft(x), w_rx)
        ratios = est[np.abs(grid) > 0.1] / grid[np.abs(grid) > 0.1]
        c = ratios.mean()
        assert c.real > 0 and abs(c.imag) <= 1e-10
        assert np.abs(ratios - c).max() <= 1e-9
        # argmax-preserving against the dense matched-filter reference
        ref = oracle_demod_mf(build_matrix(pulse), x)
        assert np.abs(est / c - ref).max() <= 1e-9

    def test_zero_input(self):
        params = GfdmParams(4, 4)
        w_rx = rx_window(tx_window(make_prototype("DIRICHLET", params), "FD"), "ZF")
        assert_allclose(demodulate_fd(np.zeros(16, complex), w_rx), np.zeros((4, 4)))


class TestPipeline:
    def test_full_bypass(self):
        off = StageConfig(4, enabled=False)
        cfg = ArchConfig("BYPASS", (off, off, off, off))
        x = np.arange(16, dtype=complex)
        assert_allclose(run_pipeline(cfg, x), x)

    def test_disabled_memories_pass_through(self):
        off = StageConfig(4, enabled=False)
        cfg = ArchConfig("BYPASS", (off, off, off, off), None, None)
        x = np.arange(16, dtype=complex)
        assert_allclose(run_pipeline(cfg, x), x)
        transposed = ArchConfig("BYPASS", (off, off, off, off), MemoryConfig(4, 4), None)
        assert_allclose(run_pipeline(transposed, x), x.reshape(4, 4).T.reshape(-1))

    def test_preset_equals_wrapper(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w = tx_window(pulse, "TD")
        grid = random_grid(params, 15)
        cfg = preset("TD_MOD", params, w)
        assert_allclose(
            run_pipeline(cfg, grid.flatten(order="F")),
            modulate_td(grid, w),
            atol=1e-12,
        )

    def test_single_stage_is_unnormalized_idft(self):
        n = 16
        rng = np.random.default_rng(16)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = run_pipeline(single_stage_config(n, inverse=True), d)
        assert np.abs(out - dft(d, inverse=True)).max() <= 1e-12 * np.abs(out).max()

    def test_inconsistent_config_rejected(self):
        cfg = single_stage_config(8, inverse=False)
        with pytest.raises(ConfigError):
            run_pipeline(cfg, np.ones(12, dtype=complex))


class TestInstrumentation:
    @pytest.mark.parametrize("k,m", [(4, 4), (8, 4), (16, 16)])
    def test_link_count_matches_closed_form(self, k, m):
        params = GfdmParams(k, m)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx_fd = rx_window(tx_window(pulse, "FD"), "ZF")
        grid = random_grid(params, 17)
        counter = MulCounter()
        x = modulate_td(grid, tx_window(pulse, "TD"), counter)
        spec = dft(x, counter=counter)
        demodulate_fd(spec, w_rx_fd, counter)
        assert counter.count == cm_count("FFT_TD_FD", k, m)


class TestChainPresets:
    """The direct architecture's tables: each mode's preset with a chain stack in the window slot."""

    #: Enabled stages per mode as (size, inverse), from K=8, M=4, N=32.
    ENABLED = {
        "TD_MOD": [(8, True)],
        "FD_MOD": [(4, False), (32, True)],
        "TD_DEMOD": [(32, True), (8, False)],
        "FD_DEMOD": [(4, True)],
    }

    @staticmethod
    def chain_tables(params):
        pulse = make_prototype("RC", params, 0.5, 0.5)
        l_max = max(params.k, params.m)
        return {
            "TD_MOD": direct_modem.precompute_td_mod(tx_window(pulse, "TD"), l_max),
            "FD_MOD": direct_modem.precompute_fd_mod(tx_window(pulse, "FD"), l_max),
            "TD_DEMOD": direct_modem.precompute_td_demod(rx_window(tx_window(pulse, "TD"), "MF"), l_max),
            "FD_DEMOD": direct_modem.precompute_fd_demod(rx_window(tx_window(pulse, "FD"), "MF"), l_max),
        }

    @pytest.mark.parametrize("mode", list(ENABLED))
    def test_stages_1_and_2_disabled_and_no_memories(self, mode):
        params = GfdmParams(8, 4)
        cfg = self.chain_tables(params)[mode]
        assert cfg.mode == mode
        assert [(s.size, s.inverse) for s in cfg.stages if s.enabled] == self.ENABLED[mode]
        assert not cfg.stages[1].enabled and not cfg.stages[2].enabled
        assert cfg.mem_a is None and cfg.mem_b is None
        assert cfg.window.ndim == 2 and len(cfg.partitions) == len(cfg.window)
        assert cfg.grid == (8, 4)

    @pytest.mark.parametrize("mode", list(ENABLED))
    def test_window_step_charges_the_window_size(self, mode):
        params = GfdmParams(8, 4)
        table = self.chain_tables(params)[mode]
        chains = bypass(table, 0, 3)
        window = bypass(preset(mode, params, np.ones((8, 4))), 0, 1, 2, 3)
        for cfg, want in ((chains, len(table.window) * params.n), (window, params.n)):
            counter = MulCounter()
            run_pipeline(cfg, np.ones(params.n, dtype=complex), counter)
            assert counter.count == want

    @pytest.mark.parametrize("mode", list(ENABLED))
    def test_chain_step_checks_the_stream_against_the_grid(self, mode):
        # 24 samples fill whole tap-row columns in every mode, so only the grid check refuses them.
        table = bypass(self.chain_tables(GfdmParams(8, 4))[mode], 0, 3)
        counter = MulCounter()
        with pytest.raises(ConfigError, match="stream length 24 does not match window size 32"):
            run_pipeline(table, np.ones(24, dtype=complex), counter)
        assert counter.count == 0

    def test_tap_rows_laid_out_for_their_mode(self):
        # With no memory A before them, chains read the stream as K x M in TD and M x K in FD:
        # a tap row holds K taps in TD and M in FD, and a partition indexes the M or K columns.
        params = GfdmParams(8, 4)
        with pytest.raises(ConfigError, match="one tap row of 8 per partition"):
            preset("TD_MOD", params, np.ones((4, 4)), (0, 1, 2, 3))
        with pytest.raises(ConfigError, match="one tap row of 4 per partition"):
            preset("FD_DEMOD", params, np.ones((2, 8)), (0, 1))
        with pytest.raises(ConfigError):
            preset("TD_MOD", params, np.ones((1, 8, 4)), (0,))

    @pytest.mark.parametrize("partitions", [(0,), (0, 1, 2)])
    def test_tap_rows_need_one_partition_each(self, partitions):
        with pytest.raises(ConfigError, match=r"one tap row of 8 per partition, got \(2, 8\)"):
            preset("TD_MOD", GfdmParams(8, 4), np.ones((2, 8)), partitions)
        with pytest.raises(ConfigError, match="takes a 8x4 window"):  # no partitions: a window
            preset("TD_MOD", GfdmParams(8, 4), np.ones((2, 8)))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", ["-1", "cols"])
    def test_partition_outside_the_columns_refused(self, mode, bad):
        # K=8, M=4: a TD chain holds 8 taps over 4 columns, an FD chain 4 taps over 8.
        # A negative partition would alias a column from the end; one past the end has no column.
        rows, cols = (8, 4) if mode.startswith("TD") else (4, 8)
        part = -1 if bad == "-1" else cols
        with pytest.raises(ConfigError, match=rf"chain partitions must lie in range\({cols}\)"):
            preset(mode, GfdmParams(8, 4), np.ones((2, rows)), (0, part))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("partitions,bad", [
        ((0.0, 2.0), 0.0), ((True, 2), True), ((0, False), False), ((0, np.float64(1.0)), np.float64(1.0)),
        ((np.bool_(True), 1), np.bool_(True)), ((0, "1"), "1"), ((0, None), None), ((1 + 0j, 0), 1 + 0j),
    ], ids=["floats", "true", "false", "numpy-float", "numpy-bool", "str", "none", "complex"])
    def test_partition_that_is_not_an_integer_refused(self, mode, partitions, bad):
        # 0.0 and True equal members of range(cols), so the rule goes by type; it names the first
        # item that breaks it.
        rows = 8 if mode.startswith("TD") else 4
        with pytest.raises(ConfigError, match=rf"^chain partition must be an integer, got {re.escape(repr(bad))}$"):
            preset(mode, GfdmParams(8, 4), np.ones((2, rows)), partitions)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("partitions", [(np.int64(0), np.int32(3)), (np.uint8(1), 2), (0, np.int16(3))])
    def test_python_and_numpy_integer_partitions_run_alike(self, mode, partitions):
        params, rows = GfdmParams(8, 4), 8 if mode.startswith("TD") else 4
        taps = np.arange(2 * rows).reshape(2, rows) * (1 - 0.5j)
        table = preset(mode, params, taps, partitions)
        plain = preset(mode, params, taps, tuple(int(p) for p in partitions))
        stream = np.arange(params.n) * (0.25 + 1j)
        counters = MulCounter(), MulCounter()
        got, want = (run_pipeline(t, stream, c) for t, c in zip((table, plain), counters))
        assert got.tobytes() == want.tobytes() and counters[0].count == counters[1].count

    @pytest.mark.parametrize("mode", MODES)
    def test_table_without_a_grid_refused_by_every_runner(self, mode):
        # Only preset sets the grid; a hand-built chain table reads it for its stream length,
        # and both modem runners read it for the grid shape, so each refuses a table without one.
        table = replace(self.chain_tables(GfdmParams(8, 4))[mode], grid=None)
        message = rf"^{mode} table has no K x M grid; build it with preset$"
        counter = MulCounter()
        with pytest.raises(ConfigError, match=message):
            run_pipeline(bypass(table, 0, 3), np.ones(32, dtype=complex), counter)
        runner, block = (run_modulator, np.ones((8, 4))) if mode.endswith("_MOD") else (run_demodulator, np.ones(32))
        with pytest.raises(ConfigError, match=message):
            runner(table, block, counter)
        assert counter.count == 0

    def test_window_table_without_a_grid_runs_through_the_pipeline_only(self):
        table = replace(preset("TD_MOD", GfdmParams(8, 4), np.ones((8, 4))), grid=None)
        assert run_pipeline(table, np.ones(32, dtype=complex)).shape == (32,)
        with pytest.raises(ConfigError, match="^TD_MOD table has no K x M grid"):
            run_modulator(table, np.ones((8, 4)))

    def test_bypass_leaves_the_table_it_was_given(self):
        cfg = preset("FD_MOD", GfdmParams(8, 4), np.ones((8, 4)))
        off = bypass(cfg, 3)
        assert cfg.stages[3].enabled and not off.stages[3].enabled
        assert off.stages[:3] == cfg.stages[:3] and off.window is cfg.window


def inline_stages(mode, k, m, chains):
    """A preset's four stages built per call, as ``preset`` built them before it held them."""

    def stage(size, inverse=False, enabled=True):
        return StageConfig(size, inverse, enabled, normalized=inverse)

    n, mid = k * m, not chains
    if mode == "TD_MOD":
        return (stage(k, True), stage(m, False, mid), stage(m, True, mid), stage(n, enabled=False))
    if mode == "FD_MOD":
        return (stage(m), stage(k, True, mid), stage(k, False, mid), stage(n, True))
    if mode == "TD_DEMOD":
        return (stage(n, True), stage(m, False, mid), stage(m, True, mid), stage(k))
    return (stage(n, True, False), stage(k, True, mid), stage(k, False, mid), stage(m, True))


class TestHeldStageTuples:
    """A preset's stage tuple depends only on (mode, K, M, chains): it is built once and shared."""

    @staticmethod
    def table(mode, k, m, chains, seed):
        want = (3, k if mode.startswith("TD") else m) if chains else (k, m)
        rng = np.random.default_rng(seed)
        window = rng.standard_normal(want) + 0j
        return preset(mode, GfdmParams(k, m), window, (0, 1, 2) if chains else None)

    @pytest.mark.parametrize("chains", [False, True], ids=["window", "chains"])
    @pytest.mark.parametrize("mode", MODES)
    def test_equal_keys_share_one_tuple_equal_to_an_inline_build(self, mode, chains):
        first, second = self.table(mode, 8, 4, chains, 1), self.table(mode, 8, 4, chains, 2)
        assert second.stages is first.stages
        assert first.stages == inline_stages(mode, 8, 4, chains)
        assert first.window is not second.window

    @pytest.mark.parametrize("mode", MODES)
    def test_each_key_field_gives_its_own_tuple(self, mode):
        base = self.table(mode, 8, 4, False, 1).stages
        for k, m, chains in ((16, 4, False), (8, 8, False), (4, 8, False), (8, 4, True)):
            other = self.table(mode, k, m, chains, 1).stages
            assert other is not base and other == inline_stages(mode, k, m, chains)
        assert all(self.table(other, 8, 4, False, 1).stages is not base for other in MODES if other != mode)

    def test_bypass_leaves_the_held_tuple_alone(self):
        cfg = self.table("FD_MOD", 8, 4, False, 1)
        cut = bypass(cfg, 3)
        assert not cut.stages[3].enabled and cfg.stages[3].enabled
        assert self.table("FD_MOD", 8, 4, False, 2).stages == inline_stages("FD_MOD", 8, 4, False)


def rolled(a, shifts):
    return np.stack([np.roll(a, s, axis=1) for s in shifts])


class TestCyclicShifts:
    """``_cyclic_shifts`` against an ``np.roll`` stack, for any input layout and shift tuple."""

    @staticmethod
    def laid_out(values, layout):
        """``values`` in the named memory layout, plus the writable array that holds its memory."""
        if layout == "C":
            a = np.ascontiguousarray(values)
            return a, a
        if layout == "F":
            a = np.asfortranarray(values)
            return a, a
        rows, cols = values.shape
        if layout == "strided":
            big = np.zeros((2 * rows, 3 * cols), dtype=values.dtype)
            big[::2, ::3] = values
            return big[::2, ::3], big
        big = np.zeros((3 * cols, 2 * rows), dtype=values.dtype)  # "transposed-reversed"
        big[::3, ::2] = values[::-1, ::-1].T
        return big[::3, ::2].T[::-1, ::-1], big

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        layout=st.sampled_from(["C", "F", "strided", "transposed-reversed"]),
        pick=st.one_of(st.none(), st.lists(st.integers(0, 63), min_size=1, max_size=8)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_roll_stack_and_is_a_read_only_snapshot(self, rows, cols, layout, pick, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        a, holder = self.laid_out(values, layout)
        assert np.array_equal(a, values)
        # None: all shifts descending, as the chain step passes a full set (the zero-copy view);
        # else a subset in drawn order (gathered).
        shifts = None if pick is None else tuple(dict.fromkeys(p % cols for p in pick))
        want = rolled(values, range(cols - 1, -1, -1) if pick is None else shifts)
        got = _cyclic_shifts(a, shifts)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not np.shares_memory(got, holder)
        if pick is None:
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0, 0] = 0
            assert got.strides[2] == got.itemsize  # each shifted matrix reads its rows contiguously
            assert got.strides[0] == got.itemsize  # the shift axis has stride +1 element
        holder[...] = 0  # a later write to the input does not reach the stack
        assert np.array_equal(got, want)

    def test_full_view_is_row_major_for_a_column_major_input(self):
        a = np.asfortranarray(np.arange(12, dtype=complex).reshape(3, 4))
        got = _cyclic_shifts(a, None)
        assert got.strides == (a.itemsize, 2 * 4 * a.itemsize, a.itemsize)
        assert np.array_equal(got, rolled(a, (3, 2, 1, 0)))


class TestChainKernel:
    """The chain step against an explicit ``np.roll`` multiply-accumulate, and the operands it hands to BLAS."""

    @staticmethod
    def roll_mac(flat, taps, partitions):
        """Row i of the output: sum over chains l of tap row l's entry i times row i rolled by partitions[l]."""
        rows = taps.shape[1]
        a = flat.reshape(-1, rows).T
        out = np.zeros(a.shape, dtype=complex)
        for row, p in zip(taps, partitions):
            out += row[:, None] * np.roll(a, p, axis=1)
        return out.T.reshape(-1)

    @staticmethod
    def stream(flat, layout, rows):
        """``flat`` as the window step may receive it: one vector, a 2-D array in either order, or strided."""
        if layout == "C":
            return flat.reshape(-1, rows)
        if layout == "F":
            return np.asfortranarray(flat.reshape(-1, rows))
        held = np.zeros(2 * flat.size, dtype=complex)
        held[::2] = flat
        return held[::2]

    @given(
        mode=st.sampled_from(MODES),
        k=st.sampled_from([1, 2, 4, 8, 16]),
        m=st.sampled_from([1, 2, 4, 8, 16]),
        pick=st.one_of(st.none(), st.lists(st.integers(0, 63), min_size=1, max_size=8)),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_a_roll_multiply_accumulate(self, mode, k, m, pick, layout, seed):
        rows, cols = (k, m) if mode.startswith("TD") else (m, k)
        # None: the full chain set; else a drawn set in drawn order, repeats allowed.
        partitions = tuple(range(cols)) if pick is None else tuple(p % cols for p in pick)
        rng = np.random.default_rng(seed)
        taps = rng.standard_normal((len(partitions), rows)) + 1j * rng.standard_normal((len(partitions), rows))
        flat = rng.standard_normal(k * m) + 1j * rng.standard_normal(k * m)
        counter = MulCounter()
        got = _run_window(self.stream(flat, layout, rows), preset(mode, GfdmParams(k, m), taps, partitions), counter)
        want = self.roll_mac(flat, taps, partitions)
        assert np.linalg.norm(got.reshape(-1) - want) <= 1e-13 * np.linalg.norm(want)
        assert counter.count == len(partitions) * k * m

    @staticmethod
    def matmul_operands(table, flat):
        """The two operands ``_run_window`` hands to ``np.matmul``, and its output.  The tap operand is
        the table's held array, and the pass makes no contiguous copy of anything."""
        seen, copies = [], []
        matmul, contiguous = np.matmul, np.ascontiguousarray

        def spy(a, b):
            seen.append((a, b))
            return matmul(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "matmul", spy)
            mp.setattr(np, "ascontiguousarray", lambda *a, **k: copies.append(a) or contiguous(*a, **k))
            out = _run_window(flat, table, None)
        assert len(seen) == 1 and copies == []
        assert np.shares_memory(seen[0][1], table.window)
        return (*seen[0], out)

    @pytest.mark.parametrize("params", [GfdmParams(32, 64), GfdmParams(64, 32), GfdmParams(8, 4)])
    @pytest.mark.parametrize("mode", MODES)
    def test_full_set_dots_read_the_stream_in_place_with_a_unit_stride(self, mode, params):
        pulse, l_max = make_prototype("RC", params, 0.5, 0.5), 64
        table = {
            "TD_MOD": lambda: direct_modem.precompute_td_mod(tx_window(pulse, "TD"), l_max),
            "FD_MOD": lambda: direct_modem.precompute_fd_mod(tx_window(pulse, "FD"), l_max, force_full=True),
            "TD_DEMOD": lambda: direct_modem.precompute_td_demod(rx_window(tx_window(pulse, "TD"), "MF"), l_max),
            "FD_DEMOD": lambda: direct_modem.precompute_fd_demod(
                rx_window(tx_window(pulse, "FD"), "MF"), l_max, force_full=True),
        }[mode]()
        rows, chains = table.window.shape[1], len(table.window)
        assert table.partitions == tuple(range(chains))
        rng = np.random.default_rng(1)
        flat = rng.standard_normal(params.n) + 1j * rng.standard_normal(params.n)
        stack, taps, _ = self.matmul_operands(table, flat)
        item = flat.itemsize
        # Each output sample is one (1, L) @ (L, 1) dot, both operands with a +1 element chain stride.
        assert stack.shape == (rows, params.n // rows, 1, chains) and stack.strides[3] == item
        assert taps.shape == (rows, 1, chains, 1) and taps.strides[2] == item
        # The stack is a read-only view of the doubled stream [a, a]: no L x N stack is made.
        base = stack
        while base.base is not None:
            base = base.base
        assert base.size == 2 * params.n and not stack.flags.writeable
        assert not np.shares_memory(stack, flat)

    @pytest.mark.parametrize("mode", MODES)
    def test_full_set_is_marked_when_the_table_is_built(self, mode, monkeypatch):
        params = GfdmParams(8, 4)
        rows, cols = (8, 4) if mode.startswith("TD") else (4, 8)
        taps = np.ones((cols, rows), dtype=complex)
        scans = []
        monkeypatch.setattr(fft_modem, "check_int", lambda name, v: scans.append(v) or check_int(name, v))
        rule = preset(mode, params, taps, range(cols))  # direct_modem's own full set: taken unscanned
        assert rule.full and rule.partitions == tuple(range(cols)) and scans == []
        caller = preset(mode, params, taps, tuple(range(cols)))  # a caller's: scanned, then marked
        assert caller.full and len(scans) == cols
        assert not preset(mode, params, taps, tuple(range(cols))[::-1]).full
        assert not preset(mode, params, taps[:2], (0, 1)).full
        assert not preset(mode, params, taps[:1], range(1, 2)).full  # another range is scanned
        assert bypass(rule, 0).full
        for bad in (range(1, cols + 1), range(-1, cols - 1)):
            with pytest.raises(ConfigError, match="must lie in"):
                preset(mode, params, taps, bad)

    def test_sparse_set_gathers_with_a_positive_stride(self):
        params = GfdmParams(8, 4)
        taps = np.ones((3, 4), dtype=complex)
        flat = np.arange(32, dtype=complex)
        stack, taps_op, out = self.matmul_operands(preset("FD_MOD", params, taps, (6, 1, 3)), flat)
        assert stack.shape == (4, 8, 1, 3) and stack.strides[3] > 0 and taps_op.strides[2] > 0
        assert np.array_equal(out.reshape(-1), self.roll_mac(flat, taps, (6, 1, 3)))
