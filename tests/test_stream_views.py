"""The block stream without re-layout passes: the view-based pipeline, the integer QPSK
index and the real-view SER, each against a test-local copy of the complex form it replaced."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfdm_modem import link
from gfdm_modem.channel import _GAMMA, _MIX1, _MIX2, splitmix64_words, uniform64, uniform64_array
from gfdm_modem.config import RunConfig
from gfdm_modem.errors import ConfigError, GfdmError
from gfdm_modem.fft_modem import (
    MODES,
    ArchConfig,
    MemoryConfig,
    StageConfig,
    preset,
    run_pipeline,
    single_stage_config,
)
from gfdm_modem.numerics import SINGULAR_EPS, MulCounter, dft
from gfdm_modem.pulses import GfdmParams

_MASK64 = (1 << 64) - 1


# --- the stream-copy executor as it was ---------------------------------------------------


def copy_stage(stream, stage, counter):
    if not stage.enabled:
        return stream
    if stream.size % stage.size:
        raise ConfigError(
            f"stream length {stream.size} is not a multiple of stage size {stage.size}"
        )
    chunks = stream.reshape(-1, stage.size).T
    out = dft(chunks, inverse=stage.inverse, counter=counter)
    if stage.normalized:
        out = out / stage.size
    return out.T.reshape(-1)


def copy_memory(stream, mem):
    if mem is None:
        return stream
    if stream.size != mem.rows * mem.cols:
        raise ConfigError(
            f"stream length {stream.size} does not fill a {mem.rows}x{mem.cols} memory"
        )
    return stream.reshape((mem.rows, mem.cols), order="F").reshape(-1)


def copy_pipeline(cfg, stream, counter=None):
    """``run_pipeline`` as a stream copy at each memory and stage, normalized by a division afterwards."""
    s = np.asarray(stream, dtype=np.complex128).reshape(-1)
    s = copy_stage(s, cfg.stages[0], counter)
    s = copy_memory(s, cfg.mem_a)
    s = copy_stage(s, cfg.stages[1], counter)
    if cfg.window is not None:
        if s.size != cfg.window.size:
            raise ConfigError(
                f"stream length {s.size} does not match window size {cfg.window.size}"
            )
        s = s * cfg.window.flatten(order="F")
        if counter is not None:
            counter.add(s.size)
    s = copy_stage(s, cfg.stages[2], counter)
    s = copy_memory(s, cfg.mem_b)
    s = copy_stage(s, cfg.stages[3], counter)
    return s


def outcome(run, cfg, stream):
    """Output and counter reading, or the error message."""
    counter = MulCounter()
    try:
        return run(cfg, stream, counter), counter.count
    except ConfigError as exc:
        return str(exc), counter.count


def assert_same(cfg, stream):
    got, want = outcome(run_pipeline, cfg, stream), outcome(copy_pipeline, cfg, stream)
    assert got[1] == want[1]
    if isinstance(want[0], str):
        assert got[0] == want[0]
    else:
        assert got[0].shape == want[0].shape and np.array_equal(got[0], want[0])
    return got[0]


# --- drawn tables -------------------------------------------------------------------------

log2s = st.integers(0, 6)
pow2s = log2s.map(lambda e: 1 << e)


def cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def read_only(a):
    a = np.array(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


#: (mode, stage disabled): the presets, the FD modulator without its final stage, ``demodulate_td``
#: and the single-stage table.
VARIANTS = [(mode, None) for mode in MODES] + [("FD_MOD", 3), ("TD_DEMOD", 0), ("SINGLE", None)]


@st.composite
def preset_cases(draw):
    """A preset, one of its library variants, or the single-stage table, with a stream."""
    k, m = draw(pow2s), draw(pow2s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode, off = draw(st.sampled_from(VARIANTS))
    n = k * m
    if mode == "SINGLE":
        cfg = single_stage_config(n, draw(st.booleans()))
    else:
        window = read_only(cplx(rng, (k, m)))
        cfg = preset(mode, GfdmParams(k, m), window)
        if off is not None:
            stages = cfg.stages[:off] + (replace(cfg.stages[off], enabled=False),) + cfg.stages[off + 1 :]
            cfg = replace(cfg, stages=stages)
    return cfg, read_only(cplx(rng, n))


@st.composite
def stage_tables(draw):
    """Hand-built tables: any stage sizes, disabled stages, absent memories,
    memories and windows of any shape, including ones that do not fit the stream."""
    n = 1 << draw(log2s) + draw(log2s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stage():
        size = draw(st.sampled_from([1 << e for e in range(n.bit_length())] + [2 * n]))
        return StageConfig(size, inverse=draw(st.booleans()), enabled=draw(st.booleans()),
                           normalized=draw(st.booleans()))

    def shape():
        rows = 1 << draw(st.integers(0, n.bit_length() - 1))
        return rows, (n // rows) * draw(st.sampled_from([1, 1, 1, 2]))

    def memory():
        if draw(st.integers(0, 4)) < 2:
            return None
        return MemoryConfig(*shape())

    stages = tuple(stage() for _ in range(4))
    mem_a, mem_b = memory(), memory()
    window = read_only(cplx(rng, shape())) if draw(st.booleans()) else None
    cfg = ArchConfig("HAND", stages, mem_a, mem_b, window)
    layout = draw(st.sampled_from(["flat", "grid", "strided"]))
    data = cplx(rng, 2 * n)
    stream = {"flat": data[:n], "grid": data[:n].reshape(-1, 1 if n == 1 else 2), "strided": data[::2]}[layout]
    return cfg, stream


class TestPipelineViews:
    @settings(max_examples=150)
    @given(preset_cases())
    def test_presets_equal_the_stream_copy_executor(self, case):
        cfg, stream = case
        out = assert_same(cfg, stream)
        assert out.ndim == 1 and out.flags.c_contiguous

    @settings(max_examples=150)
    @given(stage_tables())
    @example(case=(ArchConfig("HAND", (StageConfig(4),) * 4, MemoryConfig(4, 8), MemoryConfig(8, 4), None),
                   np.arange(32, dtype=complex)))
    def test_hand_built_tables_equal_the_stream_copy_executor(self, case):
        assert_same(*case)

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 64), (64, 2), (16, 16), (64, 64)])
    @pytest.mark.parametrize("mode", MODES)
    def test_presets_leave_inputs_alone_and_share_no_memory(self, mode, k, m):
        rng = np.random.default_rng(k * 100 + m)
        window = cplx(rng, (k, m))
        stream = cplx(rng, k * m)
        saved = window.copy(), stream.copy()
        cfg = preset(mode, GfdmParams(k, m), window)
        out = run_pipeline(cfg, stream)
        assert np.array_equal(stream, saved[1]) and np.array_equal(window, saved[0])
        assert np.array_equal(cfg.window, saved[0].T if mode.startswith("TD") else saved[0])
        assert not np.shares_memory(out, stream) and not np.shares_memory(out, cfg.window)
        # Read-only input and window: any write into either would raise.
        assert np.array_equal(run_pipeline(preset(mode, GfdmParams(k, m), read_only(window)), read_only(stream)), out)

    @given(stage_tables())
    def test_hand_built_tables_never_write_their_inputs(self, case):
        cfg, stream = case
        window = None if cfg.window is None else cfg.window.copy()
        writable = replace(cfg, window=window)
        saved = stream.copy(), None if window is None else window.copy()
        outcome(run_pipeline, writable, stream)
        assert np.array_equal(stream, saved[0])
        assert window is None or np.array_equal(window, saved[1])


# --- QPSK index ---------------------------------------------------------------------------


def float_index_qpsk(seed, count):
    """``qpsk_symbols`` as it was: the index from the float uniform."""
    idx = (uniform64_array(seed, link._SYMBOL_STREAM_OFFSET, count) * 4).astype(np.intp) % 4
    return link._QPSK[idx]


def _unxorshift(y, shift):
    z = y
    for _ in range(64 // shift + 1):
        z = y ^ (z >> shift)
    return z


def seed_for_word(z, index):
    """The seed whose splitmix64 stream holds the word ``z`` at ``index`` (the mixer inverted)."""
    z = _unxorshift(z, 31)
    z = _unxorshift(z * pow(_MIX2, -1, 1 << 64) & _MASK64, 27)
    z = _unxorshift(z * pow(_MIX1, -1, 1 << 64) & _MASK64, 30)
    return (z - (index + 1) * _GAMMA) & _MASK64


#: ``z >> 11`` values where the float uniform rounds up into the next index (top bit set, odd,
#: one below a quarter boundary) and their neighbours; the top two bits alone get the first two wrong.
EDGE_WORDS = [3 * 2**51 - 1, 2**53 - 1, 3 * 2**51 - 2, 2**53 - 2, 2**52 - 1, 2**51 - 1, 2**52, 3 * 2**51]


class TestQpskIndex:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_fixed_seeds(self, seed):
        assert np.array_equal(link.qpsk_symbols(seed, 4096), float_index_qpsk(seed, 4096))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 5000))
    def test_drawn_seeds_and_counts(self, seed, count):
        got = link.qpsk_symbols(seed, count)
        assert got.shape == (count,) and np.array_equal(got, float_index_qpsk(seed, count))

    @given(st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1)), st.integers(0, 5000))
    @example(seed=2**64 - 1, count=5000)
    @example(seed=seed_for_word((3 * 2**51 - 1) << 11, link._SYMBOL_STREAM_OFFSET), count=2)  # u rounds up
    def test_each_symbol_is_the_scalar_definition(self, seed, count):
        got = link.qpsk_symbols(seed, count)
        want = [link._QPSK[math.floor(4 * uniform64(seed, link._SYMBOL_STREAM_OFFSET + i)) % 4] for i in range(count)]
        assert got.tobytes() == np.array(want, dtype=np.complex128).tobytes()

    @pytest.mark.parametrize("word", EDGE_WORDS)
    @pytest.mark.parametrize("low", [0, 2**11 - 1])
    @pytest.mark.parametrize("position", [0, 3])
    def test_words_at_the_rounding_edges(self, word, low, position):
        index = link._SYMBOL_STREAM_OFFSET + position
        seed = seed_for_word(word << 11 | low, index)
        assert int(splitmix64_words(seed, index, 1)[0]) == word << 11 | low
        assert np.array_equal(link.qpsk_symbols(seed, 5), float_index_qpsk(seed, 5))


# --- SER ----------------------------------------------------------------------------------


def complex_sign_metrics(d_on, d_hat, rx):
    """The error metrics of ``run_loopback`` in complex form: a part decides right only when its
    product with the sent part exceeds ``SINGULAR_EPS``, and a symbol is right when both parts are."""
    if rx == "mf":
        gain = float(np.vdot(d_on, d_hat).real / np.vdot(d_on, d_on).real)
        if gain > 0:
            d_hat = d_hat / gain
    err = d_hat - d_on
    nmse = float(np.vdot(err, err).real / np.vdot(d_on, d_on).real)
    right = (d_hat.real * d_on.real > SINGULAR_EPS) & (d_hat.imag * d_on.imag > SINGULAR_EPS)
    return nmse, float(np.mean(~right))


components = st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, 1e-300, -1e-300]) | st.floats(-3, 3)


class TestSer:
    @staticmethod
    def assert_metrics_equal(d_hat, rx):
        """``run_loopback``'s nmse and SER on the estimates ``d_hat`` equal the complex-sign form's."""
        cfg = RunConfig(k=8, m=4, rx=rx, seed=5)
        d_on = link.qpsk_symbols(cfg.seed, 32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(link.reference, "demap_symbols", lambda grid, params: d_hat.copy())
            report = link.run_loopback(cfg)
        nmse, ser = complex_sign_metrics(d_on, d_hat, rx)
        assert type(report.ser) is float and report.ser == ser
        assert report.nmse == nmse or (math.isnan(report.nmse) and math.isnan(nmse))

    @given(st.lists(st.tuples(components, components), min_size=32, max_size=32), st.sampled_from(["zf", "mf"]))
    def test_equals_the_complex_sign_ser(self, values, rx):
        self.assert_metrics_equal(np.array([complex(re, im) for re, im in values]), rx)

    @pytest.mark.parametrize("seed", range(8))
    def test_mf_gain_scales_as_a_complex_division(self, seed):
        # Noisy estimates with a positive gain, which a drawn list rarely has: numpy's complex / real
        # multiplies by the reciprocal, which a real division differs from in the last bits.
        rng = np.random.default_rng(seed)
        d_on = link.qpsk_symbols(5, 32)
        self.assert_metrics_equal(0.7 * d_on + 0.3 * (rng.standard_normal(32) + 1j * rng.standard_normal(32)), "mf")


# --- reports pinned from the stream-copy executor -----------------------------------------

_SINGULAR = ["SingularWindow", "transmit window has |entry|=0.000e+00 <= 1.0e-08; "
             "zero-forcing dual does not exist for this pulse and geometry"]

#: ``[kind, n_symbols, nmse to 12 decimals, ser.hex(), measured, formula]`` (or ``[error type,
#: message]``) of each of ``golden_configs()``, recorded with the stream-copy pipeline, the float
#: QPSK index, the complex-sign SER and out-of-place scaling.  The nmse is rounded so that a BLAS
#: or FFT build with other last bits still matches.  In the K=2 rows the formula equals the
#: counter: neither charges a 2-point stage.  The clean K=4, M=1 matched-filter estimates have
#: imaginary parts of pure roundoff (about 4e-34 from some BLAS kernels' chain dot, else 0.0), which
#: the SER's ``SINGULAR_EPS`` rule counts wrong whatever their sign: each such row reads ser 1 on
#: every kernel.
REPORT_ROWS = {
    "K4-M1-fft-td-zf-clean": _SINGULAR,
    "K4-M1-fft-td-zf-12dB": _SINGULAR,
    "K4-M1-fft-td-mf-clean": ["FFT_TD_FD", 4, "2.000000000000", "0x1.0000000000000p+0", 24, 24],
    "K4-M1-fft-td-mf-12dB": ["FFT_TD_FD", 4, "2.108083439292", "0x1.0000000000000p-2", 24, 24],
    "K4-M1-fft-fd-zf-clean": _SINGULAR,
    "K4-M1-fft-fd-zf-12dB": _SINGULAR,
    "K4-M1-fft-fd-mf-clean": ["FFT_FD_FD", 4, "2.000000000000", "0x1.0000000000000p+0", 32, 32],
    "K4-M1-fft-fd-mf-12dB": ["FFT_FD_FD", 4, "2.108083439292", "0x1.0000000000000p-2", 32, 32],
    "K4-M1-direct-td-zf-clean": _SINGULAR,
    "K4-M1-direct-td-zf-12dB": _SINGULAR,
    "K4-M1-direct-td-mf-clean": ["DIR_TD_TD", 4, "2.000000000000", "0x1.0000000000000p+0", 24, 24],
    "K4-M1-direct-td-mf-12dB": ["DIR_TD_TD", 4, "2.108083439292", "0x1.0000000000000p-2", 24, 24],
    "K4-M1-direct-fd-zf-clean": _SINGULAR,
    "K4-M1-direct-fd-zf-12dB": _SINGULAR,
    "K4-M1-direct-fd-mf-clean": ["DIR_FD_FD", 4, "2.000000000000", "0x1.0000000000000p+0", 40, 40],
    "K4-M1-direct-fd-mf-12dB": ["DIR_FD_FD", 4, "2.108083439292", "0x1.0000000000000p-2", 40, 40],
    "K2-M64-fft-td-zf-clean": ["FFT_TD_FD", 128, "0.000000000000", "0x0.0p+0", 1856, 1856],
    "K2-M64-fft-td-zf-12dB": ["FFT_TD_FD", 128, "1.212929080451", "0x1.5000000000000p-2", 1856, 1856],
    "K2-M64-fft-td-mf-clean": ["FFT_TD_FD", 128, "0.097252421228", "0x0.0p+0", 1856, 1856],
    "K2-M64-fft-td-mf-12dB": ["FFT_TD_FD", 128, "0.194599734377", "0x1.8000000000000p-6", 1856, 1856],
    "K2-M64-fft-fd-zf-clean": ["FFT_FD_FD", 128, "0.000000000000", "0x0.0p+0", 1920, 1920],
    "K2-M64-fft-fd-zf-12dB": ["FFT_FD_FD", 128, "1.212929080451", "0x1.5000000000000p-2", 1920, 1920],
    "K2-M64-fft-fd-mf-clean": ["FFT_FD_FD", 128, "0.097252421228", "0x0.0p+0", 1920, 1920],
    "K2-M64-fft-fd-mf-12dB": ["FFT_FD_FD", 128, "0.194599734377", "0x1.8000000000000p-6", 1920, 1920],
    "K2-M64-direct-td-zf-clean": ["DIR_TD_TD", 128, "0.000000000000", "0x0.0p+0", 17280, 17280],
    "K2-M64-direct-td-zf-12dB": ["DIR_TD_TD", 128, "1.212929080451", "0x1.5000000000000p-2", 17280, 17280],
    "K2-M64-direct-td-mf-clean": ["DIR_TD_TD", 128, "0.097252421228", "0x0.0p+0", 17280, 17280],
    "K2-M64-direct-td-mf-12dB": ["DIR_TD_TD", 128, "0.194599734377", "0x1.8000000000000p-6", 17280, 17280],
    "K2-M64-direct-fd-zf-clean": ["DIR_FD_FD", 128, "0.000000000000", "0x0.0p+0", 2176, 2176],
    "K2-M64-direct-fd-zf-12dB": ["DIR_FD_FD", 128, "1.212929080451", "0x1.5000000000000p-2", 2176, 2176],
    "K2-M64-direct-fd-mf-clean": ["DIR_FD_FD", 128, "0.097252421228", "0x0.0p+0", 2176, 2176],
    "K2-M64-direct-fd-mf-12dB": ["DIR_FD_FD", 128, "0.194599734377", "0x1.8000000000000p-6", 2176, 2176],
    "K16-M16-fft-td-zf-clean": ["FFT_TD_FD", 256, "0.000000000000", "0x0.0p+0", 4608, 4608],
    "K16-M16-fft-td-zf-12dB": ["FFT_TD_FD", 256, "0.129419570524", "0x1.0000000000000p-7", 4608, 4608],
    "K16-M16-fft-td-mf-clean": ["FFT_TD_FD", 256, "0.075563880211", "0x0.0p+0", 4608, 4608],
    "K16-M16-fft-td-mf-12dB": ["FFT_TD_FD", 256, "0.171908889100", "0x1.8000000000000p-7", 4608, 4608],
    "K16-M16-fft-fd-zf-clean": ["FFT_FD_FD", 256, "0.000000000000", "0x0.0p+0", 5632, 5632],
    "K16-M16-fft-fd-zf-12dB": ["FFT_FD_FD", 256, "0.129419570524", "0x1.0000000000000p-7", 5632, 5632],
    "K16-M16-fft-fd-mf-clean": ["FFT_FD_FD", 256, "0.075563880211", "0x0.0p+0", 5632, 5632],
    "K16-M16-fft-fd-mf-12dB": ["FFT_FD_FD", 256, "0.171908889100", "0x1.8000000000000p-7", 5632, 5632],
    "K16-M16-direct-td-zf-clean": ["DIR_TD_TD", 256, "0.000000000000", "0x0.0p+0", 11264, 11264],
    "K16-M16-direct-td-zf-12dB": ["DIR_TD_TD", 256, "0.129419570524", "0x1.0000000000000p-7", 11264, 11264],
    "K16-M16-direct-td-mf-clean": ["DIR_TD_TD", 256, "0.075563880211", "0x0.0p+0", 11264, 11264],
    "K16-M16-direct-td-mf-12dB": ["DIR_TD_TD", 256, "0.171908889100", "0x1.8000000000000p-7", 11264, 11264],
    "K16-M16-direct-fd-zf-clean": ["DIR_FD_FD", 256, "0.000000000000", "0x0.0p+0", 11264, 11264],
    "K16-M16-direct-fd-zf-12dB": ["DIR_FD_FD", 256, "0.129419570524", "0x1.0000000000000p-7", 11264, 11264],
    "K16-M16-direct-fd-mf-clean": ["DIR_FD_FD", 256, "0.075563880211", "0x0.0p+0", 11264, 11264],
    "K16-M16-direct-fd-mf-12dB": ["DIR_FD_FD", 256, "0.171908889100", "0x1.8000000000000p-7", 11264, 11264],
    "K64-M8-fft-td-zf-clean": ["FFT_TD_FD", 512, "0.000000000000", "0x0.0p+0", 10240, 10240],
    "K64-M8-fft-td-zf-12dB": ["FFT_TD_FD", 512, "0.124394660735", "0x1.4000000000000p-7", 10240, 10240],
    "K64-M8-fft-td-mf-clean": ["FFT_TD_FD", 512, "0.066388260865", "0x0.0p+0", 10240, 10240],
    "K64-M8-fft-td-mf-12dB": ["FFT_TD_FD", 512, "0.169688937242", "0x1.0000000000000p-6", 10240, 10240],
    "K64-M8-fft-fd-zf-clean": ["FFT_FD_FD", 512, "0.000000000000", "0x0.0p+0", 13312, 13312],
    "K64-M8-fft-fd-zf-12dB": ["FFT_FD_FD", 512, "0.124394660735", "0x1.4000000000000p-7", 13312, 13312],
    "K64-M8-fft-fd-mf-clean": ["FFT_FD_FD", 512, "0.066388260865", "0x0.0p+0", 13312, 13312],
    "K64-M8-fft-fd-mf-12dB": ["FFT_FD_FD", 512, "0.169688937242", "0x1.0000000000000p-6", 13312, 13312],
    "K64-M8-direct-td-zf-clean": ["DIR_TD_TD", 512, "0.000000000000", "0x0.0p+0", 15872, 15872],
    "K64-M8-direct-td-zf-12dB": ["DIR_TD_TD", 512, "0.124394660735", "0x1.4000000000000p-7", 15872, 15872],
    "K64-M8-direct-td-mf-clean": ["DIR_TD_TD", 512, "0.066388260865", "0x0.0p+0", 15872, 15872],
    "K64-M8-direct-td-mf-12dB": ["DIR_TD_TD", 512, "0.169688937242", "0x1.0000000000000p-6", 15872, 15872],
    "K64-M8-direct-fd-zf-clean": ["DIR_FD_FD", 512, "0.000000000000", "0x0.0p+0", 71680, 71680],
    "K64-M8-direct-fd-zf-12dB": ["DIR_FD_FD", 512, "0.124394660735", "0x1.4000000000000p-7", 71680, 71680],
    "K64-M8-direct-fd-mf-clean": ["DIR_FD_FD", 512, "0.066388260865", "0x0.0p+0", 71680, 71680],
    "K64-M8-direct-fd-mf-12dB": ["DIR_FD_FD", 512, "0.169688937242", "0x1.0000000000000p-6", 71680, 71680],
}


def golden_configs():
    """(name, config) of each pinned report."""
    for k, m in ((4, 1), (2, 64), (16, 16), (64, 8)):
        for arch in ("fft", "direct"):
            for domain in ("td", "fd"):
                for rx in ("zf", "mf"):
                    for snr, taps in ((math.inf, (1 + 0j,)), (12.0, (0.9 + 0.1j, 0.3 - 0.2j, 0.05j))):
                        name = f"K{k}-M{m}-{arch}-{domain}-{rx}-{'clean' if snr == math.inf else '12dB'}"
                        yield name, RunConfig(k=k, m=m, arch=arch, domain=domain, rx=rx, snr_db=snr,
                                              channel_taps=taps, n_cp=len(taps) - 1, seed=k * 131 + m, l_max=64)


def report_row(cfg):
    try:
        r = link.run_loopback(cfg)
        return [r.kind, r.n_symbols, f"{r.nmse:.12f}", r.ser.hex(), r.measured_cm, r.formula_cm]
    except GfdmError as exc:  # the error is part of the pinned outcome
        return [type(exc).__name__, str(exc)]


def test_every_pinned_report_has_its_config():
    assert [name for name, _ in golden_configs()] == list(REPORT_ROWS)


@pytest.mark.parametrize("name,cfg", [pytest.param(*case, id=case[0]) for case in golden_configs()])
def test_loopback_report_is_unchanged(name, cfg):
    assert report_row(cfg) == REPORT_ROWS[name]
