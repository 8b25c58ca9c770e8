"""The block stream without re-layout passes: the view-based pipeline, the integer QPSK
index and the sign-comparison SER, each against a test-local copy of the form it replaced."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfdm_modem import link
from gfdm_modem.channel import _GAMMA, _MIX1, _MIX2, splitmix64_words, uniform64_array
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
from gfdm_modem.numerics import MulCounter, dft
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
    if stage.scale != 1.0:
        out = out * stage.scale
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
    """``run_pipeline`` as a stream copy at each memory and stage, with scaled copies."""
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


#: (mode, stage disabled): the presets, ``modulate_fd(emit_time=False)``, ``demodulate_td`` and
#: the single-stage table.
VARIANTS = [(mode, None) for mode in MODES] + [("FD_MOD", 3), ("TD_DEMOD", 0), ("SINGLE", None)]


@st.composite
def preset_cases(draw):
    """A preset, one of its library variants, or the single-stage table, with a stream."""
    k, m = draw(pow2s), draw(pow2s)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode, off = draw(st.sampled_from(VARIANTS))
    n = k * m
    if mode == "SINGLE":
        cfg = single_stage_config(n, draw(st.booleans()), draw(st.sampled_from([1.0, 1.0 / n, 0.75])))
    else:
        window = read_only(cplx(rng, (m, k) if mode.startswith("TD") else (k, m)))
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
                           scale=draw(st.sampled_from([1.0, 0.5, 1.0 / size, 0.3])))

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
        window = cplx(rng, (m, k) if mode.startswith("TD") else (k, m))
        stream = cplx(rng, k * m)
        saved = window.copy(), stream.copy()
        cfg = preset(mode, GfdmParams(k, m), window)
        out = run_pipeline(cfg, stream)
        assert np.array_equal(stream, saved[1]) and np.array_equal(cfg.window, saved[0])
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
    """The error metrics of ``run_loopback`` as they were: SER from complex sign arrays."""
    if rx == "mf":
        gain = float(np.vdot(d_on, d_hat).real / np.vdot(d_on, d_on).real)
        if gain > 0:
            d_hat = d_hat / gain
    err = d_hat - d_on
    nmse = float(np.vdot(err, err).real / np.vdot(d_on, d_on).real)
    hard = np.sign(d_hat.real) + 1j * np.sign(d_hat.imag)
    sent = np.sign(d_on.real) + 1j * np.sign(d_on.imag)
    return nmse, float(np.mean(hard != sent))


components = st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, 1e-300, -1e-300]) | st.floats(-3, 3)


class TestSer:
    @given(st.lists(st.tuples(components, components), min_size=32, max_size=32), st.sampled_from(["zf", "mf"]))
    def test_equals_the_complex_sign_ser(self, values, rx):
        d_hat = np.array([complex(re, im) for re, im in values])
        cfg = RunConfig(k=8, m=4, rx=rx, seed=5)
        d_on = link.qpsk_symbols(cfg.seed, 32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(link.reference, "demap_symbols", lambda grid, params: d_hat.copy())
            report = link.run_loopback(cfg)
        nmse, ser = complex_sign_metrics(d_on, d_hat, rx)
        assert type(report.ser) is float and report.ser == ser
        assert report.nmse == nmse or (math.isnan(report.nmse) and math.isnan(nmse))


# --- reports pinned from the stream-copy executor -----------------------------------------

#: sha256 of the JSON list of ``[kind, n_symbols, nmse to 12 decimals, ser.hex(), measured,
#: formula]`` (or ``[error type, message]``) over ``golden_configs()``, recorded with the
#: stream-copy pipeline, the float QPSK index, the complex-sign SER and out-of-place scaling.
#: The nmse is rounded so that a BLAS or FFT build with other last bits still matches.  The
#: K=2 rows pin the counter as it is: it charges 2-point transforms nothing, the formula one each.
REPORTS_DIGEST = "14b358616033caa1fd088ee05f92eaf9ce07351f68211bd8cac998fceef9c847"


def golden_configs():
    for k, m in ((4, 1), (2, 64), (16, 16), (64, 8)):
        for arch in ("fft", "direct"):
            for domain in ("td", "fd"):
                for rx in ("zf", "mf"):
                    for snr, taps in ((math.inf, (1 + 0j,)), (12.0, (0.9 + 0.1j, 0.3 - 0.2j, 0.05j))):
                        yield RunConfig(k=k, m=m, arch=arch, domain=domain, rx=rx, snr_db=snr,
                                        channel_taps=taps, n_cp=len(taps) - 1, seed=k * 131 + m, l_max=64)


def report_rows():
    rows = []
    for cfg in golden_configs():
        try:
            r = link.run_loopback(cfg)
            rows.append([r.kind, r.n_symbols, f"{r.nmse:.12f}", r.ser.hex(), r.measured_cm, r.formula_cm])
        except GfdmError as exc:  # the error is part of the pinned outcome
            rows.append([type(exc).__name__, str(exc)])
    return rows


def test_loopback_reports_are_unchanged():
    assert hashlib.sha256(json.dumps(report_rows()).encode()).hexdigest() == REPORTS_DIGEST
