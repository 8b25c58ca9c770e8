"""Tests for framing, the multipath channel, the noise stream, and the one-tap equalizer."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfdm_modem import channel, link
from gfdm_modem.channel import (
    ChannelSpec,
    add_cp,
    apply_channel,
    channel_response,
    check_taps,
    fd_equalize_zf,
    gaussian_pairs,
    remove_cp,
    splitmix64_words,
    uniform64,
    uniform64_array,
)
from gfdm_modem.config import RunConfig
from gfdm_modem.errors import ConfigError, GfdmError, SingularChannel
from gfdm_modem.numerics import SINGULAR_EPS, MulCounter, dft
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window
from gfdm_modem.fft_modem import demodulate_fd, modulate_td
from gfdm_modem.link import _SYMBOL_STREAM_OFFSET, qpsk_symbols


def circular_convolve(x, taps):
    """Naive circular convolution oracle."""
    n = len(x)
    h = np.zeros(n, dtype=complex)
    h[: len(taps)] = taps
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i] += x[j] * h[(i - j) % n]
    return out


class TestFraming:
    def test_no_overhead_is_identity(self):
        x = np.arange(4, dtype=complex)
        assert_allclose(add_cp(x, 0, 0), x)

    def test_prefix_copies_tail(self):
        assert_allclose(add_cp(np.array([1, 2, 3, 4.0]), 2), [3, 4, 1, 2, 3, 4])

    def test_suffix_copies_head(self):
        assert_allclose(add_cp(np.array([1, 2, 3, 4.0]), 0, 1), [1, 2, 3, 4, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert_allclose(remove_cp(add_cp(x, 5, 3), 5, 3), x)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            add_cp(np.ones(4), 5)

    @pytest.mark.parametrize("n_cp,n_cs", [(-1, 0), (0, -1), (5, 0), (0, 5)])
    def test_remove_cp_refuses_a_length_outside_the_core(self, n_cp, n_cs):
        # remove_cp(y, -1) used to return the last sample alone, remove_cp(y, 0, -1) the whole framed block.
        with pytest.raises(ConfigError, match=r"^prefix/suffix lengths must lie in \[0, N\]$"):
            remove_cp(np.arange(8.0), n_cp, n_cs)

    def test_remove_cp_refuses_a_block_with_no_core(self):
        with pytest.raises(ConfigError, match="^framed block shorter than its prefix plus suffix$"):
            remove_cp(np.ones(3), 2, 2)

    @pytest.mark.parametrize("value", [True, np.bool_(True), 1.5, 2.0, "1", None])
    @pytest.mark.parametrize("frame", [add_cp, remove_cp])
    def test_a_length_that_is_no_integer_is_refused(self, frame, value):
        # add_cp(x, True) used to frame with a 1-sample prefix, and a length of 1.5 raised TypeError.
        for name, args in (("n_cp", (value, 0)), ("n_cs", (0, value))):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
                frame(np.arange(8.0), *args)

    def test_numpy_integer_lengths_frame_like_ints(self):
        x = np.arange(8.0)
        framed = add_cp(x, np.int64(3), np.uint8(2))
        assert framed.tobytes() == add_cp(x, 3, 2).tobytes()
        assert remove_cp(framed, np.int32(3), np.int16(2)).tobytes() == x.tobytes()

    @pytest.mark.parametrize("n_cp,n_cs", [(9, 0), (0, 9), (-1, 0), (0, -1), (1.5, 0), (0, True)])
    def test_run_config_and_add_cp_refuse_alike(self, n_cp, n_cs):
        messages = []
        for build in (lambda: RunConfig(k=4, m=2, n_cp=n_cp, n_cs=n_cs), lambda: add_cp(np.ones(8), n_cp, n_cs)):
            with pytest.raises(ConfigError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestApplyChannel:
    @pytest.mark.parametrize("snr", [np.nan, -np.inf])
    def test_spec_rejects_nan_and_negative_infinite_snr(self, snr):
        with pytest.raises(ConfigError, match="snr_db must be finite or"):
            ChannelSpec(np.array([1.0]), snr)

    @pytest.mark.parametrize("snr", [np.inf, -30.0, 0.0, 3000.0, -3000.0])
    def test_spec_accepts_finite_and_noiseless_snr(self, snr):
        spec = ChannelSpec(np.array([1.0]), snr)
        assert spec.snr_db == snr and spec.ratio == 10.0 ** (snr / 10.0)

    @pytest.mark.parametrize("snr_db,fault", [(4000.0, "overflows"), (1e300, "overflows"), (-4000.0, "is 0")])
    def test_spec_refuses_an_snr_whose_ratio_is_out_of_range_when_built(self, snr_db, fault):
        # ChannelSpec(taps, 4000.0) used to build, and then every apply_channel call on it raised.
        message = "^" + re.escape(f"snr_db {snr_db} is out of range: 10 ** (snr_db / 10) {fault}") + "$"
        for build in (lambda: ChannelSpec(np.array([1.0]), snr_db), lambda: RunConfig(k=4, m=4, snr_db=snr_db)):
            with pytest.raises(ConfigError, match=message):
                build()

    @pytest.mark.parametrize("taps", [[np.nan], [1.0, np.inf], [complex(0.0, -np.inf)], [complex(np.nan, 1.0)]])
    def test_non_finite_taps_rejected_everywhere(self, taps):
        for build in (lambda: check_taps(taps), lambda: ChannelSpec(np.array(taps)),
                      lambda: RunConfig(k=4, m=4, n_cp=2, channel_taps=tuple(map(complex, taps)))):
            with pytest.raises(ConfigError, match="channel taps must be finite"):
                build()

    @pytest.mark.parametrize("taps", [[], np.ones((2, 1))])
    def test_empty_or_matrix_taps_rejected(self, taps):
        with pytest.raises(ConfigError, match="at least one tap"):
            check_taps(taps)

    def test_identity_channel(self):
        x = np.arange(8, dtype=complex)
        y = apply_channel(x, ChannelSpec(np.array([1.0])))
        assert_allclose(y, x)

    def test_delayed_impulse_shifts(self):
        x = np.arange(1, 9, dtype=complex)
        framed = add_cp(x, 2)
        y = apply_channel(framed, ChannelSpec(np.array([0.0, 1.0])))
        assert_allclose(remove_cp(y, 2), np.roll(x, 1))

    def test_matches_circular_convolution_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        framed = add_cp(x, 4)
        y = remove_cp(apply_channel(framed, ChannelSpec(taps)), 4)
        assert np.abs(y - circular_convolve(x, taps)).max() <= 1e-12

    def test_noise_is_seed_deterministic(self):
        x = np.ones(64, dtype=complex)
        a = apply_channel(x, ChannelSpec(np.array([1.0]), snr_db=10.0), 42)
        b = apply_channel(x, ChannelSpec(np.array([1.0]), snr_db=10.0), 42)
        c = apply_channel(x, ChannelSpec(np.array([1.0]), snr_db=10.0), 43)
        assert (a == b).all()
        assert not (a == c).all()

    def test_noise_power_roughly_matches_snr(self):
        noise = gaussian_pairs(7, 20000)
        var = float(np.mean(np.abs(noise) ** 2))
        assert abs(var - 1.0) < 0.05
        assert abs(float(np.mean(noise.real))) < 0.02


# Golden values of the reproducibility promise: identical seeds give identical
# noise and symbols on every platform and in every release since the noise was
# specified with correctly rounded operations only.  Digests are taken over
# little-endian complex128 bytes.
GOLDEN = {
    0: (
        "0x1.c4415072f63bap-1",
        "31bef092abb093cb658b1cc36a2b1e6974a6b4231187f7927fbdb5011e6c9017",
        "cf772a055df6e67190b8ad4ec3a6232d92be8e206f62cff168c2cc49e70ebd14",
    ),
    1: (
        "0x1.22145bd91204cp-1",
        "f20b0f6c73408379aacc20f90ea72993a87ff9ce87699edb62175f8f42f268c4",
        "6e3b7fa525365d8056e831a085256ca58c36ffb90f13d7fa6f014f91ba3f0da5",
    ),
    2**64 - 1: (
        "0x1.c9b2e2ee36ca6p-1",
        "d21216b7f1edf3ea943905c5a9e54155e2bd610031990068ad9301f160cc81bd",
        "060c8d0005fdd5375f0e9c9ae8403c660f8c948487e2df8ac5102a259adf971c",
    ),
}


def _digest(a):
    return hashlib.sha256(np.asarray(a, dtype="<c16").tobytes()).hexdigest()


#: A CPU path other than the default, set for one child process: glibc's generic (no AVX2, no FMA)
#: libm, or numpy's baseline kernels with every CPU-dispatched one switched off.
OTHER_HOSTS = {
    "generic-libm": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA"},
    "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(_multiarray_umath.__cpu_dispatch__)},
}
_CHILD = """
import hashlib, json, sys
import numpy as np
from gfdm_modem.channel import gaussian_pairs
from gfdm_modem.link import qpsk_symbols
digest = lambda a: hashlib.sha256(np.asarray(a, dtype="<c16").tobytes()).hexdigest()
json.dump({s: [digest(gaussian_pairs(s, 4112)), digest(qpsk_symbols(s, 4096))] for s in %r}, sys.stdout)
"""


@pytest.mark.parametrize("host", sorted(OTHER_HOSTS))
def test_stream_goldens_hold_on_another_cpu_path(host):
    # Only correctly rounded operations reach the streams, so neither libm's nor numpy's choice of
    # kernel for this CPU may move a bit.  The setting applies to the child process alone.
    src = str(Path(channel.__file__).resolve().parents[1])
    env = {**os.environ, **OTHER_HOSTS[host],
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _CHILD % sorted(GOLDEN)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = {int(seed): tuple(digests) for seed, digests in json.loads(run.stdout).items()}
    assert got == {seed: GOLDEN[seed][1:] for seed in GOLDEN}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
class TestStreamGolden:
    def test_first_uniform(self, seed):
        assert uniform64(seed, 0).hex() == GOLDEN[seed][0]

    def test_gaussian_digest(self, seed):
        assert _digest(gaussian_pairs(seed, 4112)) == GOLDEN[seed][1]

    def test_qpsk_digest(self, seed):
        assert _digest(qpsk_symbols(seed, 4096)) == GOLDEN[seed][2]

    @pytest.mark.parametrize("start", [0, 2**40])
    def test_array_matches_scalar_word_for_word(self, seed, start):
        got = uniform64_array(seed, start, 5000)
        want = np.array([uniform64(seed, start + i) for i in range(5000)])
        assert got.dtype == np.float64
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


_TOP = 2**64 - 1  # start + count may reach it: word 2**64 - 2 is the last before the counter wraps

#: Each array stream as ``(seed, start, count)``; ``gaussian_pairs`` and ``qpsk_symbols`` read from their fixed start.
SPAN_STREAMS = {
    "splitmix64_words": splitmix64_words,
    "uniform64_array": uniform64_array,
    "gaussian_pairs": lambda seed, start, count: gaussian_pairs(seed, count),
    "qpsk_symbols": lambda seed, start, count: qpsk_symbols(seed, count),
}
#: Words each stream reads per item, and the start it reads from when it takes none.
SPAN_WIDTH = {"gaussian_pairs": 2}
FIXED_START = {"gaussian_pairs": 0, "qpsk_symbols": _SYMBOL_STREAM_OFFSET}

NOT_INTEGERS = st.sampled_from([True, False, 1.0, 2.5, "3", None, np.float64(2.0), float("nan")])
BAD_SEEDS = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64), NOT_INTEGERS)


class TestStreamArguments:
    """One argument rule for every stream: no seed, start or count aliases another stream's words."""

    @pytest.mark.parametrize(
        "call",
        [lambda: gaussian_pairs(-1, 8), lambda: qpsk_symbols(2**64, 8), lambda: qpsk_symbols(1, -1),
         lambda: gaussian_pairs(1, -1), lambda: uniform64(1, -1),
         lambda: uniform64(1, _TOP), lambda: qpsk_symbols(1, 2**63)],
        ids=["gaussian-seed-minus-1", "qpsk-seed-2**64", "qpsk-count-minus-1", "gaussian-count-minus-1",
             "uniform64-index-minus-1", "uniform64-index-past-the-last-word",
             "qpsk-count-2**63"],
    )
    def test_calls_that_used_to_alias_or_escape_are_config_errors(self, call):
        # They used to give seed 2**64 - 1's noise, seed 0's symbols, an empty array, a
        # ValueError, an OverflowError, words at indices the array streams do not have,
        # and an empty array where 2**63 symbols were asked for.
        with pytest.raises(ConfigError):
            call()

    @given(name=st.sampled_from(sorted(SPAN_STREAMS)), bad=st.sampled_from(["seed", "start", "count"]),
           seed=BAD_SEEDS, count=st.integers(0, 64), data=st.data())
    def test_out_of_range_seed_start_or_count_is_refused(self, name, bad, seed, count, data):
        start = FIXED_START.get(name, 0)
        if bad == "seed":
            args = (seed, start, count)
        elif bad == "start":
            if name in FIXED_START:
                return
            past = st.integers(min_value=_TOP + 1 - SPAN_WIDTH.get(name, 1) * count)
            args = (1, data.draw(st.one_of(st.integers(max_value=-1), past, NOT_INTEGERS)), count)
        else:
            # From 2**63 words on, a span past the last word or one numpy's arange returns empty.
            too_many = st.integers(min_value=2**63 // SPAN_WIDTH.get(name, 1))
            args = (1, start, data.draw(st.one_of(st.integers(max_value=-1), too_many, NOT_INTEGERS)))
        with pytest.raises(ConfigError):
            SPAN_STREAMS[name](*args)

    @given(seed=st.sampled_from([0, _TOP]), count=st.integers(0, 64), low=st.booleans())
    def test_edge_seeds_and_spans_keep_the_scalar_words(self, seed, count, low):
        start = 0 if low else _TOP - count
        got = uniform64_array(seed, start, count)
        want = np.array([uniform64(seed, start + i) for i in range(count)], dtype=np.float64)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        with pytest.raises(ConfigError):
            uniform64_array(seed, _TOP - count + 1, count)

    @pytest.mark.parametrize("seed", [0, _TOP])
    def test_numpy_integer_arguments_keep_the_edge_seed_goldens(self, seed):
        # The scalar word used to overflow in numpy uint64 arithmetic; the rule holds them as int.
        s = np.uint64(seed)
        assert uniform64(s, np.uint64(0)).hex() == GOLDEN[seed][0]
        assert _digest(gaussian_pairs(s, np.uint64(4112))) == GOLDEN[seed][1]
        assert _digest(qpsk_symbols(s, np.int64(4096))) == GOLDEN[seed][2]


class TestEqualizer:
    def test_identity_taps_return_spectrum(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert_allclose(fd_equalize_zf(y, ChannelSpec(np.array([1.0]))), dft(y), atol=1e-12)

    def test_loopback_through_channel(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        w_rx = rx_window(tx_window(pulse, "FD"), "ZF")
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        x = modulate_td(grid, tx_window(pulse, "TD"))
        taps = np.array([1.0, 0.45 - 0.2j, -0.1 + 0.3j, 0.05])
        spec = ChannelSpec(taps)
        y = remove_cp(apply_channel(add_cp(x, 8), spec), 8)
        est = demodulate_fd(fd_equalize_zf(y, spec), w_rx)
        assert np.abs(est - grid).max() <= 1e-9

    def test_null_bin_raises(self):
        y, spec = np.ones(8, dtype=complex), ChannelSpec(np.array([1.0, -1.0]))  # zero response at DC
        with pytest.raises(SingularChannel):
            fd_equalize_zf(y, spec)


def per_block_fd_equalize_zf(y, taps, counter=None):
    """The equalizer as it was before the response was held: the response is built on every call."""
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    h = np.zeros(y.size, dtype=np.complex128)
    t = check_taps(taps)
    if t.size > y.size:
        raise ConfigError("more channel taps than block samples")
    h[: t.size] = t
    hf = dft(h)
    if np.abs(hf).min() <= SINGULAR_EPS:
        raise SingularChannel("channel frequency response has a null bin")
    return dft(y, counter=counter) / hf


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


finite_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


class TestShiftedAddConvolution:
    @given(st.integers(1, 96), st.lists(finite_complex, min_size=1, max_size=120), st.integers(0, 2**32 - 1))
    @example(1, [2.0 - 1j], 0)  # one sample, one tap
    @example(3, [1.0, 0.5j, -0.25, 0.1, 0.2], 1)  # more taps than samples
    @example(2064, [1.0, 0.45 - 0.2j, -0.1 + 0.3j, 0.05], 2)  # a clean-mix framed block
    def test_matches_np_convolve(self, n, taps, seed):
        x = random_complex(np.random.default_rng(seed), n)
        taps = np.array(taps, dtype=np.complex128)
        got = apply_channel(x, ChannelSpec(taps))
        want = np.convolve(x, taps)[:n]
        # Each output is a sum of at most len(taps) products; bound its rounding by the sum of magnitudes.
        scale = np.convolve(np.abs(x), np.abs(taps))[:n]
        assert got.shape == want.shape and got.dtype == np.complex128
        assert (np.abs(got - want) <= 1e-13 * scale).all()

    def test_input_is_left_alone(self):
        x = random_complex(np.random.default_rng(4), 40)
        before = x.copy()
        y = apply_channel(x, ChannelSpec(np.array([0.5, 1.0, -0.25j])))
        assert (x == before).all() and not np.shares_memory(x, y)

    def test_noise_rides_on_the_convolution(self):
        x = random_complex(np.random.default_rng(5), 64)
        taps = np.array([1.0, 0.4 - 0.2j])
        clean = apply_channel(x, ChannelSpec(taps))
        noisy = apply_channel(x, ChannelSpec(taps, snr_db=10.0), 9)
        sigma = np.sqrt(np.mean(np.abs(x) ** 2) / 10.0)
        assert noisy.tobytes() == (clean + sigma * gaussian_pairs(9, 64)).tobytes()


HELD_TAPS = np.array([1.0, 0.45 - 0.2j, -0.1 + 0.3j, 0.05])
HELD_SPEC = ChannelSpec(HELD_TAPS)


@pytest.fixture
def response_builds(monkeypatch):
    """Counts the N-point transforms of channel taps (each one is a response build).

    The equalizer hands its block transform a ``counter`` keyword; a response build does not.
    """
    count = [0]
    original = channel.dft

    def counted(x, *args, **kwargs):
        count[0] += "counter" not in kwargs
        return original(x, *args, **kwargs)
    monkeypatch.setattr(channel, "dft", counted)
    return count


class TestHeldResponse:
    def test_equal_taps_and_n_reuse_the_response(self, response_builds):
        held = channel_response(HELD_SPEC, 64)
        for taps in (HELD_TAPS.copy(), list(HELD_TAPS), tuple(HELD_TAPS)):
            spec = ChannelSpec(taps)
            assert channel_response(spec, 64) is held
            fd_equalize_zf(np.ones(64), spec, counter=MulCounter())
        assert response_builds[0] == 1

    @pytest.mark.parametrize(
        "base,taps,n",
        [(HELD_TAPS, HELD_TAPS * 2, 64), (HELD_TAPS, np.append(HELD_TAPS, 0.0), 64),
         (np.array([1.0, 0.0]), np.array([1.0, -0.0]), 64), (HELD_TAPS, HELD_TAPS, 128)],
    )
    def test_each_of_taps_and_n_rebuilds(self, response_builds, base, taps, n):
        base, spec = channel_response(ChannelSpec(base), 64), ChannelSpec(taps)
        built = response_builds[0]
        other = channel_response(spec, n)
        assert other is not base and response_builds[0] == built + 1
        assert channel_response(spec, n) is other and response_builds[0] == built + 1
        y = random_complex(np.random.default_rng(6), n)
        assert fd_equalize_zf(y, spec).tobytes() == per_block_fd_equalize_zf(y, taps).tobytes()

    @pytest.mark.parametrize("taps,exc", [(np.array([1.0, -1.0]), SingularChannel), (np.ones(9), ConfigError)])
    def test_failed_build_raises_every_call_and_keeps_the_held_response(self, response_builds, taps, exc):
        held = channel_response(HELD_SPEC, 8)
        y, spec = random_complex(np.random.default_rng(7), 8), ChannelSpec(taps)
        want = per_block_fd_equalize_zf(y, HELD_TAPS)
        for _ in range(2):
            counter = MulCounter()
            with pytest.raises(exc):
                fd_equalize_zf(y, spec, counter=counter)
            assert counter.count == 0
        assert channel_response(HELD_SPEC, 8) is held
        assert fd_equalize_zf(y, HELD_SPEC).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "taps,message",
        [(HELD_TAPS.reshape(1, -1), "at least one tap"), (np.array([], complex), "at least one tap"),
         (np.array([1.0, np.nan], complex), "must be finite"), (np.array([np.inf], complex), "must be finite")],
        ids=["2d", "empty", "nan", "inf"],
    )
    def test_refused_complex_arrays_raise_every_call(self, taps, message):
        # A complex vector used to reach the response unchecked on a held key; only a spec reaches it now.
        held = channel_response(HELD_SPEC, 8)
        for _ in range(2):
            with pytest.raises(ConfigError, match=message):
                ChannelSpec(taps)
        assert channel_response(HELD_SPEC, 8) is held

    def test_response_rejects_writes(self):
        held = channel_response(HELD_SPEC, 16)
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 0.0

    def test_output_shares_no_memory_with_the_response(self):
        y = random_complex(np.random.default_rng(8), 16)
        out = fd_equalize_zf(y, HELD_SPEC)
        held = channel_response(HELD_SPEC, 16)
        before = held.copy()
        assert not np.shares_memory(out, held)
        out[:] = 0.0
        assert held.tobytes() == before.tobytes()

    # Tap sets for the reuse property: identity, a delay, four taps, a null at DC, a signed zero,
    # a near-null above the threshold, flat responses at and at twice the threshold, and nine taps
    # (too many for N = 8).
    POOL = [np.array([1.0]), np.array([0.0, 1.0]), HELD_TAPS, np.array([1.0, -1.0]), np.array([1.0, -0.0]),
            np.array([1.0, 0.999]), np.array([SINGULAR_EPS]), np.array([2 * SINGULAR_EPS]),
            random_complex(np.random.default_rng(9), 9)]

    STEPS = st.tuples(st.integers(0, len(POOL) - 1), st.sampled_from([1, 8, 16, 64]), st.integers(0, 2**32 - 1))

    @given(st.lists(STEPS, min_size=1, max_size=12))
    def test_any_sequence_is_bit_identical_to_a_per_block_build(self, steps):
        for index, n, seed in steps:
            taps, y = self.POOL[index], random_complex(np.random.default_rng(seed), n)
            results = []
            for equalize, channel_of in ((fd_equalize_zf, ChannelSpec), (per_block_fd_equalize_zf, np.asarray)):
                counter = MulCounter()
                try:
                    out = equalize(y, channel_of(taps), counter).tobytes()
                except (ConfigError, SingularChannel) as exc:
                    out = type(exc)
                results.append((out, counter.count))
            assert results[0] == results[1]


class TestSpecFloatRange:
    @pytest.mark.parametrize(
        "taps,snr_db,name",
        [(np.array([1.0]), 10**400, "snr_db"), (np.array([1.0]), -10**400, "snr_db"),
         ((10**400,), 10.0, "channel.taps"), ((1.0, -10**400), 10.0, "channel.taps")],
        ids=["snr_db", "negative-snr_db", "tap", "negative-second-tap"],
    )
    def test_integer_beyond_float_range_is_a_config_error(self, taps, snr_db, name):
        # Each used to escape as OverflowError from check_snr_db or check_taps.
        with pytest.raises(ConfigError, match=name):
            ChannelSpec(taps, snr_db)


class TestSpecTypeRule:
    """``ChannelSpec`` and ``RunConfig`` share channel's type rules: a value one refuses, so does
    the other, with the same message, and neither lets a non-ConfigError escape."""

    def test_string_tap_is_a_config_error(self):
        # Used to escape as ValueError from the complex conversion.
        with pytest.raises(ConfigError, match="channel_taps must be a sequence of numbers"):
            ChannelSpec(("a",), 10.0)

    def test_string_snr_is_a_config_error(self):
        # Used to escape as TypeError from math.isfinite.
        with pytest.raises(ConfigError, match="snr_db must be a real number"):
            ChannelSpec((1.0,), "10")

    def test_none_snr_is_a_config_error(self):
        # Used to escape as TypeError from math.isfinite.
        with pytest.raises(ConfigError, match="snr_db must be a real number"):
            ChannelSpec((1.0,), None)

    def test_none_tap_is_refused_as_a_type_not_as_nan(self):
        # Used to read as NaN and be refused as "channel taps must be finite, got [nan]".
        with pytest.raises(ConfigError, match="channel_taps must be a sequence of numbers"):
            ChannelSpec((None,), 10.0)

    def test_bool_tap_is_refused(self):
        # Used to be accepted as the tap 1.
        with pytest.raises(ConfigError, match="channel_taps must be a sequence of numbers"):
            ChannelSpec((True,), 10.0)

    def test_bool_snr_is_refused(self):
        # Used to be accepted as 1 dB.
        with pytest.raises(ConfigError, match="snr_db must be a real number"):
            ChannelSpec((1.0,), True)

    @pytest.mark.parametrize(
        "taps,snr_db",
        [(("a",), 10.0), ((None,), 10.0), ((True,), 10.0), ((1.0, np.bool_(False)), 10.0), ("", 10.0),
         (([1, 2],), 10.0), ({1.0, 0.5}, 10.0), ((t for t in (1.0, 0.5)), 10.0), (b"\x01", 10.0),
         (1.0, 10.0), ((1.0,), "10"), ((1.0,), None), ((1.0,), True), ((1.0,), np.bool_(True)),
         ((1.0,), 10**400), ((1.0,), np.nan), ((1.0,), 1 + 2j)],
    )
    def test_run_config_and_spec_refuse_alike(self, taps, snr_db):
        messages = []
        for build in (lambda: ChannelSpec(taps, snr_db),
                      lambda: RunConfig(k=4, m=4, n_cp=3, channel_taps=taps, snr_db=snr_db)):
            with pytest.raises(ConfigError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "taps", [np.array([1.0, 0.5]), np.array([1, 0], dtype=np.int8), np.array([1 + 1j], dtype=np.complex64),
                 (1, 0.5, 0.25j, np.float32(0.1), np.complex128(0.2)), [np.int64(1)]],
    )
    def test_numbers_of_any_numeric_type_are_accepted(self, taps):
        spec = ChannelSpec(taps, 10)
        assert spec.taps.dtype == np.complex128 and np.array_equal(spec.taps, np.asarray(taps, dtype=complex))
        assert type(spec.snr_db) is float and spec.snr_db == 10.0

    @pytest.mark.parametrize("dtype", [bool, object, "U1"])
    def test_arrays_of_non_numbers_are_refused(self, dtype):
        with pytest.raises(ConfigError, match="channel_taps must be a sequence of numbers"):
            check_taps(np.array([True] if dtype is bool else [None] if dtype is object else ["1"], dtype=dtype))

    def test_a_numeric_array_is_judged_by_its_dtype_without_a_per_tap_loop(self):
        class NoIteration(np.ndarray):
            def __iter__(self):
                raise AssertionError("taps iterated one by one")

        taps = np.array([1.0, 0.5 - 0.25j]).view(NoIteration)
        assert np.array_equal(ChannelSpec(taps, 10.0).taps, [1.0, 0.5 - 0.25j])


class TestSeedArgument:
    """``apply_channel``'s seed, a block's one channel input, checked first on every channel."""

    @pytest.mark.parametrize("snr_db", [float("inf"), 10.0], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("seed", [True, -1, 2**64, 1.0, "3", None])
    def test_a_refused_seed_raises_on_any_channel(self, seed, snr_db):
        with pytest.raises(ConfigError, match="seed"):
            apply_channel(np.ones(4, dtype=complex), ChannelSpec((1.0,), snr_db), seed)


#: Taps of every kind the rule judges: lists and arrays of finite numbers, lists mixing in NaN, inf,
#: bools, strings and an integer beyond int64 (empty ones too), a 2-D array and a string.
ANY_TAPS = st.one_of(
    st.lists(finite_complex, min_size=1, max_size=8),
    st.lists(finite_complex, min_size=1, max_size=8).map(np.array),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).map(np.array),
    st.lists(st.sampled_from([1.0, 0.5j, np.nan, np.inf, -np.inf, True, np.bool_(False), "1", 2**70]), max_size=4),
    st.sampled_from([np.ones((2, 2)), np.ones((1, 3)), np.array([], complex), "12", ()]),
)
#: SNRs: finite, the largest accepted magnitudes, ratios out of range, +-inf, NaN and bools.
ANY_SNR = st.one_of(
    st.floats(-3000.0, 3000.0),
    st.sampled_from([np.inf, -np.inf, np.nan, 3000.0, -3000.0, 4000.0, -4000.0, True, False, np.bool_(True)]),
)


class TestOneChannelRule:
    """``ChannelSpec`` is the one home of the taps and SNR rules: ``RunConfig`` refuses a pair exactly
    when the spec does, with the same error, holds the spec's checked taps as ``cfg.channel``, and a
    block run on it runs neither rule again."""

    @given(taps=ANY_TAPS, snr_db=ANY_SNR)
    def test_run_config_holds_what_the_spec_rule_gives(self, taps, snr_db):
        outcomes = []
        for build in (lambda: ChannelSpec(taps, snr_db),
                      lambda: RunConfig(k=4, m=4, n_cp=8, channel_taps=taps, snr_db=snr_db)):
            try:
                outcomes.append(build())
            except Exception as exc:  # noqa: BLE001 - the type and message are compared
                outcomes.append((type(exc), str(exc)))
        spec, cfg = outcomes
        if isinstance(spec, tuple) or isinstance(cfg, tuple):
            assert spec == cfg
            return
        held = cfg.channel
        assert held.taps.dtype == np.complex128 and held.taps.tobytes() == spec.taps.tobytes()
        assert not held.taps.flags.writeable
        if isinstance(taps, np.ndarray):
            assert not np.shares_memory(held.taps, taps) and not np.shares_memory(spec.taps, taps)
        assert (held.snr_db, held.ratio) == (spec.snr_db, spec.ratio) and cfg.snr_db == spec.snr_db
        assert cfg.channel_taps == tuple(spec.taps.tolist())
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("check_taps", "check_snr_db"):
                rule = getattr(channel, name)
                mp.setattr(channel, name, lambda *a, name=name, rule=rule: calls.append(name) or rule(*a))
            try:
                link.run_loopback(cfg)
            except (GfdmError, FloatingPointError):
                pass  # a null bin or an overflowing block: refused, still without a channel rule
        assert calls == []

    @pytest.mark.parametrize(
        "taps", [list(HELD_TAPS), HELD_TAPS.copy(), HELD_TAPS.real.copy(), HELD_TAPS.astype(np.complex64)],
        ids=["list", "complex128", "float64", "complex64"],
    )
    def test_spec_holds_a_read_only_copy_of_its_taps(self, taps):
        before = np.array(taps)
        spec = ChannelSpec(taps)
        assert spec.taps.dtype == np.complex128 and np.array_equal(spec.taps, before)
        assert not spec.taps.flags.writeable and not np.shares_memory(spec.taps, before)
        if isinstance(taps, np.ndarray):
            assert not np.shares_memory(spec.taps, taps)
            taps[0] = 7.0  # the caller's array stays writable and the spec does not see the write
            assert np.array_equal(spec.taps, before)


#: Grid sizes: powers of two, other integers, sizes whose K*M exceeds MAX_N, and values that are no
#: integer (floats, bools, strings, None) beside numpy integers.
ANY_SIZE = st.one_of(
    st.sampled_from([1, 2, 4, 8, 16]),
    st.integers(-2, 20),
    st.sampled_from([2**11, 2**30, np.int64(2**11)]),
    st.sampled_from([8.0, 8.5, True, False, "8", None, np.float64(4.0), np.bool_(True),
                     np.int64(8), np.uint8(4), np.int32(16)]),
)
#: Active sets: None, lists out of range, duplicated, unsorted or empty, the full range in any
#: order, 1-D arrays, entries that are no integer, and values that are no sequence.
ANY_ACTIVE = st.one_of(
    st.none(),
    st.lists(st.integers(-2, 17), max_size=6),
    st.lists(st.integers(0, 7), max_size=6).map(tuple),
    st.lists(st.integers(0, 7), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.integers(0, 4).map(lambda e: tuple(range(2**e))),
    st.integers(0, 4).flatmap(lambda e: st.permutations(range(2**e))),
    st.lists(st.sampled_from([1, 2.0, 1.5, True, np.int64(3), np.uint8(1), "1", None]), min_size=1, max_size=3),
    st.sampled_from([(), [], np.array([], dtype=int), range(4), 5, "12", b"01", {1: 2}, {0, 1},
                     np.ones((2, 2), dtype=int), np.array(3)]),
)


class TestOneGeometryRule:
    """``GfdmParams`` is the one home of the grid and active-set rules: ``RunConfig`` refuses a geometry
    exactly when ``GfdmParams`` does, with the same error, and holds its checked geometry: ``k`` and
    ``m`` as ints, each active set sorted without repeats, ``None`` for the full range."""

    @settings(max_examples=300)
    @given(k=ANY_SIZE, m=ANY_SIZE, k_on=ANY_ACTIVE, m_on=ANY_ACTIVE)
    def test_run_config_holds_what_the_geometry_rule_gives(self, k, m, k_on, m_on):
        outcomes = []
        for build in (lambda: GfdmParams(k, m, k_on, m_on), lambda: RunConfig(k=k, m=m, k_on=k_on, m_on=m_on)):
            try:
                outcomes.append(build())
            except Exception as exc:  # noqa: BLE001 - the type and message are compared
                outcomes.append((type(exc), str(exc)))
        params, cfg = outcomes
        if isinstance(params, tuple) or isinstance(cfg, tuple):
            assert params == cfg
            return
        assert cfg.params == params
        assert (cfg.k, cfg.m) == (params.k, params.m) and type(cfg.k) is type(cfg.m) is int
        assert cfg.k_on == (None if params.k_on == tuple(range(params.k)) else params.k_on)
        assert cfg.m_on == (None if params.m_on == tuple(range(params.m)) else params.m_on)
        assert all(type(v) is int for v in (cfg.k_on or ()) + (cfg.m_on or ()))
        # The held form is canonical: built again from it, the configuration is equal, with one hash.
        again = RunConfig(k=cfg.k, m=cfg.m, k_on=cfg.k_on, m_on=cfg.m_on)
        assert again == cfg and hash(again) == hash(cfg) and again.params == params
