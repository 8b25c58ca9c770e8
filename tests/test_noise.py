"""The noise stream's Box-Muller specification, and the SNR and seed rules of the channel.

``gaussian_pairs`` computes ``sqrt(-log u) * exp(2j*pi*v)`` with correctly rounded float64
operations only, in the order the ``channel`` docstring specifies.  These tests pin it byte for
byte to an independent scalar implementation of that specification (Python floats,
``math.frexp``, ``round`` and ``math.sqrt``, no call into ``channel``), and bound its distance from
the libm generator it replaced (``math.log`` per sample and numpy's complex ``exp``), which is
kept here as an accuracy reference only.
"""

import cmath
import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfdm_modem import channel
from gfdm_modem.channel import (
    ChannelSpec,
    apply_channel,
    check_seed,
    gaussian_pairs,
    splitmix64_words,
    uniform64_array,
)
from gfdm_modem.cli import main
from gfdm_modem.config import RunConfig
from gfdm_modem.errors import ConfigError
from gfdm_modem.link import qpsk_symbols, run_loopback

EDGE_SEEDS = [0, 1, 2**64 - 1]
#: The smallest and largest uniforms the stream can give, and their neighbours, as 53-bit steps.
EXTREME_STEPS = [0, 1, 2, 3, 2**52 - 1, 2**52, 2**53 - 3, 2**53 - 2, 2**53 - 1]


class Spec:
    """The noise stream, sample by sample in Python floats, from the specification alone."""

    MASK = (1 << 64) - 1
    LN2_HI, LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
    TURN = math.pi / 512

    def __init__(self):
        self.log_hi, self.log_lo = [0.0] * 257, [0.0] * 257
        for c in range(128, 257):
            a, b = 256.0 - c, 256.0 + c
            q = a / b
            split = q * 134217729.0
            q_hi = split - (split - q)
            q_lo = ((a - q_hi * b) - (q - q_hi) * b) / b
            z = q * q
            p = 1.0 / 35
            for k in range(33, 1, -2):
                p = p * z + 1.0 / k
            two_q, tail = 2.0 * q, 2.0 * (q_lo + q * z * p)
            self.log_hi[c] = two_q + tail
            self.log_lo[c] = (two_q - self.log_hi[c]) + tail
        c8, s8 = [], []
        for i in range(129):
            a = i * self.TURN
            w = a * a
            cos_p = sin_p = 0.0
            for k in range(20, 0, -2):
                cos_p = cos_p * w + (-1) ** (k // 2) / math.factorial(k)
            for k in range(21, 1, -2):
                sin_p = sin_p * w + (-1) ** (k // 2) / math.factorial(k)
            c8.append(1.0 + w * cos_p)
            s8.append(a + a * w * sin_p)
        # The octant's entries placed on the circle: cos(pi/2 - a) = sin a, cos(pi/2 + a) = -sin a, ...
        cq, sq = c8 + s8[127::-1], s8 + c8[127::-1]
        self.cos = cq + [-x for x in sq[1:]] + [-x for x in cq[1:]] + sq[1:]
        self.sin = sq + cq[1:] + [-x for x in sq[1:]] + [-x for x in cq[1:]]

    def uniform(self, seed, index):
        z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & self.MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        z ^= z >> 31
        return ((z >> 11) + 0.5) / (1 << 53)

    def minus_log(self, u):
        m, e = math.frexp(u)
        y = 256.0 * m
        c = round(y)
        s = (c - y) / (y + c)
        z = s * s
        g = (z * (2.0 / 5) + 2.0 / 3) * z * s
        a = ((g + e * -self.LN2_LO) + self.log_lo[c]) + 2.0 * s
        return e * -self.LN2_HI + (self.log_hi[c] + a)

    def cos_sin(self, v):
        t = 1024.0 * v
        j = round(t)
        x = (t - j) * self.TURN
        w = x * x
        cm = (w * (1.0 / 24) + -0.5) * w
        sn = (w * (1.0 / 120) + -1.0 / 6) * w * x + x
        cj, sj = self.cos[j], self.sin[j]
        return cj + (cj * cm - sj * sn), sj + (sj * cm + cj * sn)

    def gaussian_pairs(self, seed, count):
        out = np.empty(count, dtype=np.complex128)
        for i in range(count):
            r = math.sqrt(self.minus_log(self.uniform(seed, 2 * i)))
            cos, sin = self.cos_sin(self.uniform(seed, 2 * i + 1))
            out[i] = complex(cos * r, sin * r)
        return out


SPEC = Spec()
per_sample_gaussian_pairs = SPEC.gaussian_pairs


def libm_gaussian_pairs(seed, count):
    """The generator the stream replaced: ``math.log`` per sample, numpy's complex128 ``exp``
    (libm ``cexp``), both rounded as the host's libm rounds them.  An accuracy reference only."""
    u = uniform64_array(seed, 0, 2 * count)
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), np.float64, count))
    j_theta = np.zeros(count, dtype=np.complex128)
    j_theta.imag = 2 * math.pi * u[1::2]
    return r * np.exp(j_theta) / math.sqrt(2.0)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def steps_to_uniforms(steps):
    """The stream's uniform of each 53-bit step ``k``: ``(k + 0.5) / 2**53``."""
    return (np.array(steps, dtype=np.float64) + 0.5) / (1 << 53)


class TestSpecification:
    @settings(max_examples=120)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
        count=st.integers(1, 5000),
    )
    @example(seed=0, count=1)
    @example(seed=2**64 - 1, count=5000)
    def test_equals_per_sample_generator_byte_for_byte(self, seed, count):
        assert same_bytes(gaussian_pairs(seed, count), per_sample_gaussian_pairs(seed, count))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_long_run_equals_per_sample_generator(self, seed):
        assert same_bytes(gaussian_pairs(seed, 200_000), per_sample_gaussian_pairs(seed, 200_000))

    def test_extreme_uniforms_equal_the_specification(self):
        u = steps_to_uniforms(EXTREME_STEPS)
        assert channel._minus_log(u).tolist() == [SPEC.minus_log(x) for x in u.tolist()]
        cos, sin = channel._cos_sin_turns(u)
        assert list(zip(cos.tolist(), sin.tolist())) == [SPEC.cos_sin(x) for x in u.tolist()]

    def test_tables_equal_the_specification(self):
        assert channel._LOG_HI.tolist() == SPEC.log_hi and channel._LOG_LO.tolist() == SPEC.log_lo
        assert channel._COS.tolist() == SPEC.cos and channel._SIN.tolist() == SPEC.sin


class TestAccuracy:
    """The specification is within a few ulp of the exact transcendentals, and of libm's."""

    @settings(max_examples=60)
    @given(steps=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64))
    @example(steps=EXTREME_STEPS)
    def test_log_within_4_ulp_of_math_log(self, steps):
        u = steps_to_uniforms(steps)
        for got, x in zip(channel._minus_log(u).tolist(), u.tolist()):
            want = -math.log(x)
            assert abs(got - want) <= 4 * math.ulp(want)

    @settings(max_examples=60)
    @given(steps=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=64))
    @example(steps=EXTREME_STEPS)
    def test_cos_sin_within_1e15_of_cmath(self, steps):
        u = steps_to_uniforms(steps)
        cos, sin = channel._cos_sin_turns(u)
        for c, s, x in zip(cos.tolist(), sin.tolist(), u.tolist()):
            want = cmath.exp(complex(0.0, 2 * math.pi * x))
            assert abs(c - want.real) <= 1e-15 and abs(s - want.imag) <= 1e-15

    @settings(max_examples=30)
    @given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)), count=st.integers(1, 5000))
    def test_samples_within_4e15_relative_of_the_libm_generator(self, seed, count):
        got, want = gaussian_pairs(seed, count), libm_gaussian_pairs(seed, count)
        assert (np.abs(got - want) <= 4e-15 * np.abs(want)).all()

    def test_long_run_within_bounds_of_libm(self):
        u = uniform64_array(11, 0, 200_000)
        want = -np.fromiter(map(math.log, u.tolist()), np.float64, u.size)
        assert (np.abs(channel._minus_log(u) - want) <= 4 * np.spacing(want)).all()
        cos, sin = channel._cos_sin_turns(u)
        trig = np.exp(1j * (2 * math.pi * u))
        assert np.abs(cos - trig.real).max() <= 1e-15 and np.abs(sin - trig.imag).max() <= 1e-15

    def test_log_table_is_correctly_rounded(self):
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [-(Decimal(c) / 256).ln() for c in range(128, 257)]
        hi, lo = channel._LOG_HI[128:], channel._LOG_LO[128:]
        assert hi.tolist() == [float(x) for x in exact]
        # The pair is within 2**-56 relative, three bits beyond the rounded entry (2**-53).
        for h, lo_, x in zip(hi.tolist(), lo.tolist(), exact):
            assert abs(Decimal(h) + Decimal(lo_) - x) <= abs(x) * Decimal(2) ** -56


def reference_apply_channel(x, taps, snr_db, seed):
    """Convolution plus noise with the variance expression ``power / 10 ** (snr_db / 10)``."""
    n = x.size
    y = taps[0] * x
    for j in range(1, min(len(taps), n)):
        y[j:] += taps[j] * x[: n - j]
    if math.isinf(snr_db):
        return y
    sigma2 = float(np.mean(np.abs(x) ** 2)) / (10.0 ** (snr_db / 10.0))
    return y + math.sqrt(sigma2) * gaussian_pairs(seed, n)


README_TAPS = (1 + 0j, 0.4 - 0.2j, 0.1 + 0.05j, -0.05j)

#: ``(nmse to 12 decimals, ser)`` of the benchmark's awgn link, the one N=4096 block through the
#: noisy channel, recorded before the streams ran in place.  The nmse is rounded as in
#: ``REPORT_ROWS``: its last bits also come from numpy.fft and the BLAS dot of ``np.vdot``.
AWGN_LINK = {
    1: ("0.023601951352", 0.0),
    4243: ("0.025363521656", 0.0),
    2**64 - 1: ("0.026369994683", 0.0),
}


@pytest.mark.parametrize("seed", sorted(AWGN_LINK))
def test_awgn_link_is_unchanged(seed):
    cfg = RunConfig(k=64, m=64, arch="fft", domain="td", rx="zf", channel_taps=README_TAPS, n_cp=16,
                    snr_db=20.0, seed=seed)
    report = run_loopback(cfg)
    assert (f"{report.nmse:.12f}", report.ser) == AWGN_LINK[seed]
    assert report.cm_match


STREAMS = {
    "splitmix64_words": lambda seed, count: splitmix64_words(seed, 2**40, count),
    "uniform64_array": lambda seed, count: uniform64_array(seed, 0, count),
    "gaussian_pairs": gaussian_pairs,
    "qpsk_symbols": qpsk_symbols,
}


class TestBufferContract:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    @pytest.mark.parametrize("count", [1, 4096])
    def test_streams_return_fresh_writable_arrays(self, name, count):
        first, second = STREAMS[name](3, count), STREAMS[name](3, count)
        assert first.shape == (count,) and first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second) and first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("snr", [math.inf, 20.0])
    @pytest.mark.parametrize("taps", [(1 + 0j,), README_TAPS])
    def test_apply_channel_leaves_its_input_and_shares_no_memory(self, snr, taps):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        saved = x.tobytes()
        spec = ChannelSpec(np.array(taps), snr)
        first, second = apply_channel(x, spec, 5), apply_channel(x, spec, 5)
        assert x.tobytes() == saved and first.tobytes() == second.tobytes()
        assert first.flags.writeable and second.flags.writeable
        for other in (x, spec.taps, second):
            assert not np.shares_memory(first, other)
        x.flags.writeable = False  # a write into a read-only input would raise
        assert apply_channel(x, spec, 5).tobytes() == first.tobytes()

    def test_gaussian_pairs_holds_at_most_nine_count_sized_arrays(self):
        # The uniforms (two doubles a sample), the radius and at most six reused buffers; the samples
        # take the uniforms' bytes.  Holding about ten temporaries at once peaked at 12 arrays.
        count = 4112
        gaussian_pairs(3, count)
        tracemalloc.start()
        try:
            gaussian_pairs(3, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 8 * count


def loopback_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 8, "m": 4, "seed": 3, **overrides}))
    return str(path)


OVERFLOWING = [4000.0, 3100.0, 1e308]
VANISHING = [-4000.0, -1e308]
UNBOUNDED_VARIANCE = [-3100.0]


class TestSnrRange:
    @pytest.mark.parametrize("snr", OVERFLOWING + VANISHING)
    def test_ratio_out_of_range_is_refused(self, snr):
        with pytest.raises(ConfigError, match="out of range"):
            ChannelSpec(np.array([1.0]), snr)
        with pytest.raises(ConfigError, match="out of range"):
            RunConfig(k=8, m=4, snr_db=snr)

    @pytest.mark.parametrize("snr", OVERFLOWING + VANISHING + UNBOUNDED_VARIANCE)
    def test_apply_channel_refuses(self, snr):
        x = np.ones(16, dtype=complex)
        with pytest.raises(ConfigError, match="out of range|not finite"):
            apply_channel(x, ChannelSpec(np.array([1.0]), snr), 3)

    def test_variance_that_is_not_finite_is_refused_at_the_channel(self):
        # The ratio is a positive subnormal, so only the signal power decides.
        cfg = RunConfig(k=8, m=4, snr_db=-3100.0, seed=3)
        with pytest.raises(ConfigError, match="noise variance inf"):
            run_loopback(cfg)

    @settings(max_examples=60)
    @given(snr=st.floats(-3000.0, 3000.0), data_seed=st.integers(0, 2**32 - 1))
    @example(snr=math.inf, data_seed=5)
    @example(snr=-3000.0, data_seed=5)
    @example(snr=3.0, data_seed=5)
    @example(snr=3000.0, data_seed=5)
    def test_snr_that_ran_before_gives_the_same_bits(self, snr, data_seed):
        rng = np.random.default_rng(data_seed)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        taps = np.array([1.0, 0.3 - 0.2j, 0.05j])
        got = apply_channel(x, ChannelSpec(taps, snr), 11)
        assert same_bytes(got, reference_apply_channel(x, taps, snr, 11))

    @pytest.mark.parametrize("snr", OVERFLOWING + VANISHING + UNBOUNDED_VARIANCE)
    def test_cli_exits_2(self, tmp_path, capsys, snr):
        assert main(["loopback", "--config", loopback_config(tmp_path, snr_db=snr)]) == 2
        captured = capsys.readouterr()
        assert "invalid configuration" in captured.err and "snr_db" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["snr_db", "alpha", "channel_taps"])
    def test_cli_exits_2_on_an_integer_too_large_for_a_float(self, tmp_path, capsys, field):
        # json reads a 400-digit literal as an int; float() of it used to escape as OverflowError.
        value = "1" + "0" * 400
        if field == "channel_taps":
            value = f"[{value}]"
        path = tmp_path / "config.json"
        path.write_text(f'{{"k": 8, "m": 4, "{field}": {value}}}')
        assert main(["loopback", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"malformed configuration value: {field}" in err and "must be a real number within float range" in err

    def test_cli_still_runs_a_large_finite_snr(self, tmp_path, capsys):
        assert main(["loopback", "--config", loopback_config(tmp_path, snr_db=3000.0)]) == 0
        assert "nmse=" in capsys.readouterr().out


class TestSeedRule:
    @pytest.mark.parametrize(
        "seed,message",
        [(2**64, "seed must lie in [0, 2**64 - 1], got 18446744073709551616"),
         (-1, "seed must lie in [0, 2**64 - 1], got -1"),
         (True, "seed must be an integer, got True"),
         (1.0, "seed must be an integer, got 1.0"),
         ("3", "seed must be an integer, got '3'"),
         (np.float64(2.0), "seed must be an integer")],
    )
    def test_apply_channel_and_run_config_refuse_alike(self, seed, message):
        errors, x = [], np.ones(4, dtype=complex)
        for build in (lambda: check_seed(seed), lambda: apply_channel(x, ChannelSpec(np.array([1.0]), 10.0), seed),
                      lambda: apply_channel(x, ChannelSpec(np.array([1.0])), seed),
                      lambda: RunConfig(k=8, m=4, seed=seed)):
            with pytest.raises(ConfigError) as info:
                build()
            errors.append(str(info.value))
        assert errors[0].startswith(message) and errors == [errors[0]] * 4

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)])
    def test_legal_seed_is_held_as_int(self, seed):
        cfg = RunConfig(k=8, m=4, seed=seed)
        assert type(cfg.seed) is int and cfg.seed == int(seed)
        x, spec = np.ones(8, dtype=complex), ChannelSpec(np.array([1.0]), 10.0)
        assert apply_channel(x, spec, seed).tobytes() == apply_channel(x, spec, int(seed)).tobytes()

    def test_out_of_range_seed_no_longer_aliases(self):
        # 2**64 used to give seed 0's noise, -1 seed 2**64 - 1's.
        x = np.ones(8, dtype=complex)
        for seed in (2**64, -1):
            with pytest.raises(ConfigError):
                apply_channel(x, ChannelSpec(np.array([1.0]), 10.0), seed)
