"""The noise stream's trig step, and the SNR and seed rules of the channel.

``gaussian_pairs`` takes its Box-Muller trig factor from numpy's complex128
``exp``.  These tests pin it byte for byte to the per-sample ``cmath.exp``
generator it replaced (kept here as the reference), and guard the property
the swap rests on: numpy has no CPU-dispatched complex128 ``exp`` kernel.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfdm_modem.channel import (
    ChannelSpec,
    apply_channel,
    check_seed,
    gaussian_pairs,
    snr_ratio,
    uniform64_array,
)
from gfdm_modem.cli import main
from gfdm_modem.config import RunConfig
from gfdm_modem.errors import ConfigError
from gfdm_modem.link import run_loopback

EDGE_SEEDS = [0, 1, 2**64 - 1]


def per_sample_gaussian_pairs(seed, count, offset=0):
    """The generator with the trig factor from ``cmath.exp`` per sample."""
    u = uniform64_array(seed, offset, 2 * count)
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), np.float64, count))
    j_theta = np.zeros(count, dtype=np.complex128)
    j_theta.imag = 2 * math.pi * u[1::2]
    trig = np.fromiter(map(cmath.exp, j_theta.tolist()), np.complex128, count)
    out = np.empty(count, dtype=np.complex128)
    out.real = r * trig.real
    out.imag = r * trig.imag
    return out / math.sqrt(2.0)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrigThroughComplexExp:
    @settings(max_examples=120)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
        offset=st.one_of(st.sampled_from([0, 2**40]), st.integers(0, 2**48)),
        count=st.integers(1, 5000),
    )
    @example(seed=0, offset=0, count=1)
    @example(seed=2**64 - 1, offset=2**40, count=5000)
    def test_equals_per_sample_generator_byte_for_byte(self, seed, offset, count):
        assert same_bytes(gaussian_pairs(seed, count, offset), per_sample_gaussian_pairs(seed, count, offset))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_long_run_equals_per_sample_generator(self, seed):
        assert same_bytes(gaussian_pairs(seed, 200_000), per_sample_gaussian_pairs(seed, 200_000))

    def test_extreme_angles_equal_cmath(self):
        # The smallest and largest uniforms the stream can give, and their neighbours.
        steps = np.array([0, 1, 2, 3, 2**52 - 1, 2**52, 2**53 - 3, 2**53 - 2, 2**53 - 1], dtype=np.float64)
        u = (steps + 0.5) / (1 << 53)
        j_theta = np.zeros(u.size, dtype=np.complex128)
        j_theta.imag = 2 * math.pi * u
        want = np.array([cmath.exp(z) for z in j_theta.tolist()])
        assert same_bytes(np.exp(j_theta), want)

    def test_complex128_exp_has_no_cpu_dispatched_kernel(self):
        # If a numpy release adds a SIMD complex exp, the noise bits may start to depend
        # on the CPU; this names the cause before the stream goldens fail.
        introspect = pytest.importorskip("numpy.lib.introspect")
        loops = introspect.opt_func_info(func_name="exp").get("exp", {})
        assert [sig for sig in loops if "D" in sig] == []


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
            snr_ratio(snr)
        with pytest.raises(ConfigError, match="out of range"):
            RunConfig(k=8, m=4, snr_db=snr)

    @pytest.mark.parametrize("snr", OVERFLOWING + VANISHING + UNBOUNDED_VARIANCE)
    def test_apply_channel_refuses(self, snr):
        x = np.ones(16, dtype=complex)
        with pytest.raises(ConfigError, match="out of range|not finite"):
            apply_channel(x, ChannelSpec(np.array([1.0]), snr, seed=3))

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
        got = apply_channel(x, ChannelSpec(taps, snr, seed=11))
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
        assert "malformed configuration value" in capsys.readouterr().err

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
    def test_channel_spec_and_run_config_refuse_alike(self, seed, message):
        errors = []
        for build in (lambda: check_seed(seed), lambda: ChannelSpec(np.array([1.0]), 10.0, seed=seed),
                      lambda: RunConfig(k=8, m=4, seed=seed)):
            with pytest.raises(ConfigError) as info:
                build()
            errors.append(str(info.value))
        assert errors[0].startswith(message) and errors == [errors[0]] * 3

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, np.uint64(2**64 - 1), np.int32(7)])
    def test_legal_seed_is_held_as_int(self, seed):
        spec = ChannelSpec(np.array([1.0]), 10.0, seed=seed)
        cfg = RunConfig(k=8, m=4, seed=seed)
        assert type(spec.seed) is int and type(cfg.seed) is int and spec.seed == cfg.seed == int(seed)

    def test_out_of_range_seed_no_longer_aliases(self):
        # 2**64 used to give seed 0's noise, -1 seed 2**64 - 1's.
        x = np.ones(8, dtype=complex)
        for seed in (2**64, -1):
            with pytest.raises(ConfigError):
                apply_channel(x, ChannelSpec(np.array([1.0]), 10.0, seed=seed))
