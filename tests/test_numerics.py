"""Tests for the counted radix-2 transform and the numeric input rules."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfdm_modem import numerics
from gfdm_modem.errors import ConfigError
from gfdm_modem.numerics import (
    MulCounter,
    dft,
    fft_mul_count,
    finite_only,
)


def naive_dft(x, inverse=False):
    """O(n^2) double-loop reference transform."""
    n = len(x)
    sign = 1 if inverse else -1
    out = np.zeros(n, dtype=complex)
    for a in range(n):
        acc = 0j
        for b in range(n):
            acc += x[b] * np.exp(sign * 2j * np.pi * a * b / n)
        out[a] = acc
    return out


def dense_dft(x, inverse=False):
    """Dense DFT matrix applied down axis 0, built a block of rows at a time.

    Entry ``(a, b)`` is looked up as root ``a*b mod n`` from one table of the
    n-th roots of unity, so every entry is accurate to one rounding.
    """
    n = x.shape[0]
    sign = 1 if inverse else -1
    roots = np.exp(sign * 2j * np.pi * np.arange(n) / n)
    b = np.arange(n)
    out = np.empty(x.shape, dtype=complex)
    for a0 in range(0, n, 256):
        a = np.arange(a0, min(a0 + 256, n))
        out[a] = roots[np.outer(a, b) % n] @ x
    return out


def as_bits(v):
    """The raw bits of ``v``'s entries: equal only if every value is the same bit for bit."""
    return np.ascontiguousarray(v).view(np.uint64)


class TestDft:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [2**j for j in range(13)])
    def test_matches_dense_matrix(self, n, inverse, batched):
        rng = np.random.default_rng(n + 2 * inverse + batched)
        shape = (n, 3) if batched else (n,)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x_before = x.copy()
        c = MulCounter()
        out = dft(x, inverse=inverse, counter=c)
        ref = dense_dft(x, inverse)
        assert out.shape == x.shape
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        assert (x == x_before).all()
        assert c.count == fft_mul_count(n) * (3 if batched else 1)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        assert_allclose(dft(x), np.ones(8), atol=1e-14)

    def test_flat_gives_scaled_impulse(self):
        out = dft(np.ones(8, dtype=complex))
        expect = np.zeros(8, dtype=complex)
        expect[0] = 8.0
        assert_allclose(out, expect, atol=1e-12)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        ref = naive_dft(x)
        assert np.abs(dft(x) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_inverse_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert_allclose(dft(x, inverse=True), naive_dft(x, inverse=True), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 32, 256])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = dft(dft(x), inverse=True) / n
        assert np.abs(back - x).max() <= 1e-12 * max(np.abs(x).max(), 1.0)

    @pytest.mark.parametrize("n", [2, 16, 128, 1024])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.linalg.norm(dft(x)) ** 2
        rhs = n * np.linalg.norm(x) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_counted_1024(self):
        c = MulCounter()
        dft(np.ones(1024, dtype=complex), counter=c)
        assert c.count == 5120

    def test_small_sizes_are_multiplication_free(self):
        c = MulCounter()
        dft(np.ones(1, dtype=complex), counter=c)
        dft(np.ones(2, dtype=complex), counter=c)
        assert c.count == 0
        assert fft_mul_count(4) == 4

    def test_counter_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        per_transform = fft_mul_count(64)
        assert per_transform == 192
        counts = []
        for _ in range(2):
            c = MulCounter()
            dft(x, counter=c)
            dft(x[:, 0], inverse=True, counter=c)
            counts.append(c.count)
        assert counts[0] == counts[1] == 4 * per_transform

    def test_batch_matches_per_column(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        full = dft(x)
        for j in range(4):
            assert_allclose(full[:, j], dft(x[:, j]), atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            dft(np.ones(12, dtype=complex))

    def test_input_not_mutated(self):
        x = np.ones(8, dtype=complex)
        dft(x)
        assert_allclose(x, np.ones(8))

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", [2**j for j in range(13)])
    def test_bits_and_layout_of_numpy_fft(self, n, inverse, normalized):
        """Every value is ``numpy.fft``'s with the matching ``norm``, bit for bit, and the output is
        laid out as ``np.empty_like`` of the complex128 input, whatever the input's dtype and strides."""
        rng = np.random.default_rng([n, inverse, normalized])
        transform = np.fft.ifft if inverse else np.fft.fft
        norm = "backward" if normalized == inverse else "forward"
        for shape in [(n,), (n, 0), (n, 1), (n, 3)]:
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            inputs = {
                "complex128": z,
                "complex64": z.astype(np.complex64),
                "int": rng.integers(-1000, 1000, shape),
                "bool": rng.integers(0, 2, shape).astype(bool),
            }
            for kind, c_ordered in inputs.items():
                layouts = {
                    "C": c_ordered,
                    "F": np.asfortranarray(c_ordered),
                    "negative stride": np.ascontiguousarray(c_ordered[::-1])[::-1],
                }
                for layout, x in layouts.items():
                    case = f"{shape} {kind} {layout}"
                    a = np.asarray(x, dtype=np.complex128)
                    got = dft(x, inverse=inverse, normalized=normalized)
                    want = transform(a, axis=0, norm=norm)
                    assert got.dtype == np.complex128 and got.shape == shape, case
                    assert got.strides == np.empty_like(a).strides, case
                    assert np.array_equal(as_bits(got), as_bits(want)), case

    def test_overflow_raises_from_the_kernel(self):
        # The gufunc raises the flag itself: no finite_result check is involved.
        with finite_only(), pytest.raises(FloatingPointError):
            dft(np.array([1e308 + 1e308j] * 8))


class TestSizeCost:
    """``dft`` holds each size's charge: the power-of-two rule runs once per size, a refused size every time."""

    def test_rule_runs_once_per_size(self):
        held = numerics._size_cost
        held.cache_clear()
        counter = MulCounter()
        for shape in ((8,), (8, 3), (16,), (8,), (16, 2)):
            dft(np.ones(shape), counter=counter)
        assert (held.cache_info().misses, held.cache_info().hits) == (2, 3)
        charged = fft_mul_count(8) * 5 + fft_mul_count(16) * 3
        assert counter.count == charged
        for _ in range(2):
            with pytest.raises(ConfigError, match="power of two"):
                dft(np.ones(12), counter=counter)
        assert held.cache_info().currsize == 2 and counter.count == charged


class TestNormalized:
    """``normalized`` divides inside the transform call: for a power-of-two size every value equals
    the unnormalized transform divided by ``n`` afterwards, and the charge is the same."""

    @pytest.mark.parametrize("log2n", range(13))
    @given(
        batch=st.sampled_from([None, 1, 3]),
        inverse=st.booleans(),
        decade=st.integers(-300, 300),
        spread=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=3, inverse=True, decade=300, spread=0, seed=1)
    @example(batch=None, inverse=False, decade=-300, spread=0, seed=2)
    def test_equal_to_dividing_afterwards(self, log2n, batch, inverse, decade, spread, seed):
        n = 1 << log2n
        shape = (n,) if batch is None else (n, batch)
        rng = np.random.default_rng(seed)
        # Entries span `spread` decades around 10**decade, all inside [1e-300, 1e300].
        scale = 10.0 ** np.clip(decade + rng.uniform(-spread, spread, shape), -300, 300)
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        before = x.copy()
        c_norm, c_plain = MulCounter(), MulCounter()
        got = dft(x, inverse, c_norm, normalized=True)
        want = dft(x, inverse, c_plain) / n
        assert got.shape == want.shape and np.array_equal(got, want)
        assert c_norm.count == c_plain.count == fft_mul_count(n) * (batch or 1)
        assert np.array_equal(x, before)

    def test_keyword_default_is_unnormalized(self):
        x = np.ones(8, dtype=complex)
        assert_allclose(dft(x), [8] + [0] * 7, atol=0)
        assert_allclose(dft(x, normalized=True), [1] + [0] * 7, atol=0)
        assert_allclose(dft(dft(x, normalized=True), inverse=True), x, atol=0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            dft(np.ones(12, dtype=complex), normalized=True)

