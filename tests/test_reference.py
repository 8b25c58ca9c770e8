"""Tests for the dense matrix reference: modulation, receivers, mapping, multi-pulse."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gfdm_modem.errors import ConfigError, SingularMatrix, SingularWindow
from gfdm_modem.numerics import dft
from gfdm_modem.pulses import GfdmParams, PrototypePulse, make_prototype, rx_window, tx_window
from gfdm_modem.reference import (
    COND_LIMIT,
    ModMatrix,
    build_matrix,
    demap_symbols,
    map_symbols,
    oracle_demod_mf,
    oracle_demod_zf,
    oracle_modulate,
)

from multipulse import MultiPulseComponent, compose_multipulse, fbmc_oqam_modulate, shift_pulse


#: (K, M) = (2**i, 2**j) with N <= 256.
CELLS = st.integers(0, 8).flatmap(lambda i: st.integers(0, 8 - i).map(lambda j: (2**i, 2**j)))


def random_grid(params, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((params.k, params.m)) + 1j * rng.standard_normal((params.k, params.m))


class TestBuildMatrix:
    def test_ofdm_matrix_is_scaled_inverse_dft(self):
        n = 8
        pulse = make_prototype("RECT_TD", GfdmParams(n, 1))
        mm = build_matrix(pulse)
        idx = np.arange(n)
        f_inv = np.exp(2j * np.pi * np.outer(idx, idx) / n)
        assert_allclose(mm.mat, f_inv / np.sqrt(n), atol=1e-12)

    def test_single_carrier_impulse_is_identity(self):
        params = GfdmParams(1, 8)
        time = np.zeros(8, dtype=complex)
        time[0] = 1.0
        pulse = PrototypePulse("RECT_TD", params, 0.0, 0.0, time, dft(time))
        assert_allclose(build_matrix(pulse).mat, np.eye(8), atol=1e-14)

    def test_unit_column_norms(self):
        pulse = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
        mm = build_matrix(pulse)
        assert_allclose(np.linalg.norm(mm.mat, axis=0), np.ones(32), atol=1e-12)

    def test_dirichlet_columns_are_orthogonal(self):
        pulse = make_prototype("DIRICHLET", GfdmParams(8, 4))
        a = build_matrix(pulse).mat
        gram = a.conj().T @ a
        assert np.abs(gram - np.eye(32)).max() <= 1e-8


class TestOracleReceivers:
    def test_zf_inverts_modulation(self):
        params = GfdmParams(8, 4)
        mm = build_matrix(make_prototype("RC", params, 0.5, 0.5))
        grid = random_grid(params, 0)
        est = oracle_demod_zf(mm, oracle_modulate(mm, grid))
        assert np.abs(est - grid).max() <= 1e-9

    def test_ofdm_mf_gain_is_constant(self):
        params = GfdmParams(8, 1)
        mm = build_matrix(make_prototype("RECT_TD", params))
        grid = random_grid(params, 1)
        est = oracle_demod_mf(mm, oracle_modulate(mm, grid))
        # Orthonormal columns: matched filtering is exact (gain one).
        assert np.abs(est - grid).max() <= 1e-10

    def test_even_even_sharp_rolloff_is_singular(self):
        mm = build_matrix(make_prototype("RC", GfdmParams(4, 4), 0.0, 0.0))
        with pytest.raises(SingularMatrix):
            oracle_demod_zf(mm, np.ones(16, dtype=complex))


class TestZfSingularity:
    """The ZF oracle judges singularity from the singular values, so it never returns a wrong solve."""

    @pytest.mark.parametrize("k,m", [(16, 16), (32, 32), (16, 8)])
    def test_sharp_rolloff_even_grids_are_refused(self, k, m):
        # RC alpha=0.5, delta=0: cond(A) ~ 1e16, where a solve is off by ~1 and raises nothing.
        params = GfdmParams(k, m)
        mm = build_matrix(make_prototype("RC", params, 0.5, 0.0))
        with pytest.raises(SingularMatrix):
            oracle_demod_zf(mm, oracle_modulate(mm, random_grid(params, k + m)))

    @pytest.mark.parametrize("k,m", [(16, 16), (32, 32), (16, 8)])
    def test_regular_grids_still_solve(self, k, m):
        params = GfdmParams(k, m)  # RC alpha=0.5, delta=1/2: cond(A) ~ 2.6 to 10
        mm = build_matrix(make_prototype("RC", params, 0.5, 0.5))
        grid = random_grid(params, k * m)
        assert np.abs(oracle_demod_zf(mm, oracle_modulate(mm, grid)) - grid).max() <= 1e-12

    @pytest.mark.parametrize("scale,singular", [(0.0, True), (0.9, True), (1.1, False)])
    def test_squared_condition_number_is_held_to_the_limit(self, scale, singular):
        smin = scale / np.sqrt(COND_LIMIT)  # cond(A)^2 = 1 / smin^2 = COND_LIMIT / scale^2
        mm = ModMatrix(np.diag([1.0 + 0j, smin]), GfdmParams(2, 1))
        x = np.array([1.0 + 0j, smin])
        if singular:
            with pytest.raises(SingularMatrix):
                oracle_demod_zf(mm, x)
        else:
            assert np.allclose(oracle_demod_zf(mm, x), [[1.0], [1.0]])


class TestOneSingularRule:
    """The engines refuse a zero-forcing window at min|w_tx| <= SINGULAR_EPS, the oracle at
    cond(A)^2 >= COND_LIMIT; over the legal pulses and geometries the two refuse the same cells."""

    @staticmethod
    def engine_refuses(w_tx):
        try:
            rx_window(w_tx, "ZF")
        except SingularWindow:
            return True
        return False

    @settings(max_examples=150, deadline=None)
    @given(
        km=st.integers(0, 7).flatmap(lambda i: st.integers(0, 7 - i).map(lambda j: (2**i, 2**j))),
        kind=st.sampled_from(["RC", "RRC", "DIRICHLET", "RECT_TD"]),
        alpha=st.integers(0, 100).map(lambda a: a / 100),
        delta=st.sampled_from([0.0, 0.5]),
    )
    def test_the_oracle_refuses_where_the_engines_do_up_to_n_128(self, km, kind, alpha, delta):
        assume(km[0] >= 2 or kind not in ("RC", "RRC"))
        pulse = make_prototype(kind, GfdmParams(*km), alpha, delta)
        try:
            oracle_demod_zf(build_matrix(pulse), np.ones(km[0] * km[1], dtype=complex))
            oracle_refuses = False
        except SingularMatrix:
            oracle_refuses = True
        assert oracle_refuses == self.engine_refuses(tx_window(pulse, "TD"))

    def test_the_identity_form_agrees_on_a_coarse_grid_up_to_n_4096(self):
        # sigma(A) = |w_tx| / sqrt(K), so the oracle's rule reads max|w|^2 >= COND_LIMIT * min|w|^2.
        refused = 0
        for i in range(13):
            for j in range(13 - i):
                for kind in ("RC", "RRC", "DIRICHLET", "RECT_TD"):
                    if kind in ("RC", "RRC") and i == 0:
                        continue
                    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0) if kind in ("RC", "RRC") else (0.0,):
                        for delta in (0.0, 0.5):
                            pulse = make_prototype(kind, GfdmParams(2**i, 2**j), alpha, delta)
                            w_tx = tx_window(pulse, "TD")
                            power = np.abs(w_tx) ** 2
                            oracle = bool(power.max() >= COND_LIMIT * power.min())
                            assert oracle == self.engine_refuses(w_tx), (kind, 2**i, 2**j, alpha, delta)
                            refused += oracle
        assert refused > 0


class TestSingularValues:
    """The margins rest on one identity: the singular values of A are |w_tx|/sqrt(K) in either domain."""

    @given(
        km=CELLS,
        kind=st.sampled_from(["RC", "RRC", "DIRICHLET", "RECT_TD"]),
        alpha=st.floats(0.0, 1.0),
        delta=st.sampled_from([0.0, 0.5]),
        domain=st.sampled_from(["TD", "FD"]),
    )
    def test_sorted_singular_values_are_the_window_magnitudes(self, km, kind, alpha, delta, domain):
        assume(km[0] >= 2 or kind not in ("RC", "RRC"))
        pulse = make_prototype(kind, GfdmParams(*km), alpha, delta)
        sigma = np.sort(np.linalg.svd(build_matrix(pulse).mat, compute_uv=False))
        want = np.sort(np.abs(tx_window(pulse, domain)).ravel()) / np.sqrt(km[0])
        assert np.abs(sigma - want).max() <= 1e-10 * sigma[-1]

    @pytest.mark.parametrize("domain", ["TD", "FD"])
    @pytest.mark.parametrize("kind", ["RC", "RRC", "DIRICHLET", "RECT_TD"])
    @given(km=CELLS, alpha=st.floats(0.0, 1.0), delta=st.sampled_from([0.0, 0.5]))
    def test_every_symbol_sees_the_window_noise_enhancement(self, kind, domain, km, alpha, delta):
        # Zero-forcing noise enhancement NEF = mean(1/|w|^2) * mean(|w|^2) is the squared norm of
        # every row of A^-1, on every cell the oracle can invert (cond^2 below COND_LIMIT).
        assume(km[0] >= 2 or kind not in ("RC", "RRC"))
        pulse = make_prototype(kind, GfdmParams(*km), alpha, delta)
        power = np.abs(tx_window(pulse, domain)) ** 2
        assume(power.max() < COND_LIMIT * power.min())
        nef = np.mean(1 / power) * np.mean(power)
        rows = (np.abs(np.linalg.inv(build_matrix(pulse).mat)) ** 2).sum(axis=1)
        assert np.abs(rows - nef).max() <= 1e-10 * nef


class TestSymbolMapping:
    def test_full_sets_round_trip(self):
        params = GfdmParams(4, 2)
        rng = np.random.default_rng(2)
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        grid = map_symbols(d, params)
        assert_allclose(grid.flatten(order="F"), d)
        assert_allclose(demap_symbols(grid, params), d)

    def test_single_active_position(self):
        params = GfdmParams(4, 2, k_on=(1,), m_on=(0,))
        grid = map_symbols(np.array([1.0 + 0j]), params)
        assert grid[1, 0] == 1.0
        assert np.count_nonzero(grid) == 1

    def test_sparse_sets_round_trip(self):
        params = GfdmParams(8, 4, k_on=(0, 3, 5), m_on=(1, 2))
        rng = np.random.default_rng(3)
        d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert_allclose(demap_symbols(map_symbols(d, params), params), d)

    def test_partial_unsorted_sets_pin_subcarrier_fastest_order(self):
        # Active sets are given unsorted; symbols fill sorted positions with
        # the subcarrier index running fastest.
        params = GfdmParams(8, 4, k_on=(5, 0, 3), m_on=(3, 1))
        d = np.arange(1, 7) * (1 - 0.5j)
        expect = np.zeros((8, 4), dtype=complex)
        expect[0, 1], expect[3, 1], expect[5, 1] = d[0], d[1], d[2]
        expect[0, 3], expect[3, 3], expect[5, 3] = d[3], d[4], d[5]
        grid = map_symbols(d, params)
        assert grid.dtype == np.complex128
        assert (grid == expect).all()
        noisy = random_grid(params, 4)
        want = [noisy[k, m] for m in (1, 3) for k in (0, 3, 5)]
        assert (demap_symbols(noisy, params) == want).all()

    def test_size_mismatch(self):
        with pytest.raises(ConfigError):
            map_symbols(np.ones(3), GfdmParams(4, 2))


def ix_map_symbols(d_on, params):
    """Scatter through ``np.ix_`` of the active sets, as map_symbols did before the held index."""
    d_on = np.asarray(d_on).reshape(-1)
    grid = np.zeros((params.k, params.m), dtype=np.complex128)
    grid[np.ix_(params.k_on, params.m_on)] = d_on.reshape(len(params.k_on), -1, order="F")
    return grid


def ix_demap_symbols(grid, params):
    """Gather through ``np.ix_`` of the active sets, as demap_symbols did before the held index."""
    return grid[np.ix_(params.k_on, params.m_on)].astype(np.complex128).ravel(order="F")


@st.composite
def geometries(draw):
    """K x M with drawn active sets: partial, unsorted and repeated entries, or None for the full range."""
    k, m = 2 ** draw(st.integers(0, 6)), 2 ** draw(st.integers(0, 6))
    k_on = draw(st.none() | st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k))
    m_on = draw(st.none() | st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
    return GfdmParams(k, m, tuple(k_on or ()), tuple(m_on or ()))


class TestHeldGatherIndex:
    @given(geometries(), st.integers(0, 2**32 - 1))
    def test_map_and_demap_equal_the_ix_copies_bit_for_bit(self, params, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(params.n_active) + 1j * rng.standard_normal(params.n_active)
        got, want = map_symbols(d, params), ix_map_symbols(d, params)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()
        grid = random_grid(params, seed + 1)
        wide = np.zeros((params.k, 3 * params.m), dtype=np.complex128)
        wide[:, ::3] = grid
        # C order, Fortran order, a strided view and a real grid all gather the same positions.
        for g in (grid, np.asfortranarray(grid), wide[:, ::3], grid.real.copy()):
            got, want = demap_symbols(g, params), ix_demap_symbols(g, params)
            assert got.dtype == want.dtype == np.complex128 and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, g) and got.flags.writeable

    def test_index_is_held_per_params_and_read_only(self):
        params = GfdmParams(8, 4, k_on=(5, 0, 3), m_on=(3, 1))
        index = params.active_index
        assert params.active_index is index
        assert index.tolist() == [k * 4 + m for m in (1, 3) for k in (0, 3, 5)]
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1
        out = demap_symbols(random_grid(params, 5), params)
        assert not np.shares_memory(out, index) and not np.shares_memory(map_symbols(out, params), index)

    def test_equal_params_stay_equal_once_the_index_is_held(self):
        a, b = GfdmParams(8, 4, k_on=(2, 1)), GfdmParams(8, 4, k_on=(1, 2))
        a.active_index  # noqa: B018
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1


class TestMultiPulse:
    def test_single_component_equals_plain_modulation(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        grid = random_grid(params, 4)
        comp = MultiPulseComponent(pulse, params.k_on, params.m_on, grid)
        assert_allclose(
            compose_multipulse([comp]),
            oracle_modulate(build_matrix(pulse), grid),
            atol=1e-12,
        )

    def test_zero_grids_give_zero(self):
        params = GfdmParams(4, 4)
        pulse = make_prototype("DIRICHLET", params)
        comp = MultiPulseComponent(pulse, params.k_on, params.m_on, np.zeros((4, 4), complex))
        assert_allclose(compose_multipulse([comp, comp]), np.zeros(16), atol=1e-14)

    def test_half_step_partition_equals_merged_lattice(self):
        # Two pulses on disjoint even/odd subsymbol sets, the second delayed by
        # K/2, must equal one system with subsymbol step K/2 on the merged
        # positions {2m : m even} and {2m+1 : m odd}.
        k, m = 8, 4
        params = GfdmParams(k, m)
        n = params.n
        base = make_prototype("RC", params, 0.5, 0.5)
        delayed = shift_pulse(base, k // 2)
        rng = np.random.default_rng(5)
        g0 = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        g1 = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        evens = tuple(range(0, m, 2))
        odds = tuple(range(1, m, 2))
        x = compose_multipulse(
            [
                MultiPulseComponent(base, params.k_on, evens, g0),
                MultiPulseComponent(delayed, params.k_on, odds, g1),
            ]
        )

        step = k // 2
        idx = np.arange(n)
        merged = np.zeros(n, dtype=complex)
        for mm in range(m):
            pos = 2 * mm if mm % 2 == 0 else 2 * mm + 1
            data = g0 if mm % 2 == 0 else g1
            for kk in range(k):
                col = np.roll(base.time, pos * step) * np.exp(2j * np.pi * idx * kk * m / n)
                merged += data[kk, mm] * col
        assert np.abs(x - merged).max() <= 1e-12

    def test_mismatched_lengths_rejected(self):
        a = make_prototype("DIRICHLET", GfdmParams(4, 4))
        b = make_prototype("DIRICHLET", GfdmParams(4, 2))
        comps = [
            MultiPulseComponent(a, (0,), (0,), np.zeros((4, 4), complex)),
            MultiPulseComponent(b, (0,), (0,), np.zeros((4, 2), complex)),
        ]
        with pytest.raises(ConfigError):
            compose_multipulse(comps)


class TestOqam:
    def test_real_input_uses_only_first_stream(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        rng = np.random.default_rng(6)
        d = rng.standard_normal((8, 4)).astype(complex)
        x = fbmc_oqam_modulate(d, pulse)
        theta0 = np.where(np.arange(8) % 2 == 0, 1j, 1.0)
        x0 = oracle_modulate(build_matrix(pulse), theta0[:, None] * d.real)
        assert np.abs(x - x0).max() <= 1e-12

    def test_equals_two_pulse_composition(self):
        params = GfdmParams(8, 4)
        pulse = make_prototype("RC", params, 0.5, 0.5)
        rng = np.random.default_rng(7)
        d = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        k_idx = np.arange(8)
        theta0 = np.where(k_idx % 2 == 0, 1j, 1.0)
        theta1 = np.where(k_idx % 2 == 0, 1.0, 1j)
        comps = [
            MultiPulseComponent(pulse, params.k_on, params.m_on, theta0[:, None] * d.real),
            MultiPulseComponent(
                shift_pulse(pulse, 4), params.k_on, params.m_on, theta1[:, None] * d.imag
            ),
        ]
        assert np.abs(fbmc_oqam_modulate(d, pulse) - compose_multipulse(comps)).max() <= 1e-10

    def test_phase_pattern(self):
        # Stream 0 rotates even subcarriers by j and leaves odd ones alone.
        params = GfdmParams(4, 2)
        pulse = make_prototype("DIRICHLET", params)
        mm = build_matrix(pulse)
        for k, factor in ((0, 1j), (1, 1.0)):
            d = np.zeros((4, 2), dtype=complex)
            d[k, 0] = 1.0  # purely real symbol: only stream 0 fires
            x = fbmc_oqam_modulate(d, pulse)
            assert_allclose(x, factor * mm.mat[:, k], atol=1e-12)

    def test_odd_subcarrier_count_rejected(self):
        params = GfdmParams(1, 4)
        pulse = make_prototype("DIRICHLET", params)
        with pytest.raises(ConfigError):
            fbmc_oqam_modulate(np.zeros((1, 4), complex), pulse)
