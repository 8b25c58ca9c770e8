"""Tests for the closed-form complexity, latency, and resource figures."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfdm_modem.analysis import (
    ARCH_KINDS,
    CostModel,
    cm_count,
    latency,
    latency_delta,
    reconcile,
    resources,
    rows_to_csv,
    sweep,
)
from gfdm_modem.errors import ConfigError, MissingCostEntry


def log2(n):
    return int(math.log2(n))


class TestCmCount:
    def test_spot_values(self):
        assert cm_count("FFT_TD_FD", 32, 32) == 22528
        assert cm_count("DIR_TD_FD", 64, 16) == 92160
        assert cm_count("DIR_FD_FD_SPARSE", 128, 8, l=2) == 17408

    @pytest.mark.parametrize("k,m", [(4, 4), (8, 16), (64, 16), (32, 32), (2, 256)])
    def test_every_formula(self, k, m):
        n = k * m
        expected = {
            "FFT_TD_FD": 2 * n * log2(n) + 2 * n,
            "FFT_TD_TD": 2 * n * log2(n) + n * log2(m) + 2 * n,
            "FFT_FD_FD": 2 * n * log2(n) + n * log2(k) + 2 * n,
            "DIR_TD_FD": n * log2(n) + (k + m) * n,
            "DIR_TD_TD": n * log2(n) + n * log2(k) + 2 * m * n,
            "DIR_FD_FD": n * log2(n) + n * log2(m) + 2 * k * n,
        }
        for kind, value in expected.items():
            assert cm_count(kind, k, m) == value
        for l in (1, 2, 4):
            assert cm_count("DIR_FD_FD_SPARSE", k, m, l) == n * log2(n) + n * log2(m) + 2 * l * n

    def test_depends_only_on_n(self):
        for n in (256, 1024, 2048):
            values = set()
            k = 1
            while k <= n:
                values.add(cm_count("FFT_TD_FD", k, n // k))
                k *= 2
            assert len(values) == 1

    def test_sparse_needs_overlap(self):
        with pytest.raises(ConfigError):
            cm_count("DIR_FD_FD_SPARSE", 8, 8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            cm_count("FFT_TD_FD", 12, 4)
        with pytest.raises(ConfigError):
            cm_count("NOPE", 8, 8)


class TestLatency:
    def test_direct_td_rows(self):
        assert latency("DIR_TD_TD", 16, 16) == 2330
        assert latency("DIR_TD_TD", 8, 8) == 828

    def test_fft_row_composes(self):
        assert latency("FFT_TD_FD", 16, 16) == 2330 + 373

    def test_deltas(self):
        assert latency_delta(16, 16) == 373
        assert latency_delta(128, 16) == 601
        assert latency_delta(8, 8) == 147

    @staticmethod
    def cells(cost):
        """Both latency rows of every power-of-two (K, M) up to M = K = 2048 whose rows have all
        their cost entries; where a row misses one, ``latency_delta`` must miss it too."""
        sizes = [2**e for e in range(1, 12)]
        for k in sizes:
            for m in sizes:
                try:
                    yield k, m, latency("DIR_TD_TD", k, m, cost), latency("FFT_TD_FD", k, m, cost)
                except MissingCostEntry:
                    with pytest.raises(MissingCostEntry):
                        latency_delta(k, m, cost)

    def test_delta_is_the_row_difference_on_every_default_cell(self):
        cells = list(self.cells(CostModel()))
        assert len(cells) == 21
        for k, m, direct, fft in cells:
            assert latency_delta(k, m) == fft - direct, (k, m)

    @given(
        p_cycles=st.fixed_dictionaries({}, optional={2**e: st.integers(0, 10**5) for e in range(1, 23)}),
        t_mul=st.integers(0, 100),
    )
    def test_delta_is_the_row_difference_under_any_cost_model(self, p_cycles, t_mul):
        cost = CostModel(p_cycles=p_cycles, t_mul=t_mul)
        for k, m, direct, fft in self.cells(cost):
            assert latency_delta(k, m, cost) == fft - direct, (k, m)

    def test_relative_increase(self):
        pct = 100.0 * latency_delta(16, 16) / latency("DIR_TD_TD", 16, 16)
        assert round(pct, 1) == 16.0

    def test_missing_cost_entries(self):
        with pytest.raises(MissingCostEntry):
            latency("DIR_TD_TD", 4, 16)
        with pytest.raises(MissingCostEntry):
            latency("FFT_TD_FD", 64, 64)  # N = 4096 beyond the table

    def test_custom_cost_model(self):
        cost = CostModel(p_cycles={2: 1, 4: 2, 8: 4}, t_mul=3)
        assert latency("DIR_TD_TD", 2, 4, cost) == 5 * 8 + 2 * 2 + 2 * 4 + 2 * 1 + 2 * 3

    def test_unsupported_kind(self):
        with pytest.raises(ConfigError):
            latency("DIR_TD_FD", 16, 16)


class TestResources:
    def test_fft_based(self):
        r = resources("FFT_BASED")
        assert (r.fft_cores, r.multipliers, r.rw_rams, r.r_or_w_rams) == (7, 2, 4, 2)

    def test_direct_scales_with_chains(self):
        r = resources("DIRECT", 16)
        assert (r.fft_cores, r.multipliers, r.rw_rams, r.r_or_w_rams) == (4, 32, 32, 32)
        r1 = resources("DIRECT", 1)
        assert (r1.fft_cores, r1.multipliers, r1.rw_rams, r1.r_or_w_rams) == (4, 2, 2, 2)


class TestReconcile:
    def test_pass_and_fail(self):
        good = reconcile("FFT_TD_FD", 32, 32, 22528)
        assert good.passed and "PASS" in str(good)
        bad = reconcile("FFT_TD_FD", 32, 32, 22529, stages={"mod": 22529})
        assert not bad.passed
        assert "MISMATCH" in str(bad) and "mod" in str(bad)

    def test_idle_run_counts_zero(self):
        from gfdm_modem.numerics import MulCounter

        c = MulCounter()
        assert c.count == 0


class TestSweep:
    def test_rows_and_missing_entries(self):
        rows = sweep(["DIR_TD_TD"], [(16, 16), (4, 16)])
        assert rows[0].latency == 2330 and rows[0].status == "ok"
        assert rows[1].latency is None and rows[1].status == "missing cost entry"
        csv_text = rows_to_csv(rows)
        assert "missing cost entry" in csv_text
        assert csv_text.splitlines()[1].startswith("DIR_TD_TD,16,16,256,")

    def test_all_kinds(self):
        rows = sweep(list(ARCH_KINDS), [(16, 16)], l=2)
        assert len(rows) == len(ARCH_KINDS)


class TestOverlapRule:
    @pytest.mark.parametrize("l", [0, -3, 1.5, 2.0, True, "2"])
    def test_overlap_below_one_or_not_an_integer_is_refused(self, l):
        with pytest.raises(ConfigError, match="band overlap L must be a positive integer"):
            cm_count("DIR_FD_FD_SPARSE", 8, 8, l)
        with pytest.raises(ConfigError, match="band overlap L"):
            sweep(["DIR_FD_FD_SPARSE"], [(8, 8)], l=l)

    def test_numpy_integers_and_overlaps_above_k_keep_their_rows(self):
        assert cm_count("DIR_FD_FD_SPARSE", 8, 8, np.int64(2)) == cm_count("DIR_FD_FD_SPARSE", 8, 8, 2)
        assert cm_count("DIR_FD_FD_SPARSE", 4, 8, 9) == 32 * 5 + 32 * 3 + 2 * 9 * 32
