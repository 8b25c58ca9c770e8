"""Tests for the closed-form complexity, latency, and resource figures."""

import csv
import io
import math

import numpy as np
import pytest

from gfdm_modem.analysis import (
    ARCH_KINDS,
    cm_count,
    latency,
    latency_delta,
    resources,
    sweep,
)
from gfdm_modem.config import RunConfig
from gfdm_modem.errors import ConfigError, MissingCostEntry, SingularWindow
from gfdm_modem.link import run_loopback


def log2(n):
    return int(math.log2(n))


def table(csv_text):
    """The rows of a :func:`sweep` table, each a dict of its cells by column name."""
    return list(csv.DictReader(io.StringIO(csv_text)))


class TestCmCount:
    def test_spot_values(self):
        assert cm_count("FFT_TD_FD", 32, 32) == 22528
        assert cm_count("DIR_TD_FD", 64, 16) == 92160
        assert cm_count("DIR_FD_FD_SPARSE", 128, 8, l=2) == 17408
        assert cm_count("FFT_FD_FD", 64, 2) == 2688  # its two 2-point stages cost 0, as in the counter

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
        # The one deviation from the generic form: a 2-point stage costs 0, not N / 2, as in the counter.
        k_stages = {"FFT_TD_FD": 3, "FFT_TD_TD": 2, "FFT_FD_FD": 4, "DIR_TD_FD": 1, "DIR_TD_TD": 2, "DIR_FD_FD": 0}
        for kind, value in expected.items():
            assert cm_count(kind, k, m) == value - (k == 2) * k_stages[kind] * n // 2
        for l in (1, 2, 4):
            assert cm_count("DIR_FD_FD_SPARSE", k, m, l) == n * log2(n) + n * log2(m) + 2 * l * n

    def test_depends_only_on_n(self):
        # With K or M = 2 a 2-point stage is uncharged, so the count falls below the N-only form.
        for n in (256, 1024, 2048):
            values = {cm_count("FFT_TD_FD", 2**e, n >> e) for e in range(n.bit_length()) if 2 not in (2**e, n >> e)}
            assert len(values) == 1
            assert cm_count("FFT_TD_FD", 2, n // 2) == cm_count("FFT_TD_FD", n // 2, 2) == values.pop() - 3 * n // 2

    @pytest.mark.parametrize("rx", ["zf", "mf"])
    @pytest.mark.parametrize("arch,domain", [("fft", "td"), ("fft", "fd"), ("direct", "td"), ("direct", "fd")])
    def test_counter_equals_closed_form(self, arch, domain, rx):
        """Every geometry with K, M in 2 .. 64 and N <= 1024, through the link's four runnable kinds."""
        blocks = 0
        for k, m in ((2**a, 2**b) for a in range(1, 7) for b in range(1, 7) if a + b <= 10):
            cfg = RunConfig(k=k, m=m, arch=arch, domain=domain, rx=rx, l_max=64)
            try:
                report = run_loopback(cfg)
            except SingularWindow:  # no zero-forcing receiver on this geometry, so no block to count
                continue
            assert report.measured_cm == cm_count(report.kind, k, m), (k, m)
            blocks += 1
        assert blocks >= 30

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
    def cells():
        """Both latency rows of every power-of-two (K, M) up to M = K = 2048 whose rows have all
        their cost entries; where a row misses one, ``latency_delta`` must miss it too."""
        sizes = [2**e for e in range(1, 12)]
        for k in sizes:
            for m in sizes:
                try:
                    yield k, m, latency("DIR_TD_TD", k, m), latency("FFT_TD_FD", k, m)
                except MissingCostEntry:
                    with pytest.raises(MissingCostEntry):
                        latency_delta(k, m)

    def test_delta_is_the_row_difference_on_every_default_cell(self):
        cells = list(self.cells())
        assert len(cells) == 21
        for k, m, direct, fft in cells:
            assert latency_delta(k, m) == fft - direct, (k, m)

    def test_relative_increase(self):
        pct = 100.0 * latency_delta(16, 16) / latency("DIR_TD_TD", 16, 16)
        assert round(pct, 1) == 16.0

    def test_missing_cost_entries(self):
        with pytest.raises(MissingCostEntry):
            latency("DIR_TD_TD", 4, 16)
        with pytest.raises(MissingCostEntry):
            latency("FFT_TD_FD", 64, 64)  # N = 4096 beyond the table

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

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="^resource kind must be 'FFT_BASED' or 'DIRECT', got 'FOO'$"):
            resources("FOO")


def rams(r):
    return r.rw_rams + r.r_or_w_rams


class TestAbstractClaims:
    """The abstract's claims in the closed-form model: the FFT-based modem needs fewer complex
    multiplications than the better direct kind, and fewer multipliers and RAMs, at the price of
    more transform cores; its latency premium is pinned as recorded rows."""

    def test_fft_count_is_below_the_better_direct_kind_in_all_100_cells(self):
        sides = [2**i for i in range(1, 11)]  # K, M in 2..1024
        ratios = {(k, m): cm_count("FFT_TD_FD", k, m) / min(cm_count("DIR_TD_TD", k, m), cm_count("DIR_FD_FD", k, m))
                  for k in sides for m in sides}
        assert len(ratios) == 100 and max(ratios.values()) < 1
        # As recorded: largest on the thinnest grids (the ratio is symmetric in K and M), smallest on the largest.
        assert ratios[2, 1024] == ratios[1024, 2] == max(ratios.values()) and round(ratios[2, 1024], 2) == 0.90
        assert min(ratios, key=ratios.get) == (1024, 1024) and round(ratios[1024, 1024], 3) == 0.020

    def test_fft_based_has_fewer_multipliers_and_rams_from_two_chains(self):
        fft = resources("FFT_BASED")
        for l_max in range(2, 65):
            direct = resources("DIRECT", l_max)
            assert fft.multipliers < direct.multipliers and rams(fft) < rams(direct), l_max
            assert (fft.fft_cores, direct.fft_cores) == (7, 4), l_max

    def test_one_chain_row_as_recorded(self):
        fft, direct = resources("FFT_BASED"), resources("DIRECT", 1)
        assert (fft.multipliers, direct.multipliers) == (2, 2)
        assert (rams(fft), rams(direct)) == (6, 4)

    def test_latency_premium_as_recorded_rows(self):
        # "Similar latency for larger block size" is not monotone in the cycle model, and no threshold
        # says what "similar" is: the premium over DIR_TD_TD, as analyze prints it, is pinned as recorded.
        k8 = table(sweep(["FFT_TD_FD"], [(8, n // 8) for n in (64, 128, 256, 512, 1024, 2048)]))
        assert [row["increase_pct"] for row in k8] == ["17.8", "25.9", "18.5", "16.4", "13.5", "12.5"]
        square = table(sweep(["FFT_TD_FD"], [(16, 16), (32, 32), (64, 32)]))
        assert [row["increase_pct"] for row in square] == ["16.0", "6.2", "3.8"]
        # FFT_CYCLES stops at 2048: a larger block has no premium to print.
        beyond = table(sweep(["FFT_TD_FD"], [(8, 512), (64, 64)]))
        assert [(row["increase_pct"], row["status"]) for row in beyond] == [("", "missing cost entry")] * 2


class TestReconcile:
    def test_idle_run_counts_zero(self):
        from gfdm_modem.numerics import MulCounter

        c = MulCounter()
        assert c.count == 0


class TestSweep:
    def test_rows_and_missing_entries(self):
        csv_text = sweep(["DIR_TD_TD"], [(16, 16), (4, 16)])
        assert csv_text.splitlines()[0] == "kind,K,M,N,cm,latency,delta,increase_pct,status"
        rows = table(csv_text)
        assert rows[0]["latency"] == "2330" and rows[0]["status"] == "ok"
        assert rows[1]["latency"] == "" and rows[1]["status"] == "missing cost entry"
        assert csv_text.splitlines()[1].startswith("DIR_TD_TD,16,16,256,") and csv_text.endswith("\n")

    def test_all_kinds(self):
        rows = table(sweep(list(ARCH_KINDS), [(16, 16)], l=2))
        assert [row["kind"] for row in rows] == list(ARCH_KINDS)


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
