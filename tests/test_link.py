"""Tests for the configured modem: plan reuse, read-only tables, errors, and the AWGN chain."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gfdm_modem import blockio, direct_modem, fft_modem, link
from gfdm_modem.analysis import cm_count
from gfdm_modem.channel import fd_equalize_zf
from gfdm_modem.cli import main
from gfdm_modem.config import RunConfig, emit_config
from gfdm_modem.errors import ConfigError, SingularWindow
from gfdm_modem.numerics import MulCounter, dft
from gfdm_modem.pulses import make_prototype, tx_window, window_pair

TAPS = (1 + 0j, 0.4 - 0.2j, 0.1 + 0.05j)
#: Cost kind of each (arch, domain): the FFT receiver always works in the frequency domain.
KINDS = {
    ("fft", "td"): "FFT_TD_FD",
    ("fft", "fd"): "FFT_FD_FD",
    ("direct", "td"): "DIR_TD_TD",
    ("direct", "fd"): "DIR_FD_FD",
}
ENGINES = [(arch, domain, rx) for arch in ("fft", "direct") for domain in ("td", "fd") for rx in ("zf", "mf")]


def engine_block(cfg, grid, counter):
    """One modulate-equalize-demodulate block built anew by the engines themselves."""
    pulse = make_prototype(cfg.pulse.upper(), cfg.params, cfg.alpha, cfg.delta)
    d, rx = cfg.domain.upper(), cfg.rx.upper()
    if cfg.arch == "fft":
        if d == "TD":
            x = fft_modem.modulate_td(grid, tx_window(pulse, "TD"), counter)
        else:
            x = fft_modem.modulate_fd(grid, tx_window(pulse, "FD"), emit_time=True, counter=counter)
        yf = fd_equalize_zf(x, TAPS, counter=counter)
        return x, fft_modem.demodulate_fd(yf, window_pair(pulse, "FD", rx).w_rx, counter)
    limits = direct_modem.DirectLimits(l_max=cfg.l_max)
    w_rx = window_pair(pulse, d, rx).w_rx
    if d == "TD":
        pset = direct_modem.precompute_td_mod(pulse, limits)
        x = direct_modem.direct_modulate_td(grid, pset, limits, counter)
        yf = fd_equalize_zf(x, TAPS, counter=counter)
        y = dft(yf, inverse=True, counter=counter) / cfg.n
        pset = direct_modem.precompute_td_demod(w_rx, limits)
        return x, direct_modem.direct_demodulate_td(y, pset, limits, counter)
    pset = direct_modem.precompute_fd_mod(pulse, limits, force_full=True)
    x = direct_modem.direct_modulate_fd(grid, pset, limits, emit_time=True, counter=counter)
    yf = fd_equalize_zf(x, TAPS, counter=counter)
    pset = direct_modem.precompute_fd_demod(w_rx, limits, force_full=True)
    return x, direct_modem.direct_demodulate_fd(yf, pset, limits, counter)


def link_block(cfg, grid, counter):
    x = link.modulate_block(cfg, grid, counter=counter)
    yf = fd_equalize_zf(x, TAPS, counter=counter)
    return x, link.demodulate_block(cfg, yf, counter=counter)


def grid_for(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.k, cfg.m)) + 1j * rng.standard_normal((cfg.k, cfg.m))


def plan_arrays(plan):
    return [t.window if isinstance(t, fft_modem.ArchConfig) else t.taps for t in (plan.mod, plan.demod)]


class TestPlanReuse:
    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    def test_a_b_a_sequence_equals_engines(self, arch, domain, rx):
        a = RunConfig(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5, rx=rx, arch=arch, domain=domain)
        b = RunConfig(k=4, m=8, pulse="rrc", alpha=0.3, delta=0.5, rx=rx, arch=arch, domain=domain)
        for i, cfg in enumerate((a, b, a)):
            grid = grid_for(cfg, i)
            got_counter, want_counter = MulCounter(), MulCounter()
            got = link_block(cfg, grid, got_counter)
            want = engine_block(cfg, grid, want_counter)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert link.plan_for(cfg).kind == KINDS[arch, domain]
            assert got_counter.count == want_counter.count == cm_count(KINDS[arch, domain], cfg.k, cfg.m)

    def test_key_ignores_seed_noise_channel_and_framing(self):
        cfg = RunConfig(k=8, m=4, n_cp=4, channel_taps=TAPS, snr_db=10.0, seed=1)
        plan = link.plan_for(cfg)
        same = replace(cfg, seed=2, snr_db=20.0, channel_taps=(1 + 0j,), n_cp=0, n_cs=3)
        assert link.plan_for(same) is plan
        assert link.run_loopback(same).cm_match
        assert link.plan_for(same) is plan

    @pytest.mark.parametrize(
        "field,value",
        [("k", 4), ("m", 8), ("pulse", "rrc"), ("alpha", 0.25), ("delta", 0.0), ("rx", "zf"),
         ("arch", "direct"), ("domain", "fd"), ("k_on", (1, 2)), ("m_on", (0,)), ("l_max", 4)],
    )
    def test_each_modem_field_loads_a_new_plan(self, field, value):
        cfg = RunConfig(k=8, m=4, rx="mf")  # mf: delta=0 leaves the window singular for zf
        plan = link.plan_for(cfg)
        other = link.plan_for(replace(cfg, **{field: value}))
        assert other is not plan
        assert link.plan_for(cfg) is not plan  # one slot: the first plan was replaced

    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    def test_plan_arrays_reject_writes(self, arch, domain, rx):
        plan = link.plan_for(RunConfig(k=8, m=4, rx=rx, arch=arch, domain=domain))
        for arr in plan_arrays(plan):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    def test_outputs_share_no_memory_with_plan(self, arch, domain, rx):
        cfg = RunConfig(k=8, m=4, rx=rx, arch=arch, domain=domain)
        grid = grid_for(cfg, 7)
        first = link_block(cfg, grid, None)
        plan = link.plan_for(cfg)
        for out in first:
            assert not any(np.shares_memory(out, arr) for arr in plan_arrays(plan))
            out[...] = np.nan
        again = link_block(cfg, grid, None)
        want = engine_block(cfg, grid, None)
        assert again[0].tobytes() == want[0].tobytes()
        assert again[1].tobytes() == want[1].tobytes()


class TestPlanErrors:
    def test_singular_zf_raises_every_call_and_keeps_loaded_plan(self):
        good = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4)
        plan = link.plan_for(good)
        singular = RunConfig(k=4, m=4, pulse="rc", alpha=0.0, delta=0.0, rx="zf")
        for _ in range(2):
            with pytest.raises(SingularWindow):
                link.run_loopback(singular)
            with pytest.raises(SingularWindow):
                link.modulate_block(singular, np.zeros((4, 4), dtype=complex))
        assert link.plan_for(good) is plan
        rep = link.run_loopback(good)
        assert rep.ser == 0.0 and rep.cm_match

    def test_cli_modulate_refuses_config_without_zf_receiver(self, tmp_path):
        # The plan holds both directions, so modulate refuses what pulse refuses.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(emit_config(RunConfig(k=4, m=4, alpha=0.0, delta=0.0))))
        symbols = tmp_path / "symbols.bin"
        blockio.write_samples(symbols, np.ones(16, dtype=complex), "bin")
        argv = ["--config", str(cfg), "--in", str(symbols), "--out", str(tmp_path / "x.bin")]
        assert main(["modulate", *argv]) == 3
        assert main(["modulate", *argv, "--arch", "direct"]) == 3
        assert not (tmp_path / "x.bin").exists()

    def test_direct_block_over_n_max_refused_on_every_call(self, tmp_path):
        cfg = RunConfig(k=64, m=64, arch="direct", domain="td")
        for _ in range(2):
            with pytest.raises(ConfigError, match="exceeds the 2048-point FFT limit"):
                link.run_loopback(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(emit_config(cfg)))
        assert main(["loopback", "--config", str(path)]) == 2
        assert main(["loopback", "--config", str(path), "--arch", "fft"]) == 0

    def test_wrong_grid_shape_rejected(self):
        cfg = RunConfig(k=8, m=4)
        with pytest.raises(ConfigError, match="grid shape"):
            link.modulate_block(cfg, np.zeros((4, 8), dtype=complex))


def _q(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestAwgnSer:
    def test_ofdm_qpsk_ser_matches_closed_form(self):
        # OFDM special case (M=1, rectangular pulse): every subcarrier sees the
        # per-sample SNR gamma, and QPSK symbol errors follow 2Q(sqrt g) - Q(sqrt g)^2.
        snr_db, blocks = 6.0, 160
        cfg = RunConfig(k=64, m=1, pulse="rect_td", alpha=0.0, delta=0.0, rx="zf", snr_db=snr_db)
        errors = symbols = 0
        for seed in range(blocks):
            rep = link.run_loopback(replace(cfg, seed=seed))
            assert rep.cm_match
            errors += round(rep.ser * rep.n_symbols)
            symbols += rep.n_symbols
        q = _q(math.sqrt(10.0 ** (snr_db / 10.0)))
        p = 2 * q - q * q
        sigma = math.sqrt(p * (1 - p) / symbols)
        assert symbols >= 10_000
        assert abs(errors / symbols - p) <= 4 * sigma
