"""Tests for the configured modem: waveform and plan reuse, read-only tables, errors, and the AWGN chain."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfdm_modem import blockio, channel, direct_modem, fft_modem, link, pulses
from gfdm_modem.analysis import cm_count
from gfdm_modem.channel import fd_equalize_zf
from gfdm_modem.cli import main
from gfdm_modem.config import RunConfig, emit_config
from gfdm_modem.errors import ChainLimitExceeded, ConfigError, GfdmError, OverlapTooLarge, SingularWindow
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
        table = direct_modem.precompute_td_mod(tx_window(pulse, "TD"), limits)
        x = direct_modem.direct_modulate_td(grid, table, counter)
        yf = fd_equalize_zf(x, TAPS, counter=counter)
        y = dft(yf, inverse=True, counter=counter) / cfg.n
        table = direct_modem.precompute_td_demod(w_rx, limits)
        return x, direct_modem.direct_demodulate_td(y, table, counter)
    table = direct_modem.precompute_fd_mod(tx_window(pulse, "FD"), limits, force_full=True)
    x = direct_modem.direct_modulate_fd(grid, table, emit_time=True, counter=counter)
    yf = fd_equalize_zf(x, TAPS, counter=counter)
    table = direct_modem.precompute_fd_demod(w_rx, limits, force_full=True)
    return x, direct_modem.direct_demodulate_fd(yf, table, counter)


def link_block(cfg, grid, counter):
    x = link.modulate_block(cfg, grid, counter=counter)
    yf = fd_equalize_zf(x, TAPS, counter=counter)
    return x, link.demodulate_block(cfg, yf, counter=counter)


def grid_for(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((cfg.k, cfg.m)) + 1j * rng.standard_normal((cfg.k, cfg.m))


def plan_arrays(plan):
    return [t.window for t in (plan.mod, plan.demod)]


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


@pytest.fixture
def builds(monkeypatch):
    """Counts of pulse syntheses and of Zak transforms (each transmit window is one)."""
    count = {"make_prototype": 0, "zak": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def call(*args, **kwargs):
            count[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(link, "make_prototype", "make_prototype")
    counted(pulses, "zak_time", "zak")
    counted(pulses, "zak_freq", "zak")
    return count


def waveform_arrays(wave):
    return [wave.pulse.time, wave.pulse.freq, wave.w_td, wave.w_fd]


#: Configurations on three waveforms (the last differs from the first only in k_on),
#: each under every engine, domain and receiver and two chain budgets.
WAVE_POOL = [
    RunConfig(**wave, rx=rx, arch=arch, domain=domain, l_max=l_max, channel_taps=TAPS, n_cp=4)
    for wave in (dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5),
                 dict(k=4, m=8, pulse="rrc", alpha=0.3, delta=0.5),
                 dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5, k_on=(1, 2, 3)))
    for arch, domain, rx in ENGINES
    for l_max in (8, 16)
]


def assert_block_matches_engines(cfg, seed, builds=None):
    """Link block equals fresh engine builds; returns the ``builds`` counts the link itself spent."""
    grid = grid_for(cfg, seed)
    got_counter, want_counter = MulCounter(), MulCounter()
    before = dict(builds or {})
    got = link_block(cfg, grid, got_counter)
    spent = {name: builds[name] - n for name, n in before.items()}
    want = engine_block(cfg, grid, want_counter)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got_counter.count == want_counter.count == cm_count(KINDS[cfg.arch, cfg.domain], cfg.k, cfg.m)
    return spent


class TestWaveformReuse:
    def test_engine_domain_rx_and_l_max_switches_keep_the_waveform(self, builds):
        link.plan_for(RunConfig(k=4, m=4, rx="mf"))  # load another waveform first
        base = RunConfig(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5, channel_taps=TAPS, n_cp=4)
        seq = [replace(base, arch=arch, domain=domain, rx=rx, l_max=l_max)
               for l_max in (16, 8) for arch, domain, rx in ENGINES]
        spent = [assert_block_matches_engines(cfg, i, builds) for i, cfg in enumerate(seq + seq[::-1])]
        assert spent[0] == {"make_prototype": 1, "zak": 2}  # one pulse, its TD and FD windows
        assert all(s == {"make_prototype": 0, "zak": 0} for s in spent[1:])

    @pytest.mark.parametrize(
        "field,value,new_pulse",
        [("k", 4, True), ("m", 8, True), ("pulse", "rrc", True), ("alpha", 0.25, True),
         ("delta", 0.0, True), ("k_on", (1, 2), True), ("m_on", (0,), True),
         ("rx", "zf", False), ("arch", "direct", False), ("domain", "fd", False), ("l_max", 4, False)],
    )
    def test_each_waveform_field_loads_a_new_pulse(self, builds, field, value, new_pulse):
        cfg = RunConfig(k=8, m=4, rx="mf")  # mf: delta=0 leaves the window singular for zf
        link.plan_for(cfg)
        wave = link.waveform_for(cfg)
        before = dict(builds)
        other = replace(cfg, **{field: value})
        link.plan_for(other)
        assert builds["make_prototype"] - before["make_prototype"] == int(new_pulse)
        assert builds["zak"] - before["zak"] == 2 * int(new_pulse)
        assert (link.waveform_for(other) is not wave) == new_pulse
        pulse = link.waveform_for(other).pulse
        assert (pulse.kind, pulse.params, pulse.alpha, pulse.delta) == (
            other.pulse.upper(), other.params, other.alpha, other.delta)

    @pytest.mark.parametrize(
        "first,second",
        [(dict(k_on=(1, 2)), dict(k_on=(2, 1))), (dict(k_on=None), dict(k_on=tuple(range(8)))),
         (dict(m_on=(3, 0, 3)), dict(m_on=(0, 3))), (dict(m_on=None), dict(m_on=(3, 2, 1, 0)))],
    )
    def test_equal_active_sets_share_waveform_and_plan(self, builds, first, second):
        a, b = RunConfig(k=8, m=4, **first), RunConfig(k=8, m=4, **second)
        assert a.params == b.params
        plan, wave = link.plan_for(a), link.waveform_for(a)
        before = dict(builds)
        assert link.plan_for(b) is plan and link.waveform_for(b) is wave
        assert link.plan_for(a) is plan
        assert builds == before

    @pytest.mark.parametrize("first,second", [("RC", "rc"), ("rrc", "RRC"), ("Rect_TD", "rect_td")])
    def test_pulse_kind_in_any_case_shares_waveform_and_plan(self, builds, first, second):
        a = RunConfig(k=8, m=4, pulse=first, alpha=0.0, delta=0.0, rx="mf")
        b = replace(a, pulse=second)
        plan, wave = link.plan_for(a), link.waveform_for(a)
        before = dict(builds)
        assert link.plan_for(b) is plan and link.waveform_for(b) is wave
        assert link.run_loopback(b) == link.run_loopback(a)
        assert builds == before

    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    def test_waveform_arrays_reject_writes_and_share_no_memory_with_outputs(self, arch, domain, rx):
        cfg = RunConfig(k=8, m=4, rx=rx, arch=arch, domain=domain)
        outputs = link_block(cfg, grid_for(cfg, 3), None)
        wave = link.waveform_for(cfg)
        for arr in waveform_arrays(wave):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
            assert not any(np.shares_memory(out, arr) for out in outputs)

    def test_singular_zf_on_a_new_waveform_raises_twice_and_keeps_plans(self, builds):
        good = RunConfig(k=4, m=4, pulse="rc", alpha=0.5, delta=0.5, channel_taps=TAPS, n_cp=4)
        plan = link.plan_for(good)
        singular = RunConfig(k=4, m=4, pulse="rc", alpha=0.0, delta=0.0, rx="zf", channel_taps=TAPS, n_cp=4)
        before = builds["make_prototype"]
        for _ in range(2):
            with pytest.raises(SingularWindow):
                link.run_loopback(singular)
        assert builds["make_prototype"] == before + 1  # the valid waveform stays loaded
        assert link.plan_for(good) is plan
        rep = link.run_loopback(good)
        assert rep.ser == 0.0 and rep.cm_match
        # A good configuration on either waveform still builds and runs.
        for cfg in (replace(singular, rx="mf"), replace(singular, rx="mf", arch="direct"),
                    replace(good, domain="fd")):
            assert_block_matches_engines(cfg, 5)

    def test_failed_waveform_build_raises_twice_and_keeps_both_slots(self):
        good = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4)
        plan, wave = link.plan_for(good), link.waveform_for(good)
        bad = RunConfig(k=1, m=4, pulse="rc")  # the raised-cosine grid needs K >= 2
        for _ in range(2):
            with pytest.raises(ConfigError, match="needs K >= 2"):
                link.run_loopback(bad)
            with pytest.raises(ConfigError, match="needs K >= 2"):
                link.waveform_for(bad)
        assert link.waveform_for(good) is wave and link.plan_for(good) is plan
        assert_block_matches_engines(replace(good, arch="direct", rx="mf"), 6)

    @given(st.lists(st.sampled_from(WAVE_POOL), min_size=1, max_size=10))
    def test_any_order_equals_fresh_builds(self, seq):
        for i, cfg in enumerate(seq):
            assert_block_matches_engines(cfg, i)


#: Four waveforms: two valid ones, one whose zero-forcing window is singular (delta=0), and
#: one whose direct tables need 16 chains; with l_max 4 or 16 most refusals are reachable.
WAVES = [dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5), dict(k=4, m=8, pulse="rrc", alpha=0.3, delta=0.5),
         dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.0), dict(k=16, m=16, pulse="rc", alpha=0.5, delta=0.5)]

#: One field switched per step: receiver, engine, domain, chain budget or waveform.
SWITCHES = st.one_of(
    st.tuples(st.just("rx"), st.sampled_from(["zf", "mf"])),
    st.tuples(st.just("arch"), st.sampled_from(["fft", "direct"])),
    st.tuples(st.just("domain"), st.sampled_from(["td", "fd"])),
    st.tuples(st.just("l_max"), st.sampled_from([4, 16])),
    st.tuples(st.just("wave"), st.integers(0, len(WAVES) - 1)),
)


def block_outcome(cfg, seed):
    """Both outputs, the counter and the loopback report of one link block, or the refusal's type and text."""
    counter = MulCounter()
    try:
        x, grid_hat = link_block(cfg, grid_for(cfg, seed), counter)
        report = link.run_loopback(replace(cfg, seed=seed))
    except GfdmError as exc:
        return type(exc), str(exc)
    return x.tobytes(), grid_hat.tobytes(), counter.count, report


def fresh_outcome(cfg, seed):
    """``block_outcome`` with every link builder emptied first, so each table is built anew."""
    for builder in (link._waveform, link._mod_table, link._demod_table, link._plan):
        builder.cache_clear()
    return block_outcome(cfg, seed)


@pytest.fixture
def table_builds(monkeypatch):
    """Counts of the modulator and demodulator table builds: FFT presets and direct precomputes."""
    count = {"mod": 0, "demod": 0}

    def counted(module, name, role):
        original = getattr(module, name)

        def call(*args, **kwargs):
            count[role(args)] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in ("td_mod", "fd_mod", "td_demod", "fd_demod"):
        counted(direct_modem, f"precompute_{name}", lambda args, role=name[3:]: role)
    counted(fft_modem, "preset", lambda args: "demod" if args[0].endswith("DEMOD") else "mod")
    return count


class TestTableReuse:
    """A new plan takes each held table whose inputs it shares and builds only the others."""

    @given(st.integers(0, len(WAVES) - 1), st.sampled_from(ENGINES), st.sampled_from([4, 16]),
           st.lists(SWITCHES, max_size=12))
    def test_any_switch_sequence_equals_fresh_slots(self, wave, engine, l_max, switches):
        arch, domain, rx = engine
        cfg = RunConfig(**WAVES[wave], rx=rx, arch=arch, domain=domain, l_max=l_max, channel_taps=TAPS, n_cp=4)
        seq = []
        for field, value in [("wave", wave), *switches]:
            cfg = replace(cfg, **(WAVES[value] if field == "wave" else {field: value}))
            seq.append(cfg)
        # The whole held sequence first: emptying the builders must not disturb it.
        held = [block_outcome(cfg, i) for i, cfg in enumerate(seq)]
        assert held == [fresh_outcome(cfg, i) for i, cfg in enumerate(seq)]

    @pytest.mark.parametrize("arch,domain", [(arch, domain) for arch in ("fft", "direct") for domain in ("td", "fd")])
    def test_rx_switch_keeps_the_modulator(self, table_builds, arch, domain):
        zf = RunConfig(k=8, m=4, arch=arch, domain=domain)
        plan = link.plan_for(zf)
        before = dict(table_builds)
        mf = link.plan_for(replace(zf, rx="mf"))
        assert mf is not plan and mf.mod is plan.mod and mf.demod is not plan.demod
        assert table_builds == {"mod": before["mod"], "demod": before["demod"] + 1}
        assert link.plan_for(zf).mod is plan.mod  # and back

    @pytest.mark.parametrize("rx", ["zf", "mf"])
    def test_fft_domain_switch_keeps_the_fd_demodulator(self, table_builds, rx):
        td = RunConfig(k=8, m=4, rx=rx, arch="fft", domain="td")
        plan = link.plan_for(td)
        before = dict(table_builds)
        fd = link.plan_for(replace(td, domain="fd"))
        assert fd.kind == "FFT_FD_FD" and fd.mod.mode == "FD_MOD"
        assert fd.demod is plan.demod and fd.mod is not plan.mod
        assert table_builds == {"mod": before["mod"] + 1, "demod": before["demod"]}

    def test_fft_chain_budget_switch_keeps_both_tables(self, table_builds):
        cfg = RunConfig(k=8, m=4, arch="fft")
        plan = link.plan_for(cfg)
        before = dict(table_builds)
        other = link.plan_for(replace(cfg, l_max=4))
        assert other is not plan and (other.mod, other.demod) == (plan.mod, plan.demod)
        assert table_builds == before

    @pytest.mark.parametrize("base,field,value", [
        (dict(arch="direct"), "domain", "fd"), (dict(arch="direct", domain="fd"), "domain", "td"),
        (dict(arch="direct"), "l_max", 8), (dict(), "arch", "direct"), (dict(domain="fd"), "arch", "direct"),
        (dict(), "k", 4), (dict(arch="direct"), "alpha", 0.25), (dict(rx="mf"), "delta", 0.0),
    ])
    def test_other_switches_build_both_tables(self, table_builds, base, field, value):
        cfg = RunConfig(k=8, m=4, **base)
        plan = link.plan_for(cfg)
        before = dict(table_builds)
        other = link.plan_for(replace(cfg, **{field: value}))
        assert other.mod is not plan.mod and other.demod is not plan.demod
        assert table_builds == {"mod": before["mod"] + 1, "demod": before["demod"] + 1}

    @pytest.mark.parametrize("arch,domain", [(arch, domain) for arch in ("fft", "direct") for domain in ("td", "fd")])
    def test_refused_demodulator_after_rx_switch_leaves_the_held_plan(self, arch, domain):
        # delta=0: the matched filter builds, the zero-forcing window is singular.
        mf = RunConfig(k=8, m=4, delta=0.0, rx="mf", arch=arch, domain=domain, channel_taps=TAPS, n_cp=4)
        plan = link.plan_for(mf)
        for _ in range(2):
            with pytest.raises(SingularWindow):
                link.plan_for(replace(mf, rx="zf"))
            assert link.plan_for(mf) is plan
        assert block_outcome(mf, 3) == fresh_outcome(mf, 3)

    def test_loopback_checks_the_channel_taps_once_per_block(self, monkeypatch):
        cfg = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4, snr_db=20.0)
        want = link.run_loopback(cfg)  # loads the plan and the channel response
        calls = []
        check = channel.check_taps
        monkeypatch.setattr(channel, "check_taps", lambda taps: calls.append(taps) or check(taps))
        assert link.run_loopback(cfg) == want
        assert len(calls) == 1


class TestPrecomputeNames:
    """Every direct table is built through a public ``direct_modem.precompute_*`` name, which a tracer wraps."""

    @pytest.mark.parametrize("domain", ["td", "fd"])
    def test_direct_plan_build_calls_the_names_once_per_table(self, monkeypatch, domain):
        calls = []

        def counted(name, label):
            original = getattr(direct_modem, name)

            def call(*args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)
            monkeypatch.setattr(direct_modem, name, call)

        for name in ("td_mod", "fd_mod", "td_demod", "fd_demod"):
            counted(f"precompute_{name}", name)
        counted("_chain_table", "rule")
        for builder in (link._waveform, link._mod_table, link._demod_table, link._plan):
            builder.cache_clear()
        cfg = RunConfig(k=8, m=4, arch="direct", domain=domain, channel_taps=TAPS, n_cp=4)
        assert link.run_loopback(cfg).cm_match
        assert calls == [f"{domain}_mod", "rule", f"{domain}_demod", "rule"]
        link.run_loopback(cfg)  # the held plan builds nothing
        assert len(calls) == 4


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

    @pytest.mark.parametrize("arch", ["fft", "direct"])
    def test_finite_input_that_overflows_raises(self, arch):
        # Finite taps and samples whose products overflow used to return nmse=nan and nan blocks.
        before = np.geterr()
        cfg = RunConfig(k=4, m=8, arch=arch)
        with pytest.raises(FloatingPointError):
            link.run_loopback(replace(cfg, channel_taps=(1e308 + 1e308j,)))
        with pytest.raises(FloatingPointError):
            link.modulate_block(cfg, np.full((4, 8), 1e308 + 1e308j))
        with pytest.raises(FloatingPointError):
            link.demodulate_block(cfg, np.full(32, 1e308 + 0j))
        assert np.geterr() == before
        assert link.run_loopback(cfg).ser == 0.0


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


class TestChainLimitAtPlanBuild:
    def test_too_many_chains_refused_every_call_and_keeps_loaded_plan(self, tmp_path):
        # The chain count is checked when the tables are built, so the refused
        # configuration never replaces the held plan.
        good = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4)
        plan = link.plan_for(good)
        over = RunConfig(k=8, m=32, arch="direct", domain="td", l_max=16)
        for _ in range(2):
            with pytest.raises(ChainLimitExceeded, match="32 chains needed, only 16 available"):
                link.run_loopback(over)
            assert link.plan_for(good) is plan
        path = tmp_path / "config.json"
        path.write_text(json.dumps(emit_config(over)))
        assert main(["loopback", "--config", str(path)]) == 2
        assert link.plan_for(good) is plan
        assert main(["loopback", "--config", str(path), "--arch", "fft"]) == 0

    @pytest.mark.parametrize("domain", ["td", "fd"])
    def test_block_length_refused_before_chain_count(self, domain):
        # 64 chains against l_max=16, but the 4096-point block is refused first.
        cfg = RunConfig(k=64, m=64, arch="direct", domain=domain, l_max=16)
        with pytest.raises(ConfigError, match="^block length 4096 exceeds the 2048-point FFT limit$"):
            link.plan_for(cfg)

    @pytest.mark.parametrize("domain,error,message", [
        ("td", ChainLimitExceeded, "^32 chains needed, only 16 available$"),
        ("fd", OverlapTooLarge, "^pulse occupies 32 subcarrier bands, only 16 chains available$"),
    ])
    def test_modulator_chain_count_refused_before_receive_window(self, domain, error, message):
        # delta=0 makes the zero-forcing window singular too; the modulator's table is built first.
        cfg = RunConfig(k=32, m=32, delta=0.0, arch="direct", domain=domain, l_max=16)
        with pytest.raises(SingularWindow):
            link.plan_for(replace(cfg, arch="fft"))
        with pytest.raises(error, match=message):
            link.plan_for(cfg)
