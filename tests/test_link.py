"""Tests for the configured modem: waveform and plan reuse, read-only tables, errors, and the AWGN chain."""

import functools
import importlib
import json
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gfdm_modem
from gfdm_modem import blockio, channel, direct_modem, fft_modem, link, pulses
from gfdm_modem.analysis import cm_count
from gfdm_modem.channel import ChannelSpec, fd_equalize_zf
from gfdm_modem.cli import main
from gfdm_modem.config import RunConfig
from gfdm_modem.errors import ChainLimitExceeded, ConfigError, GfdmError, SingularChannel, SingularWindow
from gfdm_modem.numerics import HELD_BYTES, Held, MulCounter, dft
from gfdm_modem.pulses import make_prototype, rx_window, tx_window

from configs import clear_builders, emit_config

TAPS = (1 + 0j, 0.4 - 0.2j, 0.1 + 0.05j)
SPEC = ChannelSpec(TAPS)
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
            x = fft_modem.modulate_fd(grid, tx_window(pulse, "FD"), counter)
        yf = fd_equalize_zf(x, SPEC, counter=counter)
        return x, fft_modem.demodulate_fd(yf, rx_window(tx_window(pulse, "FD"), rx), counter)
    l_max = cfg.l_max
    w_rx = rx_window(tx_window(pulse, d), rx)
    if d == "TD":
        table = direct_modem.precompute_td_mod(tx_window(pulse, "TD"), l_max)
        x = direct_modem.direct_modulate_td(grid, table, counter)
        yf = fd_equalize_zf(x, SPEC, counter=counter)
        y = dft(yf, inverse=True, counter=counter) / cfg.n
        table = direct_modem.precompute_td_demod(w_rx, l_max)
        return x, direct_modem.direct_demodulate_td(y, table, counter)
    table = direct_modem.precompute_fd_mod(tx_window(pulse, "FD"), l_max, force_full=True)
    x = direct_modem.direct_modulate_fd(grid, table, counter)
    yf = fd_equalize_zf(x, SPEC, counter=counter)
    table = direct_modem.precompute_fd_demod(w_rx, l_max, force_full=True)
    return x, direct_modem.direct_demodulate_fd(yf, table, counter)


def link_block(cfg, grid, counter):
    x = link.modulate_block(cfg, grid, counter=counter)
    yf = fd_equalize_zf(x, SPEC, counter=counter)
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
    """Counts of the link's pulse syntheses and transmit windows."""
    count = {"make_prototype": 0, "tx_window": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def call(*args, **kwargs):
            count[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(link, "make_prototype", "make_prototype")
    counted(link, "tx_window", "tx_window")
    return count


def held_windows(cfg):
    """The held ``(params, w_td, w_fd)`` of ``cfg``'s waveform key (built if it is not held)."""
    return link._windows(cfg.params, cfg.pulse.upper(), cfg.alpha, cfg.delta)


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
        clear_builders()  # nothing held: the first block builds the waveform
        base = RunConfig(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5, channel_taps=TAPS, n_cp=4)
        seq = [replace(base, arch=arch, domain=domain, rx=rx, l_max=l_max)
               for l_max in (16, 8) for arch, domain, rx in ENGINES]
        spent = [assert_block_matches_engines(cfg, i, builds) for i, cfg in enumerate(seq + seq[::-1])]
        assert spent[0] == {"make_prototype": 1, "tx_window": 2}  # one pulse, its TD and FD windows
        assert all(s == {"make_prototype": 0, "tx_window": 0} for s in spent[1:])

    @pytest.mark.parametrize(
        "field,value,new_pulse",
        [("k", 4, True), ("m", 8, True), ("pulse", "rrc", True), ("alpha", 0.25, True),
         ("delta", 0.0, True), ("k_on", (1, 2), True), ("m_on", (0,), True),
         ("rx", "zf", False), ("arch", "direct", False), ("domain", "fd", False), ("l_max", 4, False)],
    )
    def test_each_waveform_field_loads_a_new_pulse(self, builds, field, value, new_pulse):
        cfg = RunConfig(k=8, m=4, rx="mf")  # mf: delta=0 leaves the window singular for zf
        clear_builders()  # so the other waveform's windows are not held
        link.plan_for(cfg)
        wave = held_windows(cfg)
        before = dict(builds)
        other = replace(cfg, **{field: value})
        link.plan_for(other)
        assert builds["make_prototype"] - before["make_prototype"] == int(new_pulse)
        assert builds["tx_window"] - before["tx_window"] == 2 * int(new_pulse)
        assert (held_windows(other) is not wave) == new_pulse
        params, w_td, w_fd = held_windows(other)
        pulse = make_prototype(other.pulse.upper(), other.params, other.alpha, other.delta)
        assert (pulse.kind, pulse.params, pulse.alpha, pulse.delta) == (
            other.pulse.upper(), params, other.alpha, other.delta)
        assert (w_td.tobytes(), w_fd.tobytes()) == (tx_window(pulse, "TD").tobytes(), tx_window(pulse, "FD").tobytes())

    @pytest.mark.parametrize(
        "first,second",
        [(dict(k_on=(1, 2)), dict(k_on=(2, 1))), (dict(k_on=None), dict(k_on=tuple(range(8)))),
         (dict(m_on=(3, 0, 3)), dict(m_on=(0, 3))), (dict(m_on=None), dict(m_on=(3, 2, 1, 0)))],
    )
    def test_equal_active_sets_share_waveform_and_plan(self, builds, first, second):
        a, b = RunConfig(k=8, m=4, **first), RunConfig(k=8, m=4, **second)
        assert a.params == b.params and a == b and hash(a) == hash(b)
        plan, wave = link.plan_for(a), held_windows(a)
        before = dict(builds)
        assert link.plan_for(b) is plan and held_windows(b) is wave
        assert link.plan_for(a) is plan
        assert builds == before

    @pytest.mark.parametrize("first,second", [("RC", "rc"), ("rrc", "RRC"), ("Rect_TD", "rect_td"), ("DIRICHLET", "Dirichlet")])
    def test_pulse_kind_in_any_case_shares_waveform_and_plan(self, builds, first, second):
        a = RunConfig(k=8, m=4, pulse=first, alpha=0.0, delta=0.0, rx="mf")
        b = replace(a, pulse=second)
        assert a == b and hash(a) == hash(b) and a.pulse == b.pulse == second.lower()
        plan, wave = link.plan_for(a), held_windows(a)
        before = dict(builds)
        assert link.plan_for(b) is plan and held_windows(b) is wave
        assert link.run_loopback(b) == link.run_loopback(a)
        assert builds == before

    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    def test_waveform_arrays_reject_writes_and_share_no_memory_with_outputs(self, arch, domain, rx):
        cfg = RunConfig(k=8, m=4, rx=rx, arch=arch, domain=domain)
        outputs = link_block(cfg, grid_for(cfg, 3), None)
        _, *windows = held_windows(cfg)
        for arr in windows:
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
        plan, wave = link.plan_for(good), held_windows(good)
        bad = RunConfig(k=1, m=4, pulse="rc")  # the raised-cosine grid needs K >= 2
        for _ in range(2):
            with pytest.raises(ConfigError, match="needs K >= 2"):
                link.run_loopback(bad)
            with pytest.raises(ConfigError, match="needs K >= 2"):
                held_windows(bad)
        assert held_windows(good) is wave and link.plan_for(good) is plan
        assert_block_matches_engines(replace(good, arch="direct", rx="mf"), 6)

    @given(st.lists(st.sampled_from(WAVE_POOL), min_size=1, max_size=10))
    def test_any_order_equals_fresh_builds(self, seq):
        for i, cfg in enumerate(seq):
            assert_block_matches_engines(cfg, i)


#: Four waveforms: two valid ones, one whose zero-forcing window is singular (delta=0), and
#: one whose direct tables need 16 chains; with l_max 4 or 16 most refusals are reachable.
WAVES = [dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5), dict(k=4, m=8, pulse="rrc", alpha=0.3, delta=0.5),
         dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.0), dict(k=16, m=16, pulse="rc", alpha=0.5, delta=0.5)]

#: One field switched per step: receiver, engine, domain, chain budget, waveform or channel.
SWITCHES = st.one_of(
    st.tuples(st.just("rx"), st.sampled_from(["zf", "mf"])),
    st.tuples(st.just("arch"), st.sampled_from(["fft", "direct"])),
    st.tuples(st.just("domain"), st.sampled_from(["td", "fd"])),
    st.tuples(st.just("l_max"), st.sampled_from([4, 16])),
    st.tuples(st.just("wave"), st.integers(0, len(WAVES) - 1)),
    st.tuples(st.just("channel_taps"), st.sampled_from([TAPS, (1 + 0j,), (0.5j, 0.25)])),
    st.tuples(st.just("snr_db"), st.sampled_from([math.inf, 20.0])),
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


def fresh_loopback(cfg):
    """``link.run_loopback`` with every held table emptied first."""
    clear_builders()
    return link.run_loopback(cfg)


def fresh_outcome(cfg, seed):
    """``block_outcome`` with every held table emptied first."""
    clear_builders()
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
    """A new plan builds both its tables from the held windows, and equals a fresh build."""

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

    @pytest.mark.parametrize("base,field,value", [
        (dict(arch="direct"), "domain", "fd"), (dict(arch="direct", domain="fd"), "domain", "td"),
        (dict(arch="direct"), "l_max", 8), (dict(), "arch", "direct"), (dict(domain="fd"), "arch", "direct"),
        (dict(), "k", 4), (dict(arch="direct"), "alpha", 0.25), (dict(rx="mf"), "delta", 0.0),
        # The plan is the one holder of a configuration's tables, so a switch that shares a table's
        # inputs builds it again too: a receiver switch (the modulator's), an FFT domain switch (the
        # demodulator's) or an FFT chain budget switch (both).
        *((dict(arch=arch, domain=domain), "rx", "mf") for arch in ("fft", "direct") for domain in ("td", "fd")),
        (dict(), "domain", "fd"), (dict(rx="mf"), "domain", "fd"), (dict(), "l_max", 4),
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

    def test_a_new_seed_runs_no_channel_rule_and_draws_that_seeds_noise(self, monkeypatch):
        cfg = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4, snr_db=10.0, seed=1)
        link.run_loopback(cfg)  # holds the plan and the channel response
        other, calls, draws = replace(cfg, seed=np.uint16(7)), [], []
        for name in ("check_taps", "check_snr_db"):
            monkeypatch.setattr(channel, name, lambda *a, name=name: calls.append(name))
        apply = channel.apply_channel
        monkeypatch.setattr(channel, "apply_channel", lambda *a: draws.append((*a, apply(*a))) or draws[-1][-1])
        link.run_loopback(other)
        monkeypatch.undo()
        assert calls == []
        [(framed, spec, seed, received)] = draws
        assert spec is other.channel and type(seed) is int and seed == 7
        want = channel.apply_channel(framed, channel.ChannelSpec(TAPS, 10.0), 7)
        assert received.tobytes() == want.tobytes()

    @pytest.mark.parametrize("taps", [[1 + 0j, 0.4 - 0.2j], np.array([1 + 0j, 0.4 - 0.2j])], ids=["list", "array"])
    def test_taps_given_as_a_list_or_array_are_held_as_a_tuple(self, taps):
        cfg = RunConfig(k=8, m=4, channel_taps=taps, n_cp=4, snr_db=20.0)
        assert type(cfg.channel_taps) is tuple and cfg.channel_taps == (1 + 0j, 0.4 - 0.2j)
        assert link.run_loopback(cfg) == fresh_loopback(replace(cfg, channel_taps=(1 + 0j, 0.4 - 0.2j)))

    def test_taps_beyond_int64_run_as_runconfig_accepted_them(self):
        # numpy makes an object array of (2**70, 1); the tuple RunConfig checked converts directly.
        cfg = RunConfig(k=8, m=4, channel_taps=(2**70, 1), n_cp=4)
        report = link.run_loopback(cfg)
        assert report.cm_match and report.ser == 0.0
        assert np.array_equal(cfg.channel.taps, [2.0**70, 1.0])

    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    @pytest.mark.parametrize("k,m", [(8, 4), (2, 64), (64, 2), (16, 16)])
    def test_plan_holds_the_closed_form_count(self, arch, domain, rx, k, m):
        cfg = RunConfig(k=k, m=m, arch=arch, domain=domain, rx=rx, l_max=64)
        plan = link.plan_for(cfg)
        assert plan.formula_cm == cm_count(KINDS[arch, domain], k, m)
        assert link.run_loopback(cfg).formula_cm == plan.formula_cm

    @given(st.sampled_from(sorted(KINDS)), st.integers(1, 6), st.integers(1, 5))  # N <= MAX_DIRECT_N
    def test_held_count_equals_the_closed_form_over_drawn_geometries(self, engine, log2k, log2m):
        (arch, domain), k, m = engine, 2**log2k, 2**log2m
        plan = link.plan_for(RunConfig(k=k, m=m, arch=arch, domain=domain, rx="mf", l_max=64))
        assert plan.formula_cm == cm_count(KINDS[engine], k, m)


#: Six waveforms on six geometries, N from 32 to 2048, each valid for every engine with ``l_max = 64``.
ROTATION = [dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5), dict(k=4, m=8, pulse="rrc", alpha=0.3, delta=0.5),
            dict(k=2, m=64, pulse="rc", alpha=0.5, delta=0.5), dict(k=16, m=16, pulse="rrc", alpha=0.5, delta=0.5),
            dict(k=32, m=32, pulse="rc", alpha=0.25, delta=0.5), dict(k=32, m=64, pulse="rc", alpha=0.5, delta=0.5)]


def held_entries(store):
    """The entries of a ``numerics.Held`` store, least recently used first, and its byte count."""
    return list(store._entries.items()), store.nbytes


class TestHeldStores:
    """The per-geometry stores: ``link._windows`` (transmit windows) and ``channel._response``."""

    @given(st.permutations(range(len(ROTATION))), st.lists(st.sampled_from(ENGINES), min_size=12, max_size=12))
    def test_a_rotation_equals_fresh_builds_and_synthesizes_each_pulse_once(self, order, engines):
        clear_builders()
        built = []
        with pytest.MonkeyPatch.context() as mp:
            make = link.make_prototype
            mp.setattr(link, "make_prototype", lambda *a: built.append((a[1].k, a[1].m)) or make(*a))
            for i, (arch, domain, rx) in enumerate(engines):  # every geometry twice, in the drawn order
                wave = ROTATION[order[i % len(order)]]
                cfg = RunConfig(**wave, arch=arch, domain=domain, rx=rx, l_max=64, channel_taps=TAPS, n_cp=4)
                assert_block_matches_engines(cfg, i)  # bit for bit, and counter == cm_count
        assert sorted(built) == sorted((w["k"], w["m"]) for w in ROTATION)  # one pulse per geometry

    def test_two_half_budget_entries_fit_a_third_evicts_the_least_recent_and_a_larger_one_is_held_alone(
            self, builds):
        assert HELD_BYTES == 2 * 512 * 1024
        clear_builders()
        store = link._windows
        half = RunConfig(k=128, m=128, rx="mf")  # N = 2**14: windows of 2 * N * 16 bytes = 512 KiB
        a, b, c = (replace(half, alpha=alpha) for alpha in (0.5, 0.25, 0.75))
        big = RunConfig(k=256, m=256, rx="mf")  # N = 2**16: 2 MiB, over the budget
        steps = [(a, 1, 1), (b, 2, 2), (a, 2, 2), (c, 3, 2), (a, 3, 2), (b, 4, 2), (big, 5, 1), (a, 6, 1)]
        for cfg, windows_built, held in steps:
            link.plan_for(cfg)
            entry = 2 * cfg.n * 16
            assert (builds["tx_window"], len(store)) == (2 * windows_built, held)  # two windows per build
            assert store.nbytes == held * entry <= max(HELD_BYTES, entry)

    def test_failed_builds_raise_on_every_call_and_leave_the_stores_unchanged(self):
        good = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4)
        link.run_loopback(replace(good, m=8))  # another block length, so another response
        link.run_loopback(good)  # its plan stays loaded, so the runs below use no held entry
        before = held_entries(link._windows), held_entries(channel._response)
        assert len(before[0][0]) >= 2 and len(before[1][0]) >= 2
        bad = RunConfig(k=1, m=4, pulse="rc")  # the raised-cosine grid needs K >= 2
        for _ in range(2):
            with pytest.raises(ConfigError, match="needs K >= 2"):
                link.plan_for(bad)
            with pytest.raises(SingularChannel):
                link.run_loopback(replace(good, channel_taps=(1 + 0j, -1 + 0j)))  # a null bin at DC
        assert (held_entries(link._windows), held_entries(channel._response)) == before

    @pytest.mark.parametrize("arch,domain,rx", ENGINES)
    def test_held_windows_are_read_only_own_their_bytes_and_hold_no_pulse(self, arch, domain, rx):
        clear_builders()
        configs = [RunConfig(**wave, arch=arch, domain=domain, rx=rx, l_max=64) for wave in ROTATION]
        outputs = [out for i, cfg in enumerate(configs) for out in link_block(cfg, grid_for(cfg, i), None)]
        assert link._windows.nbytes == sum(2 * cfg.n * 16 for cfg in configs)
        for cfg in configs:
            params, *windows = link._windows(cfg.params, cfg.pulse.upper(), cfg.alpha, cfg.delta)
            assert params == cfg.params and params is link.plan_for(cfg).params
            for w in windows:
                assert w.shape == (cfg.k, cfg.m) and w.dtype == np.complex128 and not w.flags.writeable
                with pytest.raises(ValueError):
                    w[0, 0] = 1.0
                assert not any(np.shares_memory(out, w) for out in outputs)


#: Every module-level ``Held`` store and ``functools`` cache in ``gfdm_modem``, whether it is
#: bounded (``configs.clear_builders`` empties those) and why it is held.  Cycle costs are of
#: dropping the holder: median ratio of 40 alternating in-process clean-mix cycle pairs, 2-core Xeon.
HOLDERS = {
    "channel._response": (True, "equalizer channel responses per taps and N, bounded by HELD_BYTES"),
    "link._windows": (True, "transmit windows per waveform key: a rotation synthesizes each pulse once"),
    "link._plan": (True, "the last configuration's plan, the one holder of its tables"),
    "numerics._size_cost": (False, "transform cost per power-of-two size: +0.5% cycle time without it"),
    "fft_modem._geometry": (False, "window geometry per K x M shape: +3.0% cycle time without it"),
    "fft_modem._preset_stages": (False, "stage tuple and memory pair per mode, grid and chains: +4.4% without"),
    "cli._build_parser": (False, "the one argument parser, built on the first command: ~0.7 ms per build, and a "
                                 "cli-files-mix block calls cli.main twice"),
}


def module_holders():
    """Every ``Held`` store and ``functools`` cache bound at the top level of a ``gfdm_modem`` module."""
    found = {}
    for info in pkgutil.iter_modules(gfdm_modem.__path__):
        module = importlib.import_module(f"gfdm_modem.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, Held) or hasattr(obj, "cache_info"):
                found[f"{info.name}.{name}"] = obj
    return found


class TestHolders:
    """The inventory of what the package holds: a holder added without a row, or deleted with its
    row left, fails here, and ``configs.clear_builders`` empties every bounded one."""

    def test_every_holder_is_listed_with_its_bound(self):
        holders = module_holders()
        assert sorted(holders) == sorted(HOLDERS)
        for name, holder in holders.items():
            bounded = isinstance(holder, Held) or holder.cache_parameters()["maxsize"] is not None
            assert bounded == HOLDERS[name][0], name

    def test_clear_builders_empties_every_bounded_holder(self):
        holders = {name: h for name, h in module_holders().items() if HOLDERS[name][0]}

        def sizes():
            return {name: len(h) if isinstance(h, Held) else h.cache_info().currsize for name, h in holders.items()}
        link.run_loopback(RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4, snr_db=20.0))
        assert all(sizes().values()), sizes()  # every bounded holder is filled by a loopback
        clear_builders()
        assert sizes() == dict.fromkeys(holders, 0)


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
        link._plan.cache_clear()
        cfg = RunConfig(k=8, m=4, arch="direct", domain=domain, channel_taps=TAPS, n_cp=4)
        assert link.run_loopback(cfg).cm_match
        assert calls == [f"{domain}_mod", "rule", f"{domain}_demod", "rule"]
        link.run_loopback(cfg)  # the held plan builds nothing
        assert len(calls) == 4


class TestRebuildWork:
    """A rebuild on a held waveform computes its new tables and no geometry: every plan takes the
    waveform's ``GfdmParams``, whose gather index is built once, and a direct table build takes the
    geometry held for its window shape instead of constructing one."""

    def test_switches_on_one_waveform_gather_once_and_construct_no_geometry(self, monkeypatch):
        base = RunConfig(k=8, m=4, channel_taps=TAPS, n_cp=4)
        seq = [replace(base, arch=arch, domain=domain, rx=rx, l_max=l_max, seed=i)
               for i, (l_max, (arch, domain, rx)) in enumerate((l, e) for l in (16, 8) for e in ENGINES)]
        seq += seq[::-1]  # each config builds its own GfdmParams here, before the counting starts
        clear_builders()  # so the held geometry, and its gather index, are built below
        held = held_windows(base)[0]
        link.plan_for(replace(base, arch="direct"))  # a direct table's geometry is held from here on
        gathers, geometries = [], []
        index = pulses.GfdmParams.active_index
        counted_index = functools.cached_property(lambda params: gathers.append(params) or index.func(params))
        counted_index.__set_name__(pulses.GfdmParams, "active_index")
        monkeypatch.setattr(pulses.GfdmParams, "active_index", counted_index)
        post_init = pulses.GfdmParams.__post_init__
        monkeypatch.setattr(pulses.GfdmParams, "__post_init__", lambda p: geometries.append(p) or post_init(p))
        chain_table, direct_builds = direct_modem._chain_table, []
        monkeypatch.setattr(direct_modem, "_chain_table", lambda *a: direct_builds.append(a[0]) or chain_table(*a))
        for cfg in seq:
            assert link.plan_for(cfg).params is held
            assert link.run_loopback(cfg).cm_match
        assert set(direct_builds) == {"TD_MOD", "TD_DEMOD", "FD_MOD", "FD_DEMOD"}  # direct tables were rebuilt
        assert gathers == [held] and geometries == []


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

    @pytest.mark.parametrize("snr_db", [8.0, 12.0])
    @pytest.mark.parametrize("arch,domain", [("fft", "td"), ("direct", "fd")])
    def test_gfdm_zf_ser_matches_the_noise_enhanced_closed_form(self, arch, domain, snr_db):
        # Zero forcing scales every symbol's noise by NEF = mean(1/|w_tx|^2) * mean(|w_tx|^2),
        # so QPSK symbol errors follow 2Q(sqrt(g / NEF)) - Q(sqrt(g / NEF))^2.
        cfg = RunConfig(k=16, m=16, alpha=0.5, delta=0.5, rx="zf", arch=arch, domain=domain, snr_db=snr_db)
        power = np.abs(held_windows(cfg)[1]) ** 2
        nef = float(np.mean(1 / power) * np.mean(power))
        assert round(nef, 3) == 1.440
        errors = symbols = 0
        for seed in range(200):
            rep = link.run_loopback(replace(cfg, seed=seed))
            errors += round(rep.ser * rep.n_symbols)
            symbols += rep.n_symbols
        q = _q(math.sqrt(10.0 ** (snr_db / 10.0) / nef))
        p = 2 * q - q * q
        assert abs(errors / symbols - p) <= 4 * math.sqrt(p * (1 - p) / symbols)


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

    def test_a_full_frequency_domain_set_counts_its_chains_not_bands(self, tmp_path, capsys):
        # RC alpha=0.5 on 8 x 4 occupies the two bands 0 and 7, yet the link's full FD set needs all
        # K = 8 chains; the refusal used to say "pulse occupies 8 subcarrier bands".
        cfg = RunConfig(k=8, m=4, arch="direct", domain="fd", l_max=4)
        with pytest.raises(ChainLimitExceeded, match="^8 chains needed, only 4 available$"):
            link.plan_for(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(emit_config(cfg)))
        assert main(["loopback", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "invalid configuration: 8 chains needed, only 4 available\n"
        # The sparse set of the same window holds the two occupied bands and fits the budget.
        w_fd = tx_window(make_prototype("RC", cfg.params, 0.5, 0.5), "FD")
        assert direct_modem.precompute_fd_mod(w_fd, 4).partitions == (0, 7)

    @pytest.mark.parametrize("domain", ["td", "fd"])
    def test_modulator_chain_count_refused_before_receive_window(self, domain):
        # delta=0 makes the zero-forcing window singular too; the modulator's table is built first.
        # Both are full chain sets (M chains in TD, all K in FD), so both count chains, not bands.
        cfg = RunConfig(k=32, m=32, delta=0.0, arch="direct", domain=domain, l_max=16)
        with pytest.raises(SingularWindow):
            link.plan_for(replace(cfg, arch="fft"))
        with pytest.raises(ChainLimitExceeded, match="^32 chains needed, only 16 available$"):
            link.plan_for(cfg)
