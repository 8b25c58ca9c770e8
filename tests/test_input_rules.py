"""The shared input rules: one integer rule, one positive-count rule, one power-of-two rule, one
block bound and one singular threshold.

Every entry point that takes a count refuses a bool, a float (integral or not) or a numeric string
with a ``ConfigError``, never a ``TypeError`` and never a result, and gives for a numpy integer what
it gives for the equal int.  A count that must be positive refuses 0 and below with one message.
A block K*M above ``MAX_N`` is refused before anything is allocated.  A zero-forcing window entry
or channel bin of magnitude at most ``SINGULAR_EPS`` is singular.
"""

import re
import sys

import numpy as np
import pytest

from gfdm_modem import analysis, config, link, pulses
from gfdm_modem.channel import (
    ChannelSpec,
    add_cp,
    apply_channel,
    channel_response,
    check_seed,
    fd_equalize_zf,
    gaussian_pairs,
    remove_cp,
    splitmix64_words,
    uniform64,
)
from gfdm_modem.config import RunConfig
from gfdm_modem.direct_modem import precompute_fd_demod, precompute_td_mod
from gfdm_modem.errors import ConfigError, SingularChannel, SingularWindow
from gfdm_modem.fft_modem import ArchConfig, StageConfig, preset, run_modulator
from gfdm_modem.numerics import (
    MAX_N, SINGULAR_EPS, check_int, check_positive, dft, fft_mul_count, is_int, is_pow2
)
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window


def _chain_table(p):
    table = preset("TD_MOD", GfdmParams(8, 4), np.arange(16).reshape(2, 8) * (1 - 0.5j), (0, p))
    return table, run_modulator(table, np.arange(32).reshape(8, 4) * (0.5 + 1j))


#: An 8 x 4 RC pulse's TD transmit window (4 chains) and FD matched filter (2 occupied bands).
_PULSE = make_prototype("RC", GfdmParams(8, 4), 0.5, 0.5)
_W_TD, _W_FD_MF = tx_window(_PULSE, "TD"), rx_window(tx_window(_PULSE, "FD"), "MF")


#: (entry point, call with the count under test, an int that the call accepts).
ENTRIES = [
    ("GfdmParams.k", lambda v: GfdmParams(v, 4), 8),
    ("GfdmParams.m", lambda v: GfdmParams(8, v), 8),
    ("GfdmParams.k_on", lambda v: GfdmParams(16, 4, k_on=(0, v)), 8),
    ("GfdmParams.m_on", lambda v: GfdmParams(8, 16, m_on=(v,)), 8),
    ("StageConfig", lambda v: StageConfig(v), 8),
    ("fft_mul_count", fft_mul_count, 8),
    ("cm_count.k", lambda v: analysis.cm_count("FFT_TD_FD", v, 4), 8),
    ("cm_count.m", lambda v: analysis.cm_count("DIR_TD_TD", 8, v), 8),
    ("cm_count.l", lambda v: analysis.cm_count("DIR_FD_FD_SPARSE", 8, 4, v), 2),
    ("latency.k", lambda v: analysis.latency("FFT_TD_FD", v, 8), 8),
    ("latency.m", lambda v: analysis.latency("DIR_FD_FD", 8, v), 8),
    ("latency_delta", lambda v: analysis.latency_delta(v, 8), 8),
    ("resources", lambda v: analysis.resources("DIRECT", v), 8),
    ("precompute_td_mod.l_max", lambda v: precompute_td_mod(_W_TD, v), 8),
    ("precompute_fd_demod.l_max", lambda v: precompute_fd_demod(_W_FD_MF, v), 8),
    ("RunConfig.k", lambda v: RunConfig(k=v, m=4), 8),
    ("RunConfig.m", lambda v: RunConfig(k=8, m=v), 8),
    ("RunConfig.n_cp", lambda v: RunConfig(k=8, m=4, n_cp=v), 8),
    ("RunConfig.n_cs", lambda v: RunConfig(k=8, m=4, n_cs=v), 8),
    ("RunConfig.l_max", lambda v: RunConfig(k=8, m=4, l_max=v), 8),
    ("RunConfig.k_on", lambda v: RunConfig(k=16, m=4, k_on=(0, v)), 8),
    ("RunConfig.m_on", lambda v: RunConfig(k=8, m=16, m_on=(v,)), 8),
    ("RunConfig.seed", lambda v: RunConfig(k=8, m=4, seed=v), 8),
    ("check_seed", check_seed, 8),
    # On a noiseless channel no gaussian_pairs call checks the seed: apply_channel checks it first.
    ("apply_channel.seed", lambda v: apply_channel(np.arange(4) * (1 - 1j), ChannelSpec((1,)), v), 8),
    ("uniform64.index", lambda v: uniform64(3, v), 8),
    ("splitmix64_words.start", lambda v: splitmix64_words(3, v, 4), 8),
    ("splitmix64_words.count", lambda v: splitmix64_words(3, 0, v), 8),
    ("gaussian_pairs.count", lambda v: gaussian_pairs(3, v), 8),
    ("preset.partitions", _chain_table, 3),
]

NOT_COUNTS = [True, False, 8.0, 2.5, "8", np.float64(8.0), np.bool_(True)]


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, ArchConfig):
        return (a.mode, a.stages, a.partitions, a.grid) == (b.mode, b.stages, b.partitions, b.grid) and _same(
            a.window, b.window)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("call", [e[1] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
def test_a_value_that_is_not_an_integer_is_refused(call, value):
    with pytest.raises(ConfigError):
        call(value)


@pytest.mark.parametrize("call,good", [e[1:] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
def test_a_numpy_integer_gives_what_the_int_gives(call, good, integer):
    assert _same(call(integer(good)), call(good))


def test_small_numpy_integers_do_not_wrap():
    # 16 * 32 and 15 * 32 overflow uint8; the geometry and the active index are held as ints.
    params = GfdmParams(np.uint8(16), np.uint8(32), k_on=(np.uint8(15),), m_on=(np.uint8(31),))
    assert params == GfdmParams(16, 32, k_on=(15,), m_on=(31,))
    assert all(type(v) is int for v in (params.k, params.m, params.n, *params.k_on, *params.m_on))
    assert params.active_index.tolist() == [15 * 32 + 31]


_FRAMED = np.arange(8) * (1 - 1j)

#: The integer entry points, each as ``(the name its refusal gives, call with the value under test,
#: an int that the call accepts)``.
INTEGER_SITES = {
    "GfdmParams.k": ("k", lambda v: GfdmParams(v, 4), 8),
    "GfdmParams.m": ("m", lambda v: GfdmParams(8, v), 4),
    "GfdmParams.k_on": ("k_on", lambda v: GfdmParams(16, 4, k_on=(0, v)), 1),
    "GfdmParams.m_on": ("m_on", lambda v: GfdmParams(8, 16, m_on=(v,)), 1),
    "RunConfig.n_cp": ("n_cp", lambda v: RunConfig(k=8, m=4, n_cp=v), 1),
    "RunConfig.n_cs": ("n_cs", lambda v: RunConfig(k=8, m=4, n_cs=v), 1),
    "RunConfig.seed": ("seed", lambda v: RunConfig(k=8, m=4, seed=v), 1),
    "add_cp.n_cp": ("n_cp", lambda v: add_cp(_FRAMED, v, 1), 1),
    "add_cp.n_cs": ("n_cs", lambda v: add_cp(_FRAMED, 1, v), 1),
    "remove_cp.n_cp": ("n_cp", lambda v: remove_cp(_FRAMED, v, 1), 1),
    "remove_cp.n_cs": ("n_cs", lambda v: remove_cp(_FRAMED, 1, v), 1),
    "splitmix64_words.start": ("stream start", lambda v: splitmix64_words(3, v, 4), 1),
    "splitmix64_words.count": ("stream count", lambda v: splitmix64_words(3, 0, v), 1),
    "uniform64.index": ("stream start", lambda v: uniform64(3, v), 1),
    "gaussian_pairs.count": ("stream count", lambda v: gaussian_pairs(3, v), 1),
    "preset.partitions": ("chain partition", _chain_table, 1),
}


@pytest.mark.parametrize("name,call,good", INTEGER_SITES.values(), ids=INTEGER_SITES)
def test_every_integer_refusal_has_one_message(name, call, good):
    # numerics.check_int words every refusal; values equal to an accepted int are refused by type.
    for value in (1.5, 2.0, True, np.bool_(True), "1", None, np.float64(1.0), 1 + 0j):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    for integer in (np.int64, np.int32, np.uint16):
        assert _same(call(integer(good)), call(good))


class TestActiveSets:
    """An active set's entries take the one integer rule once, with one message from either constructor;
    an empty set is the full range, held as ``None``."""

    @pytest.mark.parametrize("entry", [1.5, 2.0, True, "1", None, np.float64(1.0)], ids=repr)
    @pytest.mark.parametrize("name", ["k_on", "m_on"])
    def test_a_non_integer_entry_has_one_message(self, name, entry):
        message = f"^{name} must be an integer, got {re.escape(repr(entry))}$"
        for build in (RunConfig, GfdmParams):
            with pytest.raises(ConfigError, match=message):
                build(8, 4, **{name: (0, entry)})

    def test_each_entry_is_checked_once(self, monkeypatch):
        # Every module that binds the integer rule counts its calls; config binds none of its own.
        modules = [module for name, module in sys.modules.items()
                   if name.startswith("gfdm_modem.") and hasattr(module, "check_int")]
        assert pulses in modules and config not in modules
        seen = []
        for module in modules:
            monkeypatch.setattr(module, "check_int", lambda name, v: seen.append((name, v)) or check_int(name, v))
        RunConfig(k=8, m=4, n_cp=0, k_on=(5, 7), m_on=(2,))
        assert sorted(v for name, v in seen if name in ("k_on", "m_on")) == [2, 5, 7]

    @pytest.mark.parametrize("empty", [(), [], np.array([], dtype=int)], ids=repr)
    def test_an_empty_set_is_the_full_range(self, empty):
        full, given = RunConfig(k=8, m=4), RunConfig(k=8, m=4, k_on=empty, m_on=empty)
        assert given == full and hash(given) == hash(full)
        assert given.k_on is given.m_on is None
        assert given.params == full.params == GfdmParams(8, 4)
        assert link.plan_for(given) is link.plan_for(full)


class TestRunConfigRules:
    """Each ``RunConfig`` field takes one rule: a non-integer K reads as it does from every geometry
    entry point, a name that is not a string fails its membership rule, and a config with several
    faults reports the first in one order."""

    @pytest.mark.parametrize("k", [8.5, 8.0, True, "8", None], ids=repr)
    def test_a_non_integer_k_has_one_message_everywhere(self, k):
        message = f"^k must be an integer, got {re.escape(repr(k))}$"
        for call in (lambda: GfdmParams(k, 4), lambda: RunConfig(k=k, m=4),
                     lambda: analysis.cm_count("FFT_TD_FD", k, 4), lambda: analysis.latency("FFT_TD_FD", k, 4)):
            with pytest.raises(ConfigError, match=message):
                call()

    @pytest.mark.parametrize("name,choices", [("rx", ("zf", "mf")), ("arch", ("fft", "direct")), ("domain", ("td", "fd"))])
    @pytest.mark.parametrize("value", [5, None, b"td", ["zf"], "ZF", "x"], ids=repr)
    def test_a_name_outside_its_choices_has_one_message(self, name, choices, value):
        message = f"^{name} must be one of {re.escape(repr(choices))}, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            RunConfig(k=8, m=4, **{name: value})

    #: One fault of each rule, in the order the first fault is reported.
    FAULTS = [dict(k=6), dict(n_cp=-1), dict(l_max=0), dict(seed=-1), dict(alpha=True), dict(pulse="x"),
              dict(domain="xd"), dict(channel_taps=(1, 2))]

    @pytest.mark.parametrize("first", range(len(FAULTS)))
    def test_the_first_fault_is_reported_in_rule_order(self, first):
        with pytest.raises(ConfigError) as alone:
            RunConfig(**{"k": 8, "m": 4, **self.FAULTS[first]})
        faults = {key: value for fault in self.FAULTS[first:] for key, value in fault.items()}
        with pytest.raises(ConfigError, match=f"^{re.escape(str(alone.value))}$"):
            RunConfig(**{"k": 8, "m": 4, **faults})


class TestIntegerPredicates:
    @pytest.mark.parametrize("v", [0, -3, 2**70, np.int8(-1), np.uint64(2**63)])
    def test_integers(self, v):
        assert is_int(v)

    @pytest.mark.parametrize("v", NOT_COUNTS + [None, 1j, np.array(8)])
    def test_not_integers(self, v):
        assert not is_int(v)

    def test_powers_of_two_are_integers_of_one_bit(self):
        assert [n for n in range(-4, 70) if is_pow2(n)] == [1, 2, 4, 8, 16, 32, 64]
        assert is_pow2(np.int64(1024)) and is_pow2(2**80)
        assert not any(map(is_pow2, (True, 8.0, 4.5, "8", np.float64(2.0))))


class TestPositiveCountRule:
    #: The counts that must be at least 1, each as ``(name in the message, call)``.
    SITES = {
        "RunConfig.l_max": ("l_max", lambda v: RunConfig(k=8, m=4, l_max=v)),
        "precompute_td_mod.l_max": ("l_max", lambda v: precompute_td_mod(_W_TD, v)),
        "precompute_fd_demod.l_max": ("l_max", lambda v: precompute_fd_demod(_W_FD_MF, v)),
        "resources": ("l_max", lambda v: analysis.resources("DIRECT", v)),
        "cm_count.l": ("the band overlap L", lambda v: analysis.cm_count("DIR_FD_FD_SPARSE", 8, 4, v)),
    }

    @pytest.mark.parametrize("site", list(SITES))
    @pytest.mark.parametrize("value", [0, -3, np.int64(0)], ids=repr)
    def test_every_count_site_refuses_zero_and_below_with_the_one_message(self, site, value):
        name, call = self.SITES[site]
        with pytest.raises(ConfigError, match=f"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
            call(value)

    def test_the_rule_holds_a_count_as_int(self):
        assert check_positive("x", 1) == 1 and type(check_positive("x", np.uint8(3))) is int
        for bad in (0, -1, True, 8.0, "8", None):
            with pytest.raises(ConfigError, match="^x must be a positive integer"):
                check_positive("x", bad)


class TestBlockBound:
    """``MAX_N`` bounds K*M before ``GfdmParams`` builds its K- and M-entry active sets."""

    def test_a_block_of_max_n_is_built(self):
        assert GfdmParams(2**10, 2**10).n == MAX_N == 2**20

    @pytest.mark.parametrize("k,m", [(2**11, 2**10), (2**30, 1), (2**62, 4)])
    def test_a_larger_block_is_refused_before_it_is_allocated(self, k, m):
        with pytest.raises(ConfigError, match=f"^block length K\\*M = {k * m} exceeds MAX_N = {MAX_N}$"):
            GfdmParams(k, m)

    def test_run_config_refuses_k_2_30_at_parse_time(self):
        with pytest.raises(ConfigError, match="exceeds MAX_N"):
            RunConfig(k=2**30, m=1)

    def test_the_closed_forms_stay_unbounded(self):
        assert analysis.cm_count("DIR_TD_TD", 2**30, 4) > 0


class TestSingularThreshold:
    """The threshold is inclusive: a magnitude equal to ``SINGULAR_EPS`` is singular."""

    @pytest.mark.parametrize("entry", [SINGULAR_EPS, -SINGULAR_EPS, 1j * SINGULAR_EPS])
    def test_window_at_the_threshold_is_refused(self, entry):
        w = np.ones((4, 8), dtype=complex)
        w[2, 5] = entry
        assert np.abs(w).min() == SINGULAR_EPS
        with pytest.raises(SingularWindow, match="<= 1.0e-08"):
            rx_window(w, "ZF")

    def test_window_at_twice_the_threshold_is_inverted(self):
        w = np.ones((4, 8), dtype=complex)
        w[2, 5] = 2 * SINGULAR_EPS
        assert rx_window(w, "ZF").tobytes() == (1.0 / w).tobytes()

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_channel_bin_at_the_threshold_is_refused(self, n):
        spec = ChannelSpec(np.array([SINGULAR_EPS]))  # a flat response: every bin is exactly the tap
        h = np.zeros(n, dtype=complex)
        h[0] = SINGULAR_EPS
        assert np.abs(dft(h)).min() == SINGULAR_EPS
        for _ in range(2):
            with pytest.raises(SingularChannel, match="null bin"):
                fd_equalize_zf(np.ones(n), spec)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_channel_bin_at_twice_the_threshold_is_equalized(self, n):
        y = np.arange(n) * (1 - 2j)
        spec = ChannelSpec(np.array([2 * SINGULAR_EPS]))
        hf = channel_response(spec, n)
        assert np.abs(hf).min() == 2 * SINGULAR_EPS
        assert fd_equalize_zf(y, spec).tobytes() == (dft(y) / hf).tobytes()

    def test_taps_with_a_true_null_are_still_singular(self):
        with pytest.raises(SingularChannel):
            channel_response(ChannelSpec(np.array([1.0, -1.0])), 8)
