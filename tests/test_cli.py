"""Tests for configuration handling, sample files, and the command-line front end."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gfdm_modem
from gfdm_modem import blockio, channel, link, reference
from gfdm_modem.cli import _build_parser, main
from gfdm_modem.config import RunConfig, load_config, parse_config
from gfdm_modem.errors import ConfigError
from gfdm_modem.link import qpsk_symbols, run_loopback
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window

from configs import emit_config


def write_config(tmp_path, **overrides):
    data = {
        "k": 8,
        "m": 4,
        "pulse": "rc",
        "alpha": 0.5,
        "delta": 0.5,
        "rx": "zf",
        "arch": "fft",
        "domain": "td",
        "n_cp": 8,
        "n_cs": 0,
        "channel_taps": [[1.0, 0.0]],
        "snr_db": None,
        "seed": 1,
        "l_max": 16,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def config_outcome(make):
    """The ``RunConfig`` ``make`` returns, or the type and text of the ``ConfigError`` it raises."""
    try:
        return make()
    except ConfigError as exc:
        return ConfigError, str(exc)


#: Field values that a file holds as they are: lower-case names, ints, and taps of any length.
FIELD_VALUES = st.fixed_dictionaries({
    "k": st.sampled_from([2, 4, 8]), "m": st.sampled_from([1, 2, 4]),
    "pulse": st.sampled_from(["rc", "rrc", "dirichlet", "rect_td"]), "alpha": st.sampled_from([0.0, 0.25, 1.0]),
    "delta": st.sampled_from([0.0, 0.5]), "rx": st.sampled_from(["zf", "mf"]),
    "arch": st.sampled_from(["fft", "direct"]), "domain": st.sampled_from(["td", "fd"]),
    "k_on": st.sampled_from([None, (1, 0)]), "m_on": st.sampled_from([None, (0,)]),
    "n_cp": st.integers(0, 3), "n_cs": st.integers(0, 2),
    "channel_taps": st.sampled_from([(1 + 0j,), (1 + 0j, 0.5j), (0.9 + 0j, 0.1 - 0.2j, -0.05 + 0j)]),
    "snr_db": st.sampled_from([math.inf, 12.5, -3.0]), "seed": st.integers(0, 2**64 - 1),
    "l_max": st.integers(1, 16),
})


class TestConfig:
    @given(FIELD_VALUES, st.data())
    def test_any_subset_of_keys_parses_as_those_fields_over_the_defaults(self, values, data):
        # RunConfig's field defaults are the only defaults: a key the file omits takes the field's.
        cfg = config_outcome(lambda: RunConfig(**values))
        assume(isinstance(cfg, RunConfig))
        emitted = emit_config(cfg)
        keys = {"k", "m"} | data.draw(st.sets(st.sampled_from(sorted(emitted))))
        subset = json.loads(json.dumps({key: emitted[key] for key in keys}))
        want = config_outcome(lambda: RunConfig(**{key: getattr(cfg, key) for key in keys}))
        assert config_outcome(lambda: parse_config(subset)) == want

    def test_round_trip(self):
        cfg = RunConfig(
            k=8, m=4, pulse="rrc", alpha=0.3, delta=0.5, rx="mf", arch="direct",
            domain="fd", k_on=(0, 2), m_on=(1,), n_cp=4, n_cs=2,
            channel_taps=(1 + 0j, 0.2 - 0.1j), snr_db=15.0, seed=9, l_max=8,
        )
        assert parse_config(emit_config(cfg)) == cfg

    #: One value per ``RunConfig`` field other than the base's, each legal on its own.
    NON_DEFAULT = {
        "k": 16, "m": 2, "pulse": "rrc", "alpha": 0.25, "delta": 0.0, "rx": "mf", "arch": "direct",
        "domain": "fd", "k_on": (1, 3), "m_on": (0,), "n_cp": 3, "n_cs": 1,
        "channel_taps": (1 + 0j, 0.5j), "snr_db": 12.5, "seed": 2**63 + 5, "l_max": 4,
    }

    def test_every_field_round_trips(self):
        names = [f.name for f in fields(RunConfig)]
        assert sorted(self.NON_DEFAULT) == sorted(names)  # a new field needs a value here
        base = RunConfig(k=8, m=4, n_cp=2)
        for name in names:
            cfg = replace(base, **{name: self.NON_DEFAULT[name]})
            assert getattr(cfg, name) != getattr(base, name), name
            data = json.loads(json.dumps(emit_config(cfg)))
            assert sorted(data) == sorted(names), name
            assert parse_config(data) == cfg, name

    def test_infinite_snr_round_trip(self):
        cfg = RunConfig(k=4, m=4)
        data = emit_config(cfg)
        assert data["snr_db"] is None
        assert math.isinf(parse_config(data).snr_db)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_config({"k": 4, "m": 4, "bogus": 1})

    def test_rejects_excess_taps(self):
        with pytest.raises(ConfigError):
            RunConfig(k=4, m=4, n_cp=1, channel_taps=(1 + 0j, 0.1, 0.1))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            RunConfig(k=4, m=4, alpha=1.5)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_rejects_nan_and_negative_infinite_snr(self, snr):
        # Neither names a channel; both used to run a noiseless link.
        with pytest.raises(ConfigError, match="snr_db must be finite or"):
            RunConfig(k=4, m=4, snr_db=snr)


class TestIntegerRule:
    @pytest.mark.parametrize(
        "field,value",
        [("k", True), ("m", 4.0), ("k", 8.9), ("seed", True), ("seed", 1.7), ("seed", np.float64(2.0)),
         ("n_cp", True), ("n_cs", False), ("l_max", 16.5), ("l_max", np.bool_(True)), ("seed", "1"),
         ("k_on", (1, True)), ("k_on", (1.0,)), ("m_on", (0, 0.5)), ("m_on", ("1",)), ("k", math.inf)],
    )
    def test_booleans_and_non_integral_values_are_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an? (positive )?integer"):
            RunConfig(**{"k": 8, "m": 4, field: value})

    def test_seed_and_n_cp_booleans_are_refused(self):
        with pytest.raises(ConfigError, match="n_cp must be an integer, got True"):
            RunConfig(k=8, m=4, seed=True, n_cp=True)
        with pytest.raises(ConfigError, match="seed must be an integer, got True"):
            RunConfig(k=8, m=4, seed=True)

    def test_numpy_integers_are_accepted_and_held_as_int(self):
        ints = dict(k=8, m=4, n_cp=4, n_cs=1, seed=7, l_max=16, k_on=(1, 2), m_on=(0, 3))
        np_ints = dict(k=np.int64(8), m=np.int32(4), n_cp=np.int16(4), n_cs=np.uint8(1), seed=np.uint64(7),
                       l_max=np.int8(16), k_on=(np.int64(1), 2), m_on=[0, np.intp(3)])
        cfg = RunConfig(**np_ints)
        assert cfg == RunConfig(**ints) and emit_config(cfg) == emit_config(RunConfig(**ints))
        held = (cfg.k, cfg.m, cfg.n_cp, cfg.n_cs, cfg.seed, cfg.l_max, *cfg.k_on, *cfg.m_on)
        assert all(type(v) is int for v in held)
        for arch in ("fft", "direct"):
            assert run_loopback(RunConfig(**np_ints, arch=arch)) == run_loopback(RunConfig(**ints, arch=arch))

    def test_an_integer_array_is_an_active_set(self):
        # Array truthiness used to escape as a bare ValueError.
        for cls in (RunConfig, GfdmParams):
            got = cls(4, 4, k_on=np.array([1, 2]), m_on=np.array([3], dtype=np.uint8))
            assert got == cls(4, 4, k_on=(1, 2), m_on=(3,)) and all(type(v) is int for v in got.k_on + got.m_on)
            for bad in (np.array([[1, 2]]), np.array(1), 3, "12", {1: 0}):
                with pytest.raises(ConfigError, match="^k_on must be a sequence of integers, got "):
                    cls(4, 4, k_on=bad)

    def test_parse_config_converts_integral_floats_then_applies_the_rule(self):
        cfg = parse_config({"k": 8.0, "m": 4.0, "seed": 3.0, "n_cp": 2.0, "k_on": [1.0, 2]})
        assert cfg == RunConfig(k=8, m=4, seed=3, n_cp=2, k_on=(1, 2))
        assert all(type(v) is int for v in (cfg.k, cfg.m, cfg.seed, cfg.n_cp, *cfg.k_on))
        for field, raw in (("k", "8"), ("seed", 1.5), ("n_cs", True), ("m_on", [0, "1"])):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                parse_config({"k": 8, "m": 4, field: raw})


class TestBlockIo:
    def test_binary_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        path = tmp_path / "block.bin"
        blockio.write_samples(path, data, "bin")
        back = blockio.read_samples(path)
        assert (back == data).all()

    def test_headerless_binary(self, tmp_path):
        data = np.array([1 + 2j, 3 - 4j])
        path = tmp_path / "raw.bin"
        path.write_bytes(data.astype("<c16").tobytes())
        assert (blockio.read_samples(path) == data).all()

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        path = tmp_path / "block.csv"
        blockio.write_samples(path, data, "csv")
        back = blockio.read_samples(path)
        assert (back == data).all()  # repr round-trips float64 exactly

    def test_matrix_flattens_column_major(self, tmp_path):
        mat = np.array([[1, 2], [3, 4]], dtype=complex)
        path = tmp_path / "mat.bin"
        blockio.write_samples(path, mat)
        assert_allclose(blockio.read_samples(path), [1, 3, 2, 4])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"GFDMBLK1" + b"\x10\x00\x00\x00" + b"\x00\x00\x00\x00" + b"12")
        with pytest.raises(ConfigError):
            blockio.read_samples(path)


    def test_csv_only_first_line_may_be_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,re,im\n0,1.0,abc\njunk\n1,2.0,3.0\n2,4.0,5.0\n")
        with pytest.raises(ConfigError, match="malformed CSV sample line: '0,1.0,abc'"):
            blockio.read_samples(path)

    def test_headerless_csv_accepted(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("\n0,1.0,2.0\n\n1,-3.5,0.25\n")
        assert blockio.read_samples(path).tolist() == [1 + 2j, -3.5 + 0.25j]

    def test_unknown_suffix_recognized_by_content(self, tmp_path):
        data = np.array([1 + 2j, -3.5 + 0.25j, 0.125 - 1j, 2.0 + 0j])
        blockio.write_samples(tmp_path / "a.txt", data, "csv")
        blockio.write_samples(tmp_path / "b.txt", data, "bin")
        (tmp_path / "c.txt").write_bytes(data.astype("<c16").tobytes())
        for name in ("a.txt", "b.txt", "c.txt"):
            assert blockio.read_samples(tmp_path / name).tolist() == data.tolist()


class TestLoopback:
    def test_qpsk_stream_deterministic(self):
        a = qpsk_symbols(5, 64)
        b = qpsk_symbols(5, 64)
        assert (a == b).all()
        assert_allclose(np.abs(a), np.ones(64))

    def test_noiseless_report(self):
        cfg = RunConfig(
            k=16, m=16, pulse="rc", alpha=0.5, delta=0.5, n_cp=8,
            channel_taps=(1 + 0j, 0.4 - 0.2j, 0.1 + 0.05j, -0.05j), seed=3,
        )
        rep = run_loopback(cfg)
        assert rep.nmse <= 1e-12
        assert rep.ser == 0.0
        assert rep.cm_match

    def test_awgn_sanity_band(self):
        cfg = RunConfig(
            k=16, m=16, pulse="dirichlet", alpha=0.0, delta=0.0, n_cp=0,
            channel_taps=(1 + 0j,), snr_db=20.0, seed=11,
        )
        rep = run_loopback(cfg)
        assert rep.ser < 1e-2
        assert rep.cm_match


class TestCommands:
    def test_pulse_writes_files(self, tmp_path):
        cfg = write_config(tmp_path, pulse="dirichlet", k=4, m=2, n_cp=0)
        out = tmp_path / "pulse_out"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 0
        freq = blockio.read_samples(out / "pulse_freq.bin")
        live = np.abs(freq) > 1e-12 * np.abs(freq).max()
        assert live.sum() == 2  # flat over the M bins of band 0
        assert set(np.flatnonzero(live)) == {0, 1}
        w_tx = blockio.read_samples(out / "w_tx.csv")
        w_rx = blockio.read_samples(out / "w_rx.csv")
        assert np.abs(w_tx * w_rx - 1.0).max() <= 1e-9

    def test_pulse_window_product_after_reread(self, tmp_path):
        cfg = write_config(tmp_path, pulse="rc", alpha=0.5, k=8, m=4)
        out = tmp_path / "rc_out"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 0
        w_tx = blockio.read_samples(out / "w_tx.bin")
        w_rx = blockio.read_samples(out / "w_rx.bin")
        assert np.abs(w_tx * w_rx - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("rx", ["zf", "mf"])
    @pytest.mark.parametrize("domain", ["td", "fd"])
    @pytest.mark.parametrize("wave", [
        dict(k=8, m=4, pulse="rc", alpha=0.5, delta=0.5),
        dict(k=4, m=8, pulse="rrc", alpha=0.3, delta=0.5, k_on=(1, 2)),
        dict(k=8, m=4, pulse="dirichlet", alpha=0.0, delta=0.0),
        dict(k=8, m=4, pulse="rect_td", alpha=0.0, delta=0.0, m_on=(0, 3)),
    ], ids=["rc", "rrc", "dirichlet", "rect_td"])
    def test_pulse_writes_exactly_what_the_library_computes(self, tmp_path, wave, domain, rx):
        cfg = RunConfig(**wave, domain=domain, rx=rx)
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps(emit_config(cfg)))
        assert main(["pulse", "--config", str(path), "--out", str(out)]) == 0
        pulse = make_prototype(cfg.pulse.upper(), cfg.params, cfg.alpha, cfg.delta)
        w_tx = tx_window(pulse, domain.upper())
        want = {"pulse_time": pulse.time, "pulse_freq": pulse.freq, "w_tx": w_tx, "w_rx": rx_window(w_tx, rx.upper())}
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{name}.{fmt}" for name in want for fmt in ("bin", "csv"))
        for name, data in want.items():
            assert blockio.read_samples(out / f"{name}.bin").tobytes() == data.reshape(-1, order="F").tobytes()
            for fmt in ("bin", "csv"):
                blockio.write_samples(tmp_path / f"want.{fmt}", data, fmt)
                assert (out / f"{name}.{fmt}").read_bytes() == (tmp_path / f"want.{fmt}").read_bytes()

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=1.5)
        assert main(["pulse", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_singular_window_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, k=4, m=4, alpha=0.0, delta=0.0)
        assert main(["pulse", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_a_refused_pulse_leaves_no_output_directory(self, tmp_path, capsys):
        # The directory used to be made before the receive window was built, and was left empty.
        cfg, out = write_config(tmp_path, k=4, m=4, pulse="rc", alpha=0.0, delta=0.0), tmp_path / "new" / "out"
        assert main(["pulse", "--config", str(cfg), "--out", str(out)]) == 3
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists() and not out.parent.exists()

    def test_modulate_ofdm_flat_magnitude(self, tmp_path):
        cfg = write_config(tmp_path, k=4, m=1, pulse="rect_td", alpha=0.0, delta=0.0, n_cp=0)
        sym = tmp_path / "sym.bin"
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        blockio.write_samples(sym, vec)
        out = tmp_path / "block.bin"
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(out)]) == 0
        block = blockio.read_samples(out)
        assert_allclose(np.abs(block), np.full(4, np.abs(block[0])), atol=1e-12)

    def test_both_architectures_write_identical_blocks(self, tmp_path):
        cfg = write_config(tmp_path, k=8, m=4, n_cp=0)
        sym = tmp_path / "sym.bin"
        blockio.write_samples(sym, qpsk_symbols(2, 32))
        out_fft = tmp_path / "fft.bin"
        out_dir = tmp_path / "direct.bin"
        assert main(["modulate", "--config", str(cfg), "--in", str(sym),
                     "--out", str(out_fft), "--arch", "fft"]) == 0
        assert main(["modulate", "--config", str(cfg), "--in", str(sym),
                     "--out", str(out_dir), "--arch", "direct"]) == 0
        a = blockio.read_samples(out_fft)
        b = blockio.read_samples(out_dir)
        assert np.abs(a - b).max() <= 1e-10

    def test_modulate_demodulate_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, k=8, m=4, n_cp=8, n_cs=2)
        sym = tmp_path / "sym.bin"
        sent = qpsk_symbols(7, 32)
        blockio.write_samples(sym, sent)
        block = tmp_path / "block.bin"
        est = tmp_path / "est.bin"
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(block)]) == 0
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est)]) == 0
        got = blockio.read_samples(est)
        assert np.abs(got - sent).max() <= 1e-9

    def test_consecutive_calls_share_no_parsed_state(self, tmp_path):
        # The parser is built once per process; options given to one call
        # (--format csv, --arch direct) must not leak into the next.
        assert _build_parser() is _build_parser()
        cfg = write_config(tmp_path, k=8, m=4, n_cp=8, arch="fft")
        sym = tmp_path / "sym.bin"
        sent = qpsk_symbols(11, 32)
        blockio.write_samples(sym, sent)
        block = tmp_path / "block.csv"
        est = tmp_path / "est"  # no suffix: the format falls back to binary
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(block),
                     "--format", "csv", "--arch", "direct", "--domain", "fd"]) == 0
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est)]) == 0
        assert block.read_text().startswith("index,re,im\n")
        assert est.read_bytes().startswith(blockio.MAGIC)
        assert np.abs(blockio.read_samples(est) - sent).max() <= 1e-9
        args = _build_parser().parse_args(["loopback", "--config", str(cfg)])
        assert (args.arch, args.domain) == (None, None) and not hasattr(args, "format")

    def test_modulate_malformed_csv_line_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        sym = tmp_path / "sym.csv"
        blockio.write_samples(sym, qpsk_symbols(3, 32), "csv")
        sym.write_text(sym.read_text() + "junk\n")
        out = tmp_path / "o.bin"
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(out)]) == 2
        assert "malformed CSV sample line: 'junk'" in capsys.readouterr().err
        assert not out.exists()

    def test_modulate_reads_csv_by_content(self, tmp_path):
        cfg = write_config(tmp_path)
        sent = qpsk_symbols(4, 32)
        for name in ("symbols.csv", "symbols.txt"):
            blockio.write_samples(tmp_path / name, sent, "csv")
            assert main(["modulate", "--config", str(cfg), "--in", str(tmp_path / name),
                         "--out", str(tmp_path / f"{name}.bin")]) == 0
        block = (tmp_path / "symbols.csv.bin").read_bytes()
        assert (tmp_path / "symbols.txt.bin").read_bytes() == block

    @pytest.mark.parametrize("snr", ["-inf", "nan", math.nan, -math.inf])
    def test_non_finite_snr_exits_2(self, tmp_path, capsys, snr):
        # JSON NaN / -Infinity literals and the "nan" / "-inf" strings.
        cfg = write_config(tmp_path, k=4, m=4, snr_db=snr)
        assert main(["loopback", "--config", str(cfg)]) == 2
        assert "snr_db must be finite or +inf" in capsys.readouterr().err

    def test_modulate_empty_input_fails(self, tmp_path):
        cfg = write_config(tmp_path)
        sym = tmp_path / "sym.bin"
        sym.write_bytes(b"")
        assert main(["modulate", "--config", str(cfg), "--in", str(sym),
                     "--out", str(tmp_path / "o.bin")]) == 2

    @pytest.mark.parametrize("fmt,bad", [("csv", complex(np.nan, 0)), ("bin", complex(0, np.inf))])
    def test_modulate_non_finite_input_exits_2(self, tmp_path, capsys, fmt, bad):
        cfg = write_config(tmp_path)
        sym = tmp_path / f"sym.{fmt}"
        sent = qpsk_symbols(3, 32)
        sent[5] = bad
        blockio.write_samples(sym, sent, fmt)
        out = tmp_path / "o.bin"
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("taps", [[[math.nan, 0.0], [0.1, 0.0]], [[math.inf, 0.0]], [[1.0, -math.inf]]])
    def test_non_finite_channel_taps_exit_2(self, tmp_path, capsys, taps):
        # JSON NaN / Infinity literals; they used to run and report nmse=nan.
        cfg = write_config(tmp_path, channel_taps=taps)
        assert main(["loopback", "--config", str(cfg)]) == 2
        assert "channel taps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,raw",
        [("k", "8.9"), ("m", "4.5"), ("seed", "1.7"), ("n_cp", "true"), ("n_cs", "false"),
         ("l_max", "16.5"), ("k_on", "[1.5, 2]"), ("m_on", "[0, true]"), ("k", "Infinity"),
         ("l_max", "1e400"), ("seed", "NaN")],
    )
    def test_non_integer_field_exits_2(self, tmp_path, capsys, field, raw):
        # Each used to be truncated (k 8.9 ran K=8, n_cp true ran 1) or to escape as an OverflowError.
        path = write_config(tmp_path)
        data = json.loads(path.read_text())
        data[field] = "RAW"
        path.write_text(json.dumps(data).replace('"RAW"', raw))
        assert main(["loopback", "--config", str(path)]) == 2
        assert re.search(f"{field} must be an? (positive )?integer", capsys.readouterr().err)

    def test_integral_floats_run_as_integers(self, tmp_path, capsys):
        ints = dict(k=8, m=4, n_cp=8, n_cs=1, seed=3, l_max=16, k_on=[1, 2], m_on=[0, 3])
        reports = []
        for fields in (ints, {name: (list(map(float, v)) if isinstance(v, list) else float(v))
                              for name, v in ints.items()}):
            assert main(["loopback", "--config", str(write_config(tmp_path, **fields))]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("seed,code", [(2**64 - 1, 0), (2**64, 2), (2**71, 2)])
    def test_loopback_seed_bounded_to_u64(self, tmp_path, seed, code):
        # The noise stream takes the seed modulo 2**64, so a larger one would alias.
        cfg = write_config(tmp_path, seed=seed, snr_db=20.0)
        assert main(["loopback", "--config", str(cfg)]) == code

    def test_loopback_command(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, k=16, m=16,
            channel_taps=[[1.0, 0.0], [0.4, -0.2], [0.1, 0.05], [0.0, -0.05]],
        )
        assert main(["loopback", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "nmse=" in out and "(match)" in out

    def test_analyze_table_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main([
            "analyze", "--kinds", "DIR_TD_TD",
            "--k-list", "16,32,64,128", "--m-list", "16", "--out", str(out),
        ]) == 0
        rows = {}
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            rows[int(cells[1])] = (int(cells[5]), int(cells[6]), float(cells[7]))
        assert rows[16] == (2330, 373, 16.0)
        assert rows[32][0] == 4186 and rows[32][1] == 405
        assert rows[64][0] == 7966 and rows[128][0] == 15390

    def test_analyze_marks_missing_cost_entries(self, capsys):
        assert main(["analyze", "--kinds", "DIR_TD_TD", "--k-list", "4", "--m-list", "16"]) == 0
        assert "missing cost entry" in capsys.readouterr().out

    def test_analyze_full_sweep(self, capsys):
        assert main(["analyze", "--kinds", "all", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1 + 7 * 11  # header + kinds x factorizations


#: The options of each file or link command beside ``--config``, ``--in`` and ``--out``: each changes
#: what its command writes.
OPTIONS = {
    "pulse": {"--domain": "fd"},
    "modulate": {"--format": "csv", "--arch": "direct", "--domain": "fd"},
    "demodulate": {"--format": "csv", "--arch": "direct", "--domain": "fd"},
    "loopback": {"--arch": "direct", "--domain": "fd"},
}


class TestOptions:
    """A command takes only the options that change its output; argparse refuses any other (exit 2)."""

    def test_the_parser_registers_exactly_these_options(self):
        commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        for command, options in OPTIONS.items():
            registered = {s for a in commands[command]._actions for s in a.option_strings}
            assert registered - {"-h", "--help", "--config", "--in", "--out"} == set(options), command

    @pytest.mark.parametrize("command,option,value", [
        ("loopback", "--format", "csv"), ("pulse", "--format", "bin"), ("pulse", "--arch", "direct")])
    def test_an_option_that_changes_nothing_exits_2(self, tmp_path, capsys, command, option, value):
        # These three used to be accepted and ignored (exit 0).
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path))] + (["--out", str(out)] if command == "pulse" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,option", [(c, o) for c, options in OPTIONS.items() for o in options])
    def test_every_option_changes_its_commands_output(self, tmp_path, capsys, command, option):
        value = OPTIONS[command][option]
        # demodulate takes --domain only on the direct engine; the FFT one demodulates in frequency in both.
        base = {"arch": "direct"} if (command, option) == ("demodulate", "--domain") else {}
        blockio.write_samples(tmp_path / "sym.bin", qpsk_symbols(5, 32))
        assert main(["modulate", "--config", str(write_config(tmp_path)), "--in", str(tmp_path / "sym.bin"),
                     "--out", str(tmp_path / "block.bin")]) == 0
        infile = tmp_path / ("sym.bin" if command == "modulate" else "block.bin")

        def run(name, *extra, **fields):
            """What ``command`` writes, with ``extra`` options and ``fields`` set in the configuration."""
            (tmp_path / name).mkdir()
            cfg, out = write_config(tmp_path / name, **base, **fields), tmp_path / name / "out"  # no suffix: binary
            argv = [command, "--config", str(cfg), *extra]
            argv += {"loopback": [], "pulse": ["--out", str(out)]}.get(command, ["--in", str(infile), "--out", str(out)])
            capsys.readouterr()
            assert main(argv) == 0
            if command == "loopback":
                return capsys.readouterr().out
            return sorted((p.name, p.read_bytes()) for p in out.iterdir()) if out.is_dir() else out.read_bytes()

        plain, given = run("plain"), run("given", option, value)
        assert given != plain
        if option != "--format":  # an override gives what the configured field gives
            assert given == run("configured", **{option[2:]: value})

    @pytest.mark.parametrize("configured,extra", [
        ("fft", ["--domain", "td"]), ("fft", ["--domain", "fd"]), ("direct", ["--arch", "fft", "--domain", "fd"])])
    def test_demodulate_domain_on_the_fft_engine_exits_2(self, tmp_path, capsys, configured, extra):
        # The FFT receiver demodulates in frequency in both domains: --domain td and fd used to write
        # byte-identical estimates with exit 0.  --arch is applied first.
        cfg, sym = write_config(tmp_path, arch=configured), tmp_path / "sym.bin"
        block, est = tmp_path / "block.bin", tmp_path / "est.bin"
        blockio.write_samples(sym, qpsk_symbols(5, 32))
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(block)]) == 0
        capsys.readouterr()
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "invalid configuration: demodulate --domain is for the direct engine: "
            "the FFT one demodulates in frequency in both domains\n")
        assert not est.exists()
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est),
                     "--arch", "direct", "--domain", "fd"]) == 0


class TestTypeRule:
    @pytest.mark.parametrize(
        "field,value",
        [("alpha", True), ("delta", False), ("snr_db", True), ("snr_db", "10"), ("alpha", "0.5"),
         ("delta", None), ("alpha", np.bool_(True)), ("pulse", 3), ("rx", None), ("arch", b"fft"),
         ("domain", 1), ("channel_taps", "abc"), ("channel_taps", (1.0, "0.5")),
         ("channel_taps", (True,)), ("channel_taps", 1.0), ("channel_taps", ([1.0, 0.0],))],
    )
    def test_wrong_type_is_a_config_error_naming_the_field(self, field, value):
        # Each used to construct (alpha=True) or to escape as TypeError, AttributeError or ValueError.
        with pytest.raises(ConfigError, match=field):
            RunConfig(k=8, m=4, n_cp=1, **{field: value})

    @pytest.mark.parametrize(
        "field,value,message",
        [("snr_db", True, "snr_db must be a real number, got True"),
         ("alpha", False, "alpha must be a real number, got False"),
         ("delta", True, "delta must be a real number, got True"),
         ("channel_taps", [True], "channel_taps entry must be a real number, got True"),
         ("channel_taps", [[1, True]], "channel_taps part must be a real number, got True"),
         ("channel_taps", [1, [False, 0.5]], "channel_taps part must be a real number, got False"),
         ("alpha", [1], "malformed configuration value: alpha must be a real number, got [1]"),
         ("alpha", None, "malformed configuration value: alpha must be a real number, got None"),
         ("delta", {"a": 1}, "malformed configuration value: delta must be a real number, got {'a': 1}"),
         ("snr_db", "abc", "malformed configuration value: snr_db must be a real number, got 'abc'"),
         ("channel_taps", [None], "malformed configuration value: channel_taps entry must be a real number, got None"),
         ("channel_taps", [{"re": 1}], "malformed configuration value: channel_taps entry must be a real number, "
                                       "got {'re': 1}"),
         ("channel_taps", [[1, [2]]], "malformed configuration value: channel_taps part must be a real number, got [2]"),
         ("channel_taps", ["x"], "malformed configuration value: channel_taps entry must be a real number, got 'x'"),
         pytest.param("delta", 10**400, "malformed configuration value: delta must be a real number within float range",
                      id="delta-10**400"),
         ("channel_taps", [[1, 10**400]],
          "malformed configuration value: channel_taps part must be a real number within float range")],
    )
    def test_a_non_number_is_refused_naming_the_field(self, tmp_path, capsys, field, value, message):
        # float() used to turn booleans into 1.0 and 0.0: snr_db true ran a 1 dB link and exited 0.  A null,
        # array, object or other string escaped as CPython's float() text, naming no field.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config({"k": 8, "m": 4, "n_cp": 1, field: value})
        assert main(["loopback", "--config", str(write_config(tmp_path, **{field: value}))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value,held",
        [("alpha", "0.25", 0.25), ("snr_db", "10", 10.0), ("snr_db", "inf", math.inf),
         ("snr_db", None, math.inf), ("channel_taps", ["1", ["0.5", "-0.5"]], (1 + 0j, 0.5 - 0.5j))],
    )
    def test_numeric_strings_and_null_keep_their_values(self, field, value, held):
        assert getattr(parse_config({"k": 8, "m": 4, "n_cp": 1, field: value}), field) == held

    def test_a_file_and_a_constructor_spell_one_pulse_alike(self):
        # RunConfig held the name as given and parse_config lower-cased it, so "RRC" made two unequal configurations.
        read, built = parse_config({"k": 8, "m": 4, "pulse": "RRC"}), RunConfig(k=8, m=4, pulse="RRC")
        assert read == built and hash(read) == hash(built) and read.pulse == built.pulse == "rrc"

    @pytest.mark.parametrize(
        "field,value,message",
        [("alpha", None, "malformed configuration value"), ("channel_taps", [None], "malformed configuration value")],
    )
    def test_null_keeps_its_message(self, field, value, message):
        # The "nan" and "-inf" SNR strings keep theirs: see test_non_finite_snr_exits_2.
        with pytest.raises(ConfigError, match=message):
            parse_config({"k": 8, "m": 4, "n_cp": 1, field: value})

    @pytest.mark.parametrize(
        "field,raw",
        [("channel_taps", '"12"'), ("channel_taps", '{"1": 0}'), ("channel_taps", "null"), ("channel_taps", "1.0"),
         ("k_on", "0"), ("k_on", "false"), ("k_on", '""'), ("k_on", "{}"), ("k_on", "3"), ("m_on", '"0"'),
         ("m_on", '{"0": 1}')],
    )
    def test_a_list_field_that_is_no_json_array_exits_2(self, tmp_path, capsys, field, raw):
        # "12" ran the taps [1, 2] and {"1": 0} the taps [1]; k_on 0, false, "" and {} ran the full grid.
        path = write_config(tmp_path)
        data = json.loads(path.read_text())
        data[field] = "RAW"
        path.write_text(json.dumps(data).replace('"RAW"', raw))
        assert main(["loopback", "--config", str(path)]) == 2
        assert f"invalid configuration: {field} must be a JSON array, got " in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [None, []])
    def test_null_or_an_empty_array_is_the_full_active_set(self, raw):
        assert parse_config({"k": 8, "m": 4, "k_on": raw, "m_on": raw}) == RunConfig(k=8, m=4)

    def test_real_fields_are_held_as_float(self):
        cfg = RunConfig(k=8, m=4, alpha=np.float64(0.25), delta=np.float32(0.5), snr_db=10, n_cp=3,
                        channel_taps=(1, 0.5, 0.1j, np.complex128(0.2)))
        assert [type(getattr(cfg, name)) for name in ("alpha", "delta", "snr_db")] == [float] * 3
        assert (cfg.alpha, cfg.delta, cfg.snr_db) == (0.25, 0.5, 10.0)

    def test_parse_config_output_is_unchanged(self, tmp_path):
        data = json.loads(write_config(tmp_path, alpha=1, snr_db=12, channel_taps=[1, [0.5, 0.25]]).read_text())
        cfg = parse_config(data)
        assert cfg == RunConfig(k=8, m=4, alpha=1.0, snr_db=12.0, n_cp=8, seed=1,
                                channel_taps=(1 + 0j, 0.5 + 0.25j))
        assert type(cfg.alpha) is float and all(type(t) is complex for t in cfg.channel_taps)

    def test_params_built_once_per_config_object(self):
        cfg = RunConfig(k=8, m=4, k_on=(3, 1))
        assert cfg.params is cfg.params and cfg.params.k_on == (1, 3)
        other = replace(cfg, k=16)
        assert other.params is not cfg.params and other.params.k == 16 and cfg.params.k == 8


class TestCliRefusals:
    def test_demodulate_refuses_binary_with_extra_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        sym, block, est = tmp_path / "sym.bin", tmp_path / "block.bin", tmp_path / "est.bin"
        blockio.write_samples(sym, qpsk_symbols(1, 32))
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(block)]) == 0
        block.write_bytes(block.read_bytes() + b"garbage-tail-not-samples")
        capsys.readouterr()
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est)]) == 2
        assert "longer than its header" in capsys.readouterr().err
        assert not est.exists()

    def test_demodulate_refuses_a_block_of_another_length(self, tmp_path, capsys):
        cfg, block, est = write_config(tmp_path, n_cp=2), tmp_path / "block.bin", tmp_path / "est.bin"
        blockio.write_samples(block, np.ones(33))  # K=8, M=4 and n_cp=2 frame 34 samples
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid configuration: expected 34 framed samples, got 33\n" and captured.out == ""
        assert not est.exists()

    @pytest.mark.parametrize("text,message", [
        ("[8, 4]", "configuration must be a JSON object"),
        ('{"k": 8}', "configuration needs at least 'k' and 'm'"),
        ('{"m": 4}', "configuration needs at least 'k' and 'm'"),
        ('{"k": 8, "m": 4, "channel_taps": [[1, 0, 0]]}', "channel tap [1, 0, 0] is not a [re, im] pair"),
    ])
    def test_a_malformed_configuration_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["loopback", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid configuration: {message}\n" and captured.out == ""

    def test_a_configuration_that_does_not_exist_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["loopback", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: cannot read configuration: ") and captured.out == ""
        assert str(path) in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("arch", ["fft", "direct"])
    def test_loopback_with_overflowing_channel_taps_exits_2(self, tmp_path, capsys, arch):
        # Finite taps whose channel products overflow used to print nmse=nan and exit 0.
        cfg = write_config(tmp_path, k=4, m=8, arch=arch, channel_taps=[[1e308, 1e308]])
        assert main(["loopback", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "invalid input: the block leaves the finite range" in captured.err and captured.out == ""

    @pytest.mark.parametrize("arch", ["fft", "direct"])
    def test_modulate_overflowing_symbols_exits_2(self, tmp_path, capsys, arch):
        # 1e308+1e308j symbols are finite; their block used to be written as nan samples with exit 0.
        cfg = write_config(tmp_path, arch=arch)
        sym, out = tmp_path / "sym.bin", tmp_path / "block.bin"
        blockio.write_samples(sym, np.full(32, 1e308 + 1e308j))
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(out)]) == 2
        assert "finite range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arch", ["fft", "direct"])
    def test_demodulate_overflowing_block_exits_2(self, tmp_path, capsys, arch):
        # A finite block of 1e308 samples used to be written as nan,nan estimate rows with exit 0.
        cfg = write_config(tmp_path, arch=arch)
        block, est = tmp_path / "block.csv", tmp_path / "est.csv"
        blockio.write_samples(block, np.full(40, 1e308 + 0j), "csv")
        assert main(["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est)]) == 2
        assert "finite range" in capsys.readouterr().err
        assert not est.exists()

    @pytest.mark.parametrize("command", ["loopback", "modulate", "demodulate", "pulse"])
    def test_geometry_too_large_to_allocate_exits_2(self, tmp_path, capsys, command):
        # K*M = 2**64 used to exit 1 with a MemoryError traceback, then 2 once CPython refused
        # its K-entry active set; the block bound now refuses it before anything is allocated.
        cfg = write_config(tmp_path, k=2**62, m=4)
        out = tmp_path / "out"
        files = [] if command == "loopback" else ["--out", str(out)]
        if command in ("modulate", "demodulate"):
            files += ["--in", str(tmp_path / "in.bin")]
        assert main([command, "--config", str(cfg), *files]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid configuration: block length K*M = {2**64} exceeds MAX_N = {2**20}\n"
        assert captured.out == "" and not out.exists()

    @staticmethod
    def command_argv(tmp_path, command):
        """``command`` on the default configuration with a legal input file, and its output path."""
        cfg, out = write_config(tmp_path), tmp_path / "out.bin"
        if command == "loopback":
            return ["loopback", "--config", str(cfg)], out
        infile = tmp_path / "in.bin"
        blockio.write_samples(infile, qpsk_symbols(1, 32 if command == "modulate" else 40))
        return [command, "--config", str(cfg), "--in", str(infile), "--out", str(out)], out

    @pytest.mark.parametrize("command", ["loopback", "modulate", "demodulate"])
    def test_a_block_the_machine_cannot_hold_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # A geometry within MAX_N can still exhaust memory: main turns that into one line and exit 2.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(gfdm_modem.link, {"loopback": "run_loopback"}.get(command, f"{command}_block"), exhausted)
        argv, out = self.command_argv(tmp_path, command)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid configuration: the block geometry does not fit in memory\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["loopback", "modulate", "demodulate"])
    def test_a_transform_that_overflows_without_a_flag_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # A BLAS dot raises no flag on overflow under finite_only: the command's last engine
        # returning inf without a flag stands in for it.
        name = "run_modulator" if command == "modulate" else "run_demodulator"
        real = getattr(gfdm_modem.fft_modem, name)
        monkeypatch.setattr(gfdm_modem.fft_modem, name,
                            lambda cfg, s, counter=None: np.full_like(real(cfg, s, counter), np.inf))
        argv, out = self.command_argv(tmp_path, command)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "invalid input: the block leaves the finite range (non-finite result)\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("overlap", ["-3", "0"])
    def test_analyze_overlap_below_one_exits_2(self, capsys, overlap):
        # --overlap -3 used to exit 0 with negative counts in the sparse rows.
        assert main(["analyze", "--n", "8", "--overlap", overlap]) == 2
        captured = capsys.readouterr()
        assert "band overlap L must be a positive integer" in captured.err and captured.out == ""

    def test_analyze_default_and_large_overlap_rows_unchanged(self, capsys):
        assert main(["analyze", "--kinds", "DIR_FD_FD_SPARSE", "--n", "8"]) == 0
        assert "DIR_FD_FD_SPARSE,8,1,8,56,,,,ok" in capsys.readouterr().out
        assert main(["analyze", "--kinds", "DIR_FD_FD_SPARSE", "--n", "8", "--overlap", "9"]) == 0
        assert "DIR_FD_FD_SPARSE,8,1,8,168,,,,ok" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["--kinds", "", "--n", "8"], "--kinds lists nothing: ''"),
        (["--kinds", ",,", "--n", "8"], "--kinds lists nothing: ',,'"),
        (["--kinds", ",", "--k-list", "4", "--m-list", "2"], "--kinds lists nothing: ','"),
        (["--k-list", " ", "--m-list", "2"], "--k-list lists nothing: ' '"),
        (["--k-list", "4", "--m-list", ","], "--m-list lists nothing: ','"),
        (["--k-list", "", "--m-list", "2"], "analyze needs either --n or both --k-list and --m-list"),
        (["--k-list", "4,x", "--m-list", ","], "bad integer list '4,x'"),
    ])
    def test_analyze_list_with_no_entry_exits_2(self, capsys, argv, message):
        # An empty list used to print only the CSV header and exit 0.
        assert main(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid configuration: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["--n", "12"], "N must be a power of two, got 12"),
        (["--kinds", "FOO", "--n", "8"], "unknown architecture kind 'FOO'"),
    ])
    def test_analyze_refusals_exit_2(self, capsys, argv, message):
        assert main(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid configuration: {message}\n" and captured.out == ""


class TestProcessExitCodes:
    @pytest.mark.parametrize(
        "overrides,code,stderr",
        [({}, 0, ""), ({"k": "eight"}, 2, "invalid configuration"),
         ({"k": 4, "m": 4, "alpha": 0.0, "delta": 0.0}, 3, "numerical error")],
    )
    def test_module_entry_point_exits_with_main_code(self, tmp_path, overrides, code, stderr):
        src = str(Path(gfdm_modem.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "gfdm_modem.cli", "loopback", "--config", str(write_config(tmp_path, **overrides))],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert stderr in proc.stderr
        assert ("(match)" in proc.stdout) == (code == 0)


class TestOutputsRewrittenInPlace:
    """Every file the CLI writes is written over an existing one in place and cut to length."""

    @staticmethod
    def run_commands(tmp_path, out, fmt):
        """Run pulse, modulate, demodulate and analyze --out into ``out``; the bytes of each file written."""
        cfg, sym = write_config(tmp_path, n_cs=2), tmp_path / "sym.bin"
        blockio.write_samples(sym, qpsk_symbols(5, 32))
        block, est = out / f"block.{fmt}", out / f"est.{fmt}"
        for argv in (["pulse", "--config", cfg, "--out", out],
                     ["modulate", "--config", cfg, "--in", sym, "--out", block],
                     ["demodulate", "--config", cfg, "--in", block, "--out", est],
                     ["analyze", "--n", "64", "--out", out / "table.csv"]):
            assert main([str(arg) for arg in argv]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("old", [lambda n: n + 1000, lambda n: n, lambda n: n // 2],
                             ids=["longer", "same", "shorter"])
    def test_files_written_over_existing_ones_equal_fresh_ones(self, tmp_path, fmt, old):
        fresh = self.run_commands(tmp_path, tmp_path / "fresh", fmt)
        assert len(fresh) == 11  # pulse's eight, the block, the estimate and the table
        over = tmp_path / "over"
        over.mkdir()
        for name, data in fresh.items():
            (over / name).write_bytes(b"#" * old(len(data)))
        assert self.run_commands(tmp_path, over, fmt) == fresh

    def test_a_failed_write_exits_2_with_one_io_error_line(self, tmp_path, capsys, monkeypatch, fail_write):
        cfg, sym, block, est = write_config(tmp_path), tmp_path / "sym.bin", tmp_path / "block.bin", tmp_path / "est.csv"
        blockio.write_samples(sym, qpsk_symbols(1, 32))
        argv = ["demodulate", "--config", str(cfg), "--in", str(block), "--out", str(est)]
        assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(block)]) == 0
        assert main(argv) == 0
        whole = est.read_bytes()
        est.write_bytes(b"#" * 2 * len(whole))
        capsys.readouterr()
        fail_write(40)
        assert main(argv) == 2
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("i/o error:") and captured.err.count("\n") == 1
        assert est.read_bytes() == whole[:40]


class TestUndecodableConfig:
    @pytest.mark.parametrize("command", ["pulse", "modulate", "demodulate", "loopback"])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        # The UnicodeDecodeError used to escape as a traceback with exit code 1.
        path = tmp_path / "config.json"
        path.write_bytes(b'\xff\xfe{"k": 8}')
        files = [] if command == "loopback" else ["--out", str(tmp_path / "out")]
        if command in ("modulate", "demodulate"):
            files += ["--in", str(tmp_path / "in.bin")]
        assert main([command, "--config", str(path), *files]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "UTF-8" in err and "Traceback" not in err


class TestFloatRange:
    """A real field given an integer beyond float range is refused by the field's own rule."""

    @pytest.mark.parametrize(
        "field,value,name",
        [("snr_db", 10**400, "snr_db"), ("snr_db", -10**400, "snr_db"), ("alpha", 10**400, "alpha"),
         ("delta", 10**400, "delta"), ("channel_taps", (10**400,), "channel.taps")],
        ids=["snr_db", "negative-snr_db", "alpha", "delta", "channel_taps"],
    )
    def test_run_config_refuses_integer_beyond_float_range(self, field, value, name):
        # Each used to escape as OverflowError from float() or from the taps' complex conversion.
        with pytest.raises(ConfigError, match=name):
            RunConfig(k=8, m=4, **{field: value})


#: Every configuration key's legal values, with N = K*M <= 1024 (finite taps of 1e308 overflow in the chain).
LEGAL_VALUES = {
    "k": st.sampled_from([2, 4, 8, 16, 32]), "m": st.sampled_from([1, 2, 4, 8, 16, 32]),
    "pulse": st.sampled_from(["rc", "rrc", "dirichlet", "rect_td"]),
    "alpha": st.sampled_from([0.0, 0.25, 0.5, 1.0]), "delta": st.sampled_from([0.0, 0.5]),
    "rx": st.sampled_from(["zf", "mf"]), "arch": st.sampled_from(["fft", "direct"]),
    "domain": st.sampled_from(["td", "fd"]), "k_on": st.sampled_from([None, [1, 0]]),
    "m_on": st.sampled_from([None, [0]]), "n_cp": st.integers(0, 4), "n_cs": st.integers(0, 2),
    "channel_taps": st.sampled_from([[1.0], [[1.0, 0.0], [0.3, -0.1]], [[0.9, 0.1], 0.2, [0.0, -0.05]],
                                     [[1e308, 1e308]]]),
    "snr_db": st.sampled_from([None, "inf", 20.0, -5.0]), "seed": st.integers(0, 2**64 - 1),
    "l_max": st.integers(1, 32),
}
#: Values a file may hold in any key: wrong types, out of range, non-finite, nested or null.
ADVERSARIAL = st.sampled_from([True, False, 8.5, "8", 2**64, 2**30, 1e308, "nan", [[1, [2]]], None, -1, -8])
#: Pieces of sample files, spliced in any order: valid and malformed CSV text and binary.
SAMPLE_PIECES = st.sampled_from([
    b"index,re,im\n", b"0,0.7071067811865476,-0.7071067811865476\n", b"1,1e308,1e308\n", b"2,nan,0\n",
    b"3,1.0\n", b"x,y,z\n", b"\xff\xfe", b"\n",
    blockio.MAGIC + (4).to_bytes(4, "little") + bytes(4), np.full(4, 0.5 - 0.5j).astype("<c16").tobytes(),
    np.array([np.inf]).astype("<c16").tobytes(), bytes(7),
])


#: What a byte mutation inserts: non-finite and out-of-range numbers, an underscore literal, a BOM,
#: NUL, a carriage return, a CSV header and the binary magic.
TOKENS = [b"nan", b"inf", b"1e999", b"1_0", b"\xef\xbb\xbf", b"\x00", b"\r", b"index,re,im", blockio.MAGIC]
#: The first words of every refusal ``cli.main`` prints.
REFUSALS = ("invalid input: ", "invalid configuration: ", "numerical error: ", "i/o error: ")


@functools.cache
def valid_inputs():
    """The bytes of a valid configuration, its CSV symbol file and the binary block ``modulate`` writes."""
    config = {"k": 8, "m": 4, "pulse": "rc", "alpha": 0.5, "delta": 0.5, "n_cp": 2, "n_cs": 1,
              "channel_taps": [1.0, [0.3, -0.1]], "snr_db": 20.0, "seed": 3, "l_max": 8}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, sym, block = Path(tmp, "config.json"), Path(tmp, "symbols.csv"), Path(tmp, "block.bin")
        cfg.write_text(json.dumps(config))
        blockio.write_samples(sym, qpsk_symbols(4, 32), "csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["modulate", "--config", str(cfg), "--in", str(sym), "--out", str(block)]) == 0
        return {"config": cfg.read_bytes(), "symbols": sym.read_bytes(), "block": block.read_bytes()}


@st.composite
def mutated(draw, data):
    """``data`` after up to three byte mutations: an inserted token, a deletion, a truncation or a
    self-splice (a piece of the data copied in at another place).  None leaves a valid run."""
    for _ in range(draw(st.integers(0, 3))):
        kind, at = draw(st.sampled_from(["insert", "delete", "truncate", "splice"])), draw(st.integers(0, len(data)))
        if kind == "insert":
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
        elif kind == "delete":
            data = data[:at] + data[draw(st.integers(at, min(len(data), at + 16))):]
        elif kind == "truncate":
            data = data[:at]
        else:
            start = draw(st.integers(0, len(data)))
            data = data[:at] + data[start:start + draw(st.integers(1, 32))] + data[at:]
    return data


def library_output(command, cfg_path, infile):
    """What the library gives for the input ``command`` parsed: the samples of its output files, or
    its loopback report line."""
    cfg = load_config(cfg_path)
    if command == "loopback":
        return f"{link.run_loopback(cfg)}\n"
    if command == "pulse":
        pulse = make_prototype(cfg.pulse.upper(), cfg.params, cfg.alpha, cfg.delta)
        w_tx = tx_window(pulse, cfg.domain.upper())
        arrays = {"pulse_time": pulse.time, "pulse_freq": pulse.freq, "w_tx": w_tx, "w_rx": rx_window(w_tx, cfg.rx.upper())}
        return {name: data.reshape(-1, order="F") for name, data in arrays.items()}
    samples = blockio.read_samples(infile)
    if command == "modulate":
        return channel.add_cp(link.modulate_block(cfg, reference.map_symbols(samples, cfg.params)), cfg.n_cp, cfg.n_cs)
    yf_eq = channel.fd_equalize_zf(channel.remove_cp(samples, cfg.n_cp, cfg.n_cs), cfg.channel)
    return reference.demap_symbols(link.demodulate_block(cfg, yf_eq), cfg.params)


class TestCliFuzz:
    """Whatever the configuration and the sample file hold, a run ends in exit 0 with finite
    output, or in exit 2 or 3 with one stderr line and no output file; ``main`` never raises.  The
    byte mutations of a valid configuration, CSV symbol file and binary block reach every file and
    link command, and an exit 0 writes what the library gives for the same parsed input."""

    @settings(max_examples=200, deadline=None)
    @given(
        config=st.fixed_dictionaries(
            {key: LEGAL_VALUES[key] for key in ("k", "m")},
            optional={key: legal for key, legal in LEGAL_VALUES.items() if key not in ("k", "m")}),
        bad=st.dictionaries(st.sampled_from(sorted(LEGAL_VALUES)), ADVERSARIAL, max_size=3),
        command=st.sampled_from(["loopback", "demodulate"]),
        sample=st.sampled_from([None, 0.5 + 0.25j, 1e308 + 0j]),
        pieces=st.lists(SAMPLE_PIECES, max_size=6),
        suffixes=st.tuples(st.sampled_from([".csv", ".bin", ".dat", ""]), st.sampled_from([".csv", ".bin"])),
    )
    def test_every_run_exits_cleanly(self, config, bad, command, sample, pieces, suffixes):
        config = {**config, **bad}
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp, "config.json")
            infile, out = Path(tmp, "in" + suffixes[0]), Path(tmp, "out" + suffixes[1])
            cfg_path.write_text(json.dumps(config))
            argv = [command, "--config", str(cfg_path)]
            if command == "demodulate":
                infile.write_bytes(b"".join(pieces))
                if sample is not None:  # a block of the configured length, so the file reaches the engines
                    with contextlib.suppress(ConfigError):
                        cfg = parse_config(config)
                        block = np.full(cfg.n + cfg.n_cp + cfg.n_cs, sample)
                        blockio.write_samples(infile, block, blockio.guess_format(infile, "csv"))
                argv += ["--in", str(infile), "--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            if code == 0:
                assert stderr.getvalue() == ""
                if command == "demodulate":
                    assert np.isfinite(blockio.read_samples(out)).all()
                else:
                    assert math.isfinite(float(re.search(r"nmse=(\S+)", stdout.getvalue()).group(1)))
            else:
                assert code in (2, 3)
                assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
                assert not out.exists()

    @settings(max_examples=500, deadline=None)
    @given(command=st.sampled_from(["pulse", "modulate", "demodulate", "loopback"]), data=st.data())
    def test_every_byte_mutation_exits_cleanly(self, command, data):
        files = dict(valid_inputs())
        infile = {"modulate": "symbols", "demodulate": "block"}.get(command)
        target = data.draw(st.sampled_from(["config"] + ([infile] if infile else [])))
        files[target] = data.draw(mutated(files[target]))
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"config": Path(tmp, "config.json"), "symbols": Path(tmp, "symbols.csv"),
                     "block": Path(tmp, "block.bin")}
            for name, path in paths.items():
                path.write_bytes(files[name])
            out = Path(tmp, "out")  # no suffix: a sample file is written in binary
            argv = [command, "--config", str(paths["config"])]
            if command == "pulse":
                argv += ["--out", str(out)]
            elif infile:
                argv += ["--in", str(paths[infile]), "--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            if code in (2, 3):
                assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().startswith(REFUSALS)
                assert not out.exists()
                return
            assert code == 0 and stderr.getvalue() == ""
            want = library_output(command, paths["config"], infile and paths[infile])
            if command == "loopback":
                assert stdout.getvalue() == want
                assert math.isfinite(float(re.search(r"nmse=(\S+)", want).group(1)))
            elif command == "pulse":
                for name, samples in want.items():
                    assert np.isfinite(samples).all()
                    assert blockio.read_samples(out / f"{name}.bin").tobytes() == samples.tobytes()
            else:
                assert np.isfinite(want).all()
                assert blockio.read_samples(out).tobytes() == want.tobytes()
