"""Sample-file codec: the CSV and binary bytes and the CSV parsing rules, against the per-sample codec;
the in-place writer against a truncating write."""

import errno
import json
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gfdm_modem import blockio, cli, csvtext
from gfdm_modem.errors import ConfigError


def per_sample_write(path, data, fmt="bin"):
    """The writer as it was: an interleave copy for binary, one ``write`` per CSV sample."""
    vec = np.asarray(data, dtype=np.complex128).reshape(-1, order="F")
    if fmt == "bin":
        inter = np.empty(2 * vec.size, dtype="<f8")
        inter[0::2] = vec.real
        inter[1::2] = vec.imag
        with path.open("wb") as fh:
            fh.write(blockio._HEADER.pack(blockio.MAGIC, vec.size, 0))
            fh.write(inter.tobytes())
    else:
        with path.open("w") as fh:
            fh.write("index,re,im\n")
            for i, v in enumerate(vec):
                fh.write(f"{i},{float(v.real)!r},{float(v.imag)!r}\n")


def per_line_read_csv(path):
    """The CSV reader as it was: one ``complex`` per line, read line by line."""
    values = []
    try:
        with path.open() as fh:
            for row, line in enumerate(filter(None, map(str.strip, fh))):
                cells = line.split(",")
                try:
                    values.append(complex(float(cells[1]), float(cells[2])))
                except (IndexError, ValueError):
                    if row == 0:  # header line
                        continue
                    raise ConfigError(f"malformed CSV sample line: {line!r}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not a text CSV sample file") from None
    if not values:
        raise ConfigError(f"no samples in {path}")
    samples = np.asarray(values, dtype=np.complex128)
    if not np.isfinite(samples).all():
        raise ConfigError(f"{path} holds non-finite samples")
    return samples


def outcome(read, path):
    """The samples' bytes, or the error message."""
    try:
        return read(path).tobytes()
    except ConfigError as exc:
        return str(exc)


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e308, -1e308, 0.1, 1.0 / 3.0, 123456789.0]
reals = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
samples = st.lists(st.builds(complex, reals, reals), min_size=1, max_size=40)


class TestWriterBytes:
    @given(samples, st.booleans())
    @example([complex(-0.0, 5e-324), complex(1e16, 1e-5), complex(1e308, -0.0)], False)
    def test_csv_and_binary_bytes_are_unchanged(self, values, as_matrix):
        data = np.array(values, dtype=np.complex128)
        if as_matrix and data.size % 2 == 0:
            data = data.reshape(2, -1)  # flattened in column-major order
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "bin"):
                new, old = Path(tmp, f"new.{fmt}"), Path(tmp, f"old.{fmt}")
                blockio.write_samples(new, data, fmt)
                per_sample_write(old, data, fmt)
                assert new.read_bytes() == old.read_bytes()

    @given(samples)
    def test_csv_round_trip_is_bit_exact(self, values):
        data = np.array(values, dtype=np.complex128)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "s.csv")
            blockio.write_samples(path, data, "csv")
            got = blockio.read_samples(path)
            assert got.tobytes() == data.tobytes() == per_line_read_csv(path).tobytes()


#: Lines for drawn CSV files: samples (plain, padded, with extra cells), headers and malformed lines.
LINES = ["index,re,im", "0,1.0,2.0", "1,-0.0,5e-324", "2,1e308,-1e-5", " 3 , 0.5 ,  -2.5  ", "4,1,2,3,4",
         "x,7,8", "5,1e16", "6,abc,1.0", "7,1.0,", "junk", "", "   ", "\t", "8,nan,0", "9,1,inf",
         "10,1_0,0x", "11,  ,1", "12,1.0,2.0\u2028", "\x0c", "13,\x0c1.5,2\x0b"]


class TestReaderRules:
    @given(st.lists(st.sampled_from(LINES), max_size=8), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans())
    def test_drawn_files_read_as_the_per_line_reader_reads_them(self, lines, newline, trailing):
        text = newline.join(lines) + (newline if trailing else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "s.csv")
            path.write_bytes(text.encode())
            assert outcome(blockio.read_samples, path) == outcome(per_line_read_csv, path)

    @pytest.mark.parametrize(
        "text",
        [
            "index,re,im\n0,1.0,2.0\n1,3.0,-4.0\n",  # header
            "0,1.0,2.0\n1,3.0,-4.0\n",  # headerless
            "index,re,im\r\n0,1.0,2.0\r\n1,3.0,-4.0\r\n",  # CRLF
            "index,re,im\n  0 ,  1.0 , 2.0  \n\n 1, 3.0 ,-4.0\n",  # padded cells, a blank line
            "index,re,im\n0,1.0,2.0,extra,cells\n1,3.0,-4.0,9\n",  # extra cells ignored
            "garbage\n0,1.0,2.0\n",  # a malformed row 0 is a header
            "index,re,im\n0,1.0\n1,3.0,-4.0\n",  # malformed row 1
            "index,re,im\n0,1.0,2.0\n1,3.0,oops",  # malformed last row
            "",  # empty
            "\n \n",  # blank only
            "index,re,im\n",  # header only
            "index,re,im\n0,nan,2.0\n",  # parsed, then refused as non-finite
        ],
    )
    def test_hand_cases(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        assert outcome(blockio.read_samples, path) == outcome(per_line_read_csv, path)

    def test_messages_name_the_first_bad_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,re,im\n0,1,2\n  1,2  \n2,x,3\n")
        with pytest.raises(ConfigError, match=r"^malformed CSV sample line: '1,2'$"):
            blockio.read_samples(path)
        path.write_text("index,re,im\n")
        with pytest.raises(ConfigError, match="no samples in"):
            blockio.read_samples(path)

    def test_non_utf8_is_not_a_text_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"index,re,im\n0,1.0,2.0\n1,\xff\xfe,3.0\n")
        with pytest.raises(ConfigError, match="is not a text CSV sample file"):
            blockio.read_samples(path)
        assert outcome(blockio.read_samples, path) == outcome(per_line_read_csv, path)

    def test_non_utf8_after_a_malformed_line_is_still_refused(self, tmp_path):
        # The whole text is decoded before any line is parsed, so this file reports its
        # encoding where the line-by-line reader reported the malformed line; both refuse it.
        path = tmp_path / "s.csv"
        path.write_bytes(b"index,re,im\njunk\n" + b"0,1.0,2.0\n" * 2000 + b"\xff\n")
        with pytest.raises(ConfigError, match="is not a text CSV sample file"):
            blockio.read_samples(path)
        with pytest.raises(ConfigError, match="malformed CSV sample line: 'junk'"):
            per_line_read_csv(path)


#: Bodies of 16 sample lines each (one K=M=4 grid): the writer's own grammar, text a line parser
#: reads (padded, non-ASCII whitespace and digits), non-ASCII text that is malformed, and bytes that
#: are not UTF-8.
READ_ONCE_BODIES = {
    "grammar": [f"{i},{0.5 * i!r},{-0.25 * i!r}" for i in range(16)],
    "padded": [f" {i} , {i}.5 ,-1e-3 " for i in range(16)],
    "non-ascii": [f"{i},\u0661.\u0665\u2003,\u00a02" for i in range(16)],
    "non-ascii-malformed": [f"{i},1.0,2.0" for i in range(15)] + ["15,\u00e9,2.0"],
    "invalid-utf8": [f"{i},1.0,2.0" for i in range(15)] + ["15,\udcff,2.0"],
}


class TestReadOnce:
    """``read_samples`` reads a file's bytes once; values, exit codes and messages are the line reader's."""

    @pytest.mark.parametrize("header", [True, False], ids=["header", "headerless"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("body", sorted(READ_ONCE_BODIES))
    def test_values_exit_codes_and_messages_are_the_line_readers(self, tmp_path, capsys, body, newline, header):
        lines = (["index,re,im"] if header else []) + READ_ONCE_BODIES[body]
        path = tmp_path / "symbols.csv"
        path.write_bytes(newline.join([*lines, ""]).encode("utf-8", "surrogateescape"))
        want = outcome(per_line_read_csv, path)
        assert outcome(blockio.read_samples, path) == want
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 4, "m": 4, "rx": "mf"}))
        capsys.readouterr()
        code = cli.main(["modulate", "--config", str(config), "--in", str(path), "--out", str(tmp_path / "x.bin")])
        err = capsys.readouterr().err
        if isinstance(want, bytes):
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"invalid configuration: {want}\n")
        assert (body in ("grammar", "padded", "non-ascii")) == isinstance(want, bytes)

    def test_a_2048_row_read_holds_the_file_once(self, tmp_path):
        # Decoding the text and encoding it again for the parser held the file three times over.
        rng = np.random.default_rng(11)
        path = tmp_path / "s.csv"
        blockio.write_samples(path, rng.standard_normal(2048) + 1j * rng.standard_normal(2048), "csv")
        raw = path.read_bytes()
        blockio.read_samples(path)  # csvtext is imported
        peaks = []
        for read in (lambda: blockio.read_samples(path), lambda: csvtext.parse_numbers(b"index,re,im", raw)):
            tracemalloc.start()
            try:
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        read_peak, parse_peak = peaks
        assert read_peak <= parse_peak + 1.5 * len(raw)


def corpus() -> np.ndarray:
    """A fixed dense set of floats for the CSV codec: random 64-bit patterns, subnormals, zeros, every power
    of two, the neighbours of 10**k, repr's layout boundaries, long mantissas and short decimals."""
    rng = np.random.default_rng(20261019)
    patterns = rng.integers(0, 2**64 - 1, 1_050_000, dtype=np.uint64, endpoint=True).view(np.float64)
    subnormal = (rng.integers(1, 2**52, 20_000, dtype=np.uint64) | (rng.integers(0, 2, 20_000, np.uint64) << 63))
    twos = 2.0 ** np.arange(-1074, 1024)
    tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
    boundaries = np.array([1e16, 9999999999999998.0, 1e15, 999999999999999.9, 1234567890123456.0, 1e17,
                           1e-4, 1e-5, 0.00012345678901234567, 9.999999999999999e-05, 0.0001234, 1.5e-05])
    digits17 = [float(f"{m}e{e}") for m, e in zip(rng.integers(10**16, 10**17, 20_000), rng.integers(-40, 40, 20_000))]
    digits16 = [float(f"{m}e{e}") for m, e in zip(rng.integers(2**53, 10**16, 10_000), rng.integers(-40, 40, 10_000))]
    short = rng.integers(-10**6, 10**6, 20_000) / 10.0 ** rng.integers(-8, 12, 20_000)  # few digits
    values = np.concatenate([
        patterns[np.isfinite(patterns)], subnormal.view(np.float64), [0.0, -0.0], twos,
        np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf), boundaries,
        np.nextafter(boundaries, 0), np.nextafter(boundaries, np.inf), digits17, digits16, short,
    ])
    values = np.concatenate([values, -values[-200_000:]])
    return values[: values.size // 2 * 2]


CHUNK = 2**17  # floats per corpus file: bounds the codec's temporaries


class TestCodecCorpus:
    """Every float of a dense corpus: the CSV bytes equal the per-sample writer's, the values read back equal
    the per-line reader's bit for bit, with no tolerance.  Runs under numpy's and glibc's other CPU paths too:
    the certificates rest on float64 products, ``log10`` and ``rint``."""

    VALUES = corpus()

    def test_corpus_is_dense(self):
        assert self.VALUES.size >= 10**6 + 100_000

    @pytest.mark.parametrize("chunk", range(-(-VALUES.size // CHUNK)))
    def test_bytes_and_values_equal_the_reference_codec(self, tmp_path, chunk):
        data = self.VALUES[chunk * CHUNK : (chunk + 1) * CHUNK].view(np.complex128)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        with np.errstate(all="raise"):  # the codec raises no floating-point flag, as under finite_only
            blockio.write_samples(new, data, "csv")
        per_sample_write(old, data, "csv")
        assert new.read_bytes() == old.read_bytes()
        assert csvtext.parse_numbers(b"index,re,im", new.read_bytes()) is not None  # the whole file took the fast path
        with np.errstate(all="raise"):
            got = blockio.read_samples(new)
        assert got.tobytes() == per_line_read_csv(new).tobytes() == data.tobytes()

    @pytest.mark.parametrize("value", [0.5, 5e-324, -2.0**-1074, 1e300, 2.0**1023, 1.7976931348623157e308])
    def test_values_the_arithmetic_hands_over_still_match(self, tmp_path, value):
        # Powers of two, subnormals and numbers outside the table go through repr and float themselves.
        data = np.array([value, -value, 0.1, value]).view(np.complex128)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        blockio.write_samples(new, data, "csv")
        per_sample_write(old, data, "csv")
        assert new.read_bytes() == old.read_bytes()
        assert blockio.read_samples(new).tobytes() == per_line_read_csv(new).tobytes() == data.tobytes()


#: Files at the edge of the writer's grammar: (text, whether the whole-column reader takes it).
GRAMMAR = [
    ("index,re,im\n0,1.5,-2.5\n1,0.1,1e-05\n", True),
    ("0,1.5,-2.5\n1,0.1,1e+16\n", True),  # no header
    ("index,re,im\r\n0,1.5,-2.5\r\n1,0.1,1e-05\r\n", True),  # CRLF: text mode reads "\n"
    ("index,re,im\n0, 1.5,-2.5\n", False),  # a padded cell
    ("index,re,im\n0,1.5,-2.5 \n", False),
    ("index,re,im\n0,1.5,-2.5,7\n", False),  # an extra cell
    ("index,re,im\n0,+1.0,2.0\n", False),
    ("index,re,im\n0,1E5,2.0\n", False),
    ("index,re,im\n0,1e5,2.0\n", False),  # no exponent sign
    ("index,re,im\n0,007.50,-000.25e+01\n1,00,1e+000\n", True),  # leading zeros
    ("index,re,im\n0,0.12345678901234567890123,1.0\n", True),  # 23 digits: float reads that one
    ("index,re,im\n0,12345678901234567890.5,1.0\n", True),
    ("index,re,im\n0,0.1234567890123456789012345678,1.0\n", True),
    ("index,re,im\n0,1_0,2.0\n", False),
    ("index,re,im\n0,nan,2.0\n", False),
    ("index,re,im\n0,1.0,inf\n", False),
    ("index,re,im\n0,1e+999,2.0\n", True),  # read as inf, then refused as non-finite
    ("index,re,im\n0,1e999,2.0\n", False),
    ("index,re,im\n0,1e-999,-1e-400\n", True),  # read as zeros
    ("index,re,im\n0,1.5,-2.5\n1,0.1,0.2", False),  # no newline after the last line
    ("index,re,im\n0,1.5,-2.5\n\n1,0.1,0.2\n", False),  # a blank line
    ("index,re,im\n0,1.,2.0\n", False),
    ("index,re,im\n0,.5,2.0\n", False),
    ("index,re,im\n0,-.5,2.0\n", False),
    ("index,re,im\n0,1.2.3,2.0\n", False),
    ("index,re,im\n0,1e+5.3,2.0\n", False),
    ("index,re,im\n0,1e+1234,2.0\n", False),  # four exponent digits
    ("index,re,im\n0,1-2,2.0\n", False),
    ("index,re,im\n0,--1,2.0\n", False),
    ("index,re,im\n0,-,2.0\n", False),
    ("index,re,im\n0,e+5,2.0\n", False),
    ("index,re,im\n-1,1.0,2.0\n", False),  # a sign in the index
    ("index,re,im\n1.5,1.0,2.0\n", False),
    ("index,re,im\nx,1.0,2.0\n", False),
    ("index,re,im\n,1.0,2.0\n", False),
    ("index,re,im\n0,,2.0\n", False),
    ("index,re,im\n0,1.0\n", False),
    ("junk\n0,1.0,2.0\n", False),
    ("index,re,im\n", False),
]


class TestGrammarBoundary:
    @pytest.mark.parametrize("text, fast", GRAMMAR)
    def test_files_read_or_are_refused_as_the_per_line_reader_does(self, tmp_path, text, fast):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with np.errstate(all="raise"):
            assert outcome(blockio.read_samples, path) == outcome(per_line_read_csv, path)
        assert (csvtext.parse_numbers(b"index,re,im", path.read_text().encode()) is not None) == fast

    def test_pulse_csv_outputs_equal_the_reference_bytes(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 16, "m": 8, "pulse": "rrc", "alpha": 0.3, "rx": "mf"}))
        assert cli.main(["pulse", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        outputs = sorted((tmp_path / "out").glob("*.csv"))
        assert len(outputs) == 4
        for path in outputs:
            per_sample_write(tmp_path / "want.csv", blockio.read_samples(path.with_suffix(".bin")), "csv")
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestHeaderCount:
    """A header's sample count must match the payload: neither truncated nor followed by extra bytes."""

    DATA = np.array([1 + 2j, -3.5 + 0.25j, 0.125 - 1j, 2.0 + 0j])

    @pytest.mark.parametrize("tail", [b"garbage-tail-not-samples", b"\x00", bytes(16), bytes(15)])
    def test_extra_bytes_after_the_promised_samples_are_refused(self, tmp_path, tail):
        path = tmp_path / "long.bin"
        blockio.write_samples(path, self.DATA)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(ConfigError, match="longer than its header: header promises 4 samples"):
            blockio.read_samples(path)

    def test_exact_length_and_headerless_files_read_as_before(self, tmp_path):
        blockio.write_samples(tmp_path / "exact.bin", self.DATA)
        (tmp_path / "raw.bin").write_bytes(self.DATA.astype("<c16").tobytes())
        for name in ("exact.bin", "raw.bin"):
            assert blockio.read_samples(tmp_path / name).tobytes() == self.DATA.tobytes()

    def test_an_unknown_format_is_refused_and_writes_no_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(ConfigError, match="^unknown sample format 'txt', expected 'bin' or 'csv'$"):
            blockio.write_samples(path, self.DATA, "txt")
        assert not path.exists()

    def test_truncated_payload_is_still_refused(self, tmp_path):
        path = tmp_path / "short.bin"
        blockio.write_samples(path, self.DATA)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ConfigError, match="truncated: header promises 4 samples"):
            blockio.read_samples(path)


DATA = np.array([1 + 2j, -3.5 + 0.25j, 0.125 - 1j, 1e308 - 5e-324j, -0.0 + 0.1j])
#: No file at the path, or one of this length given the new file's length.
OLD_LENGTHS = {"new": None, "longer": lambda n: n + 7, "same": lambda n: n, "shorter": lambda n: n // 2}


class TestRewrite:
    """Outputs are written over in place and cut to length: the bytes of a truncating write (``per_sample_write``
    opens ``"wb"``/``"w"`` as ``Path.write_bytes``/``write_text`` do), on the same file."""

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("old", OLD_LENGTHS.values(), ids=OLD_LENGTHS.keys())
    @given(values=samples)
    def test_bytes_equal_a_truncating_write(self, fmt, old, values):
        with tempfile.TemporaryDirectory() as tmp:
            path, want = Path(tmp, f"out.{fmt}"), Path(tmp, f"want.{fmt}")
            per_sample_write(want, values, fmt)
            if old is not None:
                path.write_bytes(b"\xab" * old(len(want.read_bytes())))
            blockio.write_samples(path, values, fmt)
            assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_inode_hard_link_and_mode_are_kept(self, tmp_path, fmt):
        path, link = tmp_path / f"out.{fmt}", tmp_path / "link"
        blockio.write_samples(path, np.arange(40.0), fmt)
        os.link(path, link)
        path.chmod(0o640)
        before = path.stat()
        blockio.write_samples(path, DATA, fmt)
        after = path.stat()
        assert (after.st_ino, after.st_nlink, stat.S_IMODE(after.st_mode)) == (before.st_ino, 2, 0o640)
        per_sample_write(tmp_path / "want", DATA, fmt)
        assert link.read_bytes() == path.read_bytes() == (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_a_symlinked_path_rewrites_its_target_and_stays_a_link(self, tmp_path, fmt):
        target, path = tmp_path / f"target.{fmt}", tmp_path / f"out.{fmt}"
        blockio.write_samples(target, np.arange(40.0), fmt)
        path.symlink_to(target)
        blockio.write_samples(path, DATA, fmt)
        assert path.is_symlink() and os.readlink(path) == str(target)
        assert target.read_bytes() == path.read_bytes()
        np.testing.assert_array_equal(blockio.read_samples(target), DATA)

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_dev_null_is_written_and_not_cut(self, fmt):
        blockio.write_samples(os.devnull, DATA, fmt)  # cutting it would raise EINVAL

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("prefix", [0, 1, 40])
    def test_a_failed_write_leaves_exactly_the_written_prefix(self, tmp_path, monkeypatch, fail_write, fmt, prefix):
        path, want = tmp_path / f"out.{fmt}", tmp_path / f"want.{fmt}"
        per_sample_write(want, DATA, fmt)
        blockio.write_samples(path, np.arange(100.0), fmt)  # a longer file to write over
        fail_write(prefix)
        with pytest.raises(OSError) as info:
            blockio.write_samples(path, DATA, fmt)
        monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC
        assert path.read_bytes() == want.read_bytes()[:prefix]
