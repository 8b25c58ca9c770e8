"""Sample-file codec: the CSV and binary bytes and the CSV parsing rules, against the per-sample codec;
the in-place writer against a truncating write."""

import errno
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gfdm_modem import blockio
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
