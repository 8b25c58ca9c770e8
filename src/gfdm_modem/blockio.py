"""Complex sample files: raw binary and CSV.

Binary layout: a 16-byte header (magic ``GFDMBLK1``, little-endian u32 sample
count, u32 flags) followed by interleaved re/im float64 pairs, little-endian.
The writer always writes the header.  A header's count must match the payload
exactly, neither truncated nor followed by extra bytes.  The reader also
accepts headerless files and treats the whole payload as samples.  CSV rows are
``index,re,im``; only the first line may be a header, and any later line that
is not a sample is an error.  Input files are recognized by suffix
(:func:`guess_format`); a file with any other suffix is CSV when it starts
with the ``index,re,im`` header, else binary.

The CSV contract: the bytes written are ``f"{i},{re!r},{im!r}"`` rows, the
values read are ``float()``'s of each cell.  :mod:`.csvtext` builds and reads
text in that grammar a whole column at a time, each number certified by exact
arithmetic or handed to ``repr``/``float``; any other text is parsed line by
line (blank lines skipped, cells stripped, extra cells ignored).  A file is
read once, as bytes: ASCII text goes to :mod:`.csvtext` with its line ends
folded to ``\n``, and only the line parser decodes, as ``Path.read_text`` does.

Every file the CLI writes goes through :func:`rewrite`: the path is opened
without ``O_TRUNC`` (symlinks written through; inode, hard links and mode
kept), the whole payload written over the old bytes, and a regular file then
cut to the bytes written, also when a write fails part-way.  The bytes are
those ``Path.write_bytes``/``write_text`` write; what goes away is freeing and
reallocating the file's blocks on every rewrite.  The trade-off: a power loss
mid-rewrite can leave old and new blocks mixed where a truncating write leaves
a short file.  An output is complete only once the command has exited 0.
"""

from __future__ import annotations

import io
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError

__all__ = ["MAGIC", "write_samples", "read_samples", "guess_format"]

MAGIC = b"GFDMBLK1"
_HEADER = struct.Struct("<8sII")
_CSV_HEADER = "index,re,im"
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)  # no O_TRUNC: cut after writing


def guess_format(path: str | Path, fallback: str = "bin") -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".bin", ".dat", ".raw"):
        return "bin"
    return fallback


def _is_sample(cells: list[str]) -> bool:
    """Whether the second and third cells of a split CSV line parse as floats."""
    try:
        float(cells[1]), float(cells[2])
    except (IndexError, ValueError):
        return False
    return True


def _csv_lines(text: str, path: Path) -> np.ndarray:
    """The samples of any CSV text, line by line: blank lines skipped, cells stripped, extra cells ignored."""
    rows = [line.split(",") for line in map(str.strip, text.split("\n")) if line]
    if rows and not _is_sample(rows[0]):
        del rows[0]  # only row 0 may be a header
    if not rows:
        raise ConfigError(f"no samples in {path}")
    samples = np.empty(len(rows), dtype=np.complex128)
    try:
        samples.real = list(map(float, [cells[1] for cells in rows]))
        samples.imag = list(map(float, [cells[2] for cells in rows]))
    except (IndexError, ValueError):
        bad = ",".join(next(cells for cells in rows if not _is_sample(cells)))
        raise ConfigError(f"malformed CSV sample line: {bad!r}") from None
    return samples


def rewrite(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` over ``path`` in place, then cut a regular file to the bytes written, also
    when a write raises.  The package's one file writer, not public API; mode ``0o666`` as ``open``."""
    fd = os.open(path, _REWRITE_FLAGS, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        view, written = memoryview(payload), 0
        try:
            while written < len(view):
                written += os.write(fd, view[written:])
        finally:
            if regular:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def write_samples(path: str | Path, data: np.ndarray, fmt: str = "bin") -> None:
    vec = np.asarray(data, dtype=np.complex128).reshape(-1, order="F")
    if fmt == "bin":
        rewrite(path, _HEADER.pack(MAGIC, vec.size, 0) + vec.astype("<c16").tobytes())
    elif fmt == "csv":
        from . import csvtext  # compiled on first CSV use: the other commands never pay for it

        nl = os.linesep.encode()  # as text mode writes "\n"; the text is ASCII
        rewrite(path, csvtext.format_rows(_CSV_HEADER.encode(), vec, nl))
    else:
        raise ConfigError(f"unknown sample format {fmt!r}, expected 'bin' or 'csv'")


def read_samples(path: str | Path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()  # the file's one copy, whatever its format
    fmt = guess_format(path, fallback="") or ("csv" if raw.startswith(_CSV_HEADER.encode()) else "bin")
    if fmt == "csv":
        from . import csvtext

        numbers = None
        if raw.isascii():
            if b"\r" in raw:  # line ends folded to "\n", as text mode reads them
                raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            numbers = csvtext.parse_numbers(_CSV_HEADER.encode(), raw)
        if numbers is None:
            try:  # decoded and folded as ``Path.read_text`` does
                text = io.TextIOWrapper(io.BytesIO(raw)).read()
            except UnicodeDecodeError:
                raise ConfigError(f"{path} is not a text CSV sample file") from None
            samples = _csv_lines(text, path)
        else:
            samples = numbers.view(np.complex128)
    else:
        if len(raw) >= _HEADER.size and raw[:8] == MAGIC:
            _, count, _flags = _HEADER.unpack_from(raw)
            payload = raw[_HEADER.size :]
            if len(payload) != 16 * count:
                what = "truncated" if len(payload) < 16 * count else "longer than its header"
                raise ConfigError(f"{path} {what}: header promises {count} samples")
        else:
            payload = raw
        if len(payload) == 0 or len(payload) % 16:
            raise ConfigError(f"{path} does not hold interleaved float64 re/im pairs")
        samples = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    if not np.isfinite(samples).all():
        raise ConfigError(f"{path} holds non-finite samples")
    return samples
