"""Span tracing of the library from outside, by rebinding its public functions.

Every traced function is replaced, in every ``gfdm_modem`` module that holds a
reference to it (its defining module, modules that imported it by name, and
the package namespace), by a wrapper that records one span.  The library code
that runs is therefore the same with tracing on or off; only the names point
elsewhere.  Spans live in memory as ``[name, start_ns, end_ns, parent, block,
meta]`` lists and are written out once, when the benchmark ends.

Several functions may share one span name: the name is the layer metric the
span feeds (for example all four ``precompute_*`` functions feed
``direct_modem.precompute``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _shape(args, kwargs):
    return tuple(getattr(args[0], "shape", ()))


def _count(args, kwargs):
    return int(args[1])


def _pulse_key(obj):
    # PrototypePulse compares by identity; key it by what it was built from.
    if hasattr(obj, "params") and hasattr(obj, "kind"):
        return (obj.kind, obj.params, obj.alpha, obj.delta)
    return obj


def _build_key(args, kwargs):
    return tuple(_pulse_key(a) for a in args) + tuple(sorted(kwargs.items()))


def _chain_passes(args, kwargs):
    return args[1].overlap


def _read_meta(args, kwargs):
    path = Path(args[0])
    fmt = (args[1] if len(args) > 1 else kwargs.get("fmt")) or (
        "csv" if path.suffix.lower() == ".csv" else "bin"
    )
    return (fmt, os.path.getsize(path))


def _write_meta(args, kwargs):
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt", "bin")
    return (fmt, os.path.getsize(args[0]))


#: (module, function, span name, metadata extractor run after the call).
TARGETS = (
    ("numerics", "dft", "numerics.dft", _shape),
    ("pulses", "make_prototype", "pulses.build", _build_key),
    ("pulses", "tx_window", "pulses.build", _build_key),
    ("pulses", "window_pair", "pulses.build", _build_key),
    ("fft_modem", "run_pipeline", "fft_modem.run_pipeline", None),
    ("fft_modem", "modulate_td", "fft_modem.entry", None),
    ("fft_modem", "modulate_fd", "fft_modem.entry", None),
    ("fft_modem", "demodulate_td", "fft_modem.entry", None),
    ("fft_modem", "demodulate_fd", "fft_modem.entry", None),
    ("direct_modem", "precompute_td_mod", "direct_modem.precompute", None),
    ("direct_modem", "precompute_fd_mod", "direct_modem.precompute", None),
    ("direct_modem", "precompute_td_demod", "direct_modem.precompute", None),
    ("direct_modem", "precompute_fd_demod", "direct_modem.precompute", None),
    ("direct_modem", "direct_modulate_td", "direct_modem.chains", _chain_passes),
    ("direct_modem", "direct_modulate_fd", "direct_modem.chains", _chain_passes),
    ("direct_modem", "direct_demodulate_td", "direct_modem.chains", _chain_passes),
    ("direct_modem", "direct_demodulate_fd", "direct_modem.chains", _chain_passes),
    ("reference", "map_symbols", "reference.map_symbols", None),
    ("reference", "demap_symbols", "reference.demap_symbols", None),
    ("channel", "add_cp", "channel.framing", None),
    ("channel", "remove_cp", "channel.framing", None),
    ("channel", "apply_channel", "channel.apply_channel", None),
    ("channel", "fd_equalize_zf", "channel.fd_equalize_zf", None),
    ("channel", "gaussian_pairs", "channel.gaussian_pairs", _count),
    ("link", "qpsk_symbols", "link.qpsk_symbols", _count),
    ("link", "run_loopback", "link.run_loopback", None),
    ("link", "modulate_block", "link.dispatch", None),
    ("link", "demodulate_block", "link.dispatch", None),
    ("blockio", "read_samples", "blockio.read_samples", _read_meta),
    ("blockio", "write_samples", "blockio.write_samples", _write_meta),
    ("config", "load_config", "config.load_config", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while enabled; ``block`` tags every span with its block id."""

    def __init__(self, package: str = "gfdm_modem") -> None:
        self.spans: list[list] = []
        self.block = -1
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, func_name, span_name, meta in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], func_name)
            wrapper = self._wrap(span_name, original, meta)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn, meta):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], tracer.block, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if meta is not None:
                    rec[5] = meta(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        """All spans as ``[name, start_ns, end_ns, parent_index, block]`` rows."""
        rows = [s[:5] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "block"], "spans": rows}))


def _fft_mul_count(n: int) -> int:
    return 0 if n <= 2 else (n // 2) * (n.bit_length() - 1)


def layer_metrics(spans: list[list], blocks: int) -> dict[str, float]:
    """Per-block layer figures from the spans of ``blocks`` traced blocks.

    Self time is a span's duration minus the durations of its direct
    children.  Spans with a negative block id (the priming pass) only feed the
    set of configurations already built.
    """
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    dft_cm = gauss_n = qpsk_n = chain_passes = builds = fresh = 0
    io_ns = {("blockio.read_samples", "bin"): 0, ("blockio.read_samples", "csv"): 0,
             ("blockio.write_samples", "bin"): 0, ("blockio.write_samples", "csv"): 0}
    bytes_read = bytes_written = 0
    seen: set = set()
    for i, (name, start, end, parent, block, meta) in enumerate(spans):
        if name == "pulses.build" and (parent < 0 or spans[parent][0] != "pulses.build"):
            is_new = meta not in seen
            seen.add(meta)
            if block >= 0:
                builds += 1
                fresh += is_new
        if block < 0:
            continue
        own = end - start - child[i]
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        if name == "numerics.dft":
            n = meta[0] if meta else 1
            dft_cm += _fft_mul_count(n) * (meta[1] if len(meta) == 2 else 1)
        elif name == "channel.gaussian_pairs":
            gauss_n += meta
        elif name == "link.qpsk_symbols":
            qpsk_n += meta
        elif name == "direct_modem.chains":
            chain_passes += meta
        elif name.startswith("blockio."):
            io_ns[(name, meta[0])] += own
            if name == "blockio.read_samples":
                bytes_read += meta[1]
            else:
                bytes_written += meta[1]

    def ms(name):
        return self_ns.get(name, 0) / 1e6 / blocks

    def per_block(n):
        return n / blocks

    dft_s = self_ns.get("numerics.dft", 0) / 1e9
    out = {
        "channel.gaussian_pairs.self_ms": ms("channel.gaussian_pairs"),
        "channel.gaussian_pairs.ns_per_sample": self_ns.get("channel.gaussian_pairs", 0) / gauss_n if gauss_n else 0.0,
        "link.qpsk_symbols.self_ms": ms("link.qpsk_symbols"),
        "link.qpsk_symbols.ns_per_symbol": self_ns.get("link.qpsk_symbols", 0) / qpsk_n if qpsk_n else 0.0,
        "numerics.dft.calls": per_block(calls.get("numerics.dft", 0)),
        "numerics.dft.self_ms": ms("numerics.dft"),
        "numerics.dft.cm": per_block(dft_cm),
        "numerics.dft.mcm_per_s": dft_cm / dft_s / 1e6 if dft_s else 0.0,
        "pulses.builds": per_block(builds),
        "pulses.self_ms": ms("pulses.build"),
        # Useful builds (a configuration never built before) over all builds;
        # 1.0 when nothing was built, since then nothing was rebuilt either.
        "pulses.fresh_build_ratio": fresh / builds if builds else 1.0,
        "fft_modem.run_pipeline.calls": per_block(calls.get("fft_modem.run_pipeline", 0)),
        "fft_modem.run_pipeline.self_ms": ms("fft_modem.run_pipeline"),
        "fft_modem.entry.self_ms": ms("fft_modem.entry"),
        "direct_modem.precompute.calls": per_block(calls.get("direct_modem.precompute", 0)),
        "direct_modem.precompute.self_ms": ms("direct_modem.precompute"),
        "direct_modem.chains.self_ms": ms("direct_modem.chains"),
        "direct_modem.chain_passes": per_block(chain_passes),
        "reference.map_symbols.self_ms": ms("reference.map_symbols"),
        "reference.demap_symbols.self_ms": ms("reference.demap_symbols"),
        "channel.apply_channel.self_ms": ms("channel.apply_channel"),
        "channel.fd_equalize_zf.self_ms": ms("channel.fd_equalize_zf"),
        "channel.framing.self_ms": ms("channel.framing"),
        "link.run_loopback.self_ms": ms("link.run_loopback"),
        "link.dispatch.self_ms": ms("link.dispatch"),
        "blockio.read_samples.self_ms.bin": io_ns[("blockio.read_samples", "bin")] / 1e6 / blocks,
        "blockio.read_samples.self_ms.csv": io_ns[("blockio.read_samples", "csv")] / 1e6 / blocks,
        "blockio.write_samples.self_ms.bin": io_ns[("blockio.write_samples", "bin")] / 1e6 / blocks,
        "blockio.write_samples.self_ms.csv": io_ns[("blockio.write_samples", "csv")] / 1e6 / blocks,
        "blockio.bytes_read": per_block(bytes_read),
        "blockio.bytes_written": per_block(bytes_written),
        "config.load_config.self_ms": ms("config.load_config"),
        "cli.main.self_ms": ms("cli.main"),
    }
    return out


def root_ns(spans: list[list]) -> int:
    """Total duration of the outermost spans of traced blocks."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0 and s[4] >= 0)
