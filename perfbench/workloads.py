"""The benchmark's three workloads and the correctness gate of each block.

A workload is a fixed rotation of entries (one *cycle*).  The closed loop runs
whole cycles, one block at a time, so every run sees the same mix.  Each
block gets a fresh ``RunConfig.seed`` drawn from the workload seed; the
library only ever receives these generated inputs.

* ``loopback-awgn-n4096``: the roadmap baseline link (fft/td/zf, K=M=64,
  20 dB, the README's 4-tap channel).  The noise and QPSK generators take most
  of the block, the engine little, and the config never changes.
* ``loopback-clean-mix``: noiseless loopback over 32 configs that change on
  every block (one runs twice per cycle, see the latency-shape note), so per-call pulse/window/pulse-set rebuilds, the transform
  kernel, the pipeline and the MAC chains dominate; no noise is drawn.
* ``cli-files-mix``: ``cli.main`` modulate then demodulate on files,
  symbols.csv -> block.bin -> symbols_hat.csv, so every trip loads the config
  and reads and writes both sample formats.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from pathlib import Path
from time import perf_counter_ns

import numpy as np

README_TAPS = ((1 + 0j), (0.4 - 0.2j), (0.1 + 0.05j), (0 - 0.05j))

#: Noise-level sanity limit for the 20 dB link: ZF through the README channel
#: gives nmse ~0.02 there, a broken chain gives ~1 or more.
AWGN_NMSE_LIMIT = 0.1
CLEAN_ZF_NMSE_LIMIT = 1e-20
#: The matched filter is not an inverse: its self-interference (nmse ~0.07 for
#: RC alpha=0.5) flips a few symbols in about 0.5% of noiseless blocks (at most
#: 3 of 2048, or 2 of 256, in 4800 blocks sampled), so an mf block may not be
#: held to SER 0.  A broken chain flips ~75% of them.
MF_SER_LIMIT = 0.02
CLI_SYMBOL_TOL = 1e-10
#: Input symbol files written per cli config; trips cycle through them.
CLI_VARIANTS = 4


@dataclasses.dataclass(frozen=True)
class Entry:
    label: str  # per-engine/size label: "<arch>-<domain>-n<N>"
    key: tuple  # distinct configuration (one warm-up block each)
    spec: dict  # RunConfig fields (seed excluded)


def qpsk(rng: np.random.Generator, count: int) -> np.ndarray:
    bits = rng.integers(0, 2, size=(2, count))
    return ((1 - 2 * bits[0]) + 1j * (1 - 2 * bits[1])) / math.sqrt(2.0)


class LoopbackWorkload:
    """``link.run_loopback`` on a rotation of configs."""

    def __init__(self, name: str, entries: list[Entry]) -> None:
        self.name = name
        self.entries = entries

    def prepare(self, lib, seed: int, workdir: Path) -> None:
        self._lib = lib
        self._base = {e.key: lib.config.RunConfig(**e.spec) for e in self.entries}

    def close(self) -> None:
        pass

    def run_block(self, entry: Entry, block_seed: int, index: int):
        """(elapsed ns, failure text or None, (cm measured, cm formula))."""
        lib = self._lib
        cfg = dataclasses.replace(self._base[entry.key], seed=block_seed)
        t0 = perf_counter_ns()
        report = lib.link.run_loopback(cfg)
        elapsed = perf_counter_ns() - t0
        return elapsed, check_loopback(cfg, report), (report.measured_cm, report.formula_cm)


def check_loopback(cfg, report) -> str | None:
    if report.measured_cm != report.formula_cm:
        return f"cm measured {report.measured_cm} != formula {report.formula_cm}"
    if math.isfinite(cfg.snr_db):
        if not report.nmse <= AWGN_NMSE_LIMIT:
            return f"nmse {report.nmse:.3e} above the {AWGN_NMSE_LIMIT} noise-level limit"
        return None
    if cfg.rx == "mf":
        if not report.ser <= MF_SER_LIMIT:
            return f"noiseless mf block has ser {report.ser} above {MF_SER_LIMIT}"
        return None
    if report.ser != 0.0 or not report.nmse <= CLEAN_ZF_NMSE_LIMIT:
        return f"noiseless zf block has ser {report.ser}, nmse {report.nmse:.3e}"
    return None


class CliWorkload:
    """``cli.main`` modulate + demodulate round trips on files in a work dir."""

    name = "cli-files-mix"

    def __init__(self, entries: list[Entry]) -> None:
        self.entries = entries

    def prepare(self, lib, seed: int, workdir: Path) -> None:
        self._lib = lib
        rng = np.random.default_rng([seed, 2])
        self._files: dict[tuple, dict] = {}
        for entry in self.entries:
            if entry.key in self._files:
                continue
            d = workdir / "-".join(str(v) for v in entry.key)
            d.mkdir(parents=True, exist_ok=True)
            spec = dict(entry.spec, channel_taps=[[t.real, t.imag] for t in entry.spec["channel_taps"]])
            spec["seed"] = int(rng.integers(0, 2**63))
            (d / "config.json").write_text(json.dumps(spec))
            symbols = []
            for v in range(CLI_VARIANTS):
                sym = qpsk(rng, entry.spec["k"] * entry.spec["m"])
                lib.blockio.write_samples(d / f"symbols{v}.csv", sym, "csv")
                symbols.append(sym)
            self._files[entry.key] = {"dir": d, "symbols": symbols}
        self._devnull = open(os.devnull, "w")

    def close(self) -> None:
        self._devnull.close()

    def run_block(self, entry: Entry, block_seed: int, index: int):
        files = self._files[entry.key]
        d = files["dir"]
        variant = index % CLI_VARIANTS
        cfg, block, hat = str(d / "config.json"), str(d / "block.bin"), str(d / "symbols_hat.csv")
        main = self._lib.cli.main
        with contextlib.redirect_stdout(self._devnull):
            t0 = perf_counter_ns()
            rc_mod = main(["modulate", "--config", cfg, "--in", str(d / f"symbols{variant}.csv"), "--out", block])
            rc_demod = main(["demodulate", "--config", cfg, "--in", block, "--out", hat])
            elapsed = perf_counter_ns() - t0
        if rc_mod != 0 or rc_demod != 0:
            return elapsed, f"exit codes modulate={rc_mod} demodulate={rc_demod}", None
        got = np.loadtxt(hat, delimiter=",", skiprows=1, ndmin=2)
        sent = files["symbols"][variant]
        if got.shape != (sent.size, 3):
            return elapsed, f"recovered {got.shape[0]} symbols, sent {sent.size}", None
        err = float(np.abs(got[:, 1] + 1j * got[:, 2] - sent).max())
        if not err <= CLI_SYMBOL_TOL:
            return elapsed, f"recovered symbols off by {err:.3e}", None
        return elapsed, None, None


def _entry(k, m, arch, domain, rx, **extra) -> Entry:
    spec = dict(k=k, m=m, arch=arch, domain=domain, rx=rx, **extra)
    return Entry(f"{arch}-{domain}-n{k * m}", (k, m, arch, domain, rx), spec)


def _awgn() -> LoopbackWorkload:
    # One config, eight fresh seeds per cycle: a cycle is only the unit of the
    # per-cycle throughput median.
    e = _entry(64, 64, "fft", "td", "zf", channel_taps=README_TAPS, n_cp=16, snr_db=20.0)
    return LoopbackWorkload("loopback-awgn-n4096", [e] * 8)


# Latency shape: with an even number of equal shares, p50 falls exactly on the
# boundary between two configs' shares of the blocks and jumps between their
# times from run to run.  Each mix therefore runs its slowest config (direct/td
# at N=2048) twice per cycle: with 33 (or 9) shares p50 sits mid-share, and
# p90 stays inside one config's share.


def _clean_mix() -> LoopbackWorkload:
    # l_max=64 lets every direct case run its full chain set (M chains in TD,
    # K in FD).
    entries = [
        _entry(k, m, arch, domain, rx, channel_taps=README_TAPS, n_cp=16, l_max=64)
        for (k, m) in ((16, 16), (32, 32), (32, 64), (64, 32))
        for arch in ("fft", "direct")
        for domain in ("td", "fd")
        for rx in ("zf", "mf")
    ]
    entries += [e for e in entries if e.key == (32, 64, "direct", "td", "zf")]
    return LoopbackWorkload("loopback-clean-mix", entries)


def _cli_mix() -> CliWorkload:
    entries = [
        _entry(k, m, arch, domain, "zf", channel_taps=(1 + 0j,), n_cp=16, l_max=64)
        for (k, m) in ((32, 32), (32, 64))
        for arch in ("fft", "direct")
        for domain in ("td", "fd")
    ]
    entries += [e for e in entries if e.key == (32, 64, "direct", "td", "zf")]
    return CliWorkload(entries)


WORKLOADS = {
    "loopback-awgn-n4096": _awgn,
    "loopback-clean-mix": _clean_mix,
    "cli-files-mix": _cli_mix,
}
