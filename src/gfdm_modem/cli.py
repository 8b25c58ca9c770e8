"""Command-line front end.

Commands: pulse, modulate, demodulate, loopback, analyze.  All take a JSON
configuration file; file-based commands exchange complex samples in the
binary or CSV block format.  Exit codes: 0 success, 2 validation problem,
overflow or a geometry too large to allocate, 3 numerical failure (singular
window, channel, or matrix).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, blockio, channel, link, reference
from .config import RunConfig, load_config
from .errors import ConfigError, GfdmError, SingularChannel, SingularMatrix, SingularWindow
from .numerics import finite_only, is_pow2
from .pulses import make_prototype, rx_window, tx_window

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if getattr(args, "arch", None):  # pulse has no --arch
        updates["arch"] = args.arch
    if args.domain:
        updates["domain"] = args.domain
    return replace(cfg, **updates) if updates else cfg


def _cmd_pulse(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    pulse = make_prototype(cfg.pulse.upper(), cfg.params, cfg.alpha, cfg.delta)
    w_tx = tx_window(pulse, cfg.domain.upper())
    arrays = {
        "pulse_time": pulse.time,
        "pulse_freq": pulse.freq,
        "w_tx": w_tx,
        "w_rx": rx_window(w_tx, cfg.rx.upper()),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # only once every array is built: a refusal leaves no directory
    written = []
    for name, data in arrays.items():
        for fmt in ("csv", "bin"):
            path = out / f"{name}.{fmt}"
            blockio.write_samples(path, data, fmt)
            written.append(path)
    for path in written:
        print(path)
    return 0


def _cmd_modulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    symbols = blockio.read_samples(args.infile)
    grid = reference.map_symbols(symbols, cfg.params)
    x = link.modulate_block(cfg, grid)
    framed = channel.add_cp(x, cfg.n_cp, cfg.n_cs)
    blockio.write_samples(args.out, framed, args.format or blockio.guess_format(args.out))
    print(f"{args.out}: {framed.size} samples")
    return 0


def _cmd_demodulate(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.domain and cfg.arch == "fft":
        raise ConfigError("demodulate --domain is for the direct engine: the FFT one demodulates in frequency "
                          "in both domains")
    framed = blockio.read_samples(args.infile)
    expected = cfg.n + cfg.n_cp + cfg.n_cs
    if framed.size != expected:
        raise ConfigError(f"expected {expected} framed samples, got {framed.size}")
    core = channel.remove_cp(framed, cfg.n_cp, cfg.n_cs)
    yf_eq = channel.fd_equalize_zf(core, cfg.channel)
    grid_hat = link.demodulate_block(cfg, yf_eq)
    d_hat = reference.demap_symbols(grid_hat, cfg.params)
    blockio.write_samples(args.out, d_hat, args.format or blockio.guess_format(args.out))
    print(f"{args.out}: {d_hat.size} symbols")
    return 0


def _cmd_loopback(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = link.run_loopback(cfg)
    print(report)
    return 0


def _parse_list(option: str, text: str, item=str) -> list:
    """The comma list of ``option``, each entry through ``item``; a list with no entry is refused."""
    try:
        values = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc
    if not values:
        raise ConfigError(f"{option} lists nothing: {text!r}")
    return values


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.kinds.strip().lower() == "all":
        kinds = list(analysis.ARCH_KINDS)
    else:
        kinds = _parse_list("--kinds", args.kinds.upper())
    geometries: list[tuple[int, int]] = []
    if args.n is not None:
        n = args.n
        if not is_pow2(n):
            raise ConfigError(f"N must be a power of two, got {n}")
        m = 1
        while m <= n:
            geometries.append((n // m, m))
            m *= 2
    elif args.k_list and args.m_list:
        ks, ms = _parse_list("--k-list", args.k_list, int), _parse_list("--m-list", args.m_list, int)
        geometries = [(k, m) for k in ks for m in ms]
    else:
        raise ConfigError("analyze needs either --n or both --k-list and --m-list")

    csv_text = analysis.sweep(kinds, geometries, l=args.overlap)
    if args.out:
        blockio.rewrite(args.out, csv_text.replace("\n", os.linesep).encode())  # as write_text writes it
        print(args.out)
    else:
        sys.stdout.write(csv_text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="gfdm-modem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, arch: bool = True) -> None:
        """``--config`` and ``--domain``, which picks the windows ``pulse`` writes, and the engine's ``--arch``."""
        p.add_argument("--config", required=True, help="JSON run configuration")
        if arch:
            p.add_argument("--arch", choices=("fft", "direct"), default=None)
        p.add_argument("--domain", choices=("td", "fd"), default=None)

    p = sub.add_parser("pulse", help="write prototype pulse and window files")
    add_common(p, arch=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_pulse)

    for name, func, text in (("modulate", _cmd_modulate, "modulate a symbol file into a framed block"),
                             ("demodulate", _cmd_demodulate, "demodulate a framed block into symbols")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--format", choices=("bin", "csv"), default=None,
                       help="output encoding (input files are recognized by extension/content)")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("loopback", help="run the end-to-end evaluation chain")
    add_common(p)
    p.set_defaults(func=_cmd_loopback)

    p = sub.add_parser("analyze", help="emit complexity/latency tables as CSV")
    p.add_argument("--kinds", default="all", help="comma list of architecture kinds or 'all'")
    p.add_argument("--n", type=int, default=None, help="sweep all (K, M) factorizations of N")
    p.add_argument("--k-list", default=None, help="comma list of K values")
    p.add_argument("--m-list", default=None, help="comma list of M values")
    p.add_argument("--overlap", type=int, default=2, help="band overlap L for the sparse kind")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with finite_only():
            return args.func(args)
    except FloatingPointError as exc:
        print(f"invalid input: the block leaves the finite range ({exc})", file=sys.stderr)
        return _EXIT_VALIDATION
    except (SingularWindow, SingularChannel, SingularMatrix) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except GfdmError as exc:  # every other library refusal: ConfigError, ChainLimitExceeded, MissingCostEntry
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except MemoryError:  # a block within numerics.MAX_N whose tables this machine cannot hold
        print("invalid configuration: the block geometry does not fit in memory", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
