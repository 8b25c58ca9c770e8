"""Run configuration: flat JSON in, validated dataclass out."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .channel import check_real, check_seed, check_snr_db, check_taps, snr_ratio
from .errors import ConfigError
from .pulses import GfdmParams, check_pulse_spec

__all__ = ["RunConfig", "parse_config", "emit_config", "load_config"]

_RX_KINDS = ("zf", "mf")
_ARCHS = ("fft", "direct")
_DOMAINS = ("td", "fd")


@dataclass(frozen=True)
class RunConfig:
    k: int
    m: int
    pulse: str = "rc"
    alpha: float = 0.5
    delta: float = 0.5
    rx: str = "zf"
    arch: str = "fft"
    domain: str = "td"
    k_on: tuple[int, ...] | None = None
    m_on: tuple[int, ...] | None = None
    n_cp: int = 0
    n_cs: int = 0
    channel_taps: tuple[complex, ...] = (1 + 0j,)
    snr_db: float = math.inf
    seed: int = 0
    l_max: int = 16

    def __post_init__(self) -> None:
        # The one integer rule: a boolean or a non-integral value is refused, never truncated.
        # Numpy integers are held as int, so keys, cost formulas and JSON output see one type.
        # The seed's rule, with its 64-bit range, is channel.check_seed, shared with ChannelSpec.
        for name in ("k", "m", "n_cp", "n_cs", "l_max", "k_on", "m_on"):
            value, many = getattr(self, name), name in ("k_on", "m_on")
            for item in (value or ()) if many else (value,):
                if isinstance(item, bool) or not isinstance(item, numbers.Integral):
                    raise ConfigError(f"{name} must be an integer, got {item!r}")
            if value or not many:
                object.__setattr__(self, name, tuple(map(int, value)) if many else int(value))
        object.__setattr__(self, "seed", check_seed(self.seed))
        # Real numbers held as float, names as str; the real-number and taps rules are channel's.
        for name in ("alpha", "delta"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        object.__setattr__(self, "snr_db", check_snr_db(self.snr_db))
        for name in ("pulse", "rx", "arch", "domain"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        # The modem's own geometry and pulse rules, run so bad configs fail at parse time.
        self.params  # noqa: B018
        check_pulse_spec(self.pulse.upper(), self.alpha, self.delta)
        if self.rx not in _RX_KINDS:
            raise ConfigError(f"rx must be one of {_RX_KINDS}, got {self.rx!r}")
        if self.arch not in _ARCHS:
            raise ConfigError(f"arch must be one of {_ARCHS}, got {self.arch!r}")
        if self.domain not in _DOMAINS:
            raise ConfigError(f"domain must be one of {_DOMAINS}, got {self.domain!r}")
        n = self.k * self.m
        if not 0 <= self.n_cp <= n or not 0 <= self.n_cs <= n:
            raise ConfigError("prefix/suffix lengths must lie in [0, N]")
        check_taps(self.channel_taps)
        if len(self.channel_taps) > self.n_cp + 1:
            raise ConfigError(
                f"{len(self.channel_taps)} taps exceed the interference-free bound "
                f"n_cp + 1 = {self.n_cp + 1}"
            )
        snr_ratio(self.snr_db)  # the SNR rule, and for a finite SNR the range of its ratio
        if self.l_max < 1:
            raise ConfigError("l_max must be at least 1")

    @cached_property
    def params(self) -> GfdmParams:
        return GfdmParams(self.k, self.m, self.k_on or (), self.m_on or ())

    @property
    def n(self) -> int:
        return self.k * self.m


def _as_float(name: str, value) -> float:
    """``float(value)`` for a JSON number, numeric string or ``null``; a JSON boolean is no number."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _as_taps(raw) -> tuple[complex, ...]:
    taps = []
    for item in raw:
        if isinstance(item, (list, tuple)):
            if len(item) != 2:
                raise ConfigError(f"channel tap {item!r} is not a [re, im] pair")
            taps.append(complex(*(_as_float("channel_taps part", part) for part in item)))
        else:
            taps.append(complex(_as_float("channel_taps entry", item), 0.0))
    return tuple(taps)


def _as_int(value):
    """An integral float such as ``8.0`` as an int; anything else as given, for ``RunConfig`` to judge."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    known = {
        "k", "m", "pulse", "alpha", "delta", "rx", "arch", "domain",
        "k_on", "m_on", "n_cp", "n_cs", "channel_taps", "snr_db", "seed", "l_max",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "k" not in data or "m" not in data:
        raise ConfigError("configuration needs at least 'k' and 'm'")

    snr = data.get("snr_db", None)
    if snr is None or (isinstance(snr, str) and snr.lower() in ("inf", "infinity")):
        snr = math.inf
    try:
        return RunConfig(
            k=_as_int(data["k"]),
            m=_as_int(data["m"]),
            pulse=str(data.get("pulse", "rc")).lower(),
            alpha=_as_float("alpha", data.get("alpha", 0.5)),
            delta=_as_float("delta", data.get("delta", 0.5)),
            rx=str(data.get("rx", "zf")).lower(),
            arch=str(data.get("arch", "fft")).lower(),
            domain=str(data.get("domain", "td")).lower(),
            k_on=tuple(_as_int(i) for i in data["k_on"]) if data.get("k_on") else None,
            m_on=tuple(_as_int(i) for i in data["m_on"]) if data.get("m_on") else None,
            n_cp=_as_int(data.get("n_cp", 0)),
            n_cs=_as_int(data.get("n_cs", 0)),
            channel_taps=_as_taps(data.get("channel_taps", [1.0])),
            snr_db=_as_float("snr_db", snr),
            seed=_as_int(data.get("seed", 0)),
            l_max=_as_int(data.get("l_max", 16)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed configuration value: {exc}") from exc


def emit_config(cfg: RunConfig) -> dict:
    return {
        "k": cfg.k,
        "m": cfg.m,
        "pulse": cfg.pulse,
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "rx": cfg.rx,
        "arch": cfg.arch,
        "domain": cfg.domain,
        "k_on": list(cfg.k_on) if cfg.k_on else None,
        "m_on": list(cfg.m_on) if cfg.m_on else None,
        "n_cp": cfg.n_cp,
        "n_cs": cfg.n_cs,
        "channel_taps": [[t.real, t.imag] for t in cfg.channel_taps],
        "snr_db": None if math.isinf(cfg.snr_db) else cfg.snr_db,
        "seed": cfg.seed,
        "l_max": cfg.l_max,
    }


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(data)
