"""Run configuration: flat JSON in, validated dataclass out."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

from .channel import check_framing, check_real, check_seed, check_snr_db, check_taps, snr_ratio
from .errors import ConfigError
from .numerics import check_positive, is_int
from .pulses import GfdmParams, active_items, check_pulse_spec

__all__ = ["RunConfig", "parse_config", "load_config"]

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
        # The one integer rule, numerics.is_int: a bool or a non-integral value is refused, never truncated.
        # Numpy integers are held as int, so keys, cost formulas and JSON output see one type.
        # An active set is None (the full range) or a sequence, a 1-D integer array included, held as a
        # tuple of ints; an empty one is the full range too, held as None.  Its entries take the integer
        # rule once, where GfdmParams builds the geometry (`self.params` below).  The chain count l_max
        # takes the one count rule, numerics.check_positive.  The seed's rule, with its 64-bit range, is
        # channel.check_seed, shared with channel.apply_channel; the framing rule, channel.check_framing,
        # is shared with channel.add_cp and channel.remove_cp.
        for name in ("k", "m", "n_cp", "n_cs"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("k_on", "m_on"):
            object.__setattr__(self, name, active_items(name, getattr(self, name)) or None)
        object.__setattr__(self, "l_max", check_positive("l_max", self.l_max))
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
        for name in ("k_on", "m_on"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        check_pulse_spec(self.pulse.upper(), self.alpha, self.delta)
        if self.rx not in _RX_KINDS:
            raise ConfigError(f"rx must be one of {_RX_KINDS}, got {self.rx!r}")
        if self.arch not in _ARCHS:
            raise ConfigError(f"arch must be one of {_ARCHS}, got {self.arch!r}")
        if self.domain not in _DOMAINS:
            raise ConfigError(f"domain must be one of {_DOMAINS}, got {self.domain!r}")
        check_framing(self.n, self.n_cp, self.n_cs)
        check_taps(self.channel_taps)
        object.__setattr__(self, "channel_taps", tuple(self.channel_taps))  # a hashable key of link's channel
        if len(self.channel_taps) > self.n_cp + 1:
            raise ConfigError(
                f"{len(self.channel_taps)} taps exceed the interference-free bound "
                f"n_cp + 1 = {self.n_cp + 1}"
            )
        snr_ratio(self.snr_db)  # the SNR rule, and for a finite SNR the range of its ratio

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


def _as_array(name: str, raw) -> list:
    """A JSON array as it is; anything else (a string, an object, a number or ``null``) is refused."""
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a JSON array, got {raw!r}")
    return raw


def _as_taps(raw) -> tuple[complex, ...]:
    """The impulse response from an array of real numbers and ``[re, im]`` pairs."""
    taps = []
    for item in _as_array("channel_taps", raw):
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


def _as_active(name: str, raw) -> tuple | None:
    """An active set from an array; ``null`` or ``[]`` is the full range."""
    return None if raw is None else tuple(_as_int(i) for i in _as_array(name, raw)) or None


def _as_snr(raw) -> float:
    """The SNR in dB; ``null``, ``"inf"`` or ``"infinity"`` is noiseless."""
    if raw is None or (isinstance(raw, str) and raw.lower() in ("inf", "infinity")):
        return math.inf
    return _as_float("snr_db", raw)


def _as_name(raw) -> str:
    return str(raw).lower()


#: One converter per configuration key, in the order a malformed file's first fault is reported.
#: A key the file omits takes ``RunConfig``'s default.
_CONVERTERS = {
    "k": _as_int, "m": _as_int, "pulse": _as_name,
    "alpha": partial(_as_float, "alpha"), "delta": partial(_as_float, "delta"),
    "rx": _as_name, "arch": _as_name, "domain": _as_name,
    "k_on": partial(_as_active, "k_on"), "m_on": partial(_as_active, "m_on"),
    "n_cp": _as_int, "n_cs": _as_int, "channel_taps": _as_taps, "snr_db": _as_snr, "seed": _as_int,
    "l_max": _as_int,
}


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(data) - set(_CONVERTERS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "k" not in data or "m" not in data:
        raise ConfigError("configuration needs at least 'k' and 'm'")
    try:
        return RunConfig(**{key: convert(data[key]) for key, convert in _CONVERTERS.items() if key in data})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed configuration value: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"configuration {path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(data)
