"""Run configuration: flat JSON in, validated dataclass out.

A ``RunConfig`` is checked once, when built, and holds what its rules built: the geometry
``params`` (``pulses.GfdmParams``, the one home of the grid and active-set rules) and the channel
``channel`` (``channel.ChannelSpec`` of ``(channel_taps, snr_db)``, the one home of the taps and SNR
rules), each evaluated in ``__post_init__``, so a block run on it runs neither rule again.  Its
fields hold the checked values, the active sets sorted without repeats (``None`` for the full
range) and the pulse name in lower case, so two configurations of one geometry and waveform are equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

from .channel import ChannelSpec, check_framing, check_real, check_seed
from .errors import ConfigError
from .numerics import check_positive
from .pulses import GfdmParams, check_pulse_spec

__all__ = ["RunConfig", "parse_config", "load_config"]

#: The names each of ``rx``, ``arch`` and ``domain`` may take.
_CHOICES = {"rx": ("zf", "mf"), "arch": ("fft", "direct"), "domain": ("td", "fd")}


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
        # Each field takes its one rule, in the order a config's first fault is reported.  The geometry's
        # are GfdmParams' (numerics.check_grid, MAX_N, the active sets), and the fields hold what it holds.
        params = self.params
        object.__setattr__(self, "k", params.k)
        object.__setattr__(self, "m", params.m)
        object.__setattr__(self, "k_on", params.k_on if len(params.k_on) < params.k else None)
        object.__setattr__(self, "m_on", params.m_on if len(params.m_on) < params.m else None)
        # The framing rule, channel.check_framing, is shared with channel.add_cp and channel.remove_cp.
        _, n_cp, n_cs = check_framing(params.n, self.n_cp, self.n_cs)
        object.__setattr__(self, "n_cp", n_cp)
        object.__setattr__(self, "n_cs", n_cs)
        # The chain count l_max takes the one count rule, numerics.check_positive.  The seed's rule, with
        # its 64-bit range, is channel.check_seed, shared with channel.apply_channel.
        object.__setattr__(self, "l_max", check_positive("l_max", self.l_max))
        object.__setattr__(self, "seed", check_seed(self.seed))
        # Real numbers held as float; the real-number rule is channel's.
        for name in ("alpha", "delta"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not isinstance(self.pulse, str):
            raise ConfigError(f"pulse must be a string, got {self.pulse!r}")
        object.__setattr__(self, "pulse", self.pulse.lower())  # held in lower case, as parse_config passes it
        check_pulse_spec(self.pulse.upper(), self.alpha, self.delta)
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if not (isinstance(value, str) and value in choices):
                raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
        # The taps and SNR rules are the spec's; the fields hold its checked values, the taps as a
        # hashable tuple.
        taps = self.channel.taps
        object.__setattr__(self, "channel_taps", tuple(taps.tolist()))
        object.__setattr__(self, "snr_db", self.channel.snr_db)
        if taps.size > self.n_cp + 1:
            raise ConfigError(f"{taps.size} taps exceed the interference-free bound n_cp + 1 = {self.n_cp + 1}")

    @cached_property
    def params(self) -> GfdmParams:
        return GfdmParams(self.k, self.m, self.k_on, self.m_on)

    @cached_property
    def channel(self) -> ChannelSpec:
        return ChannelSpec(self.channel_taps, self.snr_db)

    @property
    def n(self) -> int:
        return self.k * self.m


def _as_float(name: str, value) -> float:
    """``float(value)`` for a JSON number or numeric string.  A boolean, ``null``, array, object, other
    string or integer beyond float range is refused, naming ``name``."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        rule = "a real number within float range"
    except (TypeError, ValueError):
        rule = f"a real number, got {value!r}"
    raise ConfigError(f"malformed configuration value: {name} must be {rule}")


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
