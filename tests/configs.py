"""Shared test helpers: the run configuration as the JSON object the CLI reads (the inverse of
``parse_config``), and the emptying of every held table."""

from __future__ import annotations

import math

from gfdm_modem import channel, link
from gfdm_modem.config import RunConfig


def emit_config(cfg: RunConfig) -> dict:
    """The flat JSON object ``parse_config`` reads back as ``cfg``."""
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


def clear_builders():
    """Empty every held table: the per-geometry stores (transmit windows, channel responses) and
    the link's per-configuration builders, so each table and channel response is built anew."""
    for builder in (link._windows, link._table, link._plan, channel._response):
        builder.cache_clear()
