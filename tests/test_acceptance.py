"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s``
or ``-rA`` to see them).  Ground truth for the signal-path criteria is the
dense O(N^2) modulation matrix; the hardware figures are checked as exact
integers against the closed-form tables.
"""

import math
import time

import numpy as np
import pytest

from gfdm_modem import analysis, fft_modem
from gfdm_modem.config import RunConfig
from gfdm_modem.direct_modem import (
    direct_modulate_fd,
    direct_modulate_td,
    precompute_fd_mod,
    precompute_td_mod,
)
from gfdm_modem.errors import SingularWindow
from gfdm_modem.link import run_loopback
from gfdm_modem.numerics import dft
from gfdm_modem.pulses import GfdmParams, make_prototype, rx_window, tx_window
from gfdm_modem.reference import build_matrix, oracle_modulate

from multipulse import MultiPulseComponent, compose_multipulse, fbmc_oqam_modulate, shift_pulse

GEOMETRIES = [(4, 4), (8, 4), (4, 8), (16, 16), (64, 16), (8, 128)]
PULSES = [
    ("RC", 0.1, 0.5),
    ("RC", 0.5, 0.5),
    ("RC", 0.9, 0.5),
    ("RRC", 0.5, 0.5),
    ("DIRICHLET", 0.0, 0.0),
]
GRIDS_PER_SYSTEM = 20
L_MAX = 128

_SYSTEMS: list[dict] | None = None


def qpsk(rng, shape):
    bits = rng.integers(0, 2, size=shape + (2,))
    return ((2 * bits[..., 0] - 1) + 1j * (2 * bits[..., 1] - 1)) / np.sqrt(2)


def systems() -> list[dict]:
    """All geometry/pulse systems with oracle outputs for 20 QPSK grids each."""
    global _SYSTEMS
    if _SYSTEMS is not None:
        return _SYSTEMS
    out = []
    for k, m in GEOMETRIES:
        params = GfdmParams(k, m)
        for kind, alpha, delta in PULSES:
            pulse = make_prototype(kind, params, alpha, delta)
            mm = build_matrix(pulse)
            rng = np.random.default_rng(1000 * k + m)
            grids = [qpsk(rng, (k, m)) for _ in range(GRIDS_PER_SYSTEM)]
            stacked = np.stack([g.flatten(order="F") for g in grids], axis=1)
            refs = (mm.mat @ stacked).T  # one oracle block per grid
            w_td = tx_window(pulse, "TD")
            w_fd = tx_window(pulse, "FD")
            out.append(
                {
                    "label": f"K={k} M={m} {kind} a={alpha}",
                    "params": params,
                    "pulse": pulse,
                    "grids": grids,
                    "refs": refs,
                    "w_td": w_td,
                    "w_fd": w_fd,
                    "w_rx_td": rx_window(w_td, "ZF"),
                    "w_rx_fd": rx_window(w_fd, "ZF"),
                }
            )
    _SYSTEMS = out
    return out


def _report(num: int, name: str, problems: list[str], extra: str = "") -> None:
    status = "PASS" if not problems else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{tail}")
    assert not problems, "; ".join(problems[:10])


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    problems = []
    for sys_ in systems():
        pulse = sys_["pulse"]
        table_td = precompute_td_mod(tx_window(pulse, "TD"), L_MAX)
        table_fd = precompute_fd_mod(tx_window(pulse, "FD"), L_MAX)
        for i, grid in enumerate(sys_["grids"]):
            ref = sys_["refs"][i]
            scale = np.abs(ref).max()
            paths = {
                "fft": fft_modem.modulate_td(grid, sys_["w_td"]),
                "direct-td": direct_modulate_td(grid, table_td),
                "direct-fd": direct_modulate_fd(grid, table_fd),
            }
            for name, got in paths.items():
                err = np.abs(got - ref).max() / scale
                if err > 1e-10:
                    problems.append(f"{sys_['label']} grid {i} {name}: rel err {err:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(1, "oracle equivalence", problems, f"[{elapsed:.1f}s, {len(systems())} systems]")


def test_criterion_2_zf_perfect_reconstruction():
    problems = []
    for sys_ in systems():
        for i, grid in enumerate(sys_["grids"]):
            spec = dft(sys_["refs"][i])
            est = fft_modem.demodulate_fd(spec, sys_["w_rx_fd"])
            err = np.abs(est - grid).max()
            if err > 1e-9:
                problems.append(f"{sys_['label']} grid {i}: residual {err:.2e}")
    singular = make_prototype("RC", GfdmParams(4, 4), alpha=0.0, delta=0.0)
    try:
        rx_window(tx_window(singular, "TD"), "ZF")
        problems.append("even/even alpha=0 delta=0 did not raise SingularWindow")
    except SingularWindow:
        pass
    _report(2, "zero-forcing reconstruction", problems)


def test_criterion_3_td_fd_duality():
    problems = []
    for sys_ in systems():
        for i, grid in enumerate(sys_["grids"][:5]):
            x_td = fft_modem.modulate_td(grid, sys_["w_td"])
            x_fd = fft_modem.modulate_fd(grid, sys_["w_fd"])
            scale = np.abs(x_td).max()
            if np.abs(x_fd - x_td).max() > 1e-10 * scale:
                problems.append(f"{sys_['label']} grid {i}: modulator duality")
            y = sys_["refs"][i]
            d_td = fft_modem.demodulate_td(y, sys_["w_rx_td"])
            d_fd = fft_modem.demodulate_fd(dft(y), sys_["w_rx_fd"])
            if np.abs(d_td - d_fd).max() > 1e-10 * max(np.abs(d_td).max(), 1.0):
                problems.append(f"{sys_['label']} grid {i}: demodulator duality")
    _report(3, "time/frequency duality", problems)


def test_criterion_4_noiseless_loopback():
    taps = ((1 + 0j), (0.4 - 0.2j), (0.1 + 0.05j), (-0.05j))
    problems = []
    for k, m in GEOMETRIES:
        for arch, domain in [("fft", "td"), ("direct", "td"), ("direct", "fd")]:
            cfg = RunConfig(
                k=k, m=m, pulse="rc", alpha=0.5, delta=0.5, rx="zf",
                arch=arch, domain=domain, n_cp=8, channel_taps=taps,
                seed=17, l_max=max(k, m),
            )
            rep = run_loopback(cfg)
            if rep.nmse > 1e-12:
                problems.append(f"{rep.kind} K={k} M={m}: nmse {rep.nmse:.2e}")
    _report(4, "noiseless loopback", problems)


def test_criterion_5_complexity_table():
    problems = []
    if analysis.cm_count("FFT_TD_FD", 32, 32) != 22528:
        problems.append("FFT_TD_FD spot value")
    if analysis.cm_count("DIR_TD_FD", 64, 16) != 92160:
        problems.append("DIR_TD_FD spot value")
    for k, m in [(8, 8), (16, 64), (64, 16), (8, 256), (256, 8)]:
        n, lk, lm, ln = k * m, int(math.log2(k)), int(math.log2(m)), int(math.log2(k * m))
        rows = {
            "FFT_TD_FD": 2 * n * ln + 2 * n,
            "FFT_TD_TD": 2 * n * ln + n * lm + 2 * n,
            "FFT_FD_FD": 2 * n * ln + n * lk + 2 * n,
            "DIR_TD_FD": n * ln + (k + m) * n,
            "DIR_TD_TD": n * ln + n * lk + 2 * m * n,
            "DIR_FD_FD": n * ln + n * lm + 2 * k * n,
            "DIR_FD_FD_SPARSE": n * ln + n * lm + 2 * 2 * n,
        }
        for kind, want in rows.items():
            got = analysis.cm_count(kind, k, m, l=2 if kind.endswith("SPARSE") else None)
            if got != want:
                problems.append(f"{kind} K={k} M={m}: {got} != {want}")

    def geometries_for(kind):
        out = []
        k = 1
        while k <= 2048:
            m = 1
            while k * m <= 2048:
                sizes = {
                    "FFT_TD_FD": (k, m, k * m),
                    "DIR_TD_TD": (k, k * m),
                    "DIR_FD_FD": (m, k * m),
                }[kind]
                if min(sizes) >= 8:
                    out.append((k, m))
                m *= 2
            k *= 2
        return out

    runs = 0
    for arch, domain, kind in [
        ("fft", "td", "FFT_TD_FD"),
        ("direct", "td", "DIR_TD_TD"),
        ("direct", "fd", "DIR_FD_FD"),
    ]:
        for k, m in geometries_for(kind):
            cfg = RunConfig(
                k=k, m=m, pulse="dirichlet", alpha=0.0, delta=0.0, rx="zf",
                arch=arch, domain=domain, n_cp=0, channel_taps=((1 + 0j),),
                seed=5, l_max=k * m,
            )
            rep = run_loopback(cfg)
            runs += 1
            if not rep.cm_match:
                problems.append(
                    f"{kind} K={k} M={m}: measured {rep.measured_cm} != {rep.formula_cm}"
                )
    _report(5, "complexity table", problems, f"[{runs} instrumented links]")


def test_criterion_6_latency_table():
    problems = []
    printed = {
        16: {256: (2330, 373, 16.0), 512: (4186, 405, 9.6), 1024: (7966, 473, 5.9), 2048: (15390, 601, 3.9)},
        8: {64: (828, 147, 17.7), 128: (1398, 208, 14.9), 256: (2394, 222, 9.3),
            512: (4352, 305, 7.0), 1024: (8222, 418, 5.0), 2048: (15938, 692, 4.3)},
    }
    for m, columns in printed.items():
        for n, (t_ref, d_ref, pct_ref) in columns.items():
            k = n // m
            t = analysis.latency("DIR_TD_TD", k, m)
            d = analysis.latency_delta(k, m)
            pct = 100.0 * d / t
            if t != t_ref:
                problems.append(f"T(K={k},M={m}) = {t} != {t_ref}")
            if d != d_ref:
                problems.append(f"delta(K={k},M={m}) = {d} != {d_ref}")
            if abs(pct - pct_ref) >= 0.1:
                problems.append(f"pct(K={k},M={m}) = {pct:.2f} vs {pct_ref}")
    _report(6, "latency table", problems)


def test_criterion_7_resources():
    problems = []
    r = analysis.resources("FFT_BASED")
    if (r.fft_cores, r.multipliers, r.rw_rams, r.r_or_w_rams) != (7, 2, 4, 2):
        problems.append(f"FFT_BASED -> {r}")
    for l_max in (1, 4, 16, 64):
        r = analysis.resources("DIRECT", l_max)
        if (r.fft_cores, r.multipliers, r.rw_rams, r.r_or_w_rams) != (
            4, 2 * l_max, 2 * l_max, 2 * l_max,
        ):
            problems.append(f"DIRECT l_max={l_max} -> {r}")
    _report(7, "resource table", problems)


def test_criterion_8_special_cases():
    problems = []

    n = 64
    rng = np.random.default_rng(8)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bypass = fft_modem.run_pipeline(fft_modem.single_stage_config(n, inverse=True), d)
    ref = np.fft.ifft(d) * n  # independent transform, unnormalized convention
    if np.abs(bypass - ref).max() > 1e-12 * np.abs(ref).max():
        problems.append("single-stage pipeline is not the plain N-point inverse transform")

    params = GfdmParams(8, 4)
    pulse = make_prototype("RC", params, 0.5, 0.5)
    d_qam = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    k_idx = np.arange(8)
    theta0 = np.where(k_idx % 2 == 0, 1j, 1.0)
    theta1 = np.where(k_idx % 2 == 0, 1.0, 1j)
    comps = [
        MultiPulseComponent(pulse, params.k_on, params.m_on, theta0[:, None] * d_qam.real),
        MultiPulseComponent(
            shift_pulse(pulse, 4), params.k_on, params.m_on, theta1[:, None] * d_qam.imag
        ),
    ]
    x_oqam = fbmc_oqam_modulate(d_qam, pulse)
    x_two = compose_multipulse(comps)
    if np.abs(x_oqam - x_two).max() > 1e-10 * np.abs(x_two).max():
        problems.append("staggered two-stream block differs from two-pulse composition")

    d_real = rng.standard_normal((8, 4)).astype(complex)
    x_real = fbmc_oqam_modulate(d_real, pulse)
    x_first = oracle_modulate(build_matrix(pulse), theta0[:, None] * d_real.real)
    if np.abs(x_real - x_first).max() > 1e-12:
        problems.append("real input leaks into the second stream")

    _report(8, "special cases", problems)


def test_criterion_9_count_depends_only_on_n():
    problems = []
    for n in (256, 1024, 2048):
        values = set()
        k = 1
        while k <= n:
            # A 2-point stage costs 0, as in the counter: with K or M = 2 the count is 3 * N/2 lower.
            values.add(analysis.cm_count("FFT_TD_FD", k, n // k) + (3 * n // 2 if 2 in (k, n // k) else 0))
            k *= 2
        if len(values) != 1:
            problems.append(f"N={n}: {sorted(values)}")
    _report(9, "count depends only on N", problems)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
