"""Benchmark of the gfdm_modem library: closed-loop block throughput and latency.

Run from anywhere inside a checkout of the repository; the library is imported
from the checkout's ``src/``:

    python3 perfbench/run.py --workload loopback-awgn-n4096 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load model: one client, one thread, one process; the next block starts when
the previous one returns.  BLAS/OpenMP pools are pinned to one thread before
numpy loads.  ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced rotation cycles and reports the
per-layer metrics (see ``tracing.py``) plus the tracing overhead.

End-to-end times (block latency, throughput, set-up) are host-speed
normalised with a calibration task timed around every cycle (see
``calibrate.py``); the wall-clock figures are printed beside them and kept in
the report.  Per-layer self times are wall clock.

``--workload all`` runs the three one after another in one process (each
with its own set-ups); peak_rss_mb is then the process peak so far.

Every block is checked (see ``workloads.py``); outside the timed loop each run
also compares one block per (arch, domain) against the dense oracle and
attempts one direct N=4096 block to record the engine-limit refusal.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller report with provenance, the latency
histogram and the shape check is written under ``perfbench/out/``.  The exit
code is 1 on any correctness failure and 2 when the library is not found.
"""

from __future__ import annotations

import os

PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from calibrate import REF_CAL_S, calibration_s  # noqa: E402
from workloads import README_TAPS, WORKLOADS, qpsk, check_loopback  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = (
    "errors", "numerics", "pulses", "fft_modem", "direct_modem", "reference",
    "channel", "link", "analysis", "blockio", "config", "cli",
)
#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 7
#: A percentile sits on a jump between two modes of the rotation, and would
#: move by that jump from run to run, when the block times half a percentile
#: point either side of it differ by more than GAP_MIN of it and by more than
#: GAP_RATIO times the mean spread per point over the ten points around it.
GAP_MIN = 0.01
GAP_RATIO = 3.0
ORACLE_TOL = 1e-10

E2E_UNITS = {
    "blocks_per_s": "blocks/s",
    "block_ms_p50": "ms",
    "block_ms_p90": "ms",
    "failed_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WALL_UNITS = {
    "wall.blocks_per_s": "blocks/s",
    "wall.block_ms_p50": "ms",
    "wall.block_ms_p90": "ms",
    "host_speed": "x",
}
#: failed_frac is 0 whenever the run is correct; the JSON line carries it as
#: ``failed``/``attempted``, so only the other five go in ``metrics``.
E2E_REPORTED = ("blocks_per_s", "block_ms_p50", "block_ms_p90", "setup_s", "peak_rss_mb")
BLOCK_LABELS = tuple(
    f"{arch}-{domain}-n{n}" for n in (256, 1024, 2048) for arch in ("fft", "direct") for domain in ("td", "fd")
)


def layer_unit(name: str) -> str:
    if ".self_ms" in name or name.startswith("link.block_ms."):
        return "ms"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("mcm_per_s"):
        return "Mcm/s"
    if name.startswith("blockio.bytes_"):
        return "B/block"
    if name.startswith("trace.blocks_per_s"):
        return "blocks/s"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name == "direct_modem.refused":
        return "count"
    return "count/block"


def import_library() -> SimpleNamespace:
    """Fresh import of every library module (drops earlier imports first)."""
    for name in [n for n in sys.modules if n == "gfdm_modem" or n.startswith("gfdm_modem.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gfdm_modem")
    if Path(pkg.__file__).resolve().parent != SRC / "gfdm_modem":
        raise SystemExit(f"gfdm_modem imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"gfdm_modem.{m}") for m in MODULES})


class Seeds:
    """Deterministic stream of u63 block seeds from the workload seed."""

    def __init__(self, seed: int, stream: int) -> None:
        self._rng = np.random.default_rng([seed, stream])

    def next(self) -> int:
        return int(self._rng.integers(0, 2**63))


def attempt(wl, entry, block_seed: int, index: int):
    t0 = perf_counter_ns()
    try:
        return wl.run_block(entry, block_seed, index)
    except Exception as exc:  # a failing block is counted, the loop goes on
        return perf_counter_ns() - t0, f"{type(exc).__name__}: {exc}", None


def warm(wl, seeds: Seeds) -> list[str]:
    """One block of each distinct config; returns the failures."""
    failures, done = [], set()
    for i, entry in enumerate(wl.entries):
        if entry.key not in done:
            done.add(entry.key)
            failure = attempt(wl, entry, seeds.next(), i)[1]
            if failure:
                failures.append(f"warm-up {entry.key}: {failure}")
    return failures


def set_up(name: str, seed: int, workdir: Path):
    """Import, prepare inputs and warm every config; timed as set-up."""
    t0 = perf_counter()
    lib = import_library()
    wl = WORKLOADS[name]()
    wl.prepare(lib, seed, workdir)
    failures = warm(wl, Seeds(seed, 1))
    return perf_counter() - t0, lib, wl, failures


def measure(wl, seed: int, seconds: float, tracer):
    """Whole rotation cycles until ``seconds`` pass.

    Returns ``(traced, rows, scale)`` per cycle, where ``scale`` is
    ``REF_CAL_S`` over the mean calibration time just before and just after
    the cycle: a block time times ``scale`` is its host-speed normalised
    time.  With a tracer, odd cycles are traced and even ones not, and the
    run ends on an even cycle count so both halves see the same mix.
    """
    seeds = Seeds(seed, 0)
    cycles, index = [], 0
    start = perf_counter()
    cal_before = calibration_s()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.enable()
        rows = []
        for entry in wl.entries:
            if traced:
                tracer.block = index
            elapsed, failure, info = attempt(wl, entry, seeds.next(), index)
            rows.append((entry, elapsed, failure, info))
            index += 1
        if traced:
            tracer.disable()
            tracer.block = -1
        cal_after = calibration_s()
        cycles.append((traced, rows, 2 * REF_CAL_S / (cal_before + cal_after)))
        cal_before = cal_after
        if perf_counter() - start >= seconds and (tracer is None or len(cycles) % 2 == 0):
            return cycles


def oracle_check(lib, seed: int) -> list[dict]:
    """One N=256 block per (arch, domain) against the dense oracle."""
    rng = np.random.default_rng([seed, 3])
    params = lib.pulses.GfdmParams(16, 16)
    grid = qpsk(rng, params.n).reshape(16, 16)
    out = []
    try:
        pulse = lib.pulses.make_prototype("RC", params, 0.5, 0.5)
        ref = lib.reference.oracle_modulate(lib.reference.build_matrix(pulse), grid)
    except Exception as exc:
        return [{"ok": False, "error": f"{type(exc).__name__}: {exc}"}]
    for arch in ("fft", "direct"):
        for domain in ("td", "fd"):
            row = {"arch": arch, "domain": domain}
            try:
                cfg = lib.config.RunConfig(k=16, m=16, arch=arch, domain=domain, l_max=64)
                x = lib.link.modulate_block(cfg, grid)
                row["rel_err"] = float(np.abs(x - ref).max() / np.abs(ref).max())
                row["ok"] = row["rel_err"] <= ORACLE_TOL
            except Exception as exc:
                row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            out.append(row)
    return out


def engine_limit(lib, seed: int) -> dict:
    """Attempt a direct K=M=64 block; the FFT engine accepts N=4096."""
    cfg = lib.config.RunConfig(
        k=64, m=64, arch="direct", domain="td", rx="zf",
        channel_taps=README_TAPS, n_cp=16, l_max=64, seed=Seeds(seed, 4).next(),
    )
    try:
        report = lib.link.run_loopback(cfg)
    except lib.errors.GfdmError as exc:
        return {"refused": 1, "error_type": type(exc).__name__, "message": str(exc), "ok": True}
    except Exception as exc:
        return {"refused": 0, "error_type": type(exc).__name__, "message": str(exc), "ok": False}
    failure = check_loopback(cfg, report)
    return {"refused": 0, "report": str(report), "ok": failure is None, "failure": failure}


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfdm_modem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {v: os.environ.get(v) for v in PIN_VARS},
        "seed": seed,
    }


def latency_shape(times_ms: list[float]) -> dict:
    """Histogram plus a check that p50/p90 do not sit on a jump between modes."""
    q = statistics.quantiles(times_ms, n=1000, method="inclusive")
    checks = {}
    for p in (500, 900):  # q[p - 1] is the p/1000 quantile
        v = q[p - 1]
        jump = (q[p + 4] - q[p - 6]) / v
        local = (q[p + 49] - q[p - 51]) / v / 10
        checks[f"p{p // 10}"] = {
            "ms": float(v),
            "jump_frac": float(jump),
            "local_frac_per_point": float(local),
            "in_gap": bool(jump > GAP_MIN and jump > GAP_RATIO * local),
        }
    lo, hi = min(times_ms), max(times_ms)
    edges = np.geomspace(lo, hi, 21) if hi > lo else np.array([lo, lo + 1e-9])
    counts = np.histogram(times_ms, bins=edges)[0]
    return {"checks": checks, "histogram": {"edges_ms": edges.tolist(), "counts": counts.tolist()}}


def _median_rate(cycles, normalized: bool = True) -> float:
    """Median over cycles of blocks per second of block time."""
    return statistics.median(
        len(rows) / (sum(r[1] for r in rows) / 1e9 * (scale if normalized else 1.0))
        for _, rows, scale in cycles
    )


def summarize(name, cycles, setup_times, tracer):
    """End-to-end figures (host-speed normalised) and, if traced, layer figures."""
    untraced = [c for c in cycles if not c[0]]
    traced = [c for c in cycles if c[0]]
    rows = [r for _, rs, _ in cycles for r in rs]
    times = [r[1] / 1e6 * scale for _, rs, scale in untraced for r in rs]
    wall = [r[1] / 1e6 for _, rs, _ in untraced for r in rs]
    failed = sum(1 for r in rows if r[2])
    e2e = {
        "blocks_per_s": _median_rate(untraced),
        "block_ms_p50": statistics.median(times),
        "block_ms_p90": statistics.quantiles(times, n=10)[8],
        "failed_frac": failed / len(rows),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_e2e = {
        "wall.blocks_per_s": _median_rate(untraced, normalized=False),
        "wall.block_ms_p50": statistics.median(wall),
        "wall.block_ms_p90": statistics.quantiles(wall, n=10)[8],
        "host_speed": statistics.median(1.0 / scale for _, _, scale in cycles),
    }
    per_label: dict[str, list[float]] = {}
    for _, rs, scale in untraced:
        for entry, ns, _, _ in rs:
            per_label.setdefault(entry.label, []).append(ns / 1e6 * scale)
    result = {
        "e2e": e2e,
        "wall_e2e": wall_e2e,
        "samples": {"blocks": len(times), "cycles": len(untraced)},
        "block_ms_by_config": {k: statistics.median(v) for k, v in sorted(per_label.items())},
        "latency_shape": latency_shape(times),
        "failures": [f"{r[0].key}: {r[2]}" for r in rows if r[2]][:20],
        "attempted": len(rows),
        "failed": failed,
    }
    if tracer is not None:
        traced_rows = [r for _, rs, _ in traced for r in rs]
        layers = tracing.layer_metrics(tracer.spans, len(traced_rows))
        for label in BLOCK_LABELS:
            layers[f"link.block_ms.{label}"] = result["block_ms_by_config"].get(label, 0.0) if name == "loopback-clean-mix" else 0.0
        cms = [r[3] for r in traced_rows if r[3] is not None]
        layers["analysis.cm_measured"] = sum(c[0] for c in cms) / len(traced_rows)
        layers["analysis.cm_formula"] = sum(c[1] for c in cms) / len(traced_rows)
        bps_untraced, bps_traced = _median_rate(untraced), _median_rate(traced)
        layers["trace.blocks_per_s_untraced"] = bps_untraced
        layers["trace.blocks_per_s_traced"] = bps_traced
        layers["trace.overhead_frac"] = bps_untraced / bps_traced - 1.0
        block_ns = sum(r[1] for r in traced_rows)
        layers["trace.unattributed_frac"] = 1.0 - tracing.root_ns(tracer.spans) / block_ns
        result["layers"] = layers
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    prov = provenance(seed)
    setup_times, setup_failures, wl = [], [], None
    try:
        cal_before = calibration_s()
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            elapsed, lib, wl, failures = set_up(name, seed, workdir)
            cal_after = calibration_s()
            setup_times.append(elapsed * 2 * REF_CAL_S / (cal_before + cal_after))
            cal_before = cal_after
            setup_failures += failures
        oracle = oracle_check(lib, seed)
        limit = engine_limit(lib, seed)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            # Priming pass: the builds of every config, as in set-up, so that
            # pulses.fresh_build_ratio counts only never-seen configs as fresh.
            tracer.enable()
            setup_failures += warm(wl, Seeds(seed, 5))
            tracer.disable()
        cycles = measure(wl, seed, seconds, tracer)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    result = summarize(name, cycles, setup_times, tracer)
    if tracer is not None:
        result["layers"]["direct_modem.refused"] = float(limit["refused"])
    correct = (
        result["failed"] == 0
        and not setup_failures
        and all(row["ok"] for row in oracle)
        and limit["ok"]
    )
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": prov,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "e2e": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["e2e"].items()},
        "wall_clock": {k: {"value": v, "unit": WALL_UNITS[k]} for k, v in result["wall_e2e"].items()},
        "layers": (
            {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(result["layers"].items())}
            if trace else None
        ),
        "samples": result["samples"],
        "block_ms_by_config": result["block_ms_by_config"],
        "latency_shape": result["latency_shape"],
        "oracle": oracle,
        "engine_limit": limit,
        "setup_times_s": setup_times,
        "failures": setup_failures[:20] + result["failures"],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    print_report(report)
    return report


def print_report(report: dict) -> None:
    p = report["provenance"]
    print(f"== {report['workload']}  seed={p['seed']}  trace={report['trace']}  seconds={report['seconds']}")
    print(
        f"   commit={p['commit']} src_sha256={p['src_sha256'][:12]} nproc={p['nproc']} "
        f"cpu={p['cpu_model']!r} python={p['python']} numpy={p['numpy']} threads=1"
    )
    s = report["samples"]
    print(f"   end-to-end ({s['blocks']} untraced blocks in {s['cycles']} cycles, {report['attempted']} attempted)")
    for k, m in (report["e2e"] | report["wall_clock"]).items():
        print(f"     {k:<40} {m['value']:>14.6g} {m['unit']}")
    if report["layers"]:
        print("   per-layer (traced cycles, per block unless a total)")
        for k, m in report["layers"].items():
            print(f"     {k:<40} {m['value']:>14.6g} {m['unit']}")
    for p_name, c in report["latency_shape"]["checks"].items():
        state = "IN A GAP" if c["in_gap"] else "ok"
        print(
            f"   latency shape {p_name}: {c['ms']:.4g} ms, +-0.5 point spans {c['jump_frac']:.2%}, "
            f"{c['local_frac_per_point']:.2%} per point around it ({state})"
        )
    lim = report["engine_limit"]
    print(f"   engine limit: direct N=4096 refused={lim['refused']} {lim.get('error_type', '')}: {lim.get('message', lim.get('report'))}")
    bad = [r for r in report["oracle"] if not r["ok"]]
    print(f"   oracle check: {len(report['oracle']) - len(bad)}/{len(report['oracle'])} ok")
    for f in report["failures"][:5]:
        print(f"   FAILURE {f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gfdm_modem" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        try:
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        except Exception:
            traceback.print_exc()
            return 1

    def pick(report):
        table = report["layers"] if args.trace else {k: report["e2e"][k] for k in E2E_REPORTED}
        return {k: {"value": v["value"], "unit": v["unit"]} for k, v in table.items()}

    if len(reports) == 1:
        metrics = pick(reports[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in pick(r).items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
