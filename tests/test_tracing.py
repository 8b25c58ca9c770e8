"""The benchmark tracer's binding contract with the library.

``perfbench/tracing.py`` rebinds every ``(module, function)`` in its ``TARGETS``
by name when a ``Tracer`` is built, so a renamed or deleted library function
breaks every traced benchmark run.  These tests load that file as it is and
check the names it binds, one traced loopback per architecture, and that
``disable`` puts every module attribute back.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import gfdm_modem.cli  # noqa: F401  (imports every module the tracer binds)
from gfdm_modem import link
from gfdm_modem.config import RunConfig

from configs import clear_builders

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings():
    """Every callable attribute of every loaded ``gfdm_modem`` module, by (module name, attribute)."""
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "gfdm_modem" or name.startswith("gfdm_modem.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_every_target_names_a_library_function(tracing):
    assert tracing.TARGETS
    for mod_name, func_name, span_name, _ in tracing.TARGETS:
        module = sys.modules[f"gfdm_modem.{mod_name}"]
        assert callable(getattr(module, func_name, None)), f"{mod_name}.{func_name}"
        assert span_name.split(".")[0] == mod_name, span_name


def test_traced_loopbacks_record_spans_and_restore_every_binding(tracing):
    # The fft run loads one plan, so the direct run after it builds its tables while traced.
    configs = [RunConfig(k=16, m=8, arch="fft", domain="fd", rx="mf"),
               RunConfig(k=16, m=8, arch="direct", domain="td", rx="mf")]
    untraced = [link.run_loopback(cfg) for cfg in configs]
    clear_builders()  # nothing held, so both runs below build their windows and tables
    before = library_bindings()
    tracer = tracing.Tracer()
    tracer.enable()
    try:
        assert link.run_loopback is not before[("gfdm_modem.link", "run_loopback")]
        traced = [link.run_loopback(cfg) for cfg in configs]
    finally:
        tracer.disable()
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"link.run_loopback", "fft_modem.run_pipeline", "numerics.dft", "direct_modem.precompute",
            "pulses.build", "channel.apply_channel", "reference.map_symbols"} <= names
    roots = [span for span in tracer.spans if span[3] < 0]
    assert [span[0] for span in roots] == ["link.run_loopback"] * 2
    assert all(span[1] <= span[2] for span in tracer.spans)
