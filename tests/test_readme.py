"""The README's library example runs as written and prints what its comment says, and every
library name the README gives exists."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import gfdm_modem

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_its_result():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    err, count = out.getvalue().split()
    assert float(err) < 1e-12 and int(count) == 4608


#: A backticked ``module.name`` or ``gfdm_modem.module.name``, with an optional call or ``= value``
#: after it; a name ending in ``*`` stands for every attribute it begins.
_MODULE_NAME = re.compile(r"(?:gfdm_modem\.)?(\w+)\.(\w+\*?)(?:\(.*\)| = .+)?")


def test_every_module_name_the_readme_gives_resolves():
    # A renamed or deleted library name left behind in the README fails here.
    modules = {info.name for info in pkgutil.iter_modules(gfdm_modem.__path__)}
    checked, stale = [], []
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        match = _MODULE_NAME.fullmatch(span)
        if match is None or match[1] not in modules | {"gfdm_modem"}:
            continue
        module = gfdm_modem if match[1] == "gfdm_modem" else importlib.import_module(f"gfdm_modem.{match[1]}")
        name = match[2]
        if name.endswith("*"):
            found = any(attr.startswith(name[:-1]) for attr in vars(module))
        else:
            found = hasattr(module, name) or (module is gfdm_modem and name in modules)
        (checked if found else stale).append(span)
    assert stale == []
    assert len(checked) >= 20  # the pattern still finds the README's names
