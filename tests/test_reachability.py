"""Reachability guard: every top-level function and class of ``gfdm_modem`` is reached from the
program's roots, or listed below with the reason it is kept.

The roots are the CLI (``cli.main``, which reaches each command through its parser) and the
link's block API.  A definition is reached when a reached definition names it: a bare name, a name
imported from another module, or an attribute of an imported module.  A top-level assignment is
reached like a definition, and the rest of a module's top-level code runs on import, so it is a
root.  What a listed definition reaches is kept with it, so a helper that only a listed wrapper
calls fails here once the wrapper goes.  ``link._table`` finds the four
``direct_modem.precompute_*`` by name, so it reaches them.  The ``__init__`` re-exports are not
roots.
"""

import ast
from pathlib import Path

import gfdm_modem

SRC = Path(gfdm_modem.__file__).resolve().parent

ROOTS = {("cli", "main"), ("link", "plan_for"), ("link", "run_loopback"), ("link", "modulate_block"),
         ("link", "demodulate_block")}

#: Calls made through ``getattr`` by name, which the walk cannot see.
BY_NAME = {("link", "_table"): {("direct_modem", f"precompute_{mode}")
                                for mode in ("td_mod", "fd_mod", "td_demod", "fd_demod")}}

_TRACER_BOUND = "tracer-bound until item 4"

#: The definitions no root reaches, each kept for a reason.
UNREACHED = {
    **{("fft_modem", name): _TRACER_BOUND for name in ("modulate_td", "modulate_fd", "demodulate_td", "demodulate_fd")},
    **{("direct_modem", name): _TRACER_BOUND
       for name in ("direct_modulate_td", "direct_modulate_fd", "direct_demodulate_td", "direct_demodulate_fd")},
    ("pulses", "window_pair"): _TRACER_BOUND,
    **{("reference", name): "oracle"
       for name in ("build_matrix", "oracle_modulate", "oracle_demod_zf", "oracle_demod_mf")},
    ("analysis", "resources"): "tests only until item 9",
    ("channel", "uniform64"): "stream specification",
    ("fft_modem", "single_stage_config"): "OFDM acceptance pipeline",
}


def _bound_names(node):
    """The names a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def parse_package(src=SRC):
    """``(graph, definitions)``: the names each top-level binding refers to, keyed ``(module, name)``
    (``None`` for a module's import-time code), and the top-level functions and classes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    bindings, modules, names = {}, {}, {}
    for module, tree in trees.items():
        modules[module], names[module], bound = {}, {}, bindings.setdefault(module, {})
        for node in ast.walk(tree):  # a lazy import inside a function binds its names there too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:  # ``from . import channel`` or ``from .channel import x``
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[module][local] = alias.name
                    else:
                        names[module][local] = node.module, alias.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _bound_names(node):
                    bound.setdefault(name, []).append(node.value)
            else:
                bound.setdefault(None, []).append(node)

    def resolve(module, name):
        if name in bindings[module]:
            return module, name
        if name in names[module]:
            return resolve(*names[module][name])
        return None

    graph = {}
    for module, bound in bindings.items():
        for name, nodes in bound.items():
            refs = set(BY_NAME.get((module, name), ()))
            for node in (n for tree in nodes if tree is not None for n in ast.walk(tree)):
                if isinstance(node, ast.Name):
                    refs.add(resolve(module, node.id))
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules[module]:
                    refs.add(resolve(modules[module][node.value.id], node.attr))
            graph[module, name] = refs - {None}
    definitions = {(module, node.name) for module, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return graph, definitions


def reached(graph, roots):
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(graph.get(key, ()))
    return seen


def unreached(src=SRC):
    """``(from_roots, unlisted, definitions)``: the definitions no root reaches, those that neither a
    root nor a listed definition reaches (what a kept definition calls is kept with it), and all."""
    graph, definitions = parse_package(src)
    roots = ROOTS | {key for key in graph if key[1] is None}
    listed = set(UNREACHED) & definitions
    return (definitions - reached(graph, roots), definitions - reached(graph, roots | listed) - listed,
            definitions)


def test_every_definition_is_reached_or_listed():
    from_roots, unlisted, definitions = unreached()
    assert sorted(unlisted) == [], "unreached and unlisted: reach it, list it or delete it"
    assert sorted(set(UNREACHED) - definitions) == [], "listed but deleted: drop its row"
    assert sorted(set(UNREACHED) - from_roots) == [], "listed but now reached: drop its row"


def test_the_roots_exist_and_reach_every_command():
    graph, definitions = parse_package()
    assert ROOTS <= definitions
    commands = {key for key in definitions if key[0] == "cli" and key[1].startswith("_cmd_")}
    assert len(commands) == 5 and commands <= reached(graph, ROOTS)
    assert set(BY_NAME[("link", "_table")]) <= reached(graph, ROOTS)


def test_an_unreached_helper_fails(tmp_path):
    # The guard on a copy of the package with one helper that nothing calls.
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with (tmp_path / "numerics.py").open("a") as f:
        f.write("\n\ndef _orphan():\n    return dft\n")
    assert unreached(tmp_path)[1] == {("numerics", "_orphan")}
