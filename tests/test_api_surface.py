"""Every exported name and every benchmark trace target resolves.

The package root is lazy: each exported name is imported from its home module
on first access and must be that module's object.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import param_atlas

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_targets() -> list[str]:
    tree = ast.parse(TRACER.read_text())
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED") for t in node.targets):
            targets += ast.literal_eval(node.value)
    return targets


def test_all_names_resolve():
    missing = [name for name in param_atlas.__all__ if not hasattr(param_atlas, name)]
    assert missing == []


def _resolves(spec: str) -> bool:
    # mirrors Tracer.install: methods are looked up in the class's own __dict__
    mod_name, attr = spec.split(":")
    module = importlib.import_module(f"param_atlas.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(module, cls_name, object))
    return callable(getattr(module, attr, None))


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert len(targets) > 40
    assert [spec for spec in targets if not _resolves(spec)] == []


def test_exported_names_are_their_home_module_objects():
    for name in param_atlas.__all__:
        home = importlib.import_module(f"param_atlas.{param_atlas._HOME[name]}")
        assert getattr(param_atlas, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from param_atlas import *", namespace)
    assert [name for name in param_atlas.__all__ if name not in namespace] == []


def test_dir_lists_every_exported_name():
    assert set(param_atlas.__all__) <= set(dir(param_atlas))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        param_atlas.no_such_name
    for removed in ("expand_in_generators", "trivial_group", "weyl_order", "inner_twist"):
        assert not hasattr(param_atlas, removed), removed


def test_census_submodule_does_not_shadow_the_census_function():
    # `census` names both a submodule and an exported function; load the
    # submodule first, in a fresh interpreter, and the function still wins
    code = ("import param_atlas.coverage\n"
            "from param_atlas import census\n"
            "assert census is param_atlas.coverage.census\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
