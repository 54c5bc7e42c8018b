"""Every exported name and every benchmark trace target resolves."""

import ast
import importlib
import pathlib

import param_atlas

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
