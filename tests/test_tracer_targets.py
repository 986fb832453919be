"""The tracer's ``TARGETS`` against the package.

``perfbench/tracer.py`` wraps each ``(module, attribute, label)`` of its
``TARGETS``, a function of a package module or a method in a class's
dictionary, as ``Tracer.install`` looks them up; a rename in the package
fails here rather than in the next benchmark run.  The test imports the
tracer and edits nothing in it.
"""

import importlib
import os


def test_every_tracer_target_names_a_callable_of_the_package(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = []
    for modname, attr, label in tracer.TARGETS:
        owner = importlib.import_module(f"hahn_forge.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(owner, cls_name, object)).get(meth)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{label}: hahn_forge.{modname}.{attr}")
    assert not missing
    assert ("rv", "ball_mates", "rv.ball_mates") in tracer.TARGETS
