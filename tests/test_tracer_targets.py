"""The tracer's ``TARGETS`` against the package.

``perfbench/tracer.py`` wraps each ``(module, attribute, label)`` of its
``TARGETS``, a function of a package module or a method in a class's
dictionary, as ``Tracer.install`` looks them up; a rename in the package
fails here rather than in the next benchmark run.  The tests import the
tracer and edit nothing in it.

The tracer replaces a function on the module namespaces that bind it, so a
reference to ``eval_term`` bound at import time (a default argument or a
module-level partial) would keep the original and leave a term command
without ``terms.eval_term`` spans; the second test runs each term command
under the installed tracer.
"""

import importlib
import os

import pytest

import hahn_forge


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    return importlib.import_module("tracer")


def test_every_tracer_target_names_a_callable_of_the_package(monkeypatch):
    tracer = _tracer(monkeypatch)
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


@pytest.mark.parametrize("argv", [
    ["eval", "x^2 + exp(x)", "--at", "t^(1)"],
    ["prepare", "x^2 - t^(1)", "--trials", "20"],
    ["verify", "x", "--with-C", "0", "--trials", "20"],
    ["jacobian", "x^2", "--trials", "20"],
], ids=lambda argv: argv[0])
def test_every_term_command_records_eval_term_spans(monkeypatch, capsys, argv):
    tracer = _tracer(monkeypatch).Tracer(hahn_forge)
    try:
        tracer.install()  # install runs assert_coverage
        assert hahn_forge.cli.run_cli(argv) == 0
        label = tracer.labels.index("terms.eval_term")
        assert label in tracer.name
    finally:
        tracer.remove()
        capsys.readouterr()
    assert not hasattr(hahn_forge.terms.eval_term, "__wrapped__")


@pytest.mark.parametrize("argv", [
    ["verify", "x", "--with-C", "0", "--trials", "20"],
    ["jacobian", "x^2", "--trials", "20"],
], ids=lambda argv: argv[0])
def test_the_sampling_commands_record_the_draw_and_rv_lambda_spans(monkeypatch, capsys, argv):
    """The draw reaches ``ball_mates`` and the check ``rv_lambda`` by their module global names, so the
    tracer's wrappers see both; no reference to either is kept past ``remove()``."""
    tracer = _tracer(monkeypatch).Tracer(hahn_forge)
    try:
        tracer.install()
        assert hahn_forge.cli.run_cli(argv) == 0
        for name in ("rv.ball_mates", "rv.rv_lambda"):
            assert tracer.labels.index(name) in tracer.name, name
    finally:
        tracer.remove()
        capsys.readouterr()
    for module in (hahn_forge.rv, hahn_forge.prepare, hahn_forge.cli):
        for name in ("ball_mates", "rv_lambda"):
            assert not hasattr(getattr(module, name, None), "__wrapped__"), (module.__name__, name)
