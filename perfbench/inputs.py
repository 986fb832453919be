"""Loading the package from a checkout and parsing the generated inputs.

This module imports nothing at module level, so the set-up timing in
``setup_child`` sees the full cost of importing the package.
"""

MODULES = ("errors", "series", "algebraic", "rv", "multiseries", "analytic", "prepare", "terms", "cli")


class MissingPackage(RuntimeError):
    """The checkout has no ``src/hahn_forge`` to import."""


def load_package(root):
    """Import ``hahn_forge`` from ``<root>/src`` and return its modules by name."""
    import importlib
    import os
    import sys
    import types

    src = os.path.join(root, "src")
    init = os.path.join(src, "hahn_forge", "__init__.py")
    if not os.path.isfile(init):
        raise MissingPackage(f"no package source at {init}")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("hahn_forge")
    if os.path.realpath(package.__file__) != os.path.realpath(init):
        raise MissingPackage(f"hahn_forge was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"hahn_forge.{name}") for name in MODULES})


def parse_inputs(spec, hf):
    """Parse an operation's series and term text with the package."""
    kind = spec["kind"]
    ps = hf.series.parse_series
    if kind in ("invert", "nth_root"):
        return {"a": ps(spec["a"])}
    if kind in ("hensel_root", "catalan"):
        return {"coeffs": [ps(c) for c in spec["coeffs"]]}
    if kind in ("prepare_polynomial", "verify_prepared", "verify_undersized"):
        return {"coeffs": [ps(c) for c in spec["poly"]["coeffs"]]}
    if kind == "cli" and spec["argv"][0] == "eval":
        argv = spec["argv"]
        return {"term": hf.terms.parse_term(argv[3]), "at": ps(argv[5])}
    return {}
