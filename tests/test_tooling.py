"""Source checks: the package's modules use autodiff only through its public API."""

import ast
from pathlib import Path

import stabledyn

PACKAGE = Path(stabledyn.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _autodiff_private_names():
    """Every private name autodiff.py defines or uses as an attribute:
    module helpers (_accum, _node, ...) and Var/Tape internals (_backward,
    _register, _nodes, ...)."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "autodiff.py").read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return {n for n in names if _private(n)}


def _uses(path, private):
    """(line, text) of every use of a private autodiff name in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in private:
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
    return found


def test_no_module_reaches_into_autodiff_internals():
    # a node built by hand (its own _backward, tape._register, ad._accum)
    # bypasses the primitives' checks and the sweep's bookkeeping; every
    # recorded operation goes through a public primitive instead
    private = _autodiff_private_names()
    assert {"_accum", "_register", "_backward"} <= private
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "autodiff.py")
    assert len(modules) >= 8
    bad = [f"{p.name}:{line}: {text}"
           for p in modules for line, text in sorted(_uses(p, private))]
    assert not bad, "\n".join(bad)
