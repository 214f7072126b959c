"""Every public top-level function and class of chflow has a caller outside
the tests.

The scan parses src/chflow/*.py and perfbench's modules other than its
tests.  A name counts as called when a statement of those files outside its
own definition refers to it, as a bare name or as an attribute, so a class
only its own methods name, or a function only it calls, is flagged.
Imports do not count: the package's re-exports would otherwise call
everything.  ``cli.main``, the console script, is the entry point.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINTS = {("cli", "main")}


def _modules(root):
    """(module name, parsed tree, whether it is a chflow module) of every
    file the scan reads under root."""
    package = sorted((root / "src" / "chflow").glob("*.py"))
    bench = sorted(p for p in (root / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    return [(path.stem, ast.parse(path.read_text(), str(path)), path in package)
            for path in package + bench]


def _names(node):
    """The names node refers to: bare names read, and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def uncalled_public_names(root=ROOT):
    """Sorted names of the public top-level functions and classes of chflow
    under root that nothing in the scanned files calls."""
    defined, callers = [], {}
    for module, tree, in_package in _modules(root):
        for node in tree.body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if in_package and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not owner.startswith("_") and (module, owner) not in ENTRY_POINTS:
                    defined.append((module, owner))
            for name in _names(node):
                callers.setdefault(name, set()).add((module, owner))
    return sorted(name for module, name in defined
                  if not callers.get(name, set()) - {(module, name)})


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names() == []


def test_the_scan_sees_a_name_only_tests_call(tmp_path):
    """A public function that only its own body names is flagged; one that
    another module calls, and the entry point, are not."""
    src = tmp_path / "src" / "chflow"
    src.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (src / "cli.py").write_text("def main():\n    return used()\n")
    (src / "lib.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused(k):\n    return unused(k - 1) if k else 0\n\n"
        "class Lonely:\n    def again(self):\n        return Lonely()\n")
    (src / "__init__.py").write_text("from .lib import Lonely, unused, used\n")
    (tmp_path / "perfbench" / "test_bench.py").write_text(
        "from chflow.lib import unused\nunused(3)\n")
    assert uncalled_public_names(tmp_path) == ["Lonely", "unused"]
