"""The static twin of ``tools/census.py``: every name ``src/repro``
defines is named again somewhere the entry points live.

The census runs the entry points under a trace hook and counts the
functions none of them enters (minutes of work, so it is not tier-1).
This check is its cheap lower bound: a ``def`` or ``class`` under
``src/repro`` whose name appears nowhere in ``src/``, ``examples/``,
``benchmarks/`` or ``tools/`` -- other than on its own definition line
and in a package's export lists -- cannot be called by anything but the
tests, so it is either dead or a test oracle that belongs under
``tests/``.  Dunder methods are skipped: the interpreter calls them by
protocol, not by name.
"""

import ast
import importlib.util
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "examples", "benchmarks", "tools")

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def export_lines(tree):
    """Lines of a package ``__init__``'s imports and ``__all__``."""
    lines = set()
    for node in tree.body:
        exported = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        )
        if exported:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def mentions():
    """Every identifier's ``(file, line)`` occurrences in the searched trees."""
    found = defaultdict(set)
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            text = path.read_text()
            skipped = set()
            if path.name == "__init__.py" and PACKAGE in path.parents:
                skipped = export_lines(ast.parse(text))
            for number, line in enumerate(text.splitlines(), 1):
                if number in skipped:
                    continue
                for name in IDENTIFIER.findall(line):
                    found[name].add((path, number))
    return found


def definitions():
    """``(path, line, qualified name, name)`` of every def and class."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = prefix + child.name
                found.append((path, child.lineno, qualified, child.name))
                visit(child, path, qualified + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def test_every_definition_is_named_outside_the_tests():
    named = mentions()
    unnamed = []
    checked = 0
    for path, line, qualified, name in definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        checked += 1
        if not named[name] - {(path, line)}:
            unnamed.append(
                "%s:%s (line %d)" % (path.relative_to(PACKAGE.parent), qualified, line)
            )
    assert checked > 500  # the walk found the package
    assert unnamed == [], (
        "defined under src/repro but named by no entry point, example, "
        "benchmark or tool: delete it, call it, or move it to tests/ as an "
        "oracle:\n  " + "\n  ".join(unnamed)
    )


def load_census():
    """``tools/census.py`` as a module (``tools`` is not a package)."""
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUBS_AND_BODIES = '''
import abc
from typing import Protocol


class Endpoint(Protocol):
    def on_message(self, message) -> None:
        ...


class Base(abc.ABC):
    @abc.abstractmethod
    def choose(self, item):
        """Peers that should receive a copy of ``item``."""

    @abc.abstractmethod
    def counted(self, item):
        """An abstract method with a body a subclass may reach."""
        return [item]

    def sample_value(self):
        raise NotImplementedError

    def _enforce(self, newest):
        """Evict tuples."""
        raise NotImplementedError("subclass")

    def on_remote_summary(self, source, update):
        """A peer's summary update arrived (default: ignored)."""

    def default(self):
        return 1


def helper():
    def inner():
        pass

    return inner
'''


def test_census_counts_bodies_and_skips_stubs():
    """Protocol members, bodiless abstract methods and bodies that only
    raise ``NotImplementedError`` cannot be entered by any call, so they
    use no slot of the census ratchet; every def with a body, including a
    docstring-only default and an abstract method with a body, is kept."""
    found = load_census().functions(ROOT / "stubs.py", STUBS_AND_BODIES)
    assert [name for _, name, _ in found] == [
        "Base.counted",
        "Base.on_remote_summary",
        "Base.default",
        "helper",
        "helper.<locals>.inner",
    ]
    assert found[2] == (31, "Base.default", 2)
