"""The option surface, pinned: environment variables, CLI flags, settings
fields, format versions.

"No flag, env var or settings field added" was hand-counted in every
CHANGES entry from PR 17 on.  These tests count instead: whoever adds
(or removes) a ``REPRO_*`` variable, a long option, a settings field or
a format-version constant edits the expected value below, in plain
sight of the review, or tier-1 fails.  A settings field that no caller
outside the tests sets fails too: it belongs in a module constant.
``tools/census.py`` checks the same at run time, over the entry points.
"""

import ast
import dataclasses
import re
from pathlib import Path

import repro
from repro import cli
from repro.config import PolicyConfig
from repro.core.flow import FlowSettings
from repro.experiments import chaos, report
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings
from repro.telemetry import TelemetrySettings

SOURCE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[2]

SETTINGS = (
    RecoverySettings,
    ReliabilitySettings,
    OverloadSettings,
    TelemetrySettings,
    FlowSettings,
    PolicyConfig,
)


def source_matches(pattern):
    found = set()
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        found.update(re.findall(pattern, path.read_text()))
    return found


def long_options(parser):
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_environment_variables_read_under_src():
    # A bare ``REPRO_`` is the prefix the pool mirrors into its workers.
    names = source_matches(r"\bREPRO_[A-Z][A-Z_]*\b")
    assert names == {"REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_CACHE_SALT"}


def test_long_options_of_the_three_parsers():
    counts = {
        "run": len(long_options(cli.build_parser())),
        "experiments chaos": len(long_options(chaos.build_parser())),
        "experiments report": len(long_options(report.build_parser())),
    }
    assert counts == {"run": 31, "experiments chaos": 14, "experiments report": 4}


def test_settings_fields():
    counts = {
        settings.__name__: len(dataclasses.fields(settings)) for settings in SETTINGS
    }
    assert counts == {
        "RecoverySettings": 2,
        "ReliabilitySettings": 4,
        "OverloadSettings": 7,
        "TelemetrySettings": 4,
        "FlowSettings": 4,
        "PolicyConfig": 5,
    }


def names_callers_pass():
    """Field names passed by some caller under src/, examples/ or
    benchmarks/: keyword arguments of a call to a settings class, ``cls``,
    ``replace`` or ``with_overrides``, and keys of a ``*overrides`` dict
    (the CLIs build their settings from those)."""
    callees = {settings.__name__ for settings in SETTINGS}
    callees.update(("cls", "replace", "with_overrides"))
    named = set()
    for root in ("src", "examples", "benchmarks"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    function = node.func
                    callee = getattr(function, "attr", getattr(function, "id", None))
                    if callee in callees:
                        named.update(word.arg for word in node.keywords if word.arg)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Subscript):
                            variable, keys = target.value, [target.slice]
                        elif isinstance(node.value, ast.Dict):
                            variable, keys = target, node.value.keys
                        else:
                            continue
                        if getattr(variable, "id", "").endswith("overrides"):
                            named.update(
                                key.value
                                for key in keys
                                if isinstance(key, ast.Constant)
                            )
    return named


def test_every_settings_field_is_set_by_a_caller():
    named = names_callers_pass()
    unset = {
        settings.__name__: [
            field.name
            for field in dataclasses.fields(settings)
            if field.name not in named
        ]
        for settings in SETTINGS
    }
    assert {name: fields for name, fields in unset.items() if fields} == {}


def test_format_version_constants_under_src():
    names = source_matches(r"(?m)^([A-Z][A-Z_]*VERSION) = \d+$")
    assert names == {
        "CACHE_SCHEMA_VERSION",
        "CHAOS_FORMAT_VERSION",
        "CHECKPOINT_VERSION",
        "DELTA_FORMAT_VERSION",
        "MANIFEST_SCHEMA_VERSION",
    }
