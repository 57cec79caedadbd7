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
from repro.config import PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.flow import FlowSettings
from repro.experiments import chaos, report
from repro.net.link import LinkSpec
from repro.net.reliable import ReliabilitySettings
from repro.overload import OverloadSettings
from repro.recovery import RecoverySettings
from repro.streams.partitioner import PartitionerConfig
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
    SystemConfig,
    WorkloadConfig,
    LinkSpec,
    PartitionerConfig,
)

NEVER_SET_BY_A_CALLER = {
    # LANDMARK windows are the paper's (Section 2: a window "until a
    # specific tuple is observed"), held by
    # tests/integration/test_landmark_windows.py, but no entry point
    # builds one, so nothing outside the tests names their key.
    "SystemConfig": ["landmark_key"],
}


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
    names = source_matches(r"\bREPRO_[A-Z][A-Z_]*\b")
    assert names == {"REPRO_CACHE_DIR"}


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
        "SystemConfig": 14,
        "WorkloadConfig": 6,
        "LinkSpec": 2,
        "PartitionerConfig": 3,
    }


def callee_name(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def dict_keys(value):
    """The constant keys of a dict literal or the keywords of ``dict(...)``."""
    if isinstance(value, ast.Dict):
        return [key.value for key in value.keys if isinstance(key, ast.Constant)]
    if isinstance(value, ast.Call) and callee_name(value) == "dict":
        return [word.arg for word in value.keywords if word.arg]
    return []


def names_passed_in(tree):
    """Field names one module passes: keyword arguments of a call to a
    settings class, ``cls`` or ``replace``, and the keys of a dict such a
    call takes as ``**name`` -- built as a literal, by ``dict(...)`` or
    key by key, as the CLIs and the ledger build their settings."""
    callees = {settings.__name__ for settings in SETTINGS} | {"cls", "replace"}
    nodes = list(ast.walk(tree))
    named, splatted = set(), set()
    for node in nodes:
        if isinstance(node, ast.Call) and callee_name(node) in callees:
            for word in node.keywords:
                if word.arg:
                    named.add(word.arg)
                elif isinstance(word.value, ast.Name):
                    splatted.add(word.value.id)
    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.slice, ast.Constant
            ):
                variable, keys = target.value, [target.slice.value]
            else:
                variable, keys = target, dict_keys(node.value)
            if getattr(variable, "id", None) in splatted:
                named.update(keys)
    return named


def names_callers_pass():
    """Field names passed by some caller under src/, examples/ or benchmarks/."""
    named = set()
    for root in ("src", "examples", "benchmarks"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            named |= names_passed_in(ast.parse(path.read_text()))
    return named


def test_names_passed_through_a_splatted_dict_count():
    tree = ast.parse(
        "optional = dict(faults=plan)\n"
        "overrides = {'enabled': True}\n"
        "overrides['sample_interval_s'] = 0.5\n"
        "unused = dict(window_kind=kind)\n"
        "SystemConfig(seed=1, **optional)\n"
        "replace(TelemetrySettings(), **overrides)\n"
    )
    assert names_passed_in(tree) == {"seed", "faults", "enabled", "sample_interval_s"}


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
    assert {
        name: fields for name, fields in unset.items() if fields
    } == NEVER_SET_BY_A_CALLER


def test_format_version_constants_under_src():
    names = source_matches(r"(?m)^([A-Z][A-Z_]*VERSION) = \d+$")
    assert names == {
        "CACHE_SCHEMA_VERSION",
        "CHAOS_FORMAT_VERSION",
        "CHECKPOINT_VERSION",
        "DELTA_FORMAT_VERSION",
        "MANIFEST_SCHEMA_VERSION",
    }
