"""The option surface, pinned: environment variables, CLI flags, settings
fields, format versions.

"No flag, env var or settings field added" was hand-counted in every
CHANGES entry from PR 17 on.  These tests count instead: whoever adds
(or removes) a ``REPRO_*`` variable, a long option, a settings field or
a format-version constant edits the expected value below, in plain
sight of the review, or tier-1 fails.
"""

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
        settings.__name__: len(dataclasses.fields(settings))
        for settings in (
            RecoverySettings,
            ReliabilitySettings,
            OverloadSettings,
            TelemetrySettings,
            FlowSettings,
            PolicyConfig,
        )
    }
    assert counts == {
        "RecoverySettings": 2,
        "ReliabilitySettings": 9,
        "OverloadSettings": 9,
        "TelemetrySettings": 10,
        "FlowSettings": 7,
        "PolicyConfig": 10,
    }


def test_format_version_constants_under_src():
    names = source_matches(r"(?m)^([A-Z][A-Z_]*VERSION) = \d+$")
    assert names == {
        "CACHE_SCHEMA_VERSION",
        "CHAOS_FORMAT_VERSION",
        "CHECKPOINT_VERSION",
        "DELTA_FORMAT_VERSION",
        "MANIFEST_SCHEMA_VERSION",
    }
