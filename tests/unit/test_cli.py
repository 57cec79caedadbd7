"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, config_from_args, main
from repro.config import Algorithm, WindowKind, WorkloadKind
from repro.core.system import run_experiment


def parse(argv):
    return build_parser().parse_args(argv)


FAST = ["--tuples", "400", "--nodes", "3", "--window", "48", "--domain", "256"]
CHAOS_SMALL = [
    "experiments", "chaos", "smoke", "--no-cache", "--algorithms", "BASE",
    "--fault-grid", "clean",
]

RUN_FLOAT_OPTIONS = (
    "--window-seconds", "--alpha", "--rate", "--kappa", "--budget", "--skew",
    "--loss", "--retransmit-timeout", "--staleness-budget",
    "--checkpoint-interval", "--link-backlog-bound", "--telemetry-sample",
)
CHAOS_FLOAT_OPTIONS = ("--checkpoint-interval", "--tolerance")


class TestArgumentTranslation:
    def test_defaults(self):
        config = config_from_args(parse([]))
        assert config.policy.algorithm is Algorithm.DFTT
        assert config.num_nodes == 6
        assert config.workload.kind is WorkloadKind.ZIPF
        assert config.window_kind is WindowKind.COUNT
        assert not config.reliability.enabled
        assert not config.recovery.enabled
        config.validate()
        # An omitted --staleness-budget is None; an explicit 0 is a budget.
        budget = config_from_args(parse(["--staleness-budget", "0"])).reliability
        assert budget.enabled and budget.staleness_budget_s == 0.0

    def test_algorithm_and_workload_choices(self):
        config = config_from_args(
            parse(["--algorithm", "BLOOM", "--workload", "FIN"])
        )
        assert config.policy.algorithm is Algorithm.BLOOM
        assert config.workload.kind is WorkloadKind.FINANCIAL

    def test_time_windows(self):
        config = config_from_args(parse(["--window-seconds", "2.5"]))
        assert config.window_kind is WindowKind.TIME
        assert config.window_seconds == 2.5

    def test_budget_and_loss(self):
        config = config_from_args(parse(["--budget", "2.0", "--loss", "0.1"]))
        assert config.policy.flow.budget_override == 2.0
        assert config.link.loss_probability == 0.1

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            parse(["--algorithm", "MAGIC"])

    def test_overload_alone_builds_the_default_bound_ladder(self, monkeypatch):
        """``--overload``, ``--queue-bound 64`` and ``experiments chaos
        --overload`` build one ladder; the first used to keep the class
        defaults' clear levels (4 / 24) instead of ``for_queue_bound(64)``'s
        (7 / 31)."""
        from repro.experiments import chaos

        class Swept(Exception):
            pass

        def capture(**kwargs):
            raise Swept(kwargs["overload"])

        monkeypatch.setattr(chaos, "run", capture)
        with pytest.raises(Swept) as swept:
            chaos.main(["smoke", "--overload", "--no-cache"])
        overload = config_from_args(parse(["--overload"])).overload
        bounded = config_from_args(parse(["--queue-bound", "64"])).overload
        assert overload == bounded == swept.value.args[0]

    def test_replay_workload_is_a_usage_error(self, capsys):
        """Trace replay is not a workload: argparse refuses it (exit 2,
        naming the four workloads of Section 6, every one the CLI runs)."""
        with pytest.raises(SystemExit) as refusal:
            main(["--workload", "REPLAY"])
        assert refusal.value.code == 2
        message = capsys.readouterr().err
        assert "invalid choice: 'REPLAY'" in message
        choices = message.split("choose from")[1]
        assert all(repr(kind.value) in choices for kind in WorkloadKind)

    @pytest.mark.parametrize(
        "argv, option",
        [(FAST, option) for option in RUN_FLOAT_OPTIONS]
        + [(CHAOS_SMALL, option) for option in CHAOS_FLOAT_OPTIONS],
        ids=["run %s" % option for option in RUN_FLOAT_OPTIONS]
        + ["chaos %s" % option for option in CHAOS_FLOAT_OPTIONS],
    )
    def test_nan_is_a_usage_error(self, capsys, argv, option):
        """NaN fails every comparison: unchecked, it crashes a run with a
        traceback (--rate, --alpha, ...) or is silently dropped (--budget,
        --link-backlog-bound, ...).  Every float option refuses it."""
        with pytest.raises(SystemExit) as refusal:
            main(argv + [option, "nan"])
        assert refusal.value.code == 2
        error = capsys.readouterr().err
        assert "argument %s: invalid float value: 'nan'" % option in error
        assert "Traceback" not in error

    def test_every_float_option_is_in_the_nan_case(self):
        from repro.cli import float_not_nan
        from repro.experiments import chaos

        def float_options(parser):
            assert all(action.type is not float for action in parser._actions)
            return {
                action.option_strings[0]
                for action in parser._actions
                if action.type is float_not_nan
            }

        assert float_options(build_parser()) == set(RUN_FLOAT_OPTIONS)
        assert float_options(chaos.build_parser()) == set(CHAOS_FLOAT_OPTIONS)

    @pytest.mark.parametrize(
        "argv, option",
        [
            (FAST, "--profile"),
            (CHAOS_SMALL, "--nodes"),
            (CHAOS_SMALL, "--jobs"),
            (["experiments", "report", "smoke", "--only", "fig8", "--no-cache"],
             "--jobs"),
        ],
        ids=["run --profile", "chaos --nodes", "chaos --jobs", "report --jobs"],
    )
    def test_negative_count_is_a_usage_error(self, capsys, argv, option):
        """A negative ``--profile`` used to run unprofiled and a negative
        chaos ``--nodes`` the scale's largest mesh, both exiting 0; a
        negative ``--jobs`` raised a traceback from the sweep."""
        with pytest.raises(SystemExit) as refusal:
            main(argv + [option, "-3"])
        assert refusal.value.code == 2
        error = capsys.readouterr().err
        assert "argument %s: invalid non-negative int value: '-3'" % option in error

    @pytest.mark.parametrize(
        "flags, option",
        [
            (["--checkpoint-interval", "-1"], "--checkpoint-interval"),
            (["--checkpoint-interval", "-1", "--recovery"], "--checkpoint-interval"),
            (["--staleness-budget", "-5"], "--staleness-budget"),
            (["--window-seconds", "-1"], "--window-seconds"),
        ],
        ids=["checkpoint-interval", "checkpoint-interval-with-recovery",
             "staleness-budget", "window-seconds"],
    )
    def test_negative_duration_is_a_usage_error(self, capsys, flags, option):
        """These used to run without recovery, at the default checkpoint
        interval, without reliability, or to blame ``window_seconds`` on
        the window kind -- the first three exiting 0."""
        assert main(FAST + ["--json"] + flags) == 2
        captured = capsys.readouterr()
        assert "error: %s must be non-negative" % option in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("option", ["--rate", "--kappa", "--alpha"])
    def test_infinite_workload_or_policy_float_is_a_config_error(self, capsys, option):
        """``--rate inf`` used to print a normal-looking report with every
        arrival at t = 0, and ``--kappa inf`` ran a one-coefficient
        budget.  Options where ``inf`` means something keep it."""
        assert main(FAST + ["--json", option, "inf"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "must be finite" in captured.err
        assert captured.out == ""


class TestMain:
    def test_text_output(self, capsys):
        assert main(FAST + ["--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert "msgs/result" in out

    def test_json_output(self, capsys):
        assert main(FAST + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["algorithm"] == "DFTT"
        assert "epsilon" in payload["metrics"]
        assert "node_diagnostics" not in payload

    def test_json_verbose_includes_diagnostics(self, capsys):
        assert main(FAST + ["--json", "--verbose"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["node_diagnostics"]) == 3

    def test_invalid_config_returns_error(self, capsys):
        assert main(["--nodes", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_fault_plan_file_is_named(self, capsys, tmp_path):
        """A ``.json`` plan that is not a file used to fall through to the
        spec grammar and report an unknown fault kind."""
        missing = tmp_path / "missing.json"
        assert main(FAST + ["--fault-plan", str(missing)]) == 2
        error = capsys.readouterr().err
        assert "error: fault plan file not found: %s" % missing in error

    def test_verbose_text(self, capsys):
        assert main(FAST + ["--verbose"]) == 0
        assert "node 0:" in capsys.readouterr().out

    def test_deterministic_across_invocations(self, capsys):
        main(FAST + ["--json", "--seed", "11"])
        first = json.loads(capsys.readouterr().out)
        main(FAST + ["--json", "--seed", "11"])
        second = json.loads(capsys.readouterr().out)
        assert first["metrics"] == second["metrics"]


class TestExperimentsDispatch:
    def test_help_lists_subcommands(self, capsys):
        assert main(["experiments", "--help"]) == 0
        out = capsys.readouterr().out
        assert "chaos" in out and "report" in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main(["experiments"]) == 2
        assert "chaos" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["experiments", "mystery"]) == 2
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [FAST, ["experiments", "chaos", "smoke"], ["experiments", "report", "smoke"]],
        ids=["run", "chaos", "report"],
    )
    def test_removed_shards_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--shards", "2"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [FAST, ["experiments", "chaos", "smoke", "--recovery"]],
        ids=["run", "chaos"],
    )
    def test_removed_full_snapshot_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--no-delta-transfer"])
        assert excinfo.value.code == 2
        assert "--no-delta-transfer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--overload", "--queue-bound", "-5"], "--queue-bound must be positive"),
            (["--checkpoint-interval", "0.5"], "--checkpoint-interval needs --recovery"),
            (
                ["--recovery", "--checkpoint-interval", "-1"],
                "--checkpoint-interval must be non-negative",
            ),
            (["--baseline", "/nonexistent.json"], "no chaos results file"),
            (
                ["--baseline", "/nonexistent.json", "--tolerance", "-0.1"],
                "--tolerance must be non-negative",
            ),
            (["--tolerance", "0.3"], "--tolerance needs --baseline"),
        ],
        ids=[
            "negative-queue-bound",
            "checkpoint-interval-without-recovery",
            "negative-checkpoint-interval",
            "missing-baseline",
            "negative-tolerance",
            "tolerance-without-baseline",
        ],
    )
    def test_chaos_refuses_inputs_it_would_ignore(
        self, capsys, monkeypatch, flags, message
    ):
        import repro.experiments.chaos as chaos

        def no_sweep(**_):
            raise AssertionError("a refused input must not run a cell")

        monkeypatch.setattr(chaos, "run", no_sweep)
        assert main(["experiments", "chaos", "smoke", "--no-cache"] + flags) == 2
        assert "error: %s" % message in capsys.readouterr().err

    def test_chaos_refuses_a_mistyped_baseline(self, capsys, monkeypatch, tmp_path):
        """A baseline value of the wrong type is a usage error found before
        the first cell runs; a ``null`` epsilon used to pass the load, run
        the sweep and crash the gate with a ``TypeError`` (exit 1, the
        code for "regression found")."""
        import repro.experiments.chaos as chaos
        from tests.unit.test_chaos_experiment import make_row

        payload = chaos.rows_to_payload([make_row(), make_row(level="clean")])
        payload["rows"][1]["epsilon"] = None
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))

        def no_sweep(**_):
            raise AssertionError("a refused baseline must not run a cell")

        monkeypatch.setattr(chaos, "run", no_sweep)
        argv = ["experiments", "chaos", "smoke", "--algorithms", "BASE",
                "--fault-grid", "clean", "--no-cache", "--baseline", str(path)]
        assert main(argv) == 2
        assert (
            "error: chaos row 1 field 'epsilon' must be a number, not null"
            in capsys.readouterr().err
        )

    def test_chaos_refuses_a_one_node_mesh(self, capsys, monkeypatch):
        """``--nodes 1`` is a usage error found before the first cell; it
        used to print the first cell's banner and then fail inside the
        system."""
        import repro.experiments.chaos as chaos

        def no_cells(*_, **__):
            raise AssertionError("a refused mesh must not run a cell")

        monkeypatch.setattr(chaos, "run_many", no_cells)
        argv = ["experiments", "chaos", "smoke", "--algorithms", "BASE",
                "--fault-grid", "clean", "--no-cache", "--nodes", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: chaos sweep needs at least 2 nodes, got 1" in err
        assert "chaos smoke" not in err

    def test_removed_shards_parameter_is_type_error(self):
        with pytest.raises(TypeError):
            run_experiment(config_from_args(parse(FAST)), shards=2)

    def test_chaos_subcommand_reaches_its_parser(self, capsys):
        # --help exits 0 from chaos's own argparse; proves dispatch wiring
        # without paying for a sweep.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "chaos", "--help"])
        assert excinfo.value.code == 0
        assert "--fault-grid" in capsys.readouterr().out
