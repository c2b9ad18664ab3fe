"""Tests for the repro-experiments command-line interface."""

import json

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import experiment_names


class TestParser:
    def test_accepts_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table5"])
        assert args.command == "table5"
        assert args.scale == "standard"

    def test_every_registered_experiment_is_a_subcommand(self):
        parser = build_parser()
        for name in experiment_names():
            assert parser.parse_args([name]).command == name

    def test_scale_option(self):
        parser = build_parser()
        args = parser.parse_args(["table8", "--scale", "quick"])
        assert args.scale == "quick"

    def test_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table99"])

    def test_rejects_unknown_scale(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table5", "--scale", "cosmic"])

    def test_report_choice_and_out_flag(self):
        parser = build_parser()
        args = parser.parse_args(["report", "--out", "x.md"])
        assert args.command == "report"
        assert args.out == "x.md"

    def test_ablations_and_validation_registered(self):
        parser = build_parser()
        for name in (
            "ablation-stale",
            "ablation-disk",
            "ablation-updates",
            "ablation-heterogeneous",
            "ablation-subnet",
            "validation",
        ):
            assert parser.parse_args([name]).command == name

    def test_study_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["study", "studies/smoke.json"])
        assert args.command == "study"
        assert args.spec == "studies/smoke.json"
        assert args.markdown is False
        assert parser.parse_args(
            ["study", "s.json", "--markdown"]
        ).markdown is True

    def test_study_requires_spec_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study"])

    def test_list_subcommand(self):
        assert build_parser().parse_args(["list"]).command == "list"


class TestJobsAndCacheFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["table8"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False

    def test_parsing(self):
        args = build_parser().parse_args(
            ["table9", "--jobs", "4", "--cache-dir", "/tmp/rc", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/rc"
        assert args.no_cache is True

    @staticmethod
    def _stub_experiment(monkeypatch, name, fake_runner):
        import dataclasses

        import repro.experiments.registry as registry

        stub = dataclasses.replace(
            registry.get_experiment(name), runner=fake_runner
        )
        monkeypatch.setitem(registry._REGISTRY, name, stub)

    def test_main_threads_jobs_and_cache(self, monkeypatch, tmp_path, capsys):
        seen = {}

        def fake_runner(settings, context):
            seen["jobs"] = context.jobs
            seen["cache"] = context.cache
            return ""

        self._stub_experiment(monkeypatch, "table8", fake_runner)
        cache_dir = tmp_path / "rc"
        code = main(["table8", "--jobs", "3", "--cache-dir", str(cache_dir)])
        assert code == 0
        assert seen["jobs"] == 3
        assert isinstance(seen["cache"], ResultCache)
        assert seen["cache"].root == cache_dir
        # Timing + cache stats go to stderr so table text stays clean.
        captured = capsys.readouterr()
        assert "wall-clock" in captured.err
        assert "cache:" in captured.err
        assert "wall-clock" not in captured.out

    def test_no_cache_passes_none(self, monkeypatch):
        seen = {}

        def fake_runner(settings, context):
            seen["cache"] = context.cache
            return ""

        self._stub_experiment(monkeypatch, "table8", fake_runner)
        assert main(["table8", "--no-cache"]) == 0
        assert seen["cache"] is None

    def test_analytic_experiment_never_builds_cache(self, tmp_path):
        cache_dir = tmp_path / "never-created"
        assert main(["table5", "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()


class TestMain:
    def test_analytic_experiment_end_to_end(self, capsys):
        exit_code = main(["table5"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 5" in output
        assert "repro" in output

    def test_table6_end_to_end(self, capsys):
        assert main(["table6"]) == 0
        assert "Table 6" in capsys.readouterr().out

    def test_list_end_to_end(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out
        assert "study-core" in out
        assert "smoke" in out

    def test_study_end_to_end(self, tmp_path, capsys):
        from repro.ablation import build_study
        from repro.codec import save

        spec = build_study("smoke")
        path = tmp_path / "smoke.json"
        save(spec, path)
        assert main(["study", str(path), "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Ranked component importance" in captured.out
        assert "wall-clock" in captured.err

    def test_study_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["study", str(path), "--no-cache"])


#: Spec files that must end in a one-line usage error (exit 2): each
#: names the subcommand, the flag (or None for study's positional
#: argument), the file text, and a fragment of the message.
BAD_SPEC_FILES = [
    ("table6", "--faults", "{not json", "not valid JSON"),
    ("table6", "--faults", '{"site_outages": 3}', "expected a list"),
    ("table6", "--faults", '{"bogus": 1}', "unknown field"),
    ("table6", "--faults", '{"format_version": 9}', "format_version"),
    ("table6", "--faults", '{"site_outages": [{"site": 0, "at": 1, "duration": -1}]}', "duration"),
    ("table6", "--workload", '{"arrivals": {"kind": "martian"}}', "unknown kind tag"),
    ("table6", "--workload", '{"arrivals": {"kind": "poisson", "rate": -1}}', "rate must be > 0"),
    ("table6", "--workload", '{"arrivals": {"kind": "mmpp", "rates": [1], "mean_holding": [1],'
     ' "per_site": true}}', "2 phases"),
    ("study", None, json.dumps({"name": "x"}), "missing field"),
    ("study", None, "[]", "expected a StudySpec object"),
]


@pytest.mark.parametrize(
    "command,flag,text,message",
    BAD_SPEC_FILES,
    ids=[f"{c}-{flag or 'spec'}-{i}" for i, (c, flag, _, _) in enumerate(BAD_SPEC_FILES)],
)
def test_bad_spec_file_is_a_usage_error(tmp_path, capsys, command, flag, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)] if flag is None else [command, flag, str(path)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--no-cache"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err.splitlines()[-1]


def test_missing_spec_file_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["table6", "--faults", str(tmp_path / "absent.json"), "--no-cache"])
    assert exit_info.value.code == 2
    assert "absent.json" in capsys.readouterr().err
