"""Tests for the command-line interface.

The CLI is exercised with the reduced dataset by monkeypatching the
generator's default configuration — the full paper-scale run is covered
by the integration tests.
"""

import pytest

from repro import cli
from repro.synth import SyntheticMobyGenerator
from tests.conftest import HAVE_NUMPY, small_generator_config

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="synthetic dataset generation needs numpy"
)


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    """Make every CLI invocation use the fast reduced dataset."""
    original_init = SyntheticMobyGenerator.__init__

    def patched(self, seed=7, config=None):
        if config is None:
            config = small_generator_config(seed=seed)
        original_init(self, seed=seed, config=config)

    monkeypatch.setattr(SyntheticMobyGenerator, "__init__", patched)


@needs_numpy
class TestGenerateAndClean:
    def test_generate_writes_csvs(self, tmp_path, capsys):
        code = cli.main(["generate", "--seed", "11", "--out", str(tmp_path / "data")])
        assert code == 0
        assert (tmp_path / "data" / "locations.csv").exists()
        assert (tmp_path / "data" / "rentals.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_clean_roundtrip(self, tmp_path, capsys):
        cli.main(["generate", "--seed", "11", "--out", str(tmp_path / "data")])
        code = cli.main(
            [
                "clean",
                "--data", str(tmp_path / "data"),
                "--out", str(tmp_path / "cleaned"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert (tmp_path / "cleaned" / "rentals.csv").exists()


@needs_numpy
class TestRun:
    def test_run_prints_all_tables(self, capsys, tmp_path):
        code = cli.main(
            ["run", "--seed", "11", "--figures", str(tmp_path / "figs")]
        )
        assert code == 0
        out = capsys.readouterr().out
        for table in ("TABLE I", "TABLE II", "TABLE III", "TABLE IV",
                      "TABLE V", "TABLE VI"):
            assert table in out
        assert (tmp_path / "figs" / "fig2_selected_map.svg").exists()
        assert (tmp_path / "figs" / "fig3_gbasic.svg").exists()

    def test_run_over_csv_data(self, capsys, tmp_path):
        cli.main(["generate", "--seed", "11", "--out", str(tmp_path / "data")])
        capsys.readouterr()
        code = cli.main(["run", "--data", str(tmp_path / "data")])
        assert code == 0
        assert "TABLE VI" in capsys.readouterr().out


@needs_numpy
class TestSweep:
    def test_sweep_end_to_end(self, tmp_path, capsys):
        cli.main(["generate", "--seed", "11", "--out", str(tmp_path / "data")])
        capsys.readouterr()
        code = cli.main(
            [
                "sweep",
                "--data", str(tmp_path / "data"),
                "--set", "temporal.coupling=0.05,0.25",
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SCENARIO SWEEP (2 configs)" in out
        assert "temporal.coupling=0.05" in out
        assert "temporal.coupling=0.25" in out

    def test_sweep_defaults_to_single_paper_config(self, capsys):
        code = cli.main(["sweep", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCENARIO SWEEP (1 configs)" in out
        assert "paper defaults" in out

    def test_bad_axis_rejected(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError):
            cli.main(["sweep", "--seed", "11", "--set", "coupling"])

    def test_duplicate_axis_rejected(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError):
            cli.main(
                [
                    "sweep", "--seed", "11",
                    "--set", "temporal.coupling=0.05",
                    "--set", "temporal.coupling=0.25",
                ]
            )


@needs_numpy
class TestCacheDir:
    def test_second_run_skips_every_stage(self, tmp_path, capsys, monkeypatch):
        from repro.pipeline import runner as runner_module

        cli.main(["generate", "--seed", "11", "--out", str(tmp_path / "data")])
        calls = {"count": 0}
        original = runner_module.project_candidate_flow

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(runner_module, "project_candidate_flow", counting)
        argv = [
            "run",
            "--data", str(tmp_path / "data"),
            "--store-dir", str(tmp_path / "store"),
        ]
        assert cli.main(argv) == 0
        assert calls["count"] == 1
        capsys.readouterr()
        # Warm run: the stored envelope answers; no stage runs.
        assert cli.main(argv) == 0
        assert calls["count"] == 1
        assert "TABLE VI" in capsys.readouterr().out


@needs_numpy
class TestRebalance:
    def test_plan_printed(self, capsys):
        code = cli.main(["rebalance", "--seed", "11", "--fleet", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "COMMUNITY DEMAND PROFILE" in out
        assert "bikes move" in out


@needs_numpy
class TestJsonFormat:
    """``--format json`` prints the canonical service envelope."""

    def test_run_json_envelope(self, capsys):
        import json

        assert cli.main(["run", "--seed", "11", "--format", "json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["type"] == "ResultEnvelope"
        assert envelope["spec"]["outputs"] == ["run"]
        headline = envelope["outputs"]["run"]["headline"]
        assert headline["table1_dataset"]["cleaned_rentals"] > 0

    def test_run_json_matches_python_service_bytes(self, capsys):
        from repro.service import (
            DatasetRef,
            ExpansionService,
            ScenarioSpec,
            canonical_envelope,
        )

        assert cli.main(["run", "--seed", "11", "--format", "json"]) == 0
        printed = capsys.readouterr().out
        with ExpansionService() as service:
            envelope = service.run(
                ScenarioSpec(dataset=DatasetRef.synthetic(11)), timeout=600
            )
        assert printed == canonical_envelope(envelope) + "\n"

    def test_sweep_json_envelope(self, capsys):
        import json

        assert cli.main(
            [
                "sweep", "--seed", "11",
                "--set", "temporal.coupling=0.05,0.25",
                "--format", "json",
            ]
        ) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert len(envelope["outputs"]["sweep"]["scenarios"]) == 2

    def test_rebalance_json_envelope(self, capsys):
        import json

        assert cli.main(
            ["rebalance", "--seed", "11", "--fleet", "40", "--format", "json"]
        ) == 0
        envelope = json.loads(capsys.readouterr().out)
        plan = envelope["outputs"]["rebalance"]["plan"]
        assert plan["type"] == "RebalancingPlan"

    def test_report_json_envelope(self, capsys):
        import json

        assert cli.main(
            ["report", "--seed", "11", "--out", "/dev/null", "--format", "json"]
        ) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["outputs"]["report"]["markdown"].startswith("#")


class TestServeParser:
    def test_serve_arguments_parse(self):
        args = cli._build_parser().parse_args(
            [
                "serve", "--port", "0", "--cache-bytes", "1048576",
                "--cache-entries", "32", "--workers", "3",
            ]
        )
        assert args.command == "serve"
        assert args.cache_bytes == 1_048_576
        assert args.cache_entries == 32
        assert args.workers == 3

    @needs_numpy
    def test_run_accepts_cache_limits(self, tmp_path):
        assert cli.main(
            [
                "run", "--seed", "11",
                "--store-dir", str(tmp_path / "store"),
                "--cache-entries", "3",
            ]
        ) == 0
        # Only the 3 most recent of the 7 stage pickles survive.
        assert len(list((tmp_path / "store" / "stage").glob("*.pkl"))) == 3


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_bench_check_needs_incremental(self, capsys):
        """`--check` gates only the incremental rung; alone it is a
        usage error, not a run that gates nothing."""
        assert cli.main(["bench", "--check"]) == 2
        assert "--incremental" in capsys.readouterr().err


@needs_numpy
class TestStoreDir:
    def test_run_persists_everything_under_one_tree(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert cli.main(["run", "--seed", "11", "--store-dir", str(store)]) == 0
        capsys.readouterr()
        assert list((store / "stage").glob("*.pkl"))
        assert list((store / "results").glob("*.json"))
        assert list((store / "jobs").glob("*.json"))
        # A second run over the same store is pure lookup: the envelope
        # comes from the results store, byte-identical.
        assert cli.main(
            ["run", "--seed", "11", "--store-dir", str(store), "--format", "json"]
        ) == 0
        envelope = capsys.readouterr().out
        stored = sorted((store / "results").glob("*.json"))[0].read_text()
        import json

        first = json.loads(envelope)
        assert (store / "results" / f"{first['fingerprint']}.json").read_text() == (
            envelope.rstrip("\n")
        )
        assert stored  # the tree holds canonical envelopes

    def test_replay_prints_resolve_and_results_timings(self, tmp_path, capsys):
        """A store-served `repro run --timings` still says where its time
        went: the `resolve` and `results` sections, and no stage."""
        cli.main(["generate", "--seed", "11", "--out", str(tmp_path / "data")])
        argv = [
            "run", "--data", str(tmp_path / "data"),
            "--store-dir", str(tmp_path / "store"), "--timings",
        ]
        assert cli.main(argv) == 0
        assert "stage:" in capsys.readouterr().out
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        block = out[out.index("PER-STAGE WALL CLOCK"):].splitlines()
        names = {line.split()[0] for line in block[1:]}
        assert {"resolve", "results", "total"} <= names
        assert "stage:" not in out

    def test_sharded_backend_via_flag(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = cli.main(
            ["run", "--seed", "11", "--store-dir", str(store),
             "--store-backend", "sharded"]
        )
        assert code == 0
        capsys.readouterr()
        pickles = list((store / "stage").rglob("*.pkl"))
        assert pickles
        # Entries landed inside two-hex-char shard directories.
        assert all(p.parent.name != "stage" for p in pickles)
        assert all(len(p.parent.name) == 2 for p in pickles)

    def test_sweep_datasets_flag_over_store(self, tmp_path, capsys):
        """`repro sweep --datasets` runs over datasets stored in the tree."""
        import json

        from repro.service import ExpansionService
        from repro.synth import SyntheticMobyGenerator

        store = tmp_path / "store"
        with ExpansionService(store_dir=store) as service:
            for name, seed in (("city-a", 11), ("city-b", 12)):
                service.register_dataset(
                    name, SyntheticMobyGenerator(seed=seed).generate()
                )
        code = cli.main(
            ["sweep", "--datasets", "city-a,city-b",
             "--store-dir", str(store), "--format", "json"]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        sweep = envelope["outputs"]["sweep"]
        assert [d["name"] for d in sweep["datasets"]] == ["city-a", "city-b"]
        assert len(sweep["scenarios"]) == 2

    def test_sweep_unknown_dataset_fails_with_service_error(self, tmp_path):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError, match="ghost"):
            cli.main(
                ["sweep", "--datasets", "ghost",
                 "--store-dir", str(tmp_path / "store")]
            )

    def test_store_backend_without_store_dir_rejected(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError, match="store-dir"):
            cli.main(["run", "--seed", "11", "--store-backend", "sharded"])

    def test_cache_limits_without_store_dir_rejected(self, capsys):
        assert cli.main(["run", "--seed", "11", "--cache-bytes", "1048576"]) == 2
        assert "--cache-bytes requires --store-dir" in capsys.readouterr().err

    def test_serve_cache_limits_without_store_dir_rejected(self, capsys):
        assert cli.main(["serve", "--port", "0", "--cache-entries", "32"]) == 2
        assert "--cache-entries requires --store-dir" in capsys.readouterr().err
