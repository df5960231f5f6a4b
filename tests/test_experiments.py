"""Tests for the experiment harness: presets, reporting, runner and experiments."""

import json

import numpy as np
import pytest

from repro.experiments.presets import PRESETS, ExperimentPreset, get_preset
from repro.experiments.reporting import ExperimentResult, format_table
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments import figures, tables
from repro.experiments.__main__ import build_parser, main


SMALL_PRESET = ExperimentPreset(
    name="test",
    dataset_scale=0.45,
    epochs=12,
    models=("gcn",),
    hidden_features=8,
    cg_iterations=3,
)


class TestPresets:
    def test_registered_presets(self):
        assert {"smoke", "quick", "full"} <= set(PRESETS)
        assert get_preset("SMOKE").name == "smoke"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("huge")

    def test_method_settings_uses_paper_dp_mechanisms(self):
        preset = get_preset("quick")
        assert preset.method_settings("cora").dp_mechanism == "edge_rand"
        assert preset.method_settings("pubmed").dp_mechanism == "lap_graph"

    def test_method_settings_epochs_follow_preset(self):
        settings = SMALL_PRESET.method_settings("cora", seed=5)
        assert settings.train.epochs == 12
        assert settings.model_seed == 5


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}]
        rendered = format_table(rows)
        lines = rendered.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_result_column_and_formatted(self):
        result = ExperimentResult("demo", rows=[{"x": 1.0}, {"x": 2.0}])
        assert result.column("x") == [1.0, 2.0]
        assert "demo" in result.formatted()

    def test_save_json(self, tmp_path):
        result = ExperimentResult("demo", rows=[{"x": 1.0}], metadata={"preset": "test"})
        path = tmp_path / "out" / "demo.json"
        result.save_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "demo"
        assert payload["rows"] == [{"x": 1.0}]


class TestRunner:
    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "table2", "table3", "table4", "table5",
            "figure4", "figure5", "figure6", "figure7", "proposition",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("table9")

    def test_cli_parser(self):
        args = build_parser().parse_args(["table3", "--preset", "smoke", "--seed", "3"])
        assert args.experiment == "table3" and args.preset == "smoke" and args.seed == 3


class TestExperimentsRun:
    """End-to-end experiment runs at a deliberately tiny preset."""

    def test_table3_shape(self):
        result = tables.table3_accuracy_bias(SMALL_PRESET, seed=0, datasets=["cora"])
        assert len(result.rows) == 2
        methods = {row["method"] for row in result.rows}
        assert methods == {"vanilla", "reg"}
        for row in result.rows:
            assert 0.0 <= row["accuracy_percent"] <= 100.0
            assert row["bias"] >= 0.0

    def test_table2_correlations_in_range(self):
        result = tables.table2_influence_correlation(
            SMALL_PRESET, seed=0, datasets=["cora"], models=["gcn"]
        )
        assert len(result.rows) == 1
        assert -1.0 <= result.rows[0]["pearson_r"] <= 1.0

    def test_proposition_diagnostics(self):
        result = tables.proposition_tradeoff_diagnostics(SMALL_PRESET, seed=0, datasets=["cora"])
        row = result.rows[0]
        assert row["p_intra"] > row["q_inter"]
        assert 0.0 <= row["two_hop_ratio_empirical"] <= 1.0
        assert row["two_hop_ratio_theory"] >= 0.0

    def test_figure4_reports_eight_distances(self):
        result = figures.figure4_attack_auc(SMALL_PRESET, seed=0, datasets=["cora"])
        vanilla_row = next(row for row in result.rows if row["method"] == "vanilla")
        auc_columns = [key for key in vanilla_row if key.startswith("auc_") and key != "auc_mean"]
        assert len(auc_columns) == 8
        assert all(0.0 <= vanilla_row[c] <= 1.0 for c in auc_columns)

    def test_table4_and_figure5_rows(self):
        result = tables.table4_ppfr_effectiveness(
            SMALL_PRESET, seed=0, datasets=["cora"], models=["gcn"], methods=("reg", "ppfr")
        )
        assert {row["method"] for row in result.rows} == {"reg", "ppfr"}
        for row in result.rows:
            assert np.isfinite(row["delta_combined"])

    def test_figure6_arms_do_not_depend_on_earlier_arms(self):
        """Each ablation arm fine-tunes its own copy of the vanilla snapshot."""

        def pp_gamma_rows(epoch_fractions):
            result = figures.figure6_ablation(
                SMALL_PRESET, seed=0, epoch_fractions=epoch_fractions, gammas=(0.1, 0.3)
            )
            return [row for row in result.rows if row["panel"] == "pp_gamma"]

        assert pp_gamma_rows((0.1, 0.2, 0.3, 0.5)) == pp_gamma_rows((0.2,))

    def test_run_experiment_dispatch(self):
        result = run_experiment("table3", preset=SMALL_PRESET, datasets=["cora"])
        assert result.experiment == "table3_accuracy_bias"

    def test_cli_main_smoke(self, capsys, tmp_path):
        exit_code = main(["proposition", "--preset", "smoke", "--output", str(tmp_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "proposition" in captured.out
        assert (tmp_path / "proposition.json").exists()


class TestSeedSweep:
    """Multi-seed replication with mean ± std reporting (PR-4 satellite)."""

    def _result(self, seed, value):
        from repro.experiments.reporting import ExperimentResult

        return ExperimentResult(
            "demo",
            rows=[
                {"dataset": "cora", "method": "vanilla", "accuracy": value},
                {"dataset": "cora", "method": "reg", "accuracy": value - 1.0},
            ],
            metadata={"preset": "test"},
        )

    def test_aggregate_mean_std_cells(self):
        from repro.experiments.reporting import aggregate_seed_results

        merged = aggregate_seed_results(
            [self._result(0, 80.0), self._result(1, 84.0)], seeds=[0, 1]
        )
        assert merged.rows[0]["dataset"] == "cora"
        assert merged.rows[0]["accuracy"] == "82.0000 ± 2.0000"
        assert merged.rows[1]["accuracy"] == "81.0000 ± 2.0000"
        assert merged.metadata["seeds"] == [0, 1]
        assert merged.metadata["rows_by_seed"]["1"][0]["accuracy"] == 84.0

    def test_aggregate_keeps_constant_numeric_columns_verbatim(self):
        from repro.experiments.reporting import ExperimentResult, aggregate_seed_results

        def result(acc):
            return ExperimentResult(
                "demo", rows=[{"dataset": "cora", "num_train_nodes": 120, "r": acc}]
            )

        merged = aggregate_seed_results([result(0.1), result(0.3)], seeds=[0, 1])
        # Constant descriptors stay numeric; only varying columns get ± cells.
        assert merged.rows[0]["num_train_nodes"] == 120
        assert merged.rows[0]["r"] == "0.2000 ± 0.1000"

    def test_aggregate_rejects_mismatched_keys(self):
        from repro.experiments.reporting import ExperimentResult, aggregate_seed_results

        first = self._result(0, 80.0)
        other = ExperimentResult(
            "demo",
            rows=[
                {"dataset": "pubmed", "method": "vanilla", "accuracy": 1.0},
                {"dataset": "pubmed", "method": "reg", "accuracy": 1.0},
            ],
        )
        with pytest.raises(ValueError, match="disagrees across seeds"):
            aggregate_seed_results([first, other], seeds=[0, 1])

    def test_run_experiment_seeds_end_to_end(self):
        from repro.experiments.runner import run_experiment_seeds

        result = run_experiment_seeds(
            "table3", seeds=[0, 1], preset=SMALL_PRESET, datasets=["cora"]
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert "±" in row["accuracy_percent"]
        assert set(result.metadata["rows_by_seed"]) == {"0", "1"}

    def test_run_experiment_seeds_validates(self):
        from repro.experiments.runner import run_experiment_seeds

        with pytest.raises(ValueError, match="distinct"):
            run_experiment_seeds("table3", seeds=[0, 0], preset=SMALL_PRESET)
        with pytest.raises(ValueError, match="non-empty"):
            run_experiment_seeds("table3", seeds=[], preset=SMALL_PRESET)

    def test_cli_seeds_flag(self):
        from repro.experiments.__main__ import build_parser, parse_seeds

        args = build_parser().parse_args(["table3", "--seeds", "0,1,2"])
        assert args.seeds == (0, 1, 2)
        assert parse_seeds("4") == (4,)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table3", "--seeds", "1,1"])

    def test_cli_cache_dir_flag(self, tmp_path):
        from repro.experiments.__main__ import build_parser

        args = build_parser().parse_args(
            ["table3", "--cache-dir", str(tmp_path / "cache")]
        )
        assert args.cache_dir == str(tmp_path / "cache")
