"""Tests for the PPFR core: perturbation, Δ metric, baselines and the pipeline."""

import numpy as np
import pytest

from repro.core import baselines
from repro.core.baselines import run_dp_fr, run_dp_reg, run_fr_only, run_pp_only, run_reg, run_vanilla
from repro.core.config import MethodSettings, PPFRConfig
from repro.core.delta import DeltaReport, delta_report, relative_change
from repro.core.perturbation import privacy_aware_perturbation
from repro.core.pipeline import METHOD_RUNNERS, run_all_methods, run_method
from repro.core.ppfr import run_ppfr
from repro.core.results import MethodEvaluation, MethodRun, evaluate_method
from repro.fairness.reweighting import FairnessReweightingConfig
from repro.gnn.models import build_model
from repro.gnn.trainer import TrainConfig, Trainer
from repro.graphs.perturb import heterophilic_candidates
from repro.influence.functions import InfluenceConfig
from repro.utils.cache import ArtifactCache


def fast_settings(seed=0, gamma=0.2):
    """Small training budget settings used throughout the core tests."""
    return MethodSettings(
        train=TrainConfig(epochs=25, patience=None, track_best=False),
        fairness_weight=100.0,
        dp_epsilon=4.0,
        ppfr=PPFRConfig(
            gamma=gamma,
            fine_tune_fraction=0.2,
            reweighting=FairnessReweightingConfig(
                influence=InfluenceConfig(damping=0.1, cg_iterations=5)
            ),
            seed=seed,
        ),
        model_seed=seed,
    )


class TestConfig:
    def test_ppfr_config_validation(self):
        with pytest.raises(ValueError):
            PPFRConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            PPFRConfig(fine_tune_fraction=0.0)
        with pytest.raises(ValueError):
            PPFRConfig(fine_tune_lr_scale=0.0)

    def test_fine_tune_epochs(self):
        config = PPFRConfig(fine_tune_fraction=0.15)
        assert config.fine_tune_epochs(200) == 30
        assert config.fine_tune_epochs(1) == 1

    def test_method_settings_validation(self):
        with pytest.raises(ValueError):
            MethodSettings(fairness_weight=0.0)
        with pytest.raises(ValueError):
            MethodSettings(dp_mechanism="gaussian")


class TestPerturbation:
    def test_only_adds_heterophilic_unconnected_edges(self, trained_gcn, tiny_graph):
        result = privacy_aware_perturbation(trained_gcn, tiny_graph, gamma=0.3, rng=0)
        predicted = trained_gcn.predict_labels(tiny_graph.features, tiny_graph.adjacency)
        added = result.added_pairs
        assert result.num_added_edges == added.shape[0] > 0
        for i, j in added:
            assert tiny_graph.adjacency[i, j] == 0.0, "must not duplicate existing edges"
            assert predicted[i] != predicted[j], "added edges must be heterophilic"

    def test_perturbed_adjacency_is_superset(self, trained_gcn, tiny_graph):
        result = privacy_aware_perturbation(trained_gcn, tiny_graph, gamma=0.2, rng=0)
        assert np.all(result.perturbed_adjacency >= tiny_graph.adjacency)
        np.testing.assert_allclose(result.perturbed_adjacency, result.perturbed_adjacency.T)
        assert np.all(np.diag(result.perturbed_adjacency) == 0)

    def test_gamma_zero_is_identity(self, trained_gcn, tiny_graph):
        result = privacy_aware_perturbation(trained_gcn, tiny_graph, gamma=0.0, rng=0)
        np.testing.assert_array_equal(result.perturbed_adjacency, tiny_graph.adjacency)
        assert result.num_added_edges == 0

    def test_budget_scales_with_gamma(self, trained_gcn, tiny_graph):
        small = privacy_aware_perturbation(trained_gcn, tiny_graph, gamma=0.1, rng=0)
        large = privacy_aware_perturbation(trained_gcn, tiny_graph, gamma=0.5, rng=0)
        assert large.num_added_edges > small.num_added_edges

    def test_negative_gamma_rejected(self, trained_gcn, tiny_graph):
        with pytest.raises(ValueError):
            privacy_aware_perturbation(trained_gcn, tiny_graph, gamma=-0.1)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 3.0])
    def test_matches_per_node_reference(self, tiny_graph, gamma):
        """One candidate pool per node, sampled in node order, as first written."""
        predicted = np.random.default_rng(5).integers(0, 3, tiny_graph.num_nodes)
        adjacency = tiny_graph.adjacency
        reference = np.zeros_like(adjacency)
        generator = np.random.default_rng(9)
        for node in range(tiny_graph.num_nodes):
            budget = int(round(gamma * int(np.count_nonzero(adjacency[node]))))
            if budget <= 0:
                continue
            candidates = heterophilic_candidates(adjacency, predicted, node)
            already = np.nonzero(reference[node])[0]
            if already.size:
                candidates = np.setdiff1d(candidates, already)
            if candidates.size == 0:
                continue
            chosen = generator.choice(candidates, size=min(budget, candidates.size), replace=False)
            reference[node, chosen] = reference[chosen, node] = 1.0

        result = privacy_aware_perturbation(
            None, tiny_graph, gamma=gamma, rng=9, predicted_labels=predicted
        )
        np.testing.assert_array_equal(result.delta_adjacency, reference)
        np.testing.assert_array_equal(
            result.perturbed_adjacency, np.clip(adjacency + reference, 0.0, 1.0)
        )
        assert result.num_added_edges == int(np.count_nonzero(np.triu(reference, k=1)))

    def test_accepts_precomputed_predictions(self, trained_gcn, tiny_graph):
        predicted = trained_gcn.predict_labels(tiny_graph.features, tiny_graph.adjacency)
        result = privacy_aware_perturbation(
            trained_gcn, tiny_graph, gamma=0.2, rng=0, predicted_labels=predicted
        )
        assert result.num_added_edges > 0


class TestDelta:
    def _evaluation(self, method, accuracy, bias, risk):
        return MethodEvaluation(
            method=method, dataset="d", model="gcn", accuracy=accuracy, bias=bias,
            risk_auc=risk, risk_distance=0.0,
        )

    def test_relative_change(self):
        assert relative_change(1.1, 1.0) == pytest.approx(0.1)
        assert relative_change(0.9, 1.0) == pytest.approx(-0.1)

    def test_delta_positive_when_both_improve(self):
        vanilla = self._evaluation("vanilla", 0.9, 0.10, 0.90)
        treated = self._evaluation("ppfr", 0.88, 0.08, 0.88)
        report = delta_report(treated, vanilla)
        assert report.delta_bias < 0 and report.delta_risk < 0
        assert report.delta_combined > 0
        assert report.improves_both

    def test_delta_negative_when_risk_increases(self):
        vanilla = self._evaluation("vanilla", 0.9, 0.10, 0.90)
        treated = self._evaluation("reg", 0.88, 0.05, 0.93)
        report = delta_report(treated, vanilla)
        assert report.delta_combined < 0
        assert not report.improves_both

    def test_delta_matches_formula(self):
        vanilla = self._evaluation("vanilla", 0.80, 0.10, 0.90)
        treated = self._evaluation("x", 0.72, 0.06, 0.85)
        report = delta_report(treated, vanilla)
        expected = ((0.06 - 0.10) / 0.10) * ((0.85 - 0.90) / 0.90) / abs((0.72 - 0.80) / 0.80)
        assert report.delta_combined == pytest.approx(expected)

    def test_accuracy_floor_prevents_blowup(self):
        vanilla = self._evaluation("vanilla", 0.9, 0.10, 0.90)
        treated = self._evaluation("x", 0.9, 0.05, 0.85)  # identical accuracy
        report = delta_report(treated, vanilla)
        assert np.isfinite(report.delta_combined)

    def test_to_dict_percentages(self):
        vanilla = self._evaluation("vanilla", 1.0, 0.1, 0.9)
        treated = self._evaluation("x", 0.9, 0.05, 0.88)
        row = delta_report(treated, vanilla).to_dict()
        assert row["delta_accuracy_percent"] == pytest.approx(-10.0)
        assert row["delta_bias_percent"] == pytest.approx(-50.0)


class TestMethodRunners:
    @pytest.fixture(scope="class")
    def outcome(self, tiny_graph):
        """One full pipeline run shared by the assertions below (expensive)."""
        return run_all_methods(
            tiny_graph,
            "gcn",
            fast_settings(),
            methods=["reg", "dpreg", "dpfr", "ppfr"],
            hidden_features=8,
        )

    def test_registry_contains_all_paper_methods(self):
        assert {"vanilla", "reg", "dpreg", "dpfr", "ppfr", "fr", "pp"} <= set(METHOD_RUNNERS)

    def test_all_methods_produce_runs_and_deltas(self, outcome):
        assert set(outcome["runs"]) == {"vanilla", "reg", "dpreg", "dpfr", "ppfr"}
        assert set(outcome["deltas"]) == {"reg", "dpreg", "dpfr", "ppfr"}

    def test_vanilla_serves_original_graph(self, outcome, tiny_graph):
        np.testing.assert_array_equal(
            outcome["runs"]["vanilla"].serving_adjacency, tiny_graph.adjacency
        )

    def test_perturbation_methods_serve_modified_graph(self, outcome, tiny_graph):
        for method in ("dpreg", "ppfr"):
            assert not np.array_equal(
                outcome["runs"][method].serving_adjacency, tiny_graph.adjacency
            )

    def test_ppfr_records_fine_tuning(self, outcome):
        run = outcome["runs"]["ppfr"]
        assert run.fine_tune_result is not None
        assert run.extras["perturbation"].num_added_edges >= 0
        assert run.extras["fairness_weights"].loss_multipliers.min() >= 0.0

    def test_evaluations_have_valid_ranges(self, outcome):
        for evaluation in outcome["evaluations"].values():
            assert 0.0 <= evaluation.accuracy <= 1.0
            assert evaluation.bias >= 0.0
            assert 0.0 <= evaluation.risk_auc <= 1.0

    def test_reg_reduces_bias(self, outcome):
        assert outcome["deltas"]["reg"].delta_bias < 0

    def test_ppfr_reduces_bias_and_risk(self, outcome):
        """The headline claim: PPFR lowers bias while restricting privacy risk."""
        delta = outcome["deltas"]["ppfr"]
        assert delta.delta_bias < 0
        assert delta.delta_risk <= 0.02  # risk must not meaningfully increase

    def test_run_method_unknown_name(self, tiny_graph):
        with pytest.raises(KeyError):
            run_method("unknown", "gcn", tiny_graph, fast_settings())

    def test_individual_runners_return_expected_method_names(self, tiny_graph):
        settings = fast_settings(seed=1)
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=1)
        assert run_vanilla(model, tiny_graph, settings).method == "vanilla"

    def test_fr_and_pp_ablation_runners(self, tiny_graph):
        settings = fast_settings(seed=2)
        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=2)
        fr_run = run_fr_only(model, tiny_graph, settings)
        assert fr_run.method == "fr"
        np.testing.assert_array_equal(fr_run.serving_adjacency, tiny_graph.adjacency)

        model = build_model("gcn", tiny_graph.num_features, tiny_graph.num_classes, hidden_features=8, rng=2)
        pp_run = run_pp_only(model, tiny_graph, settings)
        assert pp_run.method == "pp"
        assert pp_run.extras["perturbation"].gamma == settings.ppfr.gamma

    def test_ppfr_skip_vanilla_reuses_trained_model(self, trained_gcn, tiny_graph):
        settings = fast_settings(seed=3)
        run = run_ppfr(trained_gcn, tiny_graph, settings, skip_vanilla=True)
        assert run.train_result is None
        assert run.fine_tune_result is not None


    def test_ppfr_skip_vanilla_leaves_the_given_model_untouched(self, trained_gcn, tiny_graph):
        before = trained_gcn.state_dict()
        run = run_ppfr(trained_gcn, tiny_graph, fast_settings(seed=3), skip_vanilla=True)
        assert run.model is not trained_gcn
        for name, value in trained_gcn.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_evaluate_method_requires_labels(self, trained_gcn, tiny_graph):
        unlabeled = tiny_graph.copy()
        unlabeled.labels = None
        run = MethodRun(
            method="vanilla", model=trained_gcn, graph=unlabeled,
            serving_adjacency=unlabeled.adjacency,
        )
        with pytest.raises(ValueError):
            evaluate_method(run)


def _rng_states(model):
    """Bit-generator state of every RNG the model holds (Dropout, GraphSAGE sampler)."""
    return [
        value.bit_generator.state
        for module in model.modules()
        for value in vars(module).values()
        if isinstance(value, np.random.Generator)
    ]


def _assert_runs_equal(shared, alone):
    assert shared.method == alone.method
    for name, value in alone.model.state_dict().items():
        np.testing.assert_array_equal(shared.model.state_dict()[name], value)
    assert _rng_states(shared.model) == _rng_states(alone.model)
    np.testing.assert_array_equal(shared.serving_adjacency, alone.serving_adjacency)
    assert shared.train_result.history == alone.train_result.history
    assert shared.fine_tune_result.history == alone.fine_tune_result.history
    np.testing.assert_array_equal(
        shared.extras["fairness_weights"].loss_multipliers,
        alone.extras["fairness_weights"].loss_multipliers,
    )


class TestSharedVanillaPhase:
    """The fine-tune methods of one cell share its vanilla run and FR weights."""

    @pytest.fixture(scope="class", params=["gcn", "graphsage"])
    def model_name(self, request):
        return request.param

    def test_one_vanilla_fit_and_one_weights_computation(self, tiny_graph, monkeypatch):
        calls = {"fit": 0, "fine_tune": 0, "weights": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Trainer, "fit", counting("fit", Trainer.fit))
        monkeypatch.setattr(Trainer, "fine_tune", counting("fine_tune", Trainer.fine_tune))
        monkeypatch.setattr(
            baselines,
            "compute_fairness_weights",
            counting("weights", baselines.compute_fairness_weights),
        )
        run_all_methods(
            tiny_graph, "gcn", fast_settings(), methods=["dpfr", "ppfr"], hidden_features=8
        )
        # Each fine-tune runs one inner fit; the rest is the one vanilla fit.
        assert calls == {"fit": 3, "fine_tune": 2, "weights": 1}

    def test_shared_runs_equal_standalone_runs_bitwise(self, tiny_graph, model_name):
        settings = fast_settings()
        outcome = run_all_methods(
            tiny_graph, model_name, settings, methods=["dpfr", "ppfr"], hidden_features=8
        )
        runs = outcome["runs"]
        assert runs["dpfr"].extras["fairness_weights"] is runs["ppfr"].extras["fairness_weights"]
        for method in ("dpfr", "ppfr"):
            alone = run_method(method, model_name, tiny_graph, settings, hidden_features=8)
            _assert_runs_equal(runs[method], alone)

    def test_cached_vanilla_run_is_read_only(self, tiny_graph, model_name):
        settings = fast_settings()
        cache = ArtifactCache()
        first = run_all_methods(
            tiny_graph, model_name, settings, methods=[], hidden_features=8,
            artifact_cache=cache, cache_key="cell",
        )
        vanilla = first["runs"]["vanilla"].model
        parameters, rng_states = vanilla.state_dict(), _rng_states(vanilla)
        second = run_all_methods(
            tiny_graph, model_name, settings, methods=["dpfr", "ppfr", "fr", "pp"],
            hidden_features=8, artifact_cache=cache, cache_key="cell",
        )
        assert second["runs"]["vanilla"].model is vanilla
        for name, value in vanilla.state_dict().items():
            np.testing.assert_array_equal(value, parameters[name])
        assert _rng_states(vanilla) == rng_states
