"""Benchmark harness: case preparation, method runner, table rendering."""

import json

import numpy as np
import pytest

from repro.bench import (
    MethodResult,
    format_series,
    format_table,
    prepare_case,
    results_to_json,
    run_comparison,
    run_method,
    save_results,
)
from repro.core import SCIS, DimConfig, ScisConfig
from repro.models import GAINImputer, MeanImputer


@pytest.fixture(scope="module")
def tiny_case():
    return prepare_case("trial", n_samples=300, seed=0)


class TestPrepareCase:
    def test_normalised_observed_range(self, tiny_case):
        observed = tiny_case.train.values[tiny_case.train.mask == 1]
        assert observed.min() >= 0.0 and observed.max() <= 1.0 + 1e-12

    def test_holdout_nonempty(self, tiny_case):
        assert tiny_case.holdout.holdout_mask.sum() > 0

    def test_labels_and_task(self, tiny_case):
        assert tiny_case.labels.shape == (300,)
        assert tiny_case.task == "classification"

    def test_missing_rate_override(self):
        case = prepare_case("trial", n_samples=400, seed=0, missing_rate=0.6)
        # Overall missingness = 0.6 natural + 20% of the observed hidden.
        assert case.train.missing_rate > 0.6

    def test_mechanism_forwarded(self):
        case = prepare_case("trial", n_samples=300, seed=0, mechanism="mnar")
        assert case.train.missing_rate > 0


class TestRunMethod:
    def test_plain_imputer(self, tiny_case):
        result = run_method(lambda seed: MeanImputer(), tiny_case, n_seeds=2)
        assert result.method == "mean"
        assert result.available
        assert result.sample_rate == 1.0
        assert result.seconds >= 0

    def test_scis_runner_records_sample_rate(self, tiny_case):
        def factory(seed):
            config = ScisConfig(
                initial_size=60,
                validation_size=60,
                error_bound=0.05,
                dim=DimConfig(epochs=5),
                seed=seed,
            )
            return SCIS(GAINImputer(epochs=5, seed=seed), config)

        result = run_method(factory, tiny_case, method_name="scis-gain")
        assert result.method == "scis-gain"
        assert 0 < result.sample_rate <= 1.0

    def test_time_budget_marks_unavailable(self, tiny_case):
        result = run_method(lambda seed: MeanImputer(), tiny_case, time_budget=0.0)
        assert result.timed_out
        assert not result.available

    def test_bad_factory_raises(self, tiny_case):
        with pytest.raises(TypeError):
            run_method(lambda seed: object(), tiny_case)

    def test_multi_seed_variance_recorded(self, tiny_case):
        result = run_method(
            lambda seed: GAINImputer(epochs=3, seed=seed), tiny_case, n_seeds=2
        )
        assert result.rmse_std >= 0.0

    def test_run_comparison_grid(self, tiny_case):
        results = run_comparison(
            [tiny_case], {"mean": lambda s: MeanImputer()}, n_seeds=1
        )
        assert len(results) == 1
        assert results[0].dataset == "trial"


class TestTables:
    def _results(self):
        return [
            MethodResult("mean", "trial", 0.4, 0.01, 1.5, 1.0),
            MethodResult("scis-gain", "trial", 0.38, 0.02, 0.9, 0.23),
            MethodResult("ginn", "trial", timed_out=True),
        ]

    def test_format_table_contains_rows(self):
        table = format_table(self._results(), title="Table III")
        assert "Table III" in table
        assert "| mean |" in table
        assert "0.380" in table
        assert "23.00" in table  # sample rate in percent

    def test_unavailable_rendered_as_dash(self):
        table = format_table(self._results())
        assert "—" in table

    def test_format_series(self):
        text = format_series(
            "missing rate",
            [0.1, 0.2],
            {"gain": [0.4, 0.5], "scis": [0.39, float("nan")]},
        )
        assert "| 0.1 |" in text
        assert "—" in text

    def test_format_series_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], {"y": [1.0]})

    def test_json_roundtrip(self, tmp_path):
        results = self._results()
        payload = json.loads(results_to_json(results))
        assert payload[0]["method"] == "mean"
        path = tmp_path / "results.json"
        save_results(results, path)
        assert json.loads(path.read_text())[1]["sample_rate"] == 0.23

