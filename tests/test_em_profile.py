"""Gaussian EM imputer."""

import numpy as np
import pytest

from repro.data import IncompleteDataset, ampute, holdout_split
from repro.models import GaussianEMImputer, MeanImputer, make_imputer


@pytest.fixture
def gaussian_case(rng):
    """Correlated Gaussian data — EM's home turf."""
    n, d = 500, 4
    cov = np.array(
        [
            [1.0, 0.8, 0.3, 0.0],
            [0.8, 1.0, 0.4, 0.1],
            [0.3, 0.4, 1.0, 0.5],
            [0.0, 0.1, 0.5, 1.0],
        ]
    )
    full = rng.multivariate_normal(np.array([1.0, -2.0, 0.5, 3.0]), cov, size=n)
    ds = ampute(IncompleteDataset(full, name="gauss"), 0.3, "mcar", rng)
    return holdout_split(ds, 0.2, rng)


class TestGaussianEM:
    def test_beats_mean_on_gaussian_data(self, gaussian_case):
        em_rmse = gaussian_case.rmse(GaussianEMImputer().fit_transform(gaussian_case.train))
        mean_rmse = gaussian_case.rmse(MeanImputer().fit_transform(gaussian_case.train))
        # With max |corr| = 0.8 the conditional std leaves ~0.6-0.9 of the
        # marginal RMSE achievable; EM must realise a clear chunk of it.
        assert em_rmse < 0.9 * mean_rmse

    def test_recovers_moments(self, gaussian_case):
        model = GaussianEMImputer().fit(gaussian_case.train)
        assert np.allclose(model.mean_, [1.0, -2.0, 0.5, 3.0], atol=0.3)
        assert model.covariance_[0, 1] > 0.5  # strong positive correlation found

    def test_converges(self, gaussian_case):
        model = GaussianEMImputer(max_iterations=50).fit(gaussian_case.train)
        assert model.n_iterations_ < 50

    def test_observed_cells_untouched(self, gaussian_case):
        imputed = GaussianEMImputer().fit_transform(gaussian_case.train)
        observed = gaussian_case.train.mask == 1.0
        assert np.allclose(
            imputed[observed], np.nan_to_num(gaussian_case.train.values)[observed]
        )

    def test_handles_fully_missing_row(self, rng):
        values = rng.normal(size=(50, 3))
        values[0, :] = np.nan
        ds = IncompleteDataset(values)
        imputed = GaussianEMImputer().fit_transform(ds)
        assert not np.isnan(imputed).any()
        # A fully-missing row gets the marginal mean.
        assert np.allclose(imputed[0], GaussianEMImputer().fit(ds).mean_, atol=1e-9)

    def test_reconstruct_new_rows(self, gaussian_case, rng):
        model = GaussianEMImputer().fit(gaussian_case.train)
        new = rng.normal(size=(5, 4))
        mask = np.ones((5, 4))
        mask[:, 2] = 0.0
        out = model.reconstruct(new, mask)
        assert np.isfinite(out).all()

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            GaussianEMImputer(max_iterations=0)

    def test_registered(self):
        assert make_imputer("em").name == "em"

    def test_unfitted_raises(self, gaussian_case):
        with pytest.raises(RuntimeError):
            GaussianEMImputer().transform(gaussian_case.train)

