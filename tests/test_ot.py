"""Optimal transport: exact LP, Sinkhorn, and the masking Sinkhorn divergence."""

import numpy as np
import pytest

from repro.ot import (
    MaskingSinkhornLoss,
    SinkhornConfig,
    entropy,
    exact_ot,
    masked_cost_matrix,
    masked_cost_matrix_tensor,
    masking_sinkhorn_divergence,
    regularized_ot_value,
    sinkhorn,
    sinkhorn_divergence,
    squared_euclidean_cost,
    squared_euclidean_cost_tensor,
)
from repro.tensor import Tensor, check_gradients


@pytest.fixture
def clouds(rng):
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 3)) + 0.5
    return x, y


class TestCostMatrices:
    def test_squared_euclidean_matches_direct(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        direct = np.array([[np.sum((a - b) ** 2) for b in y] for a in x])
        assert np.allclose(cost, direct)

    def test_cost_nonnegative_and_zero_diagonal(self, clouds):
        x, _ = clouds
        cost = squared_euclidean_cost(x, x)
        assert (cost >= 0).all()
        assert np.allclose(np.diag(cost), 0.0)

    def test_masked_cost_applies_own_masks(self, rng, clouds):
        x, y = clouds
        mx = (rng.random(x.shape) > 0.3).astype(float)
        my = (rng.random(y.shape) > 0.3).astype(float)
        cost = masked_cost_matrix(x, mx, y, my)
        direct = squared_euclidean_cost(x * mx, y * my)
        assert np.allclose(cost, direct)

    def test_tensor_cost_matches_numpy(self, clouds):
        x, y = clouds
        t = squared_euclidean_cost_tensor(Tensor(x), Tensor(y))
        assert np.allclose(t.data, squared_euclidean_cost(x, y), atol=1e-10)

    def test_tensor_cost_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        check_gradients(lambda a, b: squared_euclidean_cost_tensor(a, b), [a, b])

    def test_masked_tensor_cost_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        mask = (rng.random((4, 2)) > 0.4).astype(float)
        check_gradients(
            lambda a, b: masked_cost_matrix_tensor(a, mask, b, mask), [a, b]
        )


class TestExactOT:
    def test_identity_cost_zero(self, clouds):
        x, _ = clouds
        value, plan = exact_ot(squared_euclidean_cost(x, x))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_plan_marginals(self, clouds):
        x, y = clouds
        _, plan = exact_ot(squared_euclidean_cost(x, y))
        n = x.shape[0]
        assert np.allclose(plan.sum(axis=1), 1.0 / n, atol=1e-8)
        assert np.allclose(plan.sum(axis=0), 1.0 / n, atol=1e-8)

    def test_1d_sorted_matching(self):
        # For 1-D squared costs the optimal coupling is the monotone one.
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([[0.1], [1.1], [2.1]])
        value, plan = exact_ot(squared_euclidean_cost(x, y))
        assert value == pytest.approx(0.01, abs=1e-8)
        assert np.allclose(plan, np.eye(3) / 3.0, atol=1e-8)

    def test_unbalanced_marginals_raise(self):
        with pytest.raises(ValueError):
            exact_ot(np.ones((2, 2)), a=np.array([0.5, 0.5]), b=np.array([0.3, 0.3]))

    def test_rectangular_cost(self, rng):
        cost = np.abs(rng.normal(size=(3, 5)))
        value, plan = exact_ot(cost)
        assert plan.shape == (3, 5)
        assert np.allclose(plan.sum(axis=1), 1 / 3, atol=1e-8)
        assert np.allclose(plan.sum(axis=0), 1 / 5, atol=1e-8)


class TestSinkhorn:
    def test_plan_marginals(self, clouds):
        x, y = clouds
        result = sinkhorn(squared_euclidean_cost(x, y), SinkhornConfig(reg=0.5))
        n = x.shape[0]
        assert result.converged
        assert np.allclose(result.plan.sum(axis=1), 1.0 / n, atol=1e-7)
        assert np.allclose(result.plan.sum(axis=0), 1.0 / n, atol=1e-7)

    def test_converges_to_exact_as_reg_vanishes(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        exact_value, _ = exact_ot(cost)
        approx = sinkhorn(cost, SinkhornConfig(reg=0.005, max_iter=20000, tol=1e-10))
        assert approx.transport_cost == pytest.approx(exact_value, abs=0.02)

    def test_transport_cost_increases_with_reg(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        low = sinkhorn(cost, SinkhornConfig(reg=0.05, max_iter=5000)).transport_cost
        high = sinkhorn(cost, SinkhornConfig(reg=5.0, max_iter=5000)).transport_cost
        assert high >= low - 1e-9

    def test_plan_positive(self, clouds):
        x, y = clouds
        result = sinkhorn(squared_euclidean_cost(x, y), SinkhornConfig(reg=1.0))
        assert (result.plan > 0).all()

    def test_invalid_reg_raises(self):
        with pytest.raises(ValueError):
            sinkhorn(np.ones((2, 2)), SinkhornConfig(reg=0.0))

    def test_value_consistent_with_helper(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        result = sinkhorn(cost, SinkhornConfig(reg=0.7))
        assert result.value == pytest.approx(
            regularized_ot_value(result.plan, cost, 0.7)
        )

    def test_entropy_zero_log_zero(self):
        plan = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert entropy(plan) == pytest.approx(2 * 0.5 * np.log(0.5))


class TestMarginalValidation:
    """Degenerate marginals must raise instead of silently producing NaNs."""

    def test_zero_entry_raises_with_index(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        a = np.full(x.shape[0], 1.0 / x.shape[0])
        a[2] = 0.0
        with pytest.raises(ValueError, match=r"a\[2\]"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), a=a)

    def test_negative_entry_raises_with_index(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        b = np.full(y.shape[0], 1.0 / y.shape[0])
        b[0] = -0.1
        with pytest.raises(ValueError, match=r"b\[0\]"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), b=b)

    def test_nan_entry_raises(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        a = np.full(x.shape[0], 1.0 / x.shape[0])
        a[1] = np.nan
        with pytest.raises(ValueError, match=r"a\[1\]"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), a=a)

    def test_wrong_length_raises(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        with pytest.raises(ValueError, match="length"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), a=np.full(x.shape[0] + 1, 0.1))
        with pytest.raises(ValueError, match="length"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), b=np.full(y.shape[0] - 1, 0.2))

    def test_valid_marginals_still_accepted(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        a = np.linspace(1.0, 2.0, x.shape[0])
        a /= a.sum()
        result = sinkhorn(cost, SinkhornConfig(reg=0.5), a=a)
        assert np.allclose(result.plan.sum(axis=1), a, atol=1e-7)


class TestWarmStart:
    def test_result_carries_consistent_duals(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        result = sinkhorn(cost, SinkhornConfig(reg=0.5))
        rebuilt = np.exp(-cost / 0.5 + result.f[:, None] + result.g[None, :])
        assert np.allclose(rebuilt, result.plan, atol=1e-12)

    def test_warm_and_cold_converge_to_same_plan(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        cold = sinkhorn(cost, SinkhornConfig(reg=0.5, tol=1e-11))
        # Perturb the problem slightly, as one DIM epoch does, and solve it
        # both cold and warm-started from the previous duals.
        shifted = squared_euclidean_cost(x + 0.01, y)
        cold_next = sinkhorn(shifted, SinkhornConfig(reg=0.5, tol=1e-11))
        warm_next = sinkhorn(shifted, SinkhornConfig(reg=0.5, tol=1e-11), init=(cold.f, cold.g))
        assert warm_next.converged
        assert np.allclose(warm_next.plan, cold_next.plan, atol=1e-9)

    def test_warm_start_on_same_problem_is_cheaper(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        cold = sinkhorn(cost, SinkhornConfig(reg=0.5, tol=1e-9, max_iter=5000))
        assert cold.converged
        warm = sinkhorn(cost, SinkhornConfig(reg=0.5, tol=1e-9, max_iter=5000), init=(cold.f, cold.g))
        assert warm.iterations <= cold.iterations
        assert warm.iterations <= 2  # starting at the fixed point

    def test_bad_init_shape_raises(self, clouds):
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        with pytest.raises(ValueError, match="init"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), init=(np.zeros(3), np.zeros(y.shape[0])))

    @pytest.mark.parametrize("dual, bad", [("g", np.nan), ("f", np.inf)])
    def test_non_finite_init_raises_with_index(self, clouds, dual, bad):
        # A NaN dual used to run every sweep and return a NaN plan.
        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        f, g = np.zeros(x.shape[0]), np.zeros(y.shape[0])
        (f if dual == "f" else g)[2] = bad
        with pytest.raises(ValueError, match=rf"{dual}\[2\] = {bad}"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), init=(f, g))

    def test_warm_start_counters_recorded(self, clouds):
        from repro.obs import recording

        x, y = clouds
        cost = squared_euclidean_cost(x, y)
        with recording() as rec:
            cold = sinkhorn(cost, SinkhornConfig(reg=0.5))
            warm = sinkhorn(cost, SinkhornConfig(reg=0.5), init=(cold.f, cold.g))
        counters = rec.metrics.snapshot()["counters"]
        assert counters["sinkhorn.solves"] == 2
        assert counters["sinkhorn.warm_starts"] == 1
        histograms = rec.metrics.snapshot()["histograms"]
        assert histograms["sinkhorn.warm_iterations"]["count"] == 1
        # Each sinkhorn() call is one stacked solve of one problem.
        solve_events = [e for e in rec.events if e.name == "sinkhorn.batched_solve"]
        assert [e.fields["stack"] for e in solve_events] == [1, 1]
        assert [e.fields["warm_started"] for e in solve_events] == [False, True]
        assert [e.fields["iterations"] for e in solve_events] == [
            cold.iterations,
            warm.iterations,
        ]
        assert [e.fields["converged"] for e in solve_events] == [
            int(cold.converged),
            int(warm.converged),
        ]


class TestSinkhornDivergence:
    def test_zero_on_identical_clouds(self, clouds):
        x, _ = clouds
        assert sinkhorn_divergence(x, x, SinkhornConfig(reg=0.5)) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_positive_on_distinct_clouds(self, clouds):
        x, y = clouds
        assert sinkhorn_divergence(x, y, SinkhornConfig(reg=0.5)) > 0.0

    def test_symmetry(self, clouds):
        x, y = clouds
        forward = sinkhorn_divergence(x, y, SinkhornConfig(reg=0.5))
        backward = sinkhorn_divergence(y, x, SinkhornConfig(reg=0.5))
        assert forward == pytest.approx(backward, rel=1e-6)

    def test_grows_with_separation(self, clouds):
        x, _ = clouds
        near = sinkhorn_divergence(x, x + 0.1, SinkhornConfig(reg=0.5))
        far = sinkhorn_divergence(x, x + 2.0, SinkhornConfig(reg=0.5))
        assert far > near


class TestMaskingSinkhornDivergence:
    def test_zero_on_identical(self, rng, clouds):
        x, _ = clouds
        mask = (rng.random(x.shape) > 0.3).astype(float)
        value = masking_sinkhorn_divergence(x, x, mask, SinkhornConfig(reg=0.5))
        assert value == pytest.approx(0.0, abs=1e-7)

    def test_full_mask_matches_unmasked(self, clouds):
        x, y = clouds
        mask = np.ones_like(x)
        masked = masking_sinkhorn_divergence(x, y, mask, SinkhornConfig(reg=0.5))
        plain = sinkhorn_divergence(x, y, SinkhornConfig(reg=0.5))
        assert masked == pytest.approx(plain, rel=1e-6)

    def test_zero_mask_collapses_to_zero(self, clouds):
        x, y = clouds
        mask = np.zeros_like(x)
        value = masking_sinkhorn_divergence(x, y, mask, SinkhornConfig(reg=0.5))
        assert value == pytest.approx(0.0, abs=1e-7)

    def test_positive_on_shifted(self, rng, clouds):
        x, _ = clouds
        mask = (rng.random(x.shape) > 0.3).astype(float)
        assert masking_sinkhorn_divergence(x + 1.0, x, mask, SinkhornConfig(reg=0.5)) > 0.0

    def test_misshapen_masks_raise_naming_the_argument(self, rng, clouds):
        # NumPy used to broadcast these into a finite, meaningless value.
        x, _ = clouds
        x_bar = x + 0.1
        mask = (rng.random(x.shape) > 0.3).astype(float)
        config = SinkhornConfig(reg=0.5)
        with pytest.raises(ValueError, match=rf"mask must have x's shape \({x.shape[0]}, "):
            masking_sinkhorn_divergence(x_bar, x, mask[0], config)
        with pytest.raises(ValueError, match=r"mask .*got \(\d+, 1\)"):
            masking_sinkhorn_divergence(x_bar, x, mask[:, :1], config)
        with pytest.raises(ValueError, match="mask_bar"):
            masking_sinkhorn_divergence(x_bar, x, mask, config, mask_bar=mask[:, :1])
        with pytest.raises(ValueError, match="x_bar"):
            masking_sinkhorn_divergence(x_bar[:-1], x, mask, config)


class TestMaskingSinkhornLoss:
    def test_envelope_gradient_matches_divergence_finite_diff(self, rng):
        """Proposition 1: the plan-fixed gradient equals the full derivative."""
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2)) + 0.3
        mask = (rng.random(x.shape) > 0.3).astype(float)
        loss_fn = MaskingSinkhornLoss(reg=0.5, max_iter=3000, tol=1e-11)
        x_bar = Tensor(x, requires_grad=True)
        loss_fn(x_bar, y, mask).backward()
        analytic = x_bar.grad

        eps = 1e-5
        numeric = np.zeros_like(x)
        n = x.shape[0]
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                perturbed = x.copy()
                perturbed[i, j] += eps
                up = masking_sinkhorn_divergence(
                    perturbed, y, mask, SinkhornConfig(reg=0.5, max_iter=3000, tol=1e-11)
                )
                perturbed[i, j] -= 2 * eps
                down = masking_sinkhorn_divergence(
                    perturbed, y, mask, SinkhornConfig(reg=0.5, max_iter=3000, tol=1e-11)
                )
                numeric[i, j] = (up - down) / (2 * eps) / (2 * n)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_loss_value_matches_divergence(self, rng):
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 3))
        mask = (rng.random(x.shape) > 0.3).astype(float)
        loss_fn = MaskingSinkhornLoss(reg=0.7, max_iter=2000, tol=1e-10)
        value = loss_fn(Tensor(x), y, mask).item()
        expected = masking_sinkhorn_divergence(
            x, y, mask, SinkhornConfig(reg=0.7, max_iter=2000, tol=1e-10)
        ) / (2 * 6)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_shape_mismatch_raises(self, rng):
        loss_fn = MaskingSinkhornLoss(reg=0.5)
        with pytest.raises(ValueError):
            loss_fn(Tensor(np.zeros((3, 2))), np.zeros((4, 2)), np.zeros((4, 2)))

    def test_debias_off_biased_value(self, rng):
        """Without corrective terms the value at x == y is nonzero (entropic bias)."""
        x = rng.normal(size=(6, 2))
        mask = np.ones_like(x)
        biased = MaskingSinkhornLoss(reg=0.5, debias=False)(Tensor(x), x, mask).item()
        debiased = MaskingSinkhornLoss(reg=0.5, debias=True)(Tensor(x), x, mask).item()
        assert abs(debiased) < 1e-6
        assert abs(biased) > abs(debiased)

    def test_batch_key_caching_matches_keyless(self, rng):
        """Warm-started + cached calls agree with cold keyless calls."""
        x = rng.normal(size=(8, 3))
        mask = (rng.random(x.shape) > 0.3).astype(float)
        cold_fn = MaskingSinkhornLoss(
            reg=0.5, max_iter=3000, tol=1e-11, warm_start=False, cache_self_terms=False
        )
        cached_fn = MaskingSinkhornLoss(reg=0.5, max_iter=3000, tol=1e-11)
        for step in range(3):
            x_bar = x + 0.1 * step  # the generator's output drifts per epoch
            cold = cold_fn(Tensor(x_bar), x, mask).item()
            cached = cached_fn(Tensor(x_bar), x, mask, batch_key="batch-0").item()
            # Warm-started solves agree up to solver tolerance (amplified by
            # the plan→value map), not bit-for-bit.
            assert cached == pytest.approx(cold, abs=1e-7)
        assert "batch-0" in cached_fn._self_terms

    def test_reset_caches_clears_stores(self, rng):
        x = rng.normal(size=(6, 2))
        mask = np.ones_like(x)
        loss_fn = MaskingSinkhornLoss(reg=0.5)
        loss_fn(Tensor(x), x, mask, batch_key="k")
        assert loss_fn._duals and loss_fn._self_terms
        loss_fn.reset_caches()
        assert not loss_fn._duals and not loss_fn._self_terms

    def test_gradient_descent_reduces_divergence(self, rng):
        """The paper's core claim: MS gradients are usable everywhere."""
        y = rng.normal(size=(10, 2))
        x = rng.normal(size=(10, 2)) + 3.0
        mask = (rng.random(x.shape) > 0.2).astype(float)
        loss_fn = MaskingSinkhornLoss(reg=0.5)
        x_t = Tensor(x, requires_grad=True)
        initial = loss_fn(x_t, y, mask).item()
        for _ in range(150):
            x_t.zero_grad()
            loss = loss_fn(x_t, y, mask)
            loss.backward()
            x_t.data -= 2.0 * x_t.grad
        final = loss_fn(x_t, y, mask).item()
        assert final < initial * 0.5
