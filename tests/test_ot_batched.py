"""Batched Sinkhorn: a stack against one-problem solves of its slices, the
B=1 contract of ``sinkhorn()``, the SinkhornConfig redesign, and the retired
knob spellings of the old deprecation shim, which now raise ``TypeError``."""

import numpy as np
import pytest

from repro.ot import (
    BatchedSinkhornResult,
    SinkhornConfig,
    masked_cost_matrix,
    masking_sinkhorn_divergence,
    sinkhorn,
    sinkhorn_batched,
    sinkhorn_divergence,
    squared_euclidean_cost,
)

PARITY_TOL = 1e-8


def _random_stack(rng, batch, n, m, scale=1.0):
    return scale * rng.random((batch, n, m))


def _loop_solve(cost, config, a=None, b=None, init=None):
    return [
        sinkhorn(
            cost[k],
            config,
            a=None if a is None else a[k],
            b=None if b is None else b[k],
            init=None if init is None else (init[0][k], init[1][k]),
        )
        for k in range(cost.shape[0])
    ]


def _assert_parity(stacked, looped):
    assert len(stacked) == len(looped)
    for k, single in enumerate(looped):
        problem = stacked.problem(k)
        np.testing.assert_allclose(problem.plan, single.plan, atol=PARITY_TOL)
        assert problem.value == pytest.approx(single.value, abs=PARITY_TOL)
        assert problem.transport_cost == pytest.approx(
            single.transport_cost, abs=PARITY_TOL
        )
        np.testing.assert_allclose(problem.f, single.f, atol=PARITY_TOL)
        np.testing.assert_allclose(problem.g, single.g, atol=PARITY_TOL)
        assert problem.iterations == single.iterations
        assert problem.converged == single.converged


class TestBatchedLoopParity:
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_values_duals_iterations_match_loop(self, rng, batch):
        cost = _random_stack(rng, batch, 9, 6)
        config = SinkhornConfig(reg=0.3, max_iter=400, tol=1e-10)
        _assert_parity(sinkhorn_batched(cost, config), _loop_solve(cost, config))

    def test_uneven_marginals_match_loop(self, rng):
        batch, n, m = 4, 7, 5
        cost = _random_stack(rng, batch, n, m)
        a = rng.random((batch, n)) + 0.1
        a /= a.sum(axis=1, keepdims=True)
        b = rng.random((batch, m)) + 0.1
        b /= b.sum(axis=1, keepdims=True)
        config = SinkhornConfig(reg=0.4, max_iter=500, tol=1e-10)
        _assert_parity(
            sinkhorn_batched(cost, config, a=a, b=b),
            _loop_solve(cost, config, a=a, b=b),
        )

    def test_shared_marginal_vector_matches_loop(self, rng):
        batch, n, m = 3, 6, 6
        cost = _random_stack(rng, batch, n, m)
        a = np.full(n, 1.0 / n)
        b = rng.random(m) + 0.5
        b /= b.sum()
        config = SinkhornConfig(reg=0.5, max_iter=300, tol=1e-9)
        stacked = sinkhorn_batched(cost, config, a=a, b=b)
        looped = [sinkhorn(cost[k], config, a=a, b=b) for k in range(batch)]
        _assert_parity(stacked, looped)

    def test_early_converged_problem_inside_running_stack(self, rng):
        # Mixed difficulty: near-constant costs converge in a sweep or two
        # while sharp ones keep iterating; each frozen problem must report
        # exactly its one-problem solve's iteration count and duals.
        easy = 1e-3 * rng.random((2, 8, 8))
        hard = 5.0 * rng.random((3, 8, 8))
        cost = np.concatenate([easy[:1], hard[:2], easy[1:], hard[2:]])
        config = SinkhornConfig(reg=0.2, max_iter=600, tol=1e-10)
        stacked = sinkhorn_batched(cost, config)
        looped = _loop_solve(cost, config)
        iterations = [r.iterations for r in looped]
        assert min(iterations) < max(iterations)  # the mix actually mixes
        _assert_parity(stacked, looped)

    def test_nonconverged_problems_flagged(self, rng):
        cost = 10.0 * rng.random((2, 10, 10))
        config = SinkhornConfig(reg=0.05, max_iter=2, tol=1e-12)
        result = sinkhorn_batched(cost, config)
        assert not result.converged.any()
        assert (result.iterations == 2).all()
        assert (result.marginal_violation > config.tol).all()

    def test_stacked_warm_start_matches_loop_and_cuts_sweeps(self, rng):
        cost = _random_stack(rng, 3, 10, 10)
        config = SinkhornConfig(reg=0.3, max_iter=500, tol=1e-9)
        cold = sinkhorn_batched(cost, config)
        nearby = cost + 1e-4 * rng.random(cost.shape)
        warm = sinkhorn_batched(nearby, config, init=(cold.f, cold.g))
        _assert_parity(warm, _loop_solve(nearby, config, init=(cold.f, cold.g)))
        assert warm.iterations.sum() < cold.iterations.sum()

    def test_zero_init_rows_equal_cold_start(self, rng):
        # A partially warm stack expresses cold slots as zero rows; those
        # slots must behave exactly like an init-free solve.
        cost = _random_stack(rng, 2, 6, 6)
        config = SinkhornConfig(reg=0.4, max_iter=300, tol=1e-9)
        cold = sinkhorn_batched(cost, config)
        half_warm = sinkhorn_batched(
            cost,
            config,
            init=(
                np.vstack([cold.f[0], np.zeros(6)]),
                np.vstack([cold.g[0], np.zeros(6)]),
            ),
        )
        np.testing.assert_allclose(
            half_warm.plan[1], cold.plan[1], atol=PARITY_TOL
        )
        assert half_warm.iterations[1] == cold.iterations[1]

    def test_divergences_agree_between_paths(self, rng):
        # A stack of 3 against 3 one-problem stacks on the same costs.
        x = rng.random((12, 4))
        y = rng.random((12, 4))
        mask = (rng.random((12, 4)) > 0.3).astype(float)
        config = SinkhornConfig(reg=0.5)
        assert sinkhorn_divergence(x, y, config) == pytest.approx(
            _divergence_oracle(
                config,
                squared_euclidean_cost(x, y),
                squared_euclidean_cost(x, x),
                squared_euclidean_cost(y, y),
            ),
            abs=PARITY_TOL,
        )
        assert masking_sinkhorn_divergence(y, x, mask, config) == pytest.approx(
            _divergence_oracle(
                config,
                masked_cost_matrix(y, mask, x, mask),
                masked_cost_matrix(y, mask, y, mask),
                masked_cost_matrix(x, mask, x, mask),
            ),
            abs=PARITY_TOL,
        )

    def test_unequal_row_counts_fall_back_to_loop(self, rng):
        # The three divergence problems have different shapes here, so they
        # cannot share a stack; each is solved on its own.
        x = rng.random((8, 3))
        y = rng.random((5, 3))
        config = SinkhornConfig(reg=0.5)
        value = sinkhorn_divergence(x, y, config)
        assert np.isfinite(value)
        assert value == pytest.approx(
            _divergence_oracle(
                config,
                squared_euclidean_cost(x, y),
                squared_euclidean_cost(x, x),
                squared_euclidean_cost(y, y),
            ),
            abs=PARITY_TOL,
        )


def _divergence_oracle(config, cross, self_a, self_b):
    """``2·cross − self − self`` from three separate one-problem solves."""
    return (
        2.0 * sinkhorn(cross, config).value
        - sinkhorn(self_a, config).value
        - sinkhorn(self_b, config).value
    )


def _log_domain_reference(cost, config, a, b, f, g):
    """The all-log-domain sweep loop the scaling kernel replaced, one problem."""

    def logsumexp(x, axis):
        top = x.max(axis=axis, keepdims=True)
        total = np.exp(x - top).sum(axis=axis, keepdims=True)
        return (top + np.log(total)).squeeze(axis)

    neg_cost = -cost / config.reg
    for sweep in range(1, config.max_iter + 1):
        f = np.log(a) - logsumexp(neg_cost + g[None, :], axis=1)
        g = np.log(b) - logsumexp(neg_cost + f[:, None], axis=0)
        plan = np.exp(neg_cost + f[:, None] + g[None, :])
        violation = np.abs(plan.sum(1) - a).sum() + np.abs(plan.sum(0) - b).sum()
        if violation < config.tol:
            return plan, sweep, True
    return plan, config.max_iter, False


def _uneven(rng, batch, size):
    weights = rng.random((batch, size)) + 0.1
    return weights / weights.sum(axis=1, keepdims=True)


def _assert_matches_reference(result, cost, config, a, b, init):
    assert np.isfinite(result.plan).all()
    for name in ("value", "transport_cost", "marginal_violation", "f", "g"):
        assert np.isfinite(getattr(result, name)).all(), name
    for k in range(cost.shape[0]):
        plan, iterations, converged = _log_domain_reference(
            cost[k], config, a[k], b[k], init[0][k], init[1][k]
        )
        assert result.iterations[k] == iterations, k
        assert result.converged[k] == converged, k
        gap = np.abs(result.plan[k] - plan).max()
        assert gap <= 1e-10 * np.abs(plan).max(), (k, gap)


class TestScalingSweepMatchesLogDomain:
    """The stabilised scaling sweep runs the log-domain iterates exactly."""

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    @pytest.mark.parametrize("reg", [130.0, 1.0, 0.05, 1e-2, 1e-3])
    def test_iterates_match_reference(self, rng, reg, scale):
        config = SinkhornConfig(reg=reg, max_iter=200, tol=1e-9)
        for batch, n, m in [(1, 5, 7), (3, 32, 32), (7, 16, 24)]:
            cost = _random_stack(rng, batch, n, m, scale=scale)
            a, b = _uneven(rng, batch, n), _uneven(rng, batch, m)
            cold = (np.zeros((batch, n)), np.zeros((batch, m)))
            warm = (rng.normal(0.0, 5.0, (batch, n)), rng.normal(0.0, 5.0, (batch, m)))
            for init in (cold, warm):
                result = sinkhorn_batched(cost, config, a=a, b=b, init=init)
                _assert_matches_reference(result, cost, config, a, b, init)

    def test_small_reg_takes_the_restabilisation_path(self, rng):
        from repro.obs import recording

        config = SinkhornConfig(reg=1e-3, max_iter=200, tol=1e-9)
        cost = _random_stack(rng, 3, 32, 32, scale=10.0)
        a, b = _uneven(rng, 3, 32), _uneven(rng, 3, 32)
        with recording() as rec:
            result = sinkhorn_batched(cost, config, a=a, b=b)
        assert rec.metrics.snapshot()["counters"]["sinkhorn.absorptions"] > 0
        zeros = (np.zeros((3, 32)), np.zeros((3, 32)))
        _assert_matches_reference(result, cost, config, a, b, zeros)

    def test_underflowed_scaling_redoes_the_half_sweep(self, rng, monkeypatch):
        # Marginal entries down to 1e-300 let K v underflow to zero, so
        # u = a / (K v) is infinite and that half-sweep must be redone in
        # the log domain (every call past the first sweep's two).
        import repro.ot.batched as batched

        calls = []
        original = batched._logsumexp

        def spy(x, axis):
            calls.append(axis)
            return original(x, axis)

        monkeypatch.setattr(batched, "_logsumexp", spy)
        config = SinkhornConfig(reg=1e-3, max_iter=50, tol=1e-9)
        cost = _random_stack(rng, 10, 5, 4, scale=10.0)
        a = 10.0 ** -rng.uniform(0.0, 300.0, (10, 5))
        a /= a.sum(axis=1, keepdims=True)
        b = 10.0 ** -rng.uniform(0.0, 300.0, (10, 4))
        b /= b.sum(axis=1, keepdims=True)
        result = sinkhorn_batched(cost, config, a=a, b=b)
        assert len(calls) > 2
        zeros = (np.zeros((10, 5)), np.zeros((10, 4)))
        _assert_matches_reference(result, cost, config, a, b, zeros)

    @pytest.mark.parametrize("shape", [(5, 7), (32, 32), (16, 24)])
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    @pytest.mark.parametrize("reg", [130.0, 1.0, 0.05, 1e-2, 1e-3])
    def test_sinkhorn_is_the_one_problem_stack(self, rng, reg, scale, shape):
        from repro.tensor.backend import get_backend

        n, m = shape
        config = SinkhornConfig(reg=reg, max_iter=200, tol=1e-9)
        cost = scale * rng.random((n, m))
        a, b = _uneven(rng, 1, n)[0], _uneven(rng, 1, m)[0]
        warm = (rng.normal(0.0, 5.0, n), rng.normal(0.0, 5.0, m))
        for init in (None, warm):
            single = sinkhorn(cost, config, a=a, b=b, init=init)
            stacked = sinkhorn_batched(
                cost[None],
                config,
                a=a[None],
                b=b[None],
                init=None if init is None else (init[0][None], init[1][None]),
            ).problem(0)
            for name in (
                "plan", "value", "transport_cost", "iterations", "converged",
                "marginal_violation", "f", "g",
            ):
                got, want = getattr(single, name), getattr(stacked, name)
                if get_backend().name == "numpy":
                    assert np.array_equal(got, want), name
                else:
                    np.testing.assert_allclose(got, want, atol=1e-8, err_msg=name)

    def test_loop_solver_counts_absorptions(self, rng):
        from repro.obs import recording

        cost = 10.0 * rng.random((16, 24))
        config = SinkhornConfig(reg=1e-3, max_iter=200, tol=1e-9)
        with recording() as rec:
            sinkhorn(cost, config)
        assert rec.metrics.snapshot()["counters"]["sinkhorn.absorptions"] > 0


class TestBatchedResult:
    def test_len_and_problem_roundtrip(self, rng):
        cost = _random_stack(rng, 3, 5, 4)
        result = sinkhorn_batched(cost, SinkhornConfig(reg=0.5))
        assert len(result) == 3
        single = result.problem(1)
        assert single.plan.shape == (5, 4)
        assert isinstance(single.value, float)
        assert isinstance(single.iterations, int)
        assert isinstance(single.converged, bool)

    def test_plan_marginals_match_requested(self, rng):
        batch, n, m = 3, 6, 4
        cost = _random_stack(rng, batch, n, m)
        a = rng.random((batch, n)) + 0.2
        a /= a.sum(axis=1, keepdims=True)
        result = sinkhorn_batched(
            cost, SinkhornConfig(reg=0.5, tol=1e-10), a=a
        )
        np.testing.assert_allclose(result.plan.sum(axis=2), a, atol=1e-9)
        np.testing.assert_allclose(
            result.plan.sum(axis=1), np.full((batch, m), 1.0 / m), atol=1e-9
        )


class TestBatchedValidation:
    def test_rejects_non_3d_cost(self, rng):
        with pytest.raises(ValueError, match=r"stacked \(B, n, m\)"):
            sinkhorn_batched(rng.random((4, 4)), SinkhornConfig(reg=0.5))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="empty problem stack"):
            sinkhorn_batched(np.zeros((0, 3, 3)), SinkhornConfig(reg=0.5))

    def test_rejects_bad_marginal_shape(self, rng):
        cost = _random_stack(rng, 2, 4, 4)
        with pytest.raises(ValueError, match="marginal 'a'"):
            sinkhorn_batched(cost, SinkhornConfig(reg=0.5), a=np.full(3, 1 / 3))

    def test_nonpositive_marginal_names_problem_and_index(self, rng):
        cost = _random_stack(rng, 2, 4, 4)
        b = np.full((2, 4), 0.25)
        b[1, 2] = 0.0
        with pytest.raises(ValueError, match=r"b\[1\]\[2\]"):
            sinkhorn_batched(cost, SinkhornConfig(reg=0.5), b=b)

    def test_rejects_misshapen_init(self, rng):
        cost = _random_stack(rng, 2, 4, 4)
        with pytest.raises(ValueError, match="init duals"):
            sinkhorn_batched(
                cost,
                SinkhornConfig(reg=0.5),
                init=(np.zeros((2, 3)), np.zeros((2, 4))),
            )

    @pytest.mark.parametrize("dual, bad", [("g", np.nan), ("f", -np.inf)])
    def test_non_finite_init_names_problem_and_index(self, rng, dual, bad):
        # A NaN dual used to run every sweep and return a NaN plan and
        # value for its problem.
        cost = _random_stack(rng, 3, 4, 4)
        f, g = np.zeros((3, 4)), np.zeros((3, 4))
        (f if dual == "f" else g)[1, 2] = bad
        with pytest.raises(ValueError, match=rf"{dual}\[1\]\[2\] = {bad}"):
            sinkhorn_batched(cost, SinkhornConfig(reg=0.5), init=(f, g))


class TestSinkhornConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            SinkhornConfig(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="regulariser must be positive"):
            SinkhornConfig(reg=0.0)
        with pytest.raises(ValueError, match="regulariser must be positive"):
            SinkhornConfig(reg=float("nan"))
        with pytest.raises(ValueError, match="max_iter"):
            SinkhornConfig(reg=0.5, max_iter=0)
        with pytest.raises(ValueError, match="tol"):
            SinkhornConfig(reg=0.5, tol=0.0)

    def test_frozen(self):
        config = SinkhornConfig(reg=0.5)
        with pytest.raises(AttributeError):
            config.reg = 1.0


class TestDeprecationShim:
    """The shim's ``reg``/``max_iter``/``tol`` spellings are retired.

    Each now fails with ``TypeError``; a bare ``reg`` in the config slot
    is refused by name instead of dying on ``float.reg``.
    """

    @pytest.fixture()
    def cost(self, rng):
        return rng.random((5, 5))

    def test_positional_reg_raises(self, cost):
        with pytest.raises(TypeError, match=r"config.*SinkhornConfig\(reg=\.\.\.\)"):
            sinkhorn(cost, 0.5)

    def test_keyword_reg_raises(self, cost):
        with pytest.raises(TypeError):
            sinkhorn(cost, reg=0.5)

    def test_batched_rejects_positional_reg(self, cost):
        with pytest.raises(TypeError, match="config"):
            sinkhorn_batched(cost[None], 0.5)

    def test_config_plus_legacy_kwargs_rejected(self, cost):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sinkhorn(cost, SinkhornConfig(reg=0.5), max_iter=10)

    def test_double_reg_rejected(self, cost):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sinkhorn(cost, 0.5, reg=0.5)

    def test_unknown_kwarg_rejected(self, cost):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sinkhorn(cost, 0.5, regularizer=0.5)

    def test_missing_reg_rejected(self, cost):
        with pytest.raises(TypeError, match="config"):
            sinkhorn(cost)

    def test_divergences_reject_legacy_form(self, rng):
        x = rng.random((6, 3))
        mask = np.ones_like(x)
        with pytest.raises(TypeError):
            sinkhorn_divergence(x, x, reg=0.5)
        with pytest.raises(TypeError, match="config"):
            sinkhorn_divergence(x, x, 0.5)
        with pytest.raises(TypeError, match="config"):
            masking_sinkhorn_divergence(x, x, mask, 0.5)


class TestLossGradientParity:
    @pytest.fixture()
    def cloud(self, rng):
        n, d = 10, 4
        x = rng.random((n, d))
        x_bar = x + 0.1 * rng.normal(size=(n, d))
        mask = (rng.random((n, d)) > 0.3).astype(float)
        return x_bar, x, mask

    def test_batched_and_loop_losses_agree_to_gradient(self, cloud):
        # The loss's stacked solve against the NumPy divergence, S_m / (2n),
        # in value and (by central differences) in gradient.
        from repro.ot import MaskingSinkhornLoss
        from repro.tensor import Tensor

        x_bar, x, mask = cloud
        n = x.shape[0]
        config = SinkhornConfig(reg=0.5, max_iter=500, tol=1e-9)
        loss_fn = MaskingSinkhornLoss(reg=0.5, max_iter=500, tol=1e-9)
        x_bar_t = Tensor(x_bar, requires_grad=True)
        loss = loss_fn(x_bar_t, x, mask)
        loss.backward()

        def reference(points):
            return masking_sinkhorn_divergence(points, x, mask, config) / (2 * n)

        assert float(loss.data) == pytest.approx(reference(x_bar), abs=PARITY_TOL)
        step = 1e-5
        for i, j in [(0, 0), (3, 1), (9, 3)]:
            up, down = x_bar.copy(), x_bar.copy()
            up[i, j] += step
            down[i, j] -= step
            numeric = (reference(up) - reference(down)) / (2 * step)
            assert x_bar_t.grad[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_batched_loss_gradcheck(self, rng):
        from repro.ot import MaskingSinkhornLoss
        from repro.tensor import Tensor, check_gradients

        n, d = 5, 3
        x = rng.random((n, d))
        mask = (rng.random((n, d)) > 0.3).astype(float)
        x_bar = Tensor(x + 0.1 * rng.normal(size=(n, d)), requires_grad=True)
        loss_fn = MaskingSinkhornLoss(reg=1.0, max_iter=1000, tol=1e-12)
        check_gradients(
            lambda t: loss_fn(t, x, mask), [x_bar], atol=1e-4, rtol=1e-3
        )


class TestBatchedTelemetry:
    def test_counters_and_event_fields(self, rng):
        from repro.obs import recording

        cost = _random_stack(rng, 3, 6, 6)
        config = SinkhornConfig(reg=0.5, tol=1e-9)
        with recording() as rec:
            result = sinkhorn_batched(cost, config)
        counters = rec.metrics.snapshot()["counters"]
        assert counters["sinkhorn.solves"] == 3.0
        assert counters["sinkhorn.batched_solves"] == 1.0
        assert counters["sinkhorn.batched_problems"] == 3.0
        events = [e for e in rec.events if e.name == "sinkhorn.batched_solve"]
        assert len(events) == 1
        fields = events[0].fields
        assert fields["stack"] == 3
        assert fields["sweeps"] == int(result.iterations.max())
        assert fields["iterations"] == int(result.iterations.sum())
        assert fields["converged"] == 3
        assert fields["warm_started"] is False
