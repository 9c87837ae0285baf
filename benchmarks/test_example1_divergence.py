"""§IV Example 1 — JS vs masking Sinkhorn divergence on point masses.

The paper's vanishing-gradient illustration: with the true distribution δ₀
and generated distribution δ_θ under Bernoulli(q) missingness,

* JS(p₀‖p_θ) = 0 at θ = 0 and 2·log 2 elsewhere — discontinuous, gradient
  zero almost everywhere;
* S_m(p₀, p_θ) = 2qθ² + λ[(1−q)log(1−q) + q log q] — smooth in θ with a
  linearly varying gradient 4qθ.

This bench evaluates both closed forms on a θ grid and cross-checks the MS
values against the numerical masking-Sinkhorn divergence on point clouds.
"""

import numpy as np

from repro.bench import format_series
from repro.ot import SinkhornConfig, masking_sinkhorn_divergence

Q = 0.7  # probability a coordinate is observed
LAMBDA = 0.02
THETAS = (-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0)


def js_divergence(theta: float) -> float:
    """The paper's closed form: 0 at theta == 0, else 2 log 2."""
    return 0.0 if theta == 0.0 else 2.0 * np.log(2.0)


def ms_divergence_closed_form(theta: float) -> float:
    """S_m(p0, p_theta) = 2 q theta^2 (+ a theta-independent entropic offset).

    The corrective terms of Definition 4 cancel the offset, leaving the pure
    quadratic — which is what the empirical divergence measures.
    """
    return 2.0 * Q * theta**2


def ms_divergence_empirical(theta: float, n: int = 400, seed: int = 0) -> float:
    """Monte-Carlo masking Sinkhorn divergence between δ0 and δθ samples."""
    rng = np.random.default_rng(seed)
    x_real = np.zeros((n, 1))
    x_gen = np.full((n, 1), theta)
    mask = (rng.random((n, 1)) < Q).astype(float)
    return masking_sinkhorn_divergence(
        x_gen, x_real, mask, SinkhornConfig(reg=LAMBDA, max_iter=2000, tol=1e-9)
    )


def _run():
    rows = []
    for theta in THETAS:
        rows.append(
            {
                "theta": theta,
                "js": js_divergence(theta),
                "ms_closed": ms_divergence_closed_form(theta),
                "ms_empirical": ms_divergence_empirical(theta),
            }
        )
    return rows


def test_example1_divergence(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)

    print(
        "\n"
        + format_series(
            "theta",
            [row["theta"] for row in rows],
            {
                "JS": [row["js"] for row in rows],
                "MS closed form": [row["ms_closed"] for row in rows],
                "MS empirical": [row["ms_empirical"] for row in rows],
            },
            title="Example 1 — JS vs masking Sinkhorn divergence",
        )
    )

    # JS is flat away from zero: useless gradients.
    away = [row["js"] for row in rows if row["theta"] != 0.0]
    assert len(set(away)) == 1
    # MS varies smoothly (quadratically) and matches the closed form.
    for row in rows:
        assert row["ms_empirical"] >= -1e-6
        # The residual entropic offsets of Definition 4 scale with λ; allow
        # a small absolute slack on top of a 15 % relative band.
        assert abs(row["ms_empirical"] - row["ms_closed"]) < 0.04 + 0.15 * row["ms_closed"]
    # Gradient information: MS at theta=0.5 sits strictly between its values
    # at 0.1 and 1.0 — no plateau.
    by_theta = {row["theta"]: row["ms_empirical"] for row in rows}
    assert by_theta[0.1] < by_theta[0.5] < by_theta[1.0]
