"""SSE — sample size estimation (Section V).

Given an initial model ``M₀`` trained on ``n₀`` rows, SSE estimates the
smallest sample size ``n*`` such that a model trained on ``n*`` rows differs
from the full-data model by at most the user-tolerated error bound ``ε`` with
probability ``1 − α``.

The machinery follows the paper:

1. **Theorem 1** — the posterior of the size-``n`` model's parameters given
   ``θ₀`` is ``N(θ₀, η H⁻¹)`` with
   ``η ≍ e^{6/λ} (1 + 1/λ^{⌊d/2⌋})² (1/n₀ − 1/n)``.
   ``H`` is the Gauss-Newton Hessian of the MS loss,
   ``H ≈ (1/n₀) Σ_ij P*_ij [T(m_i)∇_θ x̄_i]ᵀ [T(m_i)∇_θ x̄_i]``
   (the paper's own approximation that drops the second-order term).  We
   estimate its *diagonal* with Hutchinson probes: for a Rademacher matrix
   ``V``, the gradient of ``Σ_ik m_ik V_ik x̄_ik`` has expected square equal
   to ``Σ_ik m_ik (∂x̄_ik/∂θ)²`` — a handful of probes suffices and the cost
   stays at a few backward passes regardless of parameter count.

2. **Proposition 2** — the pass probability
   ``P(D(θ_n, θ_N) ≤ ε)`` is estimated empirically from ``k`` sampled
   parameter pairs and must exceed ``(1−α)/(1−β) + sqrt(log β / (−2k))``.
   With the paper's defaults (α=0.05, β=0.01, k=20) that expression exceeds
   1, so we cap it at 1: all ``k`` sampled pairs must satisfy the bound —
   the most conservative decision the empirical test can make.

3. **Binary search** over ``n ∈ [n₀, N]``; the pass probability is
   monotonically increasing in ``n`` because ``η`` shrinks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..models.base import GenerativeImputer
from ..nn import flatten_gradients, flatten_parameters, load_flat_parameters
from ..obs import get_recorder, span
from ..parallel import ExecutionContext, derive_entropy, spawn_rng
from ..tensor import no_grad

__all__ = ["SseConfig", "SseResult", "SSE", "zeta", "eta"]

# Spawn-key domain for the k-sample pass-probability draws; keyed further by
# (candidate size n, sample index i) so each draw's stream is a pure function
# of the root entropy — independent of call order, backend, and worker.
_PASS_DOMAIN = "sse.pass_probability"


def zeta(reg: float, n_features: int) -> float:
    """ζ(λ) ≍ e^{6/λ} (1 + 1/λ^{⌊d/2⌋})² from Theorem 1."""
    half_d = max(1, n_features // 2)
    return float(np.exp(6.0 / reg) * (1.0 + reg ** (-half_d)) ** 2)


def eta(reg: float, n_features: int, n_initial: int, n: int) -> float:
    """η of Theorem 1: the posterior variance scale between sizes n₀ and n."""
    if n < n_initial:
        raise ValueError(f"n ({n}) must be >= n_initial ({n_initial})")
    return zeta(reg, n_features) * (1.0 / n_initial - 1.0 / n)


@dataclass
class SseConfig:
    """SSE hyper-parameters (§VI defaults)."""

    error_bound: float = 0.001  # ε
    confidence: float = 0.05  # α
    beta: float = 0.01  # β
    n_parameter_samples: int = 20  # k
    reg: float = 130.0  # λ, must match the DIM loss
    n_hutchinson_probes: int = 4
    hessian_ridge: float = 1e-6
    # Theorem 1 assumes an *invertible* Hessian.  Flat directions (dead ReLU
    # paths, unused hidden units) have near-zero estimated curvature and
    # would otherwise receive unboundedly large perturbations; flooring the
    # diagonal at this fraction of its mean keeps the posterior finite.
    hessian_floor: float = 0.1
    hessian_chunk: int = 512
    max_search_steps: int = 40
    # Theorem 1 pins η only up to a constant (the ``≍`` relation).  With the
    # raw scale, E[D²] ≈ η · P grows with the parameter count P, which makes
    # the test unpassable for any non-trivial network.  Normalising by P
    # (``True``, the default) gives E[D²] ≈ ζ(λ)(1/n − 1/N)/(d · obs-rate),
    # independent of the architecture — the calibration under which the
    # paper's reported sample rates are reachable.
    normalize_variance: bool = True

    def pass_threshold(self) -> float:
        """Proposition 2's lower bound on the empirical pass fraction, capped at 1."""
        raw = (1.0 - self.confidence) / (1.0 - self.beta) + np.sqrt(
            np.log(self.beta) / (-2.0 * self.n_parameter_samples)
        )
        return float(min(raw, 1.0))


@dataclass
class SseResult:
    """Outcome of the minimum-sample-size search."""

    n_star: int
    n_initial: int
    n_total: int
    seconds: float
    threshold: float
    evaluations: Dict[int, float] = field(default_factory=dict)

    @property
    def sample_rate(self) -> float:
        """R_t of the paper: n*/N."""
        return self.n_star / self.n_total

    @property
    def minimum_size(self) -> int:
        """Alias for ``n_star`` — the estimated minimum training size."""
        return self.n_star


class SSE:
    """Estimates the minimum training sample size for a DIM-trained model.

    Parameters
    ----------
    model:
        The initial model ``M₀`` (already trained by DIM on ``n₀`` rows).
    validation_values, validation_mask:
        The validation split of Algorithm 1 used to evaluate the imputation
        difference ``D`` (Eq. 4).
    config:
        :class:`SseConfig`.
    rng:
        Generator for the fixed validation noise and Hutchinson probes.
    seed:
        Root entropy for the per-sample posterior draws.  The k-sample test
        spawns one independent stream per ``(n, sample index)`` from this
        value (see ``repro.parallel.seeding``), which makes
        :meth:`pass_probability` a pure function of its arguments —
        invariant to call order and identical under serial and process
        execution.  Defaults to one integer drawn from ``rng``.
    context:
        :class:`repro.parallel.ExecutionContext` for the k-sample loop;
        defaults to ``ExecutionContext.from_env()`` (serial unless
        ``REPRO_WORKERS`` requests a pool).
    """

    def __init__(
        self,
        model: GenerativeImputer,
        validation_values: np.ndarray,
        validation_mask: np.ndarray,
        config: Optional[SseConfig] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else SseConfig()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.context = context if context is not None else ExecutionContext.from_env()
        self._values = np.nan_to_num(
            np.asarray(validation_values, dtype=np.float64), nan=0.0
        )
        self._mask = np.asarray(validation_mask, dtype=np.float64)
        # Fixed noise so D(θ_a, θ_b) reflects parameters only.
        self._noise = model.sample_noise(self._mask.shape, self.rng)
        self._theta0 = flatten_parameters(model.generator)
        self._entropy = int(seed) if seed is not None else derive_entropy(self.rng)
        self._posterior_std_base: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Hessian estimation
    # ------------------------------------------------------------------
    def estimate_hessian_diagonal(
        self, values: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Diagonal Gauss-Newton Hessian of the MS loss at θ₀.

        Hutchinson estimator over masked output directions, averaged over
        rows (the plan's uniform row marginal absorbs the P* weighting).
        """
        cfg = self.config
        values = np.nan_to_num(np.asarray(values, dtype=np.float64), nan=0.0)
        mask = np.asarray(mask, dtype=np.float64)
        n = values.shape[0]
        generator = self.model.generator
        accumulator = np.zeros(self._theta0.size)
        total_rows = 0
        for start in range(0, n, cfg.hessian_chunk):
            chunk_values = values[start : start + cfg.hessian_chunk]
            chunk_mask = mask[start : start + cfg.hessian_chunk]
            if chunk_values.shape[0] == 0:
                continue
            noise = self.model.sample_noise(chunk_mask.shape, self.rng)
            for _ in range(cfg.n_hutchinson_probes):
                probe = self.rng.choice([-1.0, 1.0], size=chunk_mask.shape)
                generator.zero_grad()
                x_bar = self.model.reconstruct_batch(chunk_values, chunk_mask, noise)
                projected = (x_bar * (chunk_mask * probe)).sum()
                projected.backward()
                grad = flatten_gradients(generator)
                accumulator += grad**2
            total_rows += chunk_values.shape[0]
        if total_rows == 0:
            raise ValueError("cannot estimate Hessian on an empty sample")
        diagonal = accumulator / (cfg.n_hutchinson_probes * total_rows)
        diagonal += cfg.hessian_ridge * max(diagonal.max(), 1.0)
        return np.maximum(diagonal, cfg.hessian_floor * diagonal.mean())

    def prepare(self, initial_values: np.ndarray, initial_mask: np.ndarray) -> None:
        """Compute ``H`` once; later posterior draws scale its inverse sqrt."""
        with span("sse.prepare"):
            diagonal = self.estimate_hessian_diagonal(initial_values, initial_mask)
        self._posterior_std_base = 1.0 / np.sqrt(diagonal)

    # ------------------------------------------------------------------
    # Imputation difference (Eq. 4)
    # ------------------------------------------------------------------
    def _reconstruct_validation(self, theta: np.ndarray) -> np.ndarray:
        """Load ``theta`` and reconstruct the validation split (no restore)."""
        generator = self.model.generator
        load_flat_parameters(generator, theta)
        with no_grad():
            out = self.model.reconstruct_batch(self._values, self._mask, self._noise)
        return out.data

    def _masked_rms(self, recon_a: np.ndarray, recon_b: np.ndarray) -> float:
        masked = self._mask * (recon_a - recon_b)
        count = max(self._mask.sum(), 1.0)
        return float(np.sqrt((masked**2).sum() / count))

    def imputation_difference(self, theta_a: np.ndarray, theta_b: np.ndarray) -> float:
        """D(θ_a, θ_b): RMS of masked reconstruction differences (Eq. 4)."""
        try:
            recon_a = self._reconstruct_validation(theta_a)
            recon_b = self._reconstruct_validation(theta_b)
        finally:
            load_flat_parameters(self.model.generator, self._theta0)  # restore
        return self._masked_rms(recon_a, recon_b)

    # ------------------------------------------------------------------
    # Pass probability and search
    # ------------------------------------------------------------------
    def _sample_theta(
        self,
        centre: np.ndarray,
        variance_scale: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """One posterior draw from ``N(centre, variance_scale · diag(H)⁻¹)``.

        ``rng`` is threaded explicitly: the k-sample test passes a spawned
        per-sample generator so draws never touch shared generator state
        (shared state made results depend on the order pass-probability
        evaluations happened to run in).
        """
        rng = rng if rng is not None else self.rng
        std = np.sqrt(max(variance_scale, 0.0)) * self._posterior_std_base
        return centre + std * rng.standard_normal(centre.size)

    def _sampled_distance(self, n: int, index: int, eta_n: float, eta_big: float) -> float:
        """D(θ_n, θ_N) for sampled pair ``index`` of the size-``n`` test.

        Each pair is an independent task: it derives its own generator from
        ``(entropy, n, index)``, loads its own perturbed parameters, and
        returns a scalar — the unit of work the execution context fans out.
        """
        rng = spawn_rng(self._entropy, _PASS_DOMAIN, n, index)
        theta_n = self._sample_theta(self._theta0, eta_n, rng)
        theta_big = self._sample_theta(theta_n, eta_big, rng)
        recon_n = self._reconstruct_validation(theta_n)
        recon_big = self._reconstruct_validation(theta_big)
        return self._masked_rms(recon_n, recon_big)

    def pass_probability(self, n: int, n_initial: int, n_total: int, d: int) -> float:
        """Empirical estimate of P(D(θ_n, θ_N) ≤ ε) per Proposition 2.

        The k sampled parameter pairs are independent, so they run through
        the execution context — serially by default, fanned out across
        workers when one is configured.  Per-sample spawn-key seeding makes
        the estimate bit-identical across backends and call orders.
        """
        if self._posterior_std_base is None:
            raise RuntimeError("call prepare() before pass_probability()")
        cfg = self.config
        scale = 1.0 / max(self._theta0.size, 1) if cfg.normalize_variance else 1.0
        # Both variance scales depend only on (n, n_initial, n_total): hoist
        # them out of the k-sample loop instead of recomputing per draw.
        eta_n = eta(cfg.reg, d, n_initial, n) * scale
        eta_big = (eta(cfg.reg, d, n, n_total) if n_total > n else 0.0) * scale
        tasks = [
            (lambda i=i: self._sampled_distance(n, i, eta_n, eta_big))
            for i in range(cfg.n_parameter_samples)
        ]
        try:
            distances = self.context.run(tasks, label=_PASS_DOMAIN)
        finally:
            # Tasks perturb the live generator (serial backend) or a forked
            # copy (process backend); one θ₀ restore per call covers both.
            load_flat_parameters(self.model.generator, self._theta0)
        passes = 0
        recorder = get_recorder()
        for distance in distances:
            if not np.isfinite(distance):
                # A NaN distance means a perturbed generator blew up;
                # count it as a fail but leave a health breadcrumb.
                if recorder.enabled:
                    recorder.inc("health.issues")
                    recorder.emit(
                        "health.sse_nonfinite", n=n, distance=float(distance)
                    )
                continue
            if distance <= cfg.error_bound:
                passes += 1
        return passes / cfg.n_parameter_samples

    def estimate_minimum_size(self, n_initial: int, n_total: int) -> SseResult:
        """Binary search for the smallest passing sample size (Alg. 1, line 3)."""
        if self._posterior_std_base is None:
            raise RuntimeError("call prepare() before estimate_minimum_size()")
        start = time.perf_counter()
        cfg = self.config
        recorder = get_recorder()
        d = self._mask.shape[1]
        threshold = cfg.pass_threshold()
        evaluations: Dict[int, float] = {}

        def passes(n: int) -> bool:
            if n not in evaluations:
                with span("sse.pass_probability"):
                    evaluations[n] = self.pass_probability(n, n_initial, n_total, d)
                if recorder.enabled:
                    recorder.inc("sse.evaluations")
                    recorder.emit(
                        "sse.evaluation",
                        n=n,
                        pass_probability=evaluations[n],
                        threshold=threshold,
                        passed=evaluations[n] >= threshold,
                    )
            return evaluations[n] >= threshold

        low, high = n_initial, n_total
        if passes(low):
            high = low
        elif not passes(high):
            # Even the full dataset fails the sampled test: fall back to N.
            low = high
        else:
            steps = 0
            while low < high - 1 and steps < cfg.max_search_steps:
                mid = (low + high) // 2
                if passes(mid):
                    high = mid
                else:
                    low = mid
                steps += 1
                if recorder.enabled:
                    # high is the best passing n* candidate so far; its walk
                    # down the bracket is the evolving n* trajectory.
                    recorder.set_gauge("sse.n_star_candidate", high)
                    recorder.emit("sse.search_step", step=steps, low=low, high=high)
            low = high
        seconds = time.perf_counter() - start
        if recorder.enabled:
            recorder.emit(
                "sse.result",
                n_star=high,
                n_initial=n_initial,
                n_total=n_total,
                threshold=threshold,
                seconds=seconds,
            )
        return SseResult(
            n_star=high,
            n_initial=n_initial,
            n_total=n_total,
            seconds=seconds,
            threshold=threshold,
            evaluations=evaluations,
        )
