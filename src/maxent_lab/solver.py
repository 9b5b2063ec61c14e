"""I-projection of a prior onto a moment constraint.

The projection minimizes KL divergence to the prior subject to E[T] = target
and has exponential form q(x) * exp(-beta . T(x)) / Z(beta). We find beta by
damped Newton descent on the strictly convex dual F(beta) = ln Z(beta) +
beta . target, whose gradient is target - E_beta[T] and whose Hessian is the
T-covariance under the current tilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BoundaryTargetError,
    ConvergenceError,
    InternalCheckError,
    SingularCovarianceError,
)
from .lattice import ConstraintSpec, SampleSpace, as_fraction

LN2 = float(np.log(2.0))
CONDITION_LIMIT = 1e12
# moment residual at which the Newton iteration stops, and its step cap
TOL = 1e-10
MAX_ITER = 200
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MaxEntSolution:
    """Solved projection: natural parameter, partition value, masses, and
    diagnostics. ``entropy_bits`` is the (non-positive) negative KL divergence
    from the prior, in bits."""

    beta: np.ndarray
    logz: float
    pmf: np.ndarray
    prior: np.ndarray
    target: np.ndarray
    covariance: np.ndarray
    entropy_bits: float
    residual: float
    iterations: int
    dual_path: tuple[float, ...]

    @property
    def measure_id(self) -> str:
        return "maxent"

    @property
    def closed_entropy_bits(self) -> float:
        """``entropy_bits`` in closed form, (beta . target + ln Z) / ln 2."""
        return (float(self.beta @ self.target) + self.logz) / LN2


def covariance_matrix(pmf: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Covariance of the statistic rows under ``pmf``; symmetric PSD by
    construction."""
    mean = pmf @ values
    centered = values - mean
    return (centered * pmf[:, None]).T @ centered


def _entropy_sum_bits(pmf: np.ndarray, prior: np.ndarray) -> float:
    return -float(np.sum(pmf * (np.log(pmf) - np.log(prior)))) / LN2


def _entropy_check_bound(beta: np.ndarray, target: np.ndarray, logz: float,
                         residual: float) -> float:
    """Largest gap, in bits, that the direct and closed entropy forms of a
    solution with this moment residual may show: the closed form uses the
    target where the masses realise a mean up to ``residual`` away, which
    moves it by at most ||beta||_1 * residual, plus float rounding."""
    rounding = 64.0 * EPS * (abs(logz) + abs(float(beta @ target)) + 1.0)
    return 1e-10 + (float(np.abs(beta).sum()) * residual + rounding) / LN2


def entropy_bits(solution: MaxEntSolution) -> float:
    """Entropy of the solution relative to its prior, in bits.

    Computed as the direct mass sum and cross-checked against the closed form
    (beta . target + ln Z) / ln 2; disagreement beyond the bound that the
    stored residual allows means the solution object is corrupt.
    """
    direct = _entropy_sum_bits(solution.pmf, solution.prior)
    closed = solution.closed_entropy_bits
    if abs(direct - closed) > _entropy_check_bound(
            solution.beta, solution.target, solution.logz, solution.residual):
        raise InternalCheckError(
            f"entropy cross-check failed: {direct} vs {closed}"
        )
    return direct


def logsumexp(a: np.ndarray) -> float:
    """ln sum(exp(a)) of a 1-D float array, bit for bit as scipy.special's
    (1.17): the maximal terms are split out of the shifted sum."""
    a_max = np.max(a)
    is_max = a == a_max
    with np.errstate(all="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max))
        m = np.sum(is_max, dtype=a.dtype)
        out = np.log1p(s / m if s != 0 else s) + np.log(m) + a_max
        # an infinite or NaN maximum: the direct form, as scipy falls back to
        return out if np.isfinite(out) else np.log(np.sum(np.exp(a)))


def _dual(beta: np.ndarray, logq: np.ndarray, values: np.ndarray, target: np.ndarray):
    logw = logq - values @ beta
    logz = float(logsumexp(logw))
    pmf = np.exp(logw - logz)
    mean = pmf @ values
    f = logz + float(beta @ target)
    return logz, pmf, mean, f


def solve_maxent(space: SampleSpace, constraint: ConstraintSpec) -> MaxEntSolution:
    """Solve the projection for a target strictly inside the hull.

    Newton steps on the dual start at beta = 0 and are halved
    until the dual decreases sufficiently (Armijo, on the Newton decrement
    r . Sigma^-1 r, with an allowance for float noise in the dual value, which
    the full step cannot beat near the optimum); iteration stops once the
    moment residual ``max_j |E[T_j] - target_j|`` is at most ``TOL``.
    """
    if constraint.position == "boundary":
        raise BoundaryTargetError(
            "boundary target: no exponential-form solution; restrict the sample space"
        )

    values = constraint.values_float
    target = constraint.target_float
    logq = np.log(space.prior)
    beta = np.zeros(constraint.dim)

    logz, pmf, mean, f = _dual(beta, logq, values, target)
    path = [f]
    iterations = 0
    while True:
        residual = float(np.max(np.abs(mean - target)))
        if residual <= TOL:
            break
        if iterations >= MAX_ITER:
            raise ConvergenceError(
                f"no convergence after {MAX_ITER} iterations (residual {residual:.3e})"
            )
        sigma = covariance_matrix(pmf, values)
        if np.linalg.cond(sigma) > CONDITION_LIMIT:
            raise SingularCovarianceError(
                "singular covariance: statistic coordinates look affinely dependent"
            )
        gap = target - mean
        direction = np.linalg.solve(sigma, gap)
        decrement = float(gap @ direction)
        noise = 8.0 * EPS * max(1.0, abs(f))
        step = 1.0
        while True:
            candidate = beta - step * direction
            logz_c, pmf_c, mean_c, f_c = _dual(candidate, logq, values, target)
            if f_c <= f - 1e-4 * step * decrement + noise:
                break
            step *= 0.5
            if step < 1e-14:
                raise ConvergenceError("dual line search stalled")
        beta, logz, pmf, mean, f = candidate, logz_c, pmf_c, mean_c, f_c
        path.append(f)
        iterations += 1

    sigma = covariance_matrix(pmf, values)
    if np.linalg.cond(sigma) > CONDITION_LIMIT:
        raise SingularCovarianceError(
            "singular covariance at the solution: statistic coordinates look "
            "affinely dependent; drop redundant coordinates"
        )
    solution = MaxEntSolution(
        beta=beta, logz=logz, pmf=pmf, prior=space.prior.copy(),
        target=target.copy(), covariance=sigma,
        entropy_bits=_entropy_sum_bits(pmf, space.prior), residual=residual,
        iterations=iterations, dual_path=tuple(path))
    if abs(solution.entropy_bits - solution.closed_entropy_bits) > \
            _entropy_check_bound(beta, target, logz, residual):
        raise InternalCheckError("entropy cross-check failed after convergence")
    return solution


def rational_tilt(space: SampleSpace, constraint: ConstraintSpec,
                  ratios) -> tuple[Fraction, ...]:
    """Exact rational member of the exponential family through the prior.

    Returns masses proportional to q(x) * prod_j ratios[j] ** units_j(x),
    normalized exactly. Such measures keep the mass ratio to the prior constant
    on every constraint-satisfying set, which makes them exact stand-ins for
    the (irrational) projection in rational-arithmetic identity checks.
    """
    ratios = [as_fraction(r) for r in ratios]
    if len(ratios) != constraint.dim or any(r <= 0 for r in ratios):
        raise ValueError("need one positive rational ratio per constraint coordinate")
    weights = []
    for q, u in zip(space.prior_fractions, constraint.units):
        w = q
        for r, uj in zip(ratios, u):
            w *= r ** uj
        weights.append(w)
    total = sum(weights)
    return tuple(w / total for w in weights)
