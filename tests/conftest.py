import numpy as np
import pytest

from snpl.core import ConstantPropensity, Dataset, SafetySpec, TabularPropensity


def make_dataset(X, A, Y, probs=(0.5, 0.5)) -> Dataset:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    A = np.asarray(A, dtype=np.int64)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != X.shape[0]:
        Y = Y.T
    return Dataset(X, A, Y, ConstantPropensity(probs))


def random_dataset(rng: np.random.Generator, n: int, d_x: int = 2, d_y: int = 2,
                   probs=(0.5, 0.5)) -> Dataset:
    K = len(probs)
    X = rng.random((n, d_x))
    A = rng.integers(1, K + 1, size=n)
    Y = rng.random((n, d_y))
    return Dataset(X, A, Y, ConstantPropensity(probs))


def tabular_generate(n: int, rng: np.random.Generator) -> Dataset:
    """The synthetic outcome model of ``snpl.synthetic.generate`` under a
    covariate-dependent logging policy, P(A = 1 | x) = 0.3 + 0.4 x3, whose
    per-row propensities ride along as a TabularPropensity."""
    X = rng.random((n, 3))
    e1 = 0.3 + 0.4 * X[:, 2]
    treated = rng.random(n) < e1
    A = np.where(treated, 1, 2).astype(np.int64)
    y1 = rng.random(n) < 0.5 * (1.0 - treated * X[:, 1])
    y2 = rng.random(n) < 0.5 * (1.0 + treated * X[:, 0] * X[:, 2])
    Y = np.column_stack([y1, y2]).astype(float)
    return Dataset(X, A, Y, TabularPropensity(np.column_stack([e1, 1.0 - e1])))


@pytest.fixture
def spec_two_guardrails() -> SafetySpec:
    return SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
