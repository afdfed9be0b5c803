"""Domain types shared by every module: datasets, propensity models,
policies, safety specifications, and hyperparameters.

Actions are 1-indexed integers in {1..K}; outcome and guardrail indices are
1-indexed everywhere in the public API.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .bounds import LowerBoundTable

__all__ = [
    "PropensityModel",
    "ConstantPropensity",
    "TabularPropensity",
    "Dataset",
    "Policy",
    "UniformPolicy",
    "LoggingPolicy",
    "SafetySpec",
    "Hyperparams",
    "ScanRecord",
    "Svt",
    "Split",
    "Trace",
    "validate_dataset",
]


class PropensityModel:
    """Known logging propensities e(k, x) with positivity floor c.

    Subclasses implement ``matrix`` returning the (n, K) array of
    probabilities for a covariate matrix.
    """

    n_actions: int
    c: float

    def matrix(self, covariates: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantPropensity(PropensityModel):
    """Covariate-independent propensities, e.g. a Bernoulli(0.5) experiment."""

    def __init__(self, probs: Sequence[float]):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty vector")
        self.probs = probs
        self.n_actions = probs.size
        self.c = float(probs.min())

    def matrix(self, covariates: np.ndarray) -> np.ndarray:
        n = np.asarray(covariates).shape[0]
        return np.broadcast_to(self.probs, (n, self.n_actions)).copy()


class TabularPropensity(PropensityModel):
    """Per-row propensities supplied alongside the data (CSV columns e1..eK).

    Only defined at the rows it was built from, which suffices for
    estimation on the same dataset.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be an (n, K) matrix")
        self.values = values
        self.n_actions = values.shape[1]
        self.c = float(values.min())

    def matrix(self, covariates: np.ndarray) -> np.ndarray:
        n = np.asarray(covariates).shape[0]
        if n != self.values.shape[0]:
            raise ValueError("tabular propensities are tied to their dataset rows")
        return self.values


@dataclass(frozen=True)
class Dataset:
    """Logged data stored columnwise: X (n, d_X), A (n,) in {1..K}, Y (n, d_Y)."""

    covariates: np.ndarray
    actions: np.ndarray
    outcomes: np.ndarray
    propensity: PropensityModel

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_actions(self) -> int:
        return self.propensity.n_actions

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[1]


class Policy:
    """Stochastic treatment rule pi(. | x) over K actions."""

    policy_id: str
    n_actions: int

    def distribution(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        """(n, K) action probabilities; subclasses override for speed."""
        X = np.asarray(covariates, dtype=float)
        return np.stack([self.distribution(X[i]) for i in range(X.shape[0])])


class UniformPolicy(Policy):
    """Plays every action with probability 1/K."""

    def __init__(self, n_actions: int, policy_id: str = "uniform"):
        self.n_actions = n_actions
        self.policy_id = policy_id

    def distribution(self, x: np.ndarray) -> np.ndarray:
        return np.full(self.n_actions, 1.0 / self.n_actions)

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        n = np.asarray(covariates).shape[0]
        return np.full((n, self.n_actions), 1.0 / self.n_actions)


class LoggingPolicy(Policy):
    """The logging policy itself: pi(k, x) = e(k, x)."""

    def __init__(self, propensity: PropensityModel, policy_id: str = "logging"):
        self.propensity = propensity
        self.n_actions = propensity.n_actions
        self.policy_id = policy_id

    def distribution(self, x: np.ndarray) -> np.ndarray:
        return self.propensity.matrix(np.asarray(x, dtype=float).reshape(1, -1))[0]

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        return self.propensity.matrix(covariates)


@dataclass(frozen=True)
class SafetySpec:
    """Goal index g, ordered guardrail indices S, weights w (each <= 0),
    error level alpha, and per-guardrail sense flags.

    A lower-sense guardrail j requires V_j(pi) - (1+w_j) V_j(pi0) >= 0;
    an upper-sense guardrail requires <= 0 and its bound adds the width.
    """

    goal: int
    guardrails: tuple[int, ...]
    weights: tuple[float, ...]
    alpha: float
    senses: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "guardrails", tuple(int(j) for j in self.guardrails))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.senses is None:
            object.__setattr__(self, "senses", tuple("lower" for _ in self.guardrails))
        else:
            object.__setattr__(self, "senses", tuple(str(s) for s in self.senses))
        if len(self.guardrails) == 0:
            raise ValueError("guardrail set S must be nonempty")
        if len(self.weights) != len(self.guardrails):
            raise ValueError("w length must match |S|")
        if len(self.senses) != len(self.guardrails):
            raise ValueError("senses length must match |S|")
        if any(w > 0 for w in self.weights):
            raise ValueError("guardrail weights must be nonpositive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.goal < 1:
            raise ValueError("goal outcome index must be >= 1")
        if any(j < 1 for j in self.guardrails):
            raise ValueError("guardrail indices must be >= 1")
        if any(s not in ("lower", "upper") for s in self.senses):
            raise ValueError("sense must be 'lower' or 'upper'")

    @property
    def s_count(self) -> int:
        return len(self.guardrails)

    def sign(self, s: int) -> float:
        """+1 for lower sense, -1 for upper; index s is 0-based into S."""
        return 1.0 if self.senses[s] == "lower" else -1.0

    @property
    def signs(self) -> np.ndarray:
        """sign(s) for every guardrail, in S order."""
        return np.array([self.sign(s) for s in range(self.s_count)])

    def to_json_dict(self) -> dict:
        return {
            "goal": self.goal,
            "guardrails": list(self.guardrails),
            "weights": list(self.weights),
            "alpha": self.alpha,
            "senses": list(self.senses),
        }


@dataclass(frozen=True)
class ScanRecord:
    policy_id: str
    margin: float
    noise: float
    admitted: bool


@dataclass(frozen=True)
class Svt:
    """snpl's scan block: the constants that set the noise (gamma, epsilon,
    delta*, alpha', eta, B and its floor, p), the in-loop bound, the SVT
    scales, the threshold draw, and one record per scanned candidate."""

    gamma: float
    epsilon: float
    delta_star: float
    alpha_prime: float
    eta: int
    eta_source: str
    B: float
    B_floor: float
    p: float
    in_loop: str
    loop_n_sim: int
    threshold_scale: float
    query_scale: float
    threshold_noise: float
    records: tuple[ScanRecord, ...]


@dataclass(frozen=True, eq=False)
class Split:
    """A ``ds-*`` row partition: the sorted first floor(rho n) entries of one
    seeded permutation learn, the sorted rest test. Traces record the counts
    and a hash of the learning rows, not the rows."""

    rho: float
    learning: np.ndarray
    testing: np.ndarray


# JSON homes of the scan block's fields in a trace.
_SVT_JSON = {
    "hyper": (
        "gamma", "epsilon", "eta", "eta_source", "B", "B_floor", "p", "in_loop", "loop_n_sim"
    ),
    "stability": ("delta_star", "alpha_prime"),
    "svt": ("threshold_scale", "query_scale", "threshold_noise"),
}


@dataclass(frozen=True)
class Trace:
    """Complete record of one run of any method; reconstructs the decision.

    Optional blocks: ``svt`` (snpl's scan), ``split`` (a ``ds-*`` row
    partition) and ``selected_id``/``selected_score`` (a ``ds-*`` learning
    selection). ``scores`` is snpl's (n, K, d_Y) per-arm score array, kept
    for the bounds scatter and not serialized.
    """

    method: str
    mode: str
    n: int
    class_size: int
    baseline_id: str
    spec: SafetySpec
    folds: int
    n_sim: int
    pruned_ids: tuple[str, ...]
    final: LowerBoundTable
    goal_values: dict
    baseline_goal_value: float
    certified_ids: tuple[str, ...]
    decision: str
    seed: tuple
    svt: Svt | None = None
    split: Split | None = None
    selected_id: str | None = None
    selected_score: float | None = None
    scores: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def is_baseline(self) -> bool:
        return self.decision == self.baseline_id

    @property
    def scan(self) -> tuple[ScanRecord, ...]:
        """The scanned candidates' records; empty without a scan block."""
        return self.svt.records if self.svt is not None else ()

    def to_json_dict(self) -> dict:
        """Schema version 2. A split is written as its sizes and the SHA-256
        of the learning rows as little-endian int64; the rows themselves
        follow from the recorded seed."""
        out = {
            "schema_version": 2,
            "method": self.method,
            "mode": self.mode,
            "n": self.n,
            "class_size": self.class_size,
            "baseline": self.baseline_id,
            "spec": self.spec.to_json_dict(),
            "hyper": {"folds": self.folds, "n_sim": self.n_sim},
            "pruned": list(self.pruned_ids),
            "final_bounds": self.final.to_json_dict(),
            "goal_values": dict(self.goal_values),
            "baseline_goal_value": self.baseline_goal_value,
            "certified": list(self.certified_ids),
            "decision": self.decision,
            "is_baseline": self.is_baseline,
            "seed": list(self.seed),
        }
        if self.svt is not None:
            for block, names in _SVT_JSON.items():
                out.setdefault(block, {}).update({k: getattr(self.svt, k) for k in names})
            out["svt"]["scan"] = [
                {"policy": r.policy_id, "margin": r.margin, "noise": r.noise,
                 "admitted": r.admitted}
                for r in self.svt.records
            ]
        if self.split is not None:
            rows = np.asarray(self.split.learning, dtype="<i8")
            out["split"] = {
                "rho": self.split.rho,
                "learning_count": len(self.split.learning),
                "testing_count": len(self.split.testing),
                "rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
            }
        if self.selected_id is not None:
            out["learning"] = {"selected": self.selected_id, "score": self.selected_score}
        return out


# Fewest sup-t simulation draws ``bounds.supt_quantile`` accepts; every
# config that carries an n_sim checks it when built.
MIN_N_SIM = 100


@dataclass(frozen=True)
class Hyperparams:
    """Algorithm knobs; defaults mirror the benchmark settings.

    epsilon defaults to gamma / sqrt(n); set it explicitly to override.
    eta=None selects the size heuristic; B=None the Theorem 1 sensitivity.
    in_loop is snpl's asymptotic-mode scan bound, a Bonferroni-normal
    quantile per candidate or sup-t over pruned + candidate with loop_n_sim
    draws (None: n_sim).
    """

    gamma: float = 0.1
    eta: int | None = None
    B: float | None = None
    p: float = 0.5
    n_sim: int = 100_000
    folds: int = 5
    epsilon: float | None = None
    in_loop: str = "bonferroni-normal"
    loop_n_sim: int | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.eta is not None and self.eta < 1:
            raise ValueError("eta must be >= 1")
        if self.n_sim < MIN_N_SIM:
            raise ValueError(f"n_sim must be >= {MIN_N_SIM}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.p < 1:
            raise ValueError("p must be < 1")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon override must be positive")
        if self.in_loop not in ("bonferroni-normal", "supt"):
            raise ValueError("in_loop must be 'bonferroni-normal' or 'supt'")
        if self.loop_n_sim is not None and self.loop_n_sim < MIN_N_SIM:
            raise ValueError(f"loop_n_sim must be >= {MIN_N_SIM}")


def normalize_seed(seed) -> np.random.SeedSequence:
    """A run's root seed sequence: passed through, or built from an int or
    entropy tuple."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def seed_tuple(seed_seq: np.random.SeedSequence) -> tuple:
    """Entropy plus spawn key, the tuple a trace records to name its seed."""
    ent = seed_seq.entropy
    base = tuple(ent) if isinstance(ent, (tuple, list)) else (int(ent),)
    return base + tuple(seed_seq.spawn_key)


def validate_dataset(dataset: Dataset) -> None:
    """Checks the logged-data assumptions; raises ValueError with the
    offending row index on the first violation. Idempotent and side-effect
    free.
    """
    X, A, Y = dataset.covariates, dataset.actions, dataset.outcomes
    if X.ndim != 2 or Y.ndim != 2 or A.ndim != 1:
        raise ValueError("dimension mismatch: expected X (n,d_X), A (n,), Y (n,d_Y)")
    n = X.shape[0]
    if n == 0:
        raise ValueError("dataset must be nonempty")
    if A.shape[0] != n or Y.shape[0] != n:
        raise ValueError("dimension mismatch: rows of X, A, Y differ")
    if not np.all(np.isfinite(X)):
        i = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
        raise ValueError(f"non-finite covariate at row {i}")
    K = dataset.n_actions
    bad = (A < 1) | (A > K)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"action out of range at row {i}")
    out = (Y < 0.0) | (Y > 1.0) | ~np.isfinite(Y)
    if out.any():
        i = int(np.argmax(out.any(axis=1)))
        raise ValueError(f"outcome out of range at row {i}")
    E = dataset.propensity.matrix(X)
    if E.shape != (n, K):
        raise ValueError("propensity matrix shape mismatch")
    if np.any(E <= 0.0):
        i = int(np.argmax((E <= 0.0).any(axis=1)))
        raise ValueError(f"positivity violated at row {i}")
    c = dataset.propensity.c
    if not 0.0 < c < 1.0:
        raise ValueError("positivity floor c must lie in (0, 1)")
    if np.any(E < c - 1e-12):
        i = int(np.argmax((E < c - 1e-12).any(axis=1)))
        raise ValueError(f"propensity below floor at row {i}")
    rowsum = E.sum(axis=1)
    if np.any(np.abs(rowsum - 1.0) > 1e-8):
        i = int(np.argmax(np.abs(rowsum - 1.0) > 1e-8))
        raise ValueError(f"propensities do not sum to 1 at row {i}")
