"""Domain types shared by every module: datasets, policies, safety
specifications, and hyperparameters.

Actions are 1-indexed integers in {1..K}; outcome and guardrail indices are
1-indexed everywhere in the public API.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .bounds import LowerBoundTable

__all__ = [
    "Dataset",
    "Policy",
    "ThresholdPolicy",
    "FEATURES",
    "SafetySpec",
    "Hyperparams",
    "ScanRecord",
    "Svt",
    "Split",
    "Trace",
    "validate_dataset",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Logged data stored columnwise: X (n, d_X), A (n,) in {1..K}, Y (n, d_Y),
    and the known logging propensities e(k, x_i) as an (n, K) array (a
    covariate-independent design passes ``np.broadcast_to(probs, (n, K))``).

    Valid by construction: building one checks the logged-data assumptions
    the bounds rest on and raises ValueError naming the first offending row.
    It then marks the four arrays it holds read-only, in place, so they
    stay as checked; views of the same memory made before are not covered.
    ``c`` is the positivity floor, the smallest propensity. Datasets compare
    and hash by identity, as arrays have no single truth value.
    """

    covariates: np.ndarray
    actions: np.ndarray
    outcomes: np.ndarray
    propensities: np.ndarray
    c: float = field(init=False)

    def __post_init__(self):
        validate_dataset(self)
        for array in (self.covariates, self.actions, self.outcomes, self.propensities):
            array.flags.writeable = False
        object.__setattr__(self, "c", float(self.propensities.min()))

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_actions(self) -> int:
        return self.propensities.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[1]


class Policy:
    """Stochastic treatment rule pi(. | x) over K actions."""

    policy_id: str
    n_actions: int

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        """(n, K) action probabilities pi(k | x_i), one row per covariate row."""
        raise NotImplementedError


FEATURES = ("g1", "g2", "g3", "g4", "g5")


def _feature(name: str, X: np.ndarray) -> np.ndarray:
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    if name == "g1":
        return x1
    if name == "g2":
        return x2
    if name == "g3":
        return x1 * x2
    if name == "g4":
        return x1 * x2 * x3
    if name == "g5":
        return -x1 * x2 * x3
    raise ValueError(f"unknown feature function '{name}'")


class ThresholdPolicy(Policy):
    """Deterministic rule: treat (action 1) iff g(x) < c, strict inequality."""

    n_actions = 2

    def __init__(self, feature: str, cutoff: float):
        if feature not in FEATURES:
            raise ValueError(f"unknown feature function '{feature}'")
        if not 0.0 <= cutoff <= 1.0:
            raise ValueError("cutoff must lie in [0, 1]")
        self.feature = feature
        self.cutoff = float(cutoff)
        self.policy_id = f"{feature}@{self.cutoff:.10g}"

    def feature_values(self, covariates: np.ndarray) -> np.ndarray:
        """g(x) per row; shared by every policy of the same family."""
        return _feature(self.feature, np.asarray(covariates, dtype=float))

    def treat_mask(self, covariates: np.ndarray) -> np.ndarray:
        return self.feature_values(covariates) < self.cutoff

    def prob_matrix(self, covariates: np.ndarray) -> np.ndarray:
        m = self.treat_mask(covariates).astype(float)
        return np.column_stack([m, 1.0 - m])


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
    delta*, alpha', eta, B and its floor, p), the SVT scales, the threshold
    draw, and one record per scanned candidate."""

    gamma: float
    epsilon: float
    delta_star: float
    alpha_prime: float
    eta: int
    eta_source: str
    B: float
    B_floor: float
    p: float
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
    "hyper": ("gamma", "epsilon", "eta", "eta_source", "B", "B_floor", "p"),
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
    def certified_ids(self) -> tuple[str, ...]:
        """The policies the final bounds certify, in table order."""
        return tuple(self.final.certified_ids())

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

    The scan's privacy level is epsilon = gamma / sqrt(n), under which
    alpha'(delta*) does not depend on n. eta=None selects the size
    heuristic; B=None the Theorem 1 sensitivity.
    """

    gamma: float = 0.1
    eta: int | None = None
    B: float | None = None
    p: float = 0.5
    n_sim: int = 100_000
    folds: int = 5

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


def run_streams(seed, count: int) -> tuple[tuple, list[np.random.Generator]]:
    """A run's random streams: the seed a trace records (the root's entropy
    plus spawn key) and ``count`` generators on the root's spawned
    children, in order. The root is ``seed`` itself when it is a
    SeedSequence, else the SeedSequence of an int or entropy tuple."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ent = root.entropy
    recorded = (tuple(ent) if isinstance(ent, (tuple, list)) else (int(ent),)) + root.spawn_key
    return recorded, [np.random.default_rng(child) for child in root.spawn(count)]


def validate_dataset(dataset: Dataset) -> None:
    """Checks the logged-data assumptions; raises ValueError with the
    offending row index on the first violation. Idempotent and side-effect
    free. ``Dataset`` calls it when built, through this module's global
    name, so a wrapper bound to that name sees every call.
    """
    X, A, Y = dataset.covariates, dataset.actions, dataset.outcomes
    E = dataset.propensities
    if X.ndim != 2 or Y.ndim != 2 or A.ndim != 1 or E.ndim != 2:
        raise ValueError(
            "dimension mismatch: expected X (n,d_X), A (n,), Y (n,d_Y), propensities (n,K)"
        )
    n = X.shape[0]
    if n == 0:
        raise ValueError("dataset must be nonempty")
    if A.shape[0] != n or Y.shape[0] != n or E.shape[0] != n:
        raise ValueError("dimension mismatch: rows of X, A, Y, propensities differ")
    if not np.all(np.isfinite(X)):
        i = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
        raise ValueError(f"non-finite covariate at row {i}")
    K = E.shape[1]
    if K < 2:
        raise ValueError("propensities must cover at least two actions")
    bad = (A < 1) | (A > K)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"action out of range at row {i}")
    out = (Y < 0.0) | (Y > 1.0) | ~np.isfinite(Y)
    if out.any():
        i = int(np.argmax(out.any(axis=1)))
        raise ValueError(f"outcome out of range at row {i}")
    nonpositive = ~(E > 0.0)  # NaN included
    if nonpositive.any():
        i = int(np.argmax(nonpositive.any(axis=1)))
        raise ValueError(f"positivity violated at row {i}")
    rowsum = E.sum(axis=1)
    if np.any(np.abs(rowsum - 1.0) > 1e-8):
        i = int(np.argmax(np.abs(rowsum - 1.0) > 1e-8))
        raise ValueError(f"propensities do not sum to 1 at row {i}")
