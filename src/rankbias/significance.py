"""Statistical significance for group-level measures: permutation tests over
protected-class labels and percentile bootstrap intervals over users.

Both are deterministic given a seed: the full stream of permutations or
resamples is generated up front from one PCG64 generator, so results do not
depend on evaluation order.

Replicates run in blocks on the group-measure engine of the measures
module, which evaluates the verdicts too: each block is a pair of weight
matrices, one row per replicate, evaluated with a few matrix products and
row-wise sorts per query (for Kemeny, one small subset program per row). A
block holds as many replicates as fit one weight row per user in a fixed
byte budget. With one-hot annotations no result depends on where the
blocks break.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _vector
from .errors import InputError, ParameterError
from .measures import GROUP_MEASURES, AuditInput, _aggregate_queries, _individual_violations, _RankContext

RESAMPLABLE_MEASURES = GROUP_MEASURES + ("individual_user_bias",)

_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of a permutation test with the add-one p-value convention:
    p = (1 + #{null >= observed}) / (1 + n_permutations)."""

    observed: float
    null_mean: float
    null_sd: float
    null_quantiles: dict[str, float]
    p_value: float
    n_permutations: int
    seed: int

    def to_dict(self) -> dict[str, object]:
        return {
            "observed": self.observed,
            "null_mean": self.null_mean,
            "null_sd": self.null_sd,
            "null_quantiles": self.null_quantiles,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "seed": self.seed,
        }


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 2**64:
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def permutation_test(
    inp: AuditInput,
    measure: str,
    n_permutations: int,
    seed: int,
) -> SignificanceResult:
    """Shuffle the protected-class labels across profiles ``n_permutations``
    times and recompute the named group-level measure each time.

    One-sided: bias magnitudes are non-negative deviations, so only
    null >= observed counts against the observation. The sampling unit is
    the user; query-level dependence is not modelled.
    """
    return _permutation_test(_RankContext(inp), measure, n_permutations, seed)


def _permutation_test(context: _RankContext, measure: str, n_permutations: int, seed: int) -> SignificanceResult:
    if measure not in GROUP_MEASURES:
        raise ParameterError(f"permutation test supports group measures {GROUP_MEASURES}, got {measure!r}")
    if n_permutations < 100:
        raise ParameterError(f"n_permutations must be >= 100, got {n_permutations!r}")
    _check_seed(seed)
    labels = context.observed()[0][0]
    n_users = labels.size

    rng = np.random.default_rng(seed)
    # argsort of iid uniforms: one uniform random permutation per row,
    # pre-generated so evaluation order cannot affect the stream
    permutations = np.argsort(rng.random((n_permutations, n_users)), axis=1)

    def labelling(block: slice) -> tuple[np.ndarray, np.ndarray]:
        # replicate 0 is the observed labelling, replicate i the i-th permutation
        order = permutations[max(block.start - 1, 0) : block.stop - 1]
        if block.start == 0:
            order = np.vstack([np.arange(n_users), order])
        shuffled = labels[order]
        return shuffled, 1.0 - shuffled

    evaluate = _make_evaluator(context, measure, 1 + n_permutations, labelling)
    observed = evaluate(0)
    null = np.array([evaluate(r) for r in range(1, 1 + n_permutations)], dtype=np.float64)

    p_value = (1.0 + int((null >= observed).sum())) / (1.0 + n_permutations)
    quantiles = {f"q{int(q * 100):02d}": float(v) for q, v in zip(_QUANTILES, np.quantile(null, _QUANTILES))}
    return SignificanceResult(
        observed=float(observed),
        null_mean=float(null.mean()),
        null_sd=float(null.std()),
        null_quantiles=quantiles,
        p_value=float(p_value),
        n_permutations=n_permutations,
        seed=seed,
    )


def bootstrap_ci(
    inp: AuditInput,
    measure: str,
    n_resamples: int,
    confidence_level: float,
    seed: int,
) -> tuple[float, float]:
    """Percentile bootstrap interval for a measure's magnitude, resampling
    users with replacement (stratified by class for group measures) and
    carrying their result lists."""
    if measure not in RESAMPLABLE_MEASURES:
        raise ParameterError(f"bootstrap supports measures {RESAMPLABLE_MEASURES}, got {measure!r}")
    if n_resamples < 100:
        raise ParameterError(f"n_resamples must be >= 100, got {n_resamples!r}")
    if not (0.0 < confidence_level < 1.0):
        raise ParameterError(f"confidence_level must lie in (0, 1), got {confidence_level!r}")
    _check_seed(seed)
    users = inp.user_ids()
    if len(users) < 5:
        raise InputError(f"bootstrap needs at least 5 users, got {len(users)}")
    rng = np.random.default_rng(seed)
    stats = np.empty(n_resamples, dtype=np.float64)

    if measure == "individual_user_bias":
        # duplicate members form zero-violation pairs, so a resample's
        # magnitude is the largest violation among its distinct users
        _, violation = _individual_violations(inp)
        n = len(users)
        draws = rng.integers(0, n, size=(n_resamples, n))
        for r in range(n_resamples):
            members = np.unique(draws[r])
            stats[r] = violation[np.ix_(members, members)].max()
    else:
        context = _RankContext(inp)
        in_p = context.observed()[0][0] > 0.0
        p_pos, q_pos = np.flatnonzero(in_p), np.flatnonzero(~in_p)
        draws_p = rng.integers(0, p_pos.size, size=(n_resamples, p_pos.size))
        draws_q = rng.integers(0, q_pos.size, size=(n_resamples, q_pos.size))

        def resampled(block: slice) -> tuple[np.ndarray, np.ndarray]:
            return (
                _multiplicities(p_pos[draws_p[block]], len(users)),
                _multiplicities(q_pos[draws_q[block]], len(users)),
            )

        evaluate = _make_evaluator(context, measure, n_resamples, resampled)
        for r in range(n_resamples):
            stats[r] = evaluate(r)

    alpha = 1.0 - confidence_level
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# replicated evaluation


def _block_rows(n_users: int) -> int:
    """Replicates per evaluated block: as many weight rows (8 bytes per
    user) as fit the list kernels' chunk budget."""
    return max(1, _vector._CHUNK_BYTES // (8 * n_users))


def _multiplicities(drawn: np.ndarray, n_users: int) -> np.ndarray:
    """Per-user counts [R x users] of each row's drawn user positions."""
    offsets = drawn + n_users * np.arange(len(drawn))[:, None]
    return np.bincount(offsets.ravel(), minlength=n_users * len(drawn)).reshape(-1, n_users).astype(np.float64)


def _make_evaluator(
    context: _RankContext,
    measure: str,
    n_replicates: int,
    weights: Callable[[slice], tuple[np.ndarray, np.ndarray]],
) -> Callable[[int], float]:
    """Return f(r) -> the magnitude of replicate r < ``n_replicates``, where
    ``weights(block)`` gives the weight blocks (W_P, W_Q) of a slice of
    replicates. Replicate 0 is evaluated on its own, as a verdict is: a
    matrix product over fractional annotations may round differently with
    more rows. The others are evaluated a block of ``_block_rows`` at a
    time, when a row of the block is first asked for."""
    rows = _block_rows(len(context.users))
    held: dict[int, np.ndarray] = {}

    def replicate(r: int) -> float:
        start = 0 if r == 0 else r - (r - 1) % rows
        if start not in held:
            held.clear()
            stop = 1 if r == 0 else min(start + rows, n_replicates)
            result = context.evaluate(measure, *weights(slice(start, stop)))
            held[start] = _aggregate_queries(result.per_query, context.cfg.query_aggregation)
        return held[start][r - start]

    return replicate
