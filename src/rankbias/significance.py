"""Statistical significance for group-level measures: permutation tests over
protected-class labels and percentile bootstrap intervals over users.

Both are deterministic given a seed: every replicate comes from one PCG64
generator, in a fixed order. Bootstrap resamples are drawn up front.
Permutations are drawn a block at a time, when the block is evaluated:
``Generator.random`` fills doubles in stream order, so the blocks' draws
are the rows of one draw of them all, wherever the blocks break.

Replicates run in blocks on the group-measure engine of the measures
module, which evaluates the verdicts too: each block is a pair of weight
matrices, one row per replicate, evaluated with a few matrix products and
row-wise sorts per query (for Kemeny, one small subset program per row). A
block holds as many replicates as fit one weight row per user in a fixed
byte budget, so a test's memory grows with the users, not with the
permutations. One pass serves every tested measure: the measures share the
seed, hence the permutations, and each block's class representatives and
distributions are built once for all of them. No result depends on where
the blocks break, for any annotation weights: every sum over a row is exact
or runs in a fixed order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import _vector
from .errors import InputError, ParameterError
from .measures import GROUP_MEASURES, AuditInput, _aggregate_queries, _individual_violations, _RankContext
from .types import _is_number, from_json

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
        return asdict(self)


def _check_seed(seed: int) -> int:
    """``seed`` as a Python int: an int or numpy integer (never a bool) in [0, 2^64)."""
    seed = int(from_json(int, seed, "seed", ParameterError))
    if not 0 <= seed < 2**64:
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
    return _permutation_tests(_RankContext(inp), (measure,), n_permutations, seed)[measure]


def _check_permutation_test(measures: tuple[str, ...], n_permutations: int) -> int:
    """``n_permutations`` as a Python int, once the count and every measure are checked."""
    for measure in measures:
        if measure not in GROUP_MEASURES:
            raise ParameterError(f"permutation test supports group measures {GROUP_MEASURES}, got {measure!r}")
    if from_json(int, n_permutations, "n_permutations", ParameterError) < 100:
        raise ParameterError(f"n_permutations must be >= 100, got {n_permutations!r}")
    return int(n_permutations)


def _permutation_tests(
    context: _RankContext, measures: Sequence[str], n_permutations: int, seed: int
) -> dict[str, SignificanceResult]:
    """One permutation pass over the same label permutations for every
    measure in ``measures``, and each measure's test."""
    measures = tuple(dict.fromkeys(measures))
    n_permutations = _check_permutation_test(measures, n_permutations)
    seed = _check_seed(seed)
    labels = context.observed()[0][0]
    n_users = labels.size
    rng = np.random.default_rng(seed)

    def labelling(block: slice) -> tuple[np.ndarray, np.ndarray]:
        # replicate 0 is the observed labelling, replicate i the i-th
        # permutation: the argsort of a row of iid uniforms, drawn when its
        # block is evaluated (blocks run in order, each once)
        order = np.argsort(rng.random((block.stop - max(block.start, 1), n_users)), axis=1)
        if block.start == 0:
            order = np.vstack([np.arange(n_users), order])
        shuffled = labels[order]
        return shuffled, 1.0 - shuffled

    evaluate = _make_evaluator(context, measures, 1 + n_permutations, labelling)
    # [measures x replicates], each measure's null contiguous
    magnitudes = np.array([evaluate(r) for r in range(1 + n_permutations)], dtype=np.float64).T.copy()
    return {measure: _significance(row[0], row[1:], seed) for measure, row in zip(measures, magnitudes)}


def _significance(observed: np.float64, null: np.ndarray, seed: int) -> SignificanceResult:
    p_value = (1.0 + int((null >= observed).sum())) / (1.0 + null.size)
    quantiles = {f"q{int(q * 100):02d}": float(v) for q, v in zip(_QUANTILES, np.quantile(null, _QUANTILES))}
    return SignificanceResult(
        observed=float(observed),
        null_mean=float(null.mean()),
        null_sd=float(null.std()),
        null_quantiles=quantiles,
        p_value=float(p_value),
        n_permutations=null.size,
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
    if from_json(int, n_resamples, "n_resamples", ParameterError) < 100:
        raise ParameterError(f"n_resamples must be >= 100, got {n_resamples!r}")
    if not (_is_number(confidence_level) and 0.0 < confidence_level < 1.0):
        raise ParameterError(f"confidence_level must lie in (0, 1), got {confidence_level!r}")
    seed = _check_seed(seed)
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

        evaluate = _make_evaluator(context, (measure,), n_resamples, resampled)
        for r in range(n_resamples):
            stats[r] = evaluate(r)[0]

    alpha = 1.0 - confidence_level
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# replicated evaluation


def _multiplicities(drawn: np.ndarray, n_users: int) -> np.ndarray:
    """Per-user counts [R x users] of each row's drawn user positions."""
    offsets = drawn + n_users * np.arange(len(drawn))[:, None]
    return np.bincount(offsets.ravel(), minlength=n_users * len(drawn)).reshape(-1, n_users).astype(np.float64)


def _make_evaluator(
    context: _RankContext,
    measures: Sequence[str],
    n_replicates: int,
    weights: Callable[[slice], tuple[np.ndarray, np.ndarray]],
) -> Callable[[int], np.ndarray]:
    """Return f(r) -> the magnitude of each of ``measures`` [measures] in
    replicate r < ``n_replicates``, where ``weights(block)`` gives the
    weight blocks (W_P, W_Q) of a slice of replicates. Replicates are
    evaluated a block at a time, in order, when a row of the block is first
    asked for; a block holds as many replicates as fit one weight row (8
    bytes per user) each in the list kernels' chunk budget. A measure whose
    evaluation raises in a block raises from f, the first in ``measures``
    order."""
    rows = max(1, _vector._CHUNK_BYTES // (8 * len(context.users)))

    @lru_cache(maxsize=1)
    def block(start: int) -> np.ndarray:
        result = context.evaluate(measures, *weights(slice(start, min(start + rows, n_replicates))))
        for measure in measures:
            if measure in result.errors:
                raise result.errors[measure]
        per_query = np.stack([result.per_query[measure] for measure in measures], axis=1)
        return _aggregate_queries(per_query, context.cfg.query_aggregation)

    return lambda r: block(r - r % rows)[r % rows]
