"""Non-maximum suppression and count-constrained region selection.

The selector picks a set of high-scoring regions whose size is bounded by a
per-image object count, rejecting any candidate whose directed overlap with an
already chosen region reaches a threshold. Because the overlap ratio is
measured against the candidate's own area, sub-regions of a chosen box are
excluded no matter how small they are, while a large box drawn around a small
chosen one is not. An exhaustive solver over the same objective doubles as a
verification oracle for the greedy path.

Suppression and greedy selection are index walks over per-region conflict
bitmasks (``conflict_masks``): overlaps are compared with the threshold once,
when the masks are built, and the walks only test and set bits. ``nms`` and
``crs_greedy`` build the masks from their inputs; the refinement loop builds
them once per image and run, because boxes and thresholds stay fixed there,
and calls the same walks (``suppress``, ``greedy_walk``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Box, area, pairwise_overlaps

__all__ = [
    "DEFAULT_OVERLAP_THRESHOLD",
    "DEFAULT_NMS_THRESHOLD",
    "DEFAULT_ENUMERATION_CAP",
    "CapacityError",
    "ScoredRegion",
    "SelectionProblem",
    "SelectionResult",
    "conflict_masks",
    "rank_order",
    "suppress",
    "greedy_walk",
    "nms",
    "filter_by_min_size",
    "crs_greedy",
    "crs_exact",
]

# Directed-overlap threshold for selection; one value works across datasets.
DEFAULT_OVERLAP_THRESHOLD = 0.1
# IoU threshold for suppression before selection.
DEFAULT_NMS_THRESHOLD = 0.3
# The exhaustive solver enumerates subsets of size <= count; refuse inputs
# where that blows up.
DEFAULT_ENUMERATION_CAP = 20


class CapacityError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class ScoredRegion:
    """A candidate box with a confidence score and a stable identifier."""

    box: Box
    score: float
    region_id: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class SelectionProblem:
    """One selection instance: candidate regions, a target count, a threshold."""

    regions: tuple[ScoredRegion, ...]
    count: int
    threshold: float = DEFAULT_OVERLAP_THRESHOLD

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        ids = [r.region_id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise ValueError("region_ids must be unique within a problem")


@dataclass(frozen=True)
class SelectionResult:
    """Chosen region ids in selection order, their score sum, and a size flag.

    ``complete`` is True when the selection reached the requested count.
    """

    selected: tuple[int, ...]
    total_score: float
    complete: bool


def _by_rank(regions: Iterable[ScoredRegion]) -> list[ScoredRegion]:
    # Canonical processing order: score descending, ties by region_id.
    return sorted(regions, key=lambda r: (-r.score, r.region_id))


def _box_array(regions: Sequence[ScoredRegion]) -> np.ndarray:
    return np.array([r.box.as_tuple() for r in regions], dtype=float).reshape(-1, 4)


def conflict_masks(overlap: np.ndarray, threshold: float) -> list[int]:
    """One bitmask per row: bit k of row i is set when ``overlap[i, k]`` is not below ``threshold``."""
    hits = np.packbits(~(overlap < threshold), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in hits]


def rank_order(scores: Sequence[float], by_id: Sequence[int]) -> list[int]:
    """Positions in rank order: score descending, ties by region_id.

    ``by_id`` lists the positions sorted by region_id; the stable sort keeps
    that order among equal scores.
    """
    return sorted(by_id, key=scores.__getitem__, reverse=True)


def suppress(order: Iterable[int], masks: Sequence[int]) -> list[int]:
    """NMS walk: keep each position whose mask hits no position kept before it."""
    kept = []
    kept_mask = 0
    for i in order:
        if not masks[i] & kept_mask:
            kept.append(i)
            kept_mask |= 1 << i
    return kept


def greedy_walk(
    order: Sequence[int], scores: Sequence[float], masks: Sequence[int], count: int
) -> tuple[list[int], float]:
    """Greedy count-constrained walk; see ``crs_greedy`` for the rule.

    ``masks[j]`` has bit k set when candidate j may not join a set holding k.
    Returns the winning positions in selection order and their score sum.
    """
    best: list[int] = []
    best_score = 0.0
    for start, seed in enumerate(order):
        chosen = [seed]
        total = scores[seed]
        if count > 1:
            chosen_mask = 1 << seed
            for j in order[start + 1 :]:
                if not masks[j] & chosen_mask:
                    chosen.append(j)
                    chosen_mask |= 1 << j
                    total += scores[j]
                    if len(chosen) == count:
                        break
        if not best or total > best_score:
            best = chosen
            best_score = total
    return best, best_score


def nms(
    regions: Sequence[ScoredRegion], iou_threshold: float = DEFAULT_NMS_THRESHOLD
) -> list[ScoredRegion]:
    """Greedy suppression: keep a region iff its IoU with every kept one is below the threshold.

    Returns survivors in rank order (score descending, ties by region_id).
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    ranked = _by_rank(regions)
    ious, _ = pairwise_overlaps(_box_array(ranked))
    kept = suppress(range(len(ranked)), conflict_masks(ious, iou_threshold))
    return [ranked[i] for i in kept]


def filter_by_min_size(
    regions: Sequence[ScoredRegion], min_area: float
) -> list[ScoredRegion]:
    """Drop regions with area strictly below ``min_area``, keeping input order."""
    if min_area < 0:
        raise ValueError(f"min_area must be >= 0, got {min_area}")
    return [r for r in regions if area(r.box) >= min_area]


def crs_greedy(problem: SelectionProblem) -> SelectionResult:
    """Greedy count-constrained selection.

    Every region seeds one candidate set, walked in rank order: later regions
    join when their directed overlap with each member stays below the
    threshold, and the walk stops once the set holds ``count`` regions. The
    highest-scoring set wins; score ties go to the earlier (higher-ranked)
    seed. When no region is compatible with any other this degrades to the
    single top-scoring region, flagged incomplete for count > 1.
    """
    if not problem.regions:
        raise ValueError("cannot select from an empty region list")
    ranked = _by_rank(problem.regions)
    _, directed = pairwise_overlaps(_box_array(ranked))
    # Row j of the transpose holds the overlaps of every member with candidate j.
    chosen, total = greedy_walk(
        range(len(ranked)),
        [r.score for r in ranked],
        conflict_masks(directed.T, problem.threshold),
        problem.count,
    )
    return SelectionResult(
        selected=tuple(ranked[i].region_id for i in chosen),
        total_score=total,
        complete=len(chosen) == problem.count,
    )


def _feasible_order(
    members: tuple[int, ...],
    overlap: list[list[float]],
    threshold: float,
    symmetric: bool,
) -> tuple[int, ...] | None:
    """Return an admissible insertion order for ``members``, or None.

    ``overlap[i][j]`` is the directed overlap with i selected and j the
    candidate. Symmetric mode demands every ordered pair stay below the
    threshold, so membership alone decides; directional mode asks whether some
    insertion order keeps each new region compatible with all earlier ones,
    answered by reachability over subsets.
    """
    if symmetric:
        ok = all(
            overlap[i][j] < threshold for i in members for j in members if i != j
        )
        return members if ok else None
    m = len(members)
    full = (1 << m) - 1
    orders: dict[int, tuple[int, ...]] = {0: ()}
    for mask in range(full + 1):
        prefix = orders.get(mask)
        if prefix is None:
            continue
        if mask == full:
            return tuple(members[k] for k in prefix)
        for j in range(m):
            bit = 1 << j
            if mask & bit or (mask | bit) in orders:
                continue
            if all(
                overlap[members[k]][members[j]] < threshold
                for k in range(m)
                if mask & (1 << k)
            ):
                orders[mask | bit] = prefix + (j,)
    return None


def crs_exact(
    problem: SelectionProblem,
    constraint_mode: str = "directional",
    max_regions: int = DEFAULT_ENUMERATION_CAP,
) -> SelectionResult:
    """Exhaustive reference solver for the greedy selector.

    Enumerates every subset of size up to ``count`` and returns the
    highest-scoring feasible one; ties prefer larger subsets, then the
    rank-lexicographically earliest. ``constraint_mode`` picks what feasible
    means: "symmetric" requires the directed overlap below the threshold for
    both orders of every pair, "directional" only that some insertion order
    exists. The greedy path enforces neither: it admits members in rank
    order only. Directional is therefore a looser upper bound on greedy; it
    can admit a high-scoring merged hull after the tight boxes inside it, an
    order greedy never tries while the hull outranks them. The result order
    is an admissible insertion order, so it certifies feasibility.
    """
    if constraint_mode not in ("directional", "symmetric"):
        raise ValueError(f"unknown constraint_mode: {constraint_mode!r}")
    n = len(problem.regions)
    if n > max_regions:
        raise CapacityError(
            f"{n} regions exceed the enumeration cap of {max_regions}"
        )
    if n == 0:
        raise ValueError("cannot select from an empty region list")
    ranked = _by_rank(problem.regions)
    overlap = pairwise_overlaps(_box_array(ranked))[1].tolist()
    symmetric = constraint_mode == "symmetric"
    best_key: tuple[float, int, tuple[int, ...]] | None = None
    best_order: tuple[int, ...] = ()
    for size in range(1, min(problem.count, n) + 1):
        for combo in itertools.combinations(range(n), size):
            order = _feasible_order(combo, overlap, problem.threshold, symmetric)
            if order is None:
                continue
            total = sum(ranked[i].score for i in combo)
            # Minimized key: score desc, size desc, earliest rank positions.
            key = (-total, -size, combo)
            if best_key is None or key < best_key:
                best_key = key
                best_order = order
    assert best_key is not None  # singletons are always feasible
    return SelectionResult(
        selected=tuple(ranked[i].region_id for i in best_order),
        total_score=-best_key[0],
        complete=len(best_order) == problem.count,
    )
