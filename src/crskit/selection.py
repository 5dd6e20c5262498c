"""Non-maximum suppression and count-constrained region selection.

The selector picks a set of high-scoring regions whose size is bounded by a
per-image object count, rejecting any candidate whose directed overlap with an
already chosen region reaches a threshold. Because the overlap ratio is
measured against the candidate's own area, sub-regions of a chosen box are
excluded no matter how small they are, while a large box drawn around a small
chosen one is not. An exact solver over the same objective doubles as a
verification oracle for the greedy path.

Every solver only tests bits of per-region conflict masks (``conflict_masks``),
which compare each overlap with the threshold once, when they are built.
Dataset-level callers (refinement, ``crskit nms``/``select``) build all images'
masks in one batched pass (``world_overlaps``), suppress a whole score table at
once over that pass's proposal-count blocks (``suppress_columns``, split per
image by ``survivors_by_image``) and walk the masks per image and class
(``greedy_walk``). ``nms``, ``crs_greedy`` and ``crs_exact``
build the masks of one ``ScoredRegion`` problem, and ``crs_exact`` finds
directional insertion orders by peeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import PAIRS_PER_BATCH, Box, box_array, pairwise_overlaps
from .world import ImageRecord

__all__ = [
    "DEFAULT_OVERLAP_THRESHOLD",
    "DEFAULT_NMS_THRESHOLD",
    "DEFAULT_ENUMERATION_CAP",
    "CapacityError",
    "ScoredRegion",
    "SelectionProblem",
    "SelectionResult",
    "WorldOverlaps",
    "conflict_masks",
    "world_overlaps",
    "suppress_columns",
    "survivors_by_image",
    "greedy_walk",
    "nms",
    "crs_greedy",
    "crs_exact",
]

# Directed-overlap threshold for selection; one value works across datasets.
DEFAULT_OVERLAP_THRESHOLD = 0.1
# IoU threshold for suppression before selection.
DEFAULT_NMS_THRESHOLD = 0.3
# The exact solver's search can still visit every subset of size <= count;
# refuse inputs where that blows up.
DEFAULT_ENUMERATION_CAP = 20


class CapacityError(ValueError):
    """Raised when an instance is too large for the exact solver's search."""


@dataclass(frozen=True, slots=True)
class ScoredRegion:
    """A candidate box with a confidence score and a stable identifier."""

    box: Box
    score: float
    region_id: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True, slots=True)
class SelectionProblem:
    """One selection instance: candidate regions, a target count, a threshold."""

    regions: tuple[ScoredRegion, ...]
    count: int
    threshold: float = DEFAULT_OVERLAP_THRESHOLD

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise ValueError(f"count must be int, got {type(self.count).__name__}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        _check_threshold("threshold", self.threshold)
        ids = [r.region_id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise ValueError("region_ids must be unique within a problem")


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Chosen region ids in selection order, their score sum, and a size flag.

    ``complete`` is True when the selection reached the requested count.
    """

    selected: tuple[int, ...]
    total_score: float
    complete: bool


def _check_threshold(name: str, value: float) -> None:
    # NaN fails the comparison too; a bool is an int, not a threshold.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def _ranked(regions: Iterable[ScoredRegion]) -> tuple[list[ScoredRegion], np.ndarray]:
    """Regions in the canonical order (score descending, ties by region_id) and their boxes."""
    ranked = sorted(regions, key=lambda r: (-r.score, r.region_id))
    return ranked, box_array(r.box for r in ranked)


def conflict_masks(overlap: np.ndarray, threshold: float) -> list[int]:
    """One bitmask per row of the last axis, in C order: bit k of a row is set
    when its ``overlap[..., k]`` is not below ``threshold``."""
    hits = np.packbits(~(overlap < threshold), axis=-1, bitorder="little")
    packed, width = hits.tobytes(), hits.shape[-1] or 1  # no columns: no bytes, no rows
    return [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]


@dataclass(frozen=True, slots=True)
class WorldOverlaps:
    """A world's selection conflict masks and suppression blocks, built by ``world_overlaps``.

    ``offsets`` holds each image's first stacked row, then the row count.
    ``conflict[k][j]`` marks the proposals of image k that, once selected, keep
    its proposal j out because j's directed overlap with them reaches the
    selection threshold; ``conflict[k]`` is ``[]`` for an image without
    proposals. The masks are the only record of that threshold; see
    ``conflict_masks``. A block holds the m images of one proposal count
    n > 0: their first stacked rows ``(m,)``, their positions' ranks in
    region_id order ``(m, n)`` and ``hits`` ``(m, n, n)``, where
    ``hits[c, i, j]`` means keeping i suppresses j.
    """

    offsets: np.ndarray
    conflict: list[list[int]]
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def world_overlaps(
    images: Sequence[ImageRecord], nms_threshold: float, threshold: float
) -> WorldOverlaps:
    """Every image's conflict masks and the suppression blocks; thresholds in (0, 1].

    Images of equal proposal count are stacked, at most ``PAIRS_PER_BATCH``
    box pairs (or one image) a chunk, one ``pairwise_overlaps`` call each.
    """
    _check_threshold("nms_threshold", nms_threshold)
    _check_threshold("threshold", threshold)
    ids = [[p.region_id for p in image.proposals] for image in images]
    groups: dict[int, list[int]] = {}
    for k, (image, image_ids) in enumerate(zip(images, ids)):
        if len(set(image_ids)) != len(image_ids):
            raise ValueError(f"{image.image_id}: region_ids must be unique within an image")
        if image_ids:
            groups.setdefault(len(image_ids), []).append(k)
    starts = np.cumsum([0] + [len(image_ids) for image_ids in ids])
    conflict: list[list[int]] = [[] for _ in images]
    blocks = []
    for n, members in groups.items():
        step = max(1, PAIRS_PER_BATCH // (n * n))
        hits = []
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            boxes = box_array(p.box for k in chunk for p in images[k].proposals)
            ious, directed = pairwise_overlaps(boxes.reshape(len(chunk), n, 4))
            # Row i of this transpose marks the proposals that keeping i suppresses.
            hits.append(~(ious.swapaxes(-1, -2) < nms_threshold))
            # Row j of each transpose holds the overlaps of every member with candidate j.
            masks = conflict_masks(directed.swapaxes(-1, -2), threshold)
            for c, k in enumerate(chunk):
                conflict[k] = masks[c * n : c * n + n]
        # Ids are unique, so each position's rank among them is the argsort's inverse.
        id_rank = np.argsort(np.argsort([ids[k] for k in members], axis=-1), axis=-1)
        blocks.append((starts[members], id_rank, np.concatenate(hits)))
    return WorldOverlaps(starts, conflict, blocks)


def suppress_columns(
    overlaps: WorldOverlaps, columns: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Every image's suppression survivors for every class, as stacked rows.

    ``overlaps`` comes from ``world_overlaps``, whose blocks it walks, and
    ``columns`` holds one score per stacked row for each class. A survivor is
    a proposal whose IoU with every higher-ranked survivor (score descending,
    ties by region_id) stays below the threshold, as ``nms`` keeps them. Each
    proposal-count block is ranked by one ``lexsort`` with all classes
    stacked and walked one array step per rank position, so the cost grows
    with the distinct proposal counts, not with the images: at 5-21
    proposals an image it beats per-image walks from about 150 images on.
    Rows come image by image in world order, each image's in rank order.
    """
    if not columns:
        return {}
    names = list(columns)
    # Each image's rank-ordered rows in its own row range, -1 where suppressed.
    slots = np.full((len(names), overlaps.offsets[-1]), -1, dtype=np.intp)
    for starts, id_rank, hits in overlaps.blocks:
        m, n = id_rank.shape
        scores = np.stack([columns[name][starts[:, None] + np.arange(n)] for name in names])
        order = np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores)).reshape(-1, n)
        image, line = np.tile(np.arange(m), len(names)), np.arange(len(order))
        suppressed, kept = np.zeros((2, *order.shape), dtype=bool)
        for k in range(n):
            kept[:, k] = keep = ~suppressed[line, order[:, k]]
            suppressed |= hits[image, order[:, k]] & keep[:, None]
        ranked = np.where(kept, order + starts[image][:, None], -1)
        slots[:, starts[:, None] + np.arange(n)] = ranked.reshape(len(names), m, n)
    return {name: rows[rows >= 0] for name, rows in zip(names, slots)}


def survivors_by_image(
    overlaps: WorldOverlaps, survivors: Mapping[str, np.ndarray]
) -> dict[str, list[list[int]]]:
    """``suppress_columns``' rows as each class's positions in each image, in rank order."""
    offsets, out = overlaps.offsets, {}
    for name, rows in survivors.items():
        image = np.searchsorted(offsets, rows, side="right") - 1
        bounds = np.searchsorted(image, np.arange(len(offsets))).tolist()
        positions = (rows - offsets[image]).tolist()
        out[name] = [positions[a:b] for a, b in zip(bounds, bounds[1:])]
    return out


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
    _check_threshold("iou_threshold", iou_threshold)
    ranked, boxes = _ranked(regions)
    ious, _ = pairwise_overlaps(boxes)
    kept = []
    kept_mask = 0
    for i, mask in enumerate(conflict_masks(ious, iou_threshold)):
        if not mask & kept_mask:
            kept.append(ranked[i])
            kept_mask |= 1 << i
    return kept


def _ranked_conflicts(problem: SelectionProblem) -> tuple[list[ScoredRegion], list[int]]:
    """The problem's regions in rank order and their selection conflict masks."""
    if not problem.regions:
        raise ValueError("cannot select from an empty region list")
    ranked, boxes = _ranked(problem.regions)
    _, directed = pairwise_overlaps(boxes)
    # Row j of the transpose holds the overlaps of every member with candidate j.
    return ranked, conflict_masks(directed.T, problem.threshold)


def crs_greedy(problem: SelectionProblem) -> SelectionResult:
    """Greedy count-constrained selection.

    Every region seeds one candidate set, walked in rank order: later regions
    join when their directed overlap with each member stays below the
    threshold, and the walk stops once the set holds ``count`` regions. The
    highest-scoring set wins; score ties go to the earlier (higher-ranked)
    seed. When no region is compatible with any other this degrades to the
    single top-scoring region, flagged incomplete for count > 1.
    """
    ranked, masks = _ranked_conflicts(problem)
    scores = [r.score for r in ranked]
    chosen, total = greedy_walk(range(len(ranked)), scores, masks, problem.count)
    return SelectionResult(
        selected=tuple(ranked[i].region_id for i in chosen),
        total_score=total,
        complete=len(chosen) == problem.count,
    )


def _feasible_order(
    members: tuple[int, ...], masks: Sequence[int], symmetric: bool
) -> tuple[int, ...] | None:
    """Return an admissible insertion order for ``members``, or None.

    ``masks[j]`` has bit k set when j may not join a set holding k. Symmetric
    mode admits the set only when no member's mask hits another member.
    Directional mode peels: it takes the lowest-ranked member that no other
    remaining member blocks as the last insertion, and repeats. It fails
    exactly when the blocking relation has a cycle, and keeps rank order
    whenever rank order is admissible.
    """
    left = sum(1 << i for i in members)
    if symmetric:
        return None if any(masks[i] & (left ^ (1 << i)) for i in members) else members
    peeled = []
    while left:
        for i in reversed(members):
            bit = 1 << i
            if left & bit and not masks[i] & (left ^ bit):
                break
        else:
            return None
        peeled.append(i)
        left ^= bit
    return tuple(reversed(peeled))


def crs_exact(
    problem: SelectionProblem, constraint_mode: str = "directional"
) -> SelectionResult:
    """Exact reference solver for the greedy selector.

    Returns the highest-scoring feasible set of up to ``count`` regions; ties
    prefer larger sets, then the rank-lexicographically earliest. A depth-first
    search extends sets in that order while they stay feasible (feasibility is
    hereditary in both modes). A child's bound is the set's total plus the
    scores from the child on in rank order, as many as the set has room for,
    added one at a time; a node's child loop stops, before any feasibility
    test, at the first child whose bound is strictly below the best, so no tie
    is cut. No later sibling's bound is higher: ranked scores never rise,
    scores are >= 0 so a window cut short by the list's end only lowers it,
    and rounded addition is monotone. Feasibility tests bits of the conflict
    masks ``crs_greedy`` walks. "symmetric" ``constraint_mode`` requires the
    directed overlap below the threshold for both orders of every pair,
    "directional" only that some insertion order exists, found by peeling
    (``_feasible_order``). Greedy admits members in rank order only, so
    directional is a looser upper bound on it: it can admit a high-scoring
    merged hull after the tight boxes inside it, an order greedy never tries
    while the hull outranks them. The result order is admissible, and rank
    order whenever that is, so it certifies feasibility. More than
    ``DEFAULT_ENUMERATION_CAP`` regions raise ``CapacityError``.
    """
    if constraint_mode not in ("directional", "symmetric"):
        raise ValueError(f"unknown constraint_mode: {constraint_mode!r}")
    n = len(problem.regions)
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"{n} regions exceed the enumeration cap of {DEFAULT_ENUMERATION_CAP}")
    ranked, masks = _ranked_conflicts(problem)
    scores = [r.score for r in ranked]
    symmetric = constraint_mode == "symmetric"
    # Minimized key: score desc, size desc, earliest rank positions; then the order.
    best: list = [(-scores[0], -1, (0,)), (0,)]  # singletons are always feasible

    def extend(combo: tuple[int, ...], total: float, start: int, room: int) -> None:
        for i in range(start, n):
            bound = total
            for s in scores[i : i + room]:
                bound += s
            if bound < -best[0][0]:
                return  # no later child's bound is higher
            grown = combo + (i,)
            if (order := _feasible_order(grown, masks, symmetric)) is None:
                continue
            key = (-(total + scores[i]), -len(grown), grown)
            if key < best[0]:
                best[:] = key, order
            if room > 1:
                extend(grown, total + scores[i], i + 1, room - 1)

    extend((), 0, 0, min(problem.count, n))
    del extend  # break its self-reference: refcounting frees it, not the cycle collector
    return SelectionResult(
        selected=tuple(ranked[i].region_id for i in best[1]),
        total_score=-best[0][0],
        complete=len(best[1]) == problem.count,
    )
