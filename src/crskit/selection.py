"""Non-maximum suppression and count-constrained region selection.

The selector picks a set of high-scoring regions whose size is bounded by a
per-image object count, rejecting any candidate whose directed overlap with an
already chosen region reaches a threshold. Because the overlap ratio is
measured against the candidate's own area, sub-regions of a chosen box are
excluded no matter how small they are, while a large box drawn around a small
chosen one is not. An exact solver over the same objective doubles as a
verification oracle for the greedy path.

Every solver only tests bits of per-region conflict masks, which compare each
overlap with the threshold once, when they are built. Dataset-level callers
(refinement, ``crskit nms``/``select``) build all images' masks in one batched
pass (``world_overlaps``), as packed ``uint64`` suppression and conflict
words with one row per proposal; suppress a whole score table at once over
the suppression words (``suppress_columns``; zeroed words keep every
proposal in rank order, ``crskit select``'s ranking), split per image by
``survivors_by_image``; and walk every (image, class) selection problem of
the world at once (``walk_classes`` hands them to ``greedy_walks``, one
array step per walk position, and flags each complete selection).
``nms``, ``crs_greedy`` and ``crs_exact`` build the Python-int masks of one
``ScoredRegion`` problem (``conflict_masks``); ``crs_greedy`` walks them with
``greedy_walk``, the reference the batched walk keeps the bits of, and
``crs_exact`` finds directional insertion orders by peeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import PAIRS_PER_BATCH, Box, box_array, paired_overlaps, pairwise_overlaps
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
    "greedy_walks",
    "walk_classes",
    "nms",
    "crs_greedy",
    "crs_exact",
]

# Directed-overlap threshold for selection; one value works across datasets.
DEFAULT_OVERLAP_THRESHOLD = 0.1
# IoU threshold for suppression before selection.
DEFAULT_NMS_THRESHOLD = 0.3
# Seed words per chunk of ``greedy_walks``: ~0.5 MB a state array, a
# 1000-image world's selection in one chunk.
SEEDS_PER_BATCH = 1 << 16
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
    """A world's suppression and selection words, built by ``world_overlaps``.

    ``offsets`` holds each image's first stacked row, then the row count, and
    ``boxes`` each row's box corners, ``(N, 4)``, the world's one conversion
    of its boxes (``run_adr``'s truth table reads it too). ``id_rank``
    ``(N,)`` holds each row's rank among its image's region ids. ``suppress``
    and ``conflict`` are ``(N, words)`` ``uint64`` arrays, ``words`` enough
    for the largest image's proposals at 64 a word (at least 1), where bit k
    of row r (bit k % 64 of word k // 64) speaks of proposal k of r's image.
    In ``suppress`` it is set when keeping k suppresses r, because their IoU
    reaches the suppression threshold; in ``conflict`` when k, once
    selected, keeps r out, because r's directed overlap with it reaches the
    selection threshold. The words are the only record of both thresholds.
    """

    offsets: np.ndarray
    boxes: np.ndarray
    id_rank: np.ndarray
    suppress: np.ndarray
    conflict: np.ndarray


def world_overlaps(
    images: Sequence[ImageRecord], nms_threshold: float, threshold: float
) -> WorldOverlaps:
    """Every image's suppression and conflict words; thresholds in (0, 1].

    The world's boxes become one corner array. Each chunk pairs candidate
    rows with every box of their image in one ``paired_overlaps`` call, at
    most ``PAIRS_PER_BATCH`` box pairs (or one row) a chunk: whole images of
    equal proposal count stacked, or the rows of one wider image.
    """
    _check_threshold("nms_threshold", nms_threshold)
    _check_threshold("threshold", threshold)
    ids = [[p.region_id for p in image.proposals] for image in images]
    for image, image_ids in zip(images, ids):
        if len(set(image_ids)) != len(image_ids):
            raise ValueError(f"{image.image_id}: region_ids must be unique within an image")
    starts = np.cumsum([0] + [len(image_ids) for image_ids in ids])
    widths, boxes = np.diff(starts), box_array(p.box for image in images for p in image.proposals)
    id_rank = np.zeros(starts[-1], dtype=np.intp)
    # Suppression words, then conflict words, packed through their little-endian bytes.
    packed = np.zeros((2, starts[-1], max(1, -(-widths.max(initial=0) // 64))), dtype="<u8")
    for n in sorted(set(widths.tolist()) - {0}):
        members = np.flatnonzero(widths == n)
        at = starts[members, None] + np.arange(n)
        # Ids are unique, so each position's rank among them is the argsort's inverse.
        id_rank[at] = np.argsort(np.argsort([ids[k] for k in members], axis=-1), axis=-1)
        per_row = min(n, max(1, PAIRS_PER_BATCH // n))
        per_image = max(1, PAIRS_PER_BATCH // (n * per_row))
        for start in range(0, len(at), per_image):
            stack = boxes[at[start : start + per_image, None]]
            for row in range(0, n, per_row):
                rows = at[start : start + per_image, row : row + per_row]
                # [c, j, i]: the overlaps of member i (selected) with candidate row j.
                ious, directed = paired_overlaps(stack, boxes[rows][..., None, :])
                hits = np.stack([~(ious < nms_threshold), ~(directed < threshold)])
                bits = np.packbits(hits, axis=-1, bitorder="little")
                packed.view(np.uint8)[:, rows, : bits.shape[-1]] = bits
    return WorldOverlaps(starts, boxes, id_rank, *packed)


def _own_bits(positions: np.ndarray, words: int) -> np.ndarray:
    """Each position's own bit in ``words`` ``uint64`` words, on a new last axis."""
    bit = np.left_shift(np.uint64(1), (positions % 64).astype(np.uint64))
    return np.where(np.arange(words) == (positions // 64)[..., None], bit[..., None], np.uint64(0))


def suppress_columns(
    overlaps: WorldOverlaps, columns: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Every image's suppression survivors for every class, as stacked rows.

    ``overlaps`` comes from ``world_overlaps``, whose suppression words it
    walks, and ``columns`` holds one score per stacked row for each class. A
    survivor is a proposal whose IoU with every higher-ranked survivor (score
    descending, ties by region_id) stays below the threshold, as ``nms``
    keeps them. The images of each proposal count are ranked by one
    ``lexsort`` with all classes stacked and walked one array step per rank
    position, so the cost grows with the distinct proposal counts, not with
    the images. Rows come image by image in world order, each in rank order.
    """
    if not columns:
        return {}
    names, offsets, widths = list(columns), overlaps.offsets, np.diff(overlaps.offsets)
    # Each image's rank-ordered rows in its own row range, -1 where suppressed.
    slots = np.full((len(names), offsets[-1]), -1, dtype=np.intp)
    for n in sorted(set(widths.tolist()) - {0}):
        at = offsets[:-1][widths == n, None] + np.arange(n)
        scores = np.stack([columns[name][at] for name in names])
        order = np.lexsort((np.broadcast_to(overlaps.id_rank[at], scores.shape), -scores))
        order = order.reshape(-1, n)
        ranked = order + np.tile(at[:, 0], len(names))[:, None]
        # Each candidate's own bit, and the words of the proposals whose keeping suppresses it.
        words = -(-n // 64)
        own, blocked = _own_bits(order, words), overlaps.suppress[ranked, :words]
        state = np.zeros((len(order), words), dtype=np.uint64)
        for k in range(n):
            state |= own[:, k] * ~(state & blocked[:, k]).any(-1, keepdims=True)
        kept = (own & state[:, None]).any(-1)
        slots[:, at] = np.where(kept, ranked, -1).reshape(len(names), *at.shape)
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


def greedy_walks(
    conflict: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
    positions: np.ndarray,
    scores: np.ndarray,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``greedy_walk`` on P problems at once, one array step per walk position.

    Problem p's candidates are ``rows[offsets[p]:offsets[p + 1]]`` in walk
    order, rows of ``conflict`` (``WorldOverlaps.conflict``); ``positions``
    holds each candidate's position in its image, the bit that the image's
    conflict words set for it, and ``scores`` its score; ``targets`` ``(P,)``
    holds the count targets (>= 1). Each candidate seeds a set, and a later
    candidate joins a set with room when its words hit none of the set's
    bits. Totals add in walk order and the first best seed wins ties, so each
    problem gets ``greedy_walk``'s bits: returns the chosen mask over
    ``rows``, whose marked candidates in walk order are each problem's
    selection order, and the ``(P,)`` totals, 0 for an empty problem.
    Problems are walked longest first, padded to the widest in chunks of at
    most ``SEEDS_PER_BATCH`` seed words (or one problem).
    """
    words = conflict.shape[1]
    widths = np.diff(offsets)
    chosen, totals = np.zeros(len(rows), dtype=bool), np.zeros(len(widths))
    # Only problems that can grow a set take steps, longest first; empty ones come last.
    steps = np.where(targets > 1, widths, np.minimum(widths, 1))
    order = np.argsort(-steps, kind="stable")[: np.count_nonzero(widths)]
    start = 0
    while start < len(order):
        # The most problems whose number times the widest of them fits the budget.
        widest = np.maximum.accumulate(widths[order[start : start + SEEDS_PER_BATCH // words]])
        fits = np.arange(1, len(widest) + 1) * widest * words <= SEEDS_PER_BATCH
        lines = order[start : start + max(1, np.count_nonzero(fits))]
        start += len(lines)
        # One line per problem, padded with its first candidate.
        take = offsets[lines, None] + np.arange(widths[lines].max())
        valid = take < offsets[lines + 1, None]
        take = np.where(valid, take, offsets[lines, None])
        line_scores, target = scores[take], targets[lines]
        # Each candidate's own bit, and the words of the members that keep it out.
        own = _own_bits(positions[take], words)
        blocked = conflict[rows[take]]
        members, total = own.copy(), line_scores.astype(float)
        sizes = np.ones(take.shape, dtype=np.intp)
        # Lines still walking at each position: a prefix, as steps fall along ``lines``.
        active = np.searchsorted(-steps[lines], -np.arange(take.shape[1]), side="left")
        for j in range(1, take.shape[1]):
            k = active[j]
            grown = members[:k, :j]
            admit = ~(grown & blocked[:k, j, None]).any(-1) & (sizes[:k, :j] < target[:k, None])
            grown |= own[:k, j, None] * admit[..., None]
            # Adding -0.0 keeps every total's bits; +0.0 would turn a -0.0 total into 0.0.
            total[:k, :j] += np.where(admit, line_scores[:k, j, None], -0.0)
            sizes[:k, :j] += admit
        best = np.argmax(np.where(valid, total, -np.inf), axis=1)
        line = np.arange(len(lines))
        chosen[take[valid]] = (own & members[line, best][:, None]).any(-1)[valid]
        totals[lines] = total[line, best]
    return chosen, totals


def walk_classes(
    overlaps: WorldOverlaps,
    columns: Mapping[str, np.ndarray],
    ranked: Mapping[str, np.ndarray],
    targets: Mapping[str, np.ndarray],
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Every (image, class) selection problem of a world, in one ``greedy_walks`` call.

    ``targets[c]`` holds each image's count target for class c, 0 where it
    has no problem; ``ranked[c]`` the class's candidate rows, image by image
    in world order and each image's in walk order, as ``suppress_columns``
    returns them; ``columns[c]`` its scores by row. Returns, for each class
    of ``targets``: its problems' images in world order, their selected rows
    (problem by problem, each in selection order), whether each problem's
    selection reached its target, and its total.
    """
    if not targets:
        return {}
    offsets = overlaps.offsets
    row_image = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    problems = {name: np.flatnonzero(column) for name, column in targets.items()}
    cells = []
    for name, column in targets.items():
        rows = ranked[name]
        rows = rows[column[row_image[rows]] > 0]
        image = row_image[rows]
        width = np.bincount(image, minlength=len(column))[problems[name]]
        cells.append((rows, rows - offsets[image], columns[name][rows], width, column[column > 0]))
    rows, positions, scores, widths, line_targets = (np.concatenate(part) for part in zip(*cells))
    starts = np.concatenate([[0], np.cumsum(widths)])
    chosen, totals = greedy_walks(overlaps.conflict, starts, rows, positions, scores, line_targets)
    sizes = np.bincount(np.repeat(np.arange(len(widths)), widths)[chosen], minlength=len(widths))
    complete = sizes == line_targets
    first, walked = np.cumsum([0] + [len(images) for images in problems.values()]), {}
    for (name, images), a, b in zip(problems.items(), first, first[1:]):
        span = slice(starts[a], starts[b])
        walked[name] = images, rows[span][chosen[span]], complete[a:b], totals[a:b]
    return walked


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
