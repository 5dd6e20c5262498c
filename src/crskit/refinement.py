"""Alternating refinement: select pseudo ground truth, refit, rescore.

Each iteration turns the current per-class scores into count-capped pseudo
ground truth (suppression followed by count-constrained selection), refits a
nearest-centroid cosine scorer on the selected features, and rescores every
proposal for the next round. With ``count_guided`` off, selection degrades to
the single top-scoring region per image and class.

``RefinementConfig`` is the one run config, evaluation settings included;
``crskit.dataio`` reads it from config files and CLI flags, whose ``T`` and
``k`` name its ``threshold`` and ``count_cap``.

Boxes and ground truth never change during a run, and the suppression and
selection thresholds are fixed by the run's config, so ``run_adr``, like every
dataset-level caller, builds every image's conflict masks once, in one batched
pass over the world (``selection.world_overlaps``), and every selection and
evaluation of the run walks those masks in the current score order:
``select_pseudo_gt`` takes an image's masks and count target, reads no
threshold, and checks every score list it is given, the scorer's too. The run
likewise matches every proposal against its image's ground truth once
(``ground_truth_table``): every evaluation passes the suppression survivors to
``evaluation.evaluate_picks`` as picks of that table, with no ``Detection``
objects, and every purity count reads the same table. Features never change
either, so ``run_adr`` stacks them once into a private feature state
(``_Features``): each rescoring computes all of a class's scores in one stacked
kernel, retraining averages the selected rows by index, and purity reads region
positions from it. ``run_adr`` checks the initial score table up front.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .evaluation import (
    AP_MODES,
    CORLOC_VARIANTS,
    Detection,
    EvalReport,
    TruthTable,
    evaluate_picks,
    truth_table,
)
from .selection import (
    DEFAULT_NMS_THRESHOLD,
    DEFAULT_OVERLAP_THRESHOLD,
    ImageOverlaps,
    SelectionResult,
    _check_threshold,
    greedy_walk,
    nms,  # noqa: F401  re-exported: perfbench/tests checks refinement.nms is selection.nms
    rank_order,
    suppress,
    world_overlaps,
)
from .world import ImageRecord

__all__ = [
    "FeatureDimensionError",
    "RefinementConfig",
    "CentroidScorer",
    "IterationReport",
    "RefinementReport",
    "score_proposals",
    "ground_truth_table",
    "select_pseudo_gt",
    "retrain_scorer",
    "selection_purity",
    "score_table",
    "detections_from_scores",
    "run_adr",
]

logger = logging.getLogger("crskit.refinement")

DEFAULT_ITERATIONS = 3
# Trajectories settle in a few iterations; a larger count is a mistake, not a run.
MAX_ITERATIONS = 100


class FeatureDimensionError(ValueError):
    """Raised when a proposal feature is missing, of another dimension, or too large."""


def abbreviate(value: int) -> str:
    """``value`` for an error message: past 20 characters, its start and digit count."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:10]}... ({len(text.lstrip('-'))} digits)"


@dataclass(frozen=True)
class RefinementConfig:
    """A run's selection, loop and evaluation settings; ``seed`` is only reported."""

    iterations: int = DEFAULT_ITERATIONS
    threshold: float = DEFAULT_OVERLAP_THRESHOLD
    count_cap: int = 3
    nms_threshold: float = DEFAULT_NMS_THRESHOLD
    seed: int = 0
    count_guided: bool = True
    corloc_variant: str = "iou50"
    ap_mode: str = "11pt"

    def __post_init__(self) -> None:
        for name in ("iterations", "count_cap", "seed", "count_guided"):
            value, kind = getattr(self, name), bool if name == "count_guided" else int
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {kind.__name__}, got {type(value).__name__}")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(
                f"iterations must be in [1, {MAX_ITERATIONS}], got {abbreviate(self.iterations)}"
            )
        _check_threshold("threshold", self.threshold)
        if self.count_cap < 1:
            raise ValueError(f"count_cap must be >= 1, got {abbreviate(self.count_cap)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {abbreviate(self.seed)}")
        _check_threshold("nms_threshold", self.nms_threshold)
        if self.corloc_variant not in CORLOC_VARIANTS:
            raise ValueError(f"unknown corloc variant: {self.corloc_variant!r}")
        if self.ap_mode not in AP_MODES:
            raise ValueError(f"unknown AP mode: {self.ap_mode!r}")

    def count_target(self, count: int) -> int:
        """Regions to select where an image counts ``count`` instances of a class."""
        return min(count, self.count_cap) if self.count_guided else 1


@dataclass
class CentroidScorer:
    """Per-class prototype vectors scored by shifted cosine similarity."""

    prototypes: dict[str, np.ndarray]
    feature_dim: int


def _row_dots(matrix: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Each row of ``matrix`` dotted with ``other``'s same row, or with ``other`` if 1-D.

    A stack of 1 x d by d x 1 products runs each row through the dot kernel of
    ``f @ p`` and keeps its bits; gemv (``matrix @ p``), einsum and
    ``(matrix * p).sum(1)`` sum in other orders and move some scores by an ulp.
    """
    return (matrix[:, None, :] @ other[..., None])[:, 0, 0]


class _Features(tuple):
    """A world's images with their proposal features, stacked once per run.

    Image k's proposals are rows ``offsets[k]:offsets[k + 1]``, ``positions[k]``
    maps its region ids to positions in the image, and ``dims`` holds each row's
    feature length (-1 for none), so length checks precede the stacking.
    """

    def __new__(cls, world: Sequence[ImageRecord]) -> "_Features":
        if isinstance(world, cls):
            return world
        self = super().__new__(cls, world)
        self.offsets = np.cumsum([0] + [len(r.proposals) for r in self])
        self.positions = [{p.region_id: i for i, p in enumerate(r.proposals)} for r in self]
        self._rows = [p.feature for r in self for p in r.proposals]
        self.dims = np.array([-1 if f is None else len(f) for f in self._rows], dtype=int)
        return self

    def locate(self, row: int) -> str:
        """``"<image_id>: proposal <region_id>"`` for stacked row ``row``."""
        k = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"{self[k].image_id}: proposal {self[k].proposals[row - self.offsets[k]].region_id}"

    def position(self, k: int, region_id: int) -> int:
        """Where selected ``region_id`` sits among image k's proposals."""
        if region_id not in self.positions[k]:
            raise ValueError(f"{self[k].image_id}: selected region {region_id} is not a proposal")
        return self.positions[k][region_id]

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(N, d)`` features, zero where missing, and their norms; needs one length."""
        zero = np.zeros(self.dims.max(initial=0))
        matrix = np.array([zero if f is None else f for f in self._rows], dtype=float)
        matrix = matrix.reshape(len(self._rows), len(zero))
        with np.errstate(over="ignore", invalid="ignore"):
            squares = _row_dots(matrix, matrix)
        bad = np.flatnonzero(~np.isfinite(squares))
        if bad.size:
            raise FeatureDimensionError(f"{self.locate(bad[0])} has a feature too large to score")
        return matrix, np.sqrt(squares)


def score_proposals(scorer: CentroidScorer, image: ImageRecord) -> dict[str, list[float]]:
    """Score every proposal of ``image`` for every class the scorer knows.

    Returns score lists aligned with ``image.proposals``. Scores live in
    [0, 1]; a zero-norm feature or prototype scores a neutral 0.5.
    """
    return score_table([image], scorer)[image.image_id]


def _check_scores(image: ImageRecord, class_scores: Sequence[float]) -> None:
    if len(class_scores) != len(image.proposals):
        raise ValueError(
            f"{image.image_id}: got {len(class_scores)} scores for "
            f"{len(image.proposals)} proposals"
        )
    for score in class_scores:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"{image.image_id}: score must be in [0, 1], got {score}")


def _check_score_table(
    world: Sequence[ImageRecord], scores: Mapping[str, Mapping[str, Sequence[float]]]
) -> None:
    for record in world:
        if record.image_id not in scores:
            raise ValueError(f"{record.image_id}: has no scores")
        for class_scores in scores[record.image_id].values():
            _check_scores(record, class_scores)


def ground_truth_table(
    world: Sequence[ImageRecord], corloc_variant: str = "iou50"
) -> TruthTable:
    """Match every proposal of ``world`` against its image's ground truth.

    Table image k is ``world[k]``, its box positions proposal positions.
    """
    return truth_table(
        [record.image_id for record in world],
        (([p.box.as_tuple() for p in r.proposals], r.gt_boxes) for r in world),
        corloc_variant,
    )


def select_pseudo_gt(
    image: ImageRecord, class_scores: Sequence[float], target: int, overlaps: ImageOverlaps
) -> SelectionResult:
    """Pick pseudo ground truth for one image and class from current scores.

    Suppression runs first, then count-constrained selection of up to
    ``target`` regions (a run passes ``RefinementConfig.count_target``), both
    walking ``overlaps``, the image's masks from the run's ``world_overlaps``.
    An image without proposals yields an empty, incomplete result.
    """
    if isinstance(target, bool) or not isinstance(target, int) or target < 1:
        raise ValueError(f"{image.image_id}: target must be an int >= 1, got {target!r}")
    _check_scores(image, class_scores)
    kept = suppress(rank_order(class_scores, overlaps.by_id), overlaps.suppress)
    chosen, total = greedy_walk(kept, class_scores, overlaps.conflict, target)
    selected = tuple(image.proposals[i].region_id for i in chosen)
    return SelectionResult(selected, total, complete=len(chosen) == target)


def retrain_scorer(
    pseudo_gt: Mapping[str, Mapping[str, SelectionResult]],
    world: Sequence[ImageRecord],
    previous: CentroidScorer | None = None,
) -> CentroidScorer:
    """Fit per-class prototypes as the mean feature of selected regions.

    ``pseudo_gt`` maps image_id -> class_id -> selection. A class with no
    selected regions anywhere keeps its previous prototype (zero when there is
    no previous scorer, which scores everything a neutral 0.5).
    """
    if not world:
        raise ValueError("cannot retrain on an empty world")
    features = _Features(world)
    seen = {} if previous is None else {previous.feature_dim: "the previous scorer has"}
    # Where each feature dimension is first seen, so a mix names its sources.
    lengths, first = np.unique(features.dims, return_index=True)
    for row in np.sort(first[lengths >= 0]):
        seen.setdefault(int(features.dims[row]), f"{features.locate(row)} has")
    if len(seen) > 1:
        found = ", ".join(f"{where} {dim}" for dim, where in seen.items())
        raise FeatureDimensionError(f"mixed feature dimensions: {found}")
    feature_dim = next(iter(seen), 0)
    gathered: dict[str, list[int]] = {c: [] for record in world for c in record.counts}
    for k, (record, offset) in enumerate(zip(features, features.offsets)):
        for class_id, result in (pseudo_gt.get(record.image_id) or {}).items():
            for region_id in result.selected:
                row = offset + features.position(k, region_id)
                if features.dims[row] < 0:
                    raise FeatureDimensionError(
                        f"{record.image_id}: selected proposal {region_id} has no feature"
                    )
                gathered.setdefault(class_id, []).append(row)
    kept = {} if previous is None else previous.prototypes
    prototypes = {
        name: features.stacked[0][rows].mean(axis=0) if rows
        else kept.get(name, np.zeros(feature_dim))
        for name, rows in sorted(gathered.items())
    }
    return CentroidScorer(prototypes=prototypes, feature_dim=feature_dim)


@dataclass
class IterationReport:
    """Metrics for one refinement iteration.

    Iteration 0 describes the initial scores before any selection, so its
    purity is undefined.
    """

    iteration: int
    report: EvalReport


@dataclass
class RefinementReport:
    """Full refinement trajectory plus the final scorer."""

    config: RefinementConfig
    iterations: list[IterationReport] = field(default_factory=list)
    scorer: CentroidScorer | None = None


def selection_purity(
    pseudo_gt: Mapping[str, Mapping[str, SelectionResult]],
    world: Sequence[ImageRecord],
    table: TruthTable,
) -> float | None:
    """Pooled purity of selected regions across all images and classes.

    A region is pure when exactly one ground-truth box of its class reaches
    the match IoU with it, read from ``table``, the world's ground-truth
    overlaps (``ground_truth_table``).
    """
    if table.image_ids != tuple(record.image_id for record in world):
        raise ValueError("ground-truth table was built for another world or image order")
    features, total, pure = _Features(world), 0, 0
    for k, (record, rows) in enumerate(zip(features, table.rows)):
        for class_id, result in (pseudo_gt.get(record.image_id) or {}).items():
            matches = rows[class_id].matches if class_id in rows else {}
            for region_id in result.selected:
                total += 1
                pure += int(len(matches.get(features.position(k, region_id), ())) == 1)
    return pure / total if total else None


def score_table(
    world: Sequence[ImageRecord], scorer: CentroidScorer | None
) -> dict[str, dict[str, list[float]]]:
    if scorer is None:
        # Initial scores come straight off the proposals.
        classes = sorted({c for record in world for c in record.counts})
        return {
            r.image_id: {name: [p.scores.get(name, 0.0) for p in r.proposals] for name in classes}
            for r in world
        }
    features = _Features(world)
    bad = np.flatnonzero(features.dims != scorer.feature_dim)
    if bad.size:
        dim, expected = features.dims[bad[0]], scorer.feature_dim
        found = "no feature" if dim < 0 else f"dimension {dim}, scorer expects {expected}"
        raise FeatureDimensionError(f"{features.locate(bad[0])} has {found}")
    matrix, norms = features.stacked
    columns = {}
    for name, prototype in scorer.prototypes.items():
        prototype = np.asarray(prototype, dtype=float)
        dots, denominator = _row_dots(matrix, prototype), norms * math.sqrt(prototype @ prototype)
        # A zero norm gives cosine 0, a neutral 0.5; rounding can push others a hair past [0, 1].
        cosine = np.divide(dots, denominator, out=np.zeros_like(dots), where=denominator != 0.0)
        columns[name] = np.clip((1.0 + cosine) / 2.0, 0.0, 1.0).tolist()
    return {
        record.image_id: {name: column[start:end] for name, column in columns.items()}
        for record, start, end in zip(features, features.offsets, features.offsets[1:])
    }


def _survivors(
    world: Sequence[ImageRecord],
    scores: Mapping[str, Mapping[str, Sequence[float]]],
    overlaps: Sequence[ImageOverlaps],
) -> Iterator[tuple[int, str, list[int], Sequence[float]]]:
    """Image position, class, suppression survivors and scores of every scored class.

    These are picks of the world's table, ``overlaps`` holds its images' masks
    in order, and the scores must have been checked.
    """
    for position, (record, masks) in enumerate(zip(world, overlaps)):
        for name, class_scores in scores[record.image_id].items():
            kept = suppress(rank_order(class_scores, masks.by_id), masks.suppress)
            yield position, name, kept, class_scores


def detections_from_scores(
    world: Sequence[ImageRecord],
    scores: Mapping[str, Mapping[str, Sequence[float]]],
    nms_threshold: float,
) -> list[Detection]:
    """Suppression survivors of every image and scored class, as detections."""
    _check_score_table(world, scores)
    # Only the suppression masks are read; any selection threshold will do.
    overlaps = world_overlaps(world, nms_threshold, DEFAULT_OVERLAP_THRESHOLD)
    return [
        Detection(
            image_id=world[position].image_id,
            class_id=name,
            box=world[position].proposals[i].box,
            confidence=class_scores[i],
        )
        for position, name, kept, class_scores in _survivors(world, scores, overlaps)
        for i in kept
    ]


def run_adr(world: Sequence[ImageRecord], config: RefinementConfig) -> RefinementReport:
    """Run the alternating refinement loop over a dataset.

    The report carries one entry per iteration plus an entry 0 for the
    initial scores; each entry holds detection metrics for the scores current
    at that point and, from iteration 1 on, the purity of the pseudo ground
    truth selected in that iteration. ``config`` also sets the CorLoc variant
    and AP mode of every evaluation.
    """
    if not world:
        raise ValueError("cannot refine an empty world")
    world = _Features(world)
    gt = {record.image_id: record.gt_boxes for record in world}
    overlaps = world_overlaps(world, config.nms_threshold, config.threshold)
    table = ground_truth_table(world, config.corloc_variant)
    report = RefinementReport(config=config)
    scorer: CentroidScorer | None = None
    scores = score_table(world, scorer)
    _check_score_table(world, scores)

    def evaluate(purity: float | None) -> EvalReport:
        picks = _survivors(world, scores, overlaps)
        return replace(evaluate_picks(table, picks, gt, ap_mode=config.ap_mode), purity=purity)

    report.iterations.append(IterationReport(iteration=0, report=evaluate(None)))
    for iteration in range(1, config.iterations + 1):
        pseudo_gt: dict[str, dict[str, SelectionResult]] = {}
        for record, masks in zip(world, overlaps):
            image_scores = scores[record.image_id]
            picks = {
                name: select_pseudo_gt(
                    record, image_scores[name], config.count_target(record.counts[name]), masks
                )
                for name in record.positive_classes()
            }
            if picks:
                pseudo_gt[record.image_id] = picks
        scorer = retrain_scorer(pseudo_gt, world, previous=scorer)
        scores = score_table(world, scorer)
        purity_value = selection_purity(pseudo_gt, world, table)
        report.iterations.append(IterationReport(iteration, evaluate(purity_value)))
        corloc = report.iterations[-1].report.mean_corloc
        logger.info("iteration %d: corloc=%s purity=%s", iteration, corloc, purity_value)
    report.scorer = scorer
    return report
