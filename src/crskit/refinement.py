"""Alternating refinement: select pseudo ground truth, refit, rescore.

Each iteration turns the current per-class scores into count-capped pseudo
ground truth (suppression followed by count-constrained selection), refits a
nearest-centroid cosine scorer on the selected features, and rescores every
proposal for the next round. With ``count_guided`` off, selection degrades to
the single top-scoring region per image and class.

Boxes never change during a run, and the suppression and selection thresholds
are fixed by the run's config, so ``run_adr`` computes each image's pairwise
overlaps once, as conflict masks (``ImageOverlaps``), and every selection and
evaluation of the run walks those masks in the current score order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .evaluation import Detection, EvalReport, build_report
from .geometry import iou, pairwise_overlaps
from .selection import (
    DEFAULT_NMS_THRESHOLD,
    DEFAULT_OVERLAP_THRESHOLD,
    SelectionResult,
    conflict_masks,
    greedy_walk,
    nms,  # noqa: F401  kept importable as refinement.nms for existing callers
    rank_order,
    suppress,
)
from .world import DEFAULT_FEATURE_DIM, ImageRecord

__all__ = [
    "FeatureDimensionError",
    "RefinementConfig",
    "CentroidScorer",
    "ImageOverlaps",
    "IterationReport",
    "RefinementReport",
    "score_proposals",
    "image_overlaps",
    "select_pseudo_gt",
    "retrain_scorer",
    "selection_purity",
    "score_table",
    "detections_from_scores",
    "run_adr",
]

logger = logging.getLogger("crskit.refinement")

DEFAULT_ITERATIONS = 3


class FeatureDimensionError(ValueError):
    """Raised when a feature does not match the scorer's dimension."""


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs for the refinement loop."""

    iterations: int = DEFAULT_ITERATIONS
    threshold: float = DEFAULT_OVERLAP_THRESHOLD
    count_cap: int = 3
    nms_threshold: float = DEFAULT_NMS_THRESHOLD
    feature_dim: int = DEFAULT_FEATURE_DIM
    seed: int = 0
    count_guided: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.count_cap < 1:
            raise ValueError(f"count_cap must be >= 1, got {self.count_cap}")
        if not 0.0 < self.nms_threshold <= 1.0:
            raise ValueError(
                f"nms_threshold must be in (0, 1], got {self.nms_threshold}"
            )
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")


@dataclass
class CentroidScorer:
    """Per-class prototype vectors scored by shifted cosine similarity."""

    prototypes: dict[str, np.ndarray]
    feature_dim: int
    trained: bool = False

    @classmethod
    def untrained(cls, classes: Sequence[str], feature_dim: int) -> "CentroidScorer":
        return cls(
            prototypes={c: np.zeros(feature_dim) for c in classes},
            feature_dim=feature_dim,
            trained=False,
        )


def _norm(vector: np.ndarray) -> float:
    # np.linalg.norm computes a vector's norm as sqrt(x @ x); doing the same
    # here gives the same bits without its per-call overhead.
    return math.sqrt(vector @ vector)


def _cosine_score(dot: float, feature_norm: float, prototype_norm: float) -> float:
    if feature_norm == 0.0 or prototype_norm == 0.0:
        return 0.5
    value = (1.0 + float(dot) / (feature_norm * prototype_norm)) / 2.0
    # Rounding can push the shifted cosine a hair outside [0, 1].
    return min(max(value, 0.0), 1.0)


def score_proposals(
    scorer: CentroidScorer, image: ImageRecord
) -> dict[str, list[float]]:
    """Score every proposal of ``image`` for every class the scorer knows.

    Returns score lists aligned with ``image.proposals``. Scores live in
    [0, 1]; a zero-norm feature or prototype scores a neutral 0.5.
    """
    for proposal in image.proposals:
        if proposal.feature is None:
            raise FeatureDimensionError(
                f"{image.image_id}: proposal {proposal.region_id} has no feature"
            )
        if len(proposal.feature) != scorer.feature_dim:
            raise FeatureDimensionError(
                f"{image.image_id}: proposal {proposal.region_id} has dimension "
                f"{len(proposal.feature)}, scorer expects {scorer.feature_dim}"
            )
    # Each norm is computed once and shared; the dot products stay one per
    # proposal, because a single matrix product sums in another order and
    # moves some scores by an ulp.
    features = [np.asarray(p.feature, dtype=float) for p in image.proposals]
    norms = [_norm(f) for f in features]
    out = {}
    for name, prototype in scorer.prototypes.items():
        prototype = np.asarray(prototype, dtype=float)
        prototype_norm = _norm(prototype)
        out[name] = [
            _cosine_score(f @ prototype, fn, prototype_norm)
            for f, fn in zip(features, norms)
        ]
    return out


@dataclass(frozen=True)
class ImageOverlaps:
    """One image's proposal overlaps as conflict masks, indexed by proposal position.

    ``by_id`` lists the positions in region_id order (the rank tie-break).
    ``suppress[i]`` marks the proposals whose IoU with proposal i reaches
    ``nms_threshold``; ``conflict[j]`` marks the proposals that, once
    selected, keep proposal j out because its directed overlap with them
    reaches ``threshold``. See ``selection.conflict_masks``.
    """

    nms_threshold: float
    threshold: float
    by_id: tuple[int, ...]
    suppress: list[int]
    conflict: list[int]


def image_overlaps(
    image: ImageRecord, nms_threshold: float, threshold: float
) -> ImageOverlaps:
    """Compute the suppression and selection conflict masks of one image."""
    ids = [p.region_id for p in image.proposals]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{image.image_id}: region_ids must be unique within an image")
    ious, directed = pairwise_overlaps([p.box.as_tuple() for p in image.proposals])
    return ImageOverlaps(
        nms_threshold=nms_threshold,
        threshold=threshold,
        by_id=tuple(sorted(range(len(ids)), key=ids.__getitem__)),
        suppress=conflict_masks(ious, nms_threshold),
        # Row j of the transpose holds the overlaps of every member with candidate j.
        conflict=conflict_masks(directed.T, threshold),
    )


def _check_scores(image: ImageRecord, class_scores: Sequence[float]) -> None:
    if len(class_scores) != len(image.proposals):
        raise ValueError(
            f"{image.image_id}: got {len(class_scores)} scores for "
            f"{len(image.proposals)} proposals"
        )
    if not all(0.0 <= s <= 1.0 for s in class_scores):
        bad = next(s for s in class_scores if not 0.0 <= s <= 1.0)
        raise ValueError(f"{image.image_id}: score must be in [0, 1], got {bad}")


def select_pseudo_gt(
    image: ImageRecord,
    class_id: str,
    class_scores: Sequence[float],
    config: RefinementConfig,
    overlaps: ImageOverlaps | None = None,
) -> SelectionResult:
    """Pick pseudo ground truth for one image and class from current scores.

    Suppression runs first, then count-constrained selection with the count
    capped at ``config.count_cap``; without count guidance a single region is
    requested. An image without proposals yields an empty, incomplete result.
    ``overlaps`` are the image's masks at the config's thresholds, computed
    here when not given.
    """
    count = image.counts.get(class_id, 0)
    if count < 1:
        raise ValueError(f"{image.image_id}: class {class_id!r} has no counted instances")
    _check_scores(image, class_scores)
    if not image.proposals:
        return SelectionResult(selected=(), total_score=0.0, complete=False)
    if overlaps is None:
        overlaps = image_overlaps(image, config.nms_threshold, config.threshold)
    elif (overlaps.nms_threshold, overlaps.threshold) != (config.nms_threshold, config.threshold):
        raise ValueError(f"{image.image_id}: overlaps were built for other thresholds")
    kept = suppress(rank_order(class_scores, overlaps.by_id), overlaps.suppress)
    target = min(count, config.count_cap) if config.count_guided else 1
    chosen, total = greedy_walk(kept, class_scores, overlaps.conflict, target)
    return SelectionResult(
        selected=tuple(image.proposals[i].region_id for i in chosen),
        total_score=total,
        complete=len(chosen) == target,
    )


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
    classes = sorted({c for record in world for c in record.counts})
    dims = {
        len(p.feature)
        for record in world
        for p in record.proposals
        if p.feature is not None
    }
    if previous is not None:
        dims.add(previous.feature_dim)
    if len(dims) > 1:
        raise FeatureDimensionError(f"mixed feature dimensions: {sorted(dims)}")
    feature_dim = dims.pop() if dims else 0
    gathered: dict[str, list[np.ndarray]] = {c: [] for c in classes}
    for record in world:
        selections = pseudo_gt.get(record.image_id)
        if not selections:
            continue
        by_id = record.proposal_map()
        for class_id, result in selections.items():
            for region_id in result.selected:
                feature = by_id[region_id].feature
                if feature is None:
                    raise FeatureDimensionError(
                        f"{record.image_id}: selected proposal {region_id} has no feature"
                    )
                gathered.setdefault(class_id, []).append(np.asarray(feature, dtype=float))
    prototypes = {}
    for name in sorted(gathered):
        features = gathered[name]
        if features:
            prototypes[name] = np.mean(features, axis=0)
        elif previous is not None and name in previous.prototypes:
            prototypes[name] = previous.prototypes[name]
        else:
            prototypes[name] = np.zeros(feature_dim)
    return CentroidScorer(prototypes=prototypes, feature_dim=feature_dim, trained=True)


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
) -> float | None:
    """Pooled purity of selected regions across all images and classes."""
    total = 0
    pure = 0
    for record in world:
        selections = pseudo_gt.get(record.image_id)
        if not selections:
            continue
        by_id = record.proposal_map()
        for class_id, result in selections.items():
            gt = record.gt_boxes.get(class_id, [])
            for region_id in result.selected:
                box = by_id[region_id].box
                total += 1
                pure += int(sum(iou(box, g) >= 0.5 for g in gt) == 1)
    if total == 0:
        return None
    return pure / total


def score_table(
    world: Sequence[ImageRecord], scorer: CentroidScorer | None
) -> dict[str, dict[str, list[float]]]:
    if scorer is None:
        # Initial scores come straight off the proposals.
        classes = sorted({c for record in world for c in record.counts})
        return {
            record.image_id: {
                name: [p.scores.get(name, 0.0) for p in record.proposals]
                for name in classes
            }
            for record in world
        }
    return {record.image_id: score_proposals(scorer, record) for record in world}


def detections_from_scores(
    world: Sequence[ImageRecord],
    scores: Mapping[str, Mapping[str, Sequence[float]]],
    nms_threshold: float,
    overlaps: Sequence[ImageOverlaps] | None = None,
) -> list[Detection]:
    """Suppression survivors of every image and scored class, as detections.

    ``overlaps`` holds one entry per image of ``world``, in the same order,
    built at ``nms_threshold``; it is computed here when not given.
    """
    if overlaps is None:
        # Only the suppression masks are read; any selection threshold will do.
        overlaps = [
            image_overlaps(record, nms_threshold, DEFAULT_OVERLAP_THRESHOLD)
            for record in world
        ]
    if len(overlaps) != len(world):
        raise ValueError(f"got overlaps for {len(overlaps)} of {len(world)} images")
    out = []
    for record, masks in zip(world, overlaps):
        if masks.nms_threshold != nms_threshold:
            raise ValueError(f"{record.image_id}: overlaps were built for another NMS threshold")
        for name, class_scores in scores[record.image_id].items():
            _check_scores(record, class_scores)
            for i in suppress(rank_order(class_scores, masks.by_id), masks.suppress):
                out.append(
                    Detection(
                        image_id=record.image_id,
                        class_id=name,
                        box=record.proposals[i].box,
                        confidence=class_scores[i],
                    )
                )
    return out


def run_adr(
    world: Sequence[ImageRecord],
    config: RefinementConfig,
    *,
    corloc_variant: str = "iou50",
    ap_mode: str = "11pt",
) -> RefinementReport:
    """Run the alternating refinement loop over a dataset.

    The report carries one entry per iteration plus an entry 0 for the
    initial scores; each entry holds detection metrics for the scores current
    at that point and, from iteration 1 on, the purity of the pseudo ground
    truth selected in that iteration.
    """
    if not world:
        raise ValueError("cannot refine an empty world")
    gt = {record.image_id: dict(record.gt_boxes) for record in world}
    overlaps = [
        image_overlaps(record, config.nms_threshold, config.threshold)
        for record in world
    ]
    report = RefinementReport(config=config)
    scorer: CentroidScorer | None = None
    scores = score_table(world, scorer)

    def evaluate(purity_value: float | None) -> EvalReport:
        return build_report(
            detections_from_scores(world, scores, config.nms_threshold, overlaps),
            gt,
            corloc_variant=corloc_variant,
            ap_mode=ap_mode,
            purity_value=purity_value,
        )

    report.iterations.append(IterationReport(iteration=0, report=evaluate(None)))
    for iteration in range(1, config.iterations + 1):
        pseudo_gt: dict[str, dict[str, SelectionResult]] = {}
        for record, masks in zip(world, overlaps):
            picks = {
                name: select_pseudo_gt(
                    record, name, scores[record.image_id][name], config, masks
                )
                for name in record.positive_classes()
            }
            if picks:
                pseudo_gt[record.image_id] = picks
        scorer = retrain_scorer(pseudo_gt, world, previous=scorer)
        scores = score_table(world, scorer)
        purity_value = selection_purity(pseudo_gt, world)
        report.iterations.append(
            IterationReport(iteration=iteration, report=evaluate(purity_value))
        )
        logger.info(
            "iteration %d: corloc=%s purity=%s",
            iteration,
            report.iterations[-1].report.mean_corloc,
            purity_value,
        )
    report.scorer = scorer
    return report
