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
dataset-level caller, builds each image's conflict masks once
(``selection.image_overlaps``), and every selection and evaluation of the run
walks those masks in the current score order. It likewise matches every
proposal against its image's ground truth once (``ground_truth_table``): every
evaluation passes the suppression survivors to ``evaluation.evaluate_picks``
as picks of that table, with no ``Detection`` objects, and every purity count
reads the same table. ``run_adr`` checks the initial score table up front,
and ``select_pseudo_gt`` checks every score list it is given, the scorer's too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
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
    greedy_walk,
    image_overlaps,
    nms,  # noqa: F401  re-exported: perfbench/tests checks refinement.nms is selection.nms
    rank_order,
    suppress,
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
    """Raised when a feature does not match the scorer's dimension."""


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
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(
                f"iterations must be in [1, {MAX_ITERATIONS}], got {abbreviate(self.iterations)}"
            )
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.count_cap < 1:
            raise ValueError(f"count_cap must be >= 1, got {abbreviate(self.count_cap)}")
        if not 0.0 < self.nms_threshold <= 1.0:
            raise ValueError(f"nms_threshold must be in (0, 1], got {self.nms_threshold}")
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


def _check_scores(image: ImageRecord, class_scores: Sequence[float]) -> None:
    if len(class_scores) != len(image.proposals):
        raise ValueError(
            f"{image.image_id}: got {len(class_scores)} scores for "
            f"{len(image.proposals)} proposals"
        )
    if not all(0.0 <= s <= 1.0 for s in class_scores):
        bad = next(s for s in class_scores if not 0.0 <= s <= 1.0)
        raise ValueError(f"{image.image_id}: score must be in [0, 1], got {bad}")


def _check_score_table(
    world: Sequence[ImageRecord], scores: Mapping[str, Mapping[str, Sequence[float]]]
) -> None:
    for record in world:
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
    image: ImageRecord,
    class_id: str,
    class_scores: Sequence[float],
    config: RefinementConfig,
    overlaps: ImageOverlaps | None = None,
) -> SelectionResult:
    """Pick pseudo ground truth for one image and class from current scores.

    Suppression runs first, then count-constrained selection of
    ``config.count_target(count)`` regions. An image without proposals yields
    an empty, incomplete result. ``overlaps`` are the image's masks at the
    config's thresholds, computed here when not given.
    """
    count = image.counts.get(class_id, 0)
    if count < 1:
        raise ValueError(f"{image.image_id}: class {class_id!r} has no counted instances")
    _check_scores(image, class_scores)
    if overlaps is None:
        overlaps = image_overlaps(image, config.nms_threshold, config.threshold)
    elif (overlaps.nms_threshold, overlaps.threshold) != (config.nms_threshold, config.threshold):
        raise ValueError(f"{image.image_id}: overlaps were built for other thresholds")
    kept = suppress(rank_order(class_scores, overlaps.by_id), overlaps.suppress)
    target = config.count_target(count)
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
    # Where each feature dimension is first seen, so a mix names its sources.
    seen = {} if previous is None else {previous.feature_dim: "the previous scorer has"}
    for record in world:
        for p in record.proposals:
            if p.feature is not None and len(p.feature) not in seen:
                seen[len(p.feature)] = f"{record.image_id}: proposal {p.region_id} has"
    if len(seen) > 1:
        found = ", ".join(f"{where} {dim}" for dim, where in seen.items())
        raise FeatureDimensionError(f"mixed feature dimensions: {found}")
    feature_dim = next(iter(seen), 0)
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
    table: TruthTable | None = None,
) -> float | None:
    """Pooled purity of selected regions across all images and classes.

    A region is pure when exactly one ground-truth box of its class reaches
    the match IoU with it (``evaluation.is_pure``), read from ``table``, the
    world's ground-truth overlaps, which is built here when not given.
    """
    if table is None:
        table = ground_truth_table(world)
    if table.image_ids != tuple(record.image_id for record in world):
        raise ValueError("ground-truth table was built for another world or image order")
    total = 0
    pure = 0
    for record, rows in zip(world, table.rows):
        selections = pseudo_gt.get(record.image_id)
        if not selections:
            continue
        positions = {p.region_id: i for i, p in enumerate(record.proposals)}
        for class_id, result in selections.items():
            matches = rows[class_id].matches if class_id in rows else {}
            for region_id in result.selected:
                total += 1
                pure += int(len(matches.get(positions[region_id], ())) == 1)
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
    overlaps = [image_overlaps(r, nms_threshold, DEFAULT_OVERLAP_THRESHOLD) for r in world]
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
    gt = {record.image_id: record.gt_boxes for record in world}
    overlaps = [
        image_overlaps(record, config.nms_threshold, config.threshold)
        for record in world
    ]
    table = ground_truth_table(world, config.corloc_variant)
    report = RefinementReport(config=config)
    scorer: CentroidScorer | None = None
    scores = score_table(world, scorer)
    _check_score_table(world, scores)

    def evaluate(purity_value: float | None) -> EvalReport:
        picks = _survivors(world, scores, overlaps)
        return replace(
            evaluate_picks(table, picks, gt, ap_mode=config.ap_mode), purity=purity_value
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
        purity_value = selection_purity(pseudo_gt, world, table)
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
