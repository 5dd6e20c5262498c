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
dataset-level caller, builds every image's masks once, in one batched pass
over the world (``selection.world_overlaps``). The run likewise matches every
proposal's corners (the overlaps' ``boxes``) against its image's ground truth
once (``ground_truth_table``, the one truth-table builder), in a table whose
row r is stacked proposal r: the run's only record of ground truth. A score
table (``score_table``) is one ``(N,)`` array per class, in the same row
order; no per-image table is kept. Each table is suppressed once, by one
``selection.suppress_columns`` pass over the arrays (one array step per rank
position for all images of a proposal count, classes stacked), into every
(image, class) survivor as table rows. Its evaluation gathers their
confidences from the arrays and passes both to ``evaluation.evaluate_picks``,
with no ``Detection`` objects. The next selection is one ``select_pseudo_gt``
call over the same table, overlaps and survivors: every (image, positive
class) problem is walked at once (``selection.walk_classes``) over the
conflict words to its count target, reading no threshold, and the pseudo
ground truth comes back as table rows with the walk's complete flags
(``PseudoGroundTruth``). Every purity count reads the table's candidate counts
at those rows. Features never change either, so ``run_adr`` stacks them once
into a private feature state (``_Features``), which also keeps the run's count
targets: each rescoring computes all of a class's scores in one stacked
kernel, and retraining averages the selected rows by index. ``run_adr`` checks
the initial score table up front, ``select_pseudo_gt`` and
``detections_from_scores`` the one they are given.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import Mapping, Sequence

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
    WorldOverlaps,
    _check_threshold,
    nms,  # noqa: F401  re-exported: perfbench/tests checks refinement.nms is selection.nms
    suppress_columns,
    survivors_by_image,
    walk_classes,
    world_overlaps,
)
from .world import ImageRecord

__all__ = [
    "FeatureDimensionError",
    "RefinementConfig",
    "CentroidScorer",
    "IterationReport",
    "RefinementReport",
    "PseudoGroundTruth",
    "score_proposals",
    "ground_truth_table",
    "count_targets",
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
    """Raised for a missing, mismatched or too large feature or prototype."""


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

    Image k's proposals are rows ``offsets[k]:offsets[k + 1]``, and ``dims``
    holds each row's feature length (-1 for none), so length checks precede
    the stacking.
    """

    def __new__(cls, world: Sequence[ImageRecord]) -> "_Features":
        if isinstance(world, cls):
            return world
        self = super().__new__(cls, world)
        self.offsets = np.cumsum([0] + [len(r.proposals) for r in self])
        for record in self:
            if len({p.region_id for p in record.proposals}) != len(record.proposals):
                raise ValueError(f"{record.image_id}: region_ids must be unique within an image")
        self._rows = [p.feature for r in self for p in r.proposals]
        self.dims = np.array([-1 if f is None else len(f) for f in self._rows], dtype=int)
        self._targets: dict[tuple[bool, int], dict[str, np.ndarray]] = {}
        return self

    def locate(self, row: int) -> str:
        """``"<image_id>: proposal <region_id>"`` for stacked row ``row``."""
        k = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"{self[k].image_id}: proposal {self[k].proposals[row - self.offsets[k]].region_id}"

    def count_targets(self, config: RefinementConfig) -> dict[str, np.ndarray]:
        """``count_targets(self, config)``, built once a config."""
        key = (config.count_guided, config.count_cap)
        if key not in self._targets:
            self._targets[key] = count_targets(self, config)
        return self._targets[key]

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
    return {name: column.tolist() for name, column in score_table([image], scorer).items()}


def ground_truth_table(
    world: Sequence[ImageRecord], boxes: np.ndarray, corloc_variant: str = "iou50"
) -> TruthTable:
    """Match every proposal of ``world`` against its image's ground truth.

    ``boxes`` holds their ``(N, 4)`` corners in stacked row order, as in
    ``WorldOverlaps.boxes``; table image k is ``world[k]``, and row r is box r.
    """
    return truth_table(
        [record.image_id for record in world],
        [record.gt_boxes for record in world],
        np.repeat(np.arange(len(world)), [len(record.proposals) for record in world]),
        boxes,
        corloc_variant,
    )


def count_targets(world: Sequence[ImageRecord], config: RefinementConfig) -> dict[str, np.ndarray]:
    """Each image's count target ``config.count_target(count)`` for every class
    some image counts, sorted, as one ``(K,)`` column a class, 0 where the image
    does not count it.

    A target above an image's proposal count is stored as that count plus
    one, which no selection reaches either.
    """
    targets: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(len(world), dtype=np.intp))
    for k, record in enumerate(world):
        for name, count in record.counts.items():
            if count >= 1:
                targets[name][k] = min(config.count_target(count), len(record.proposals) + 1)
    return dict(sorted(targets.items()))


@dataclass(frozen=True, eq=False)
class PseudoGroundTruth:
    """One selection of pseudo ground truth over a world, as stacked proposal rows.

    ``rows[c]`` holds class c's selected rows, image by image in world order
    and each image's in pick order. ``complete[c][k]`` says whether image k's
    selection of c reached its count target, and is False where image k does
    not count c. Every class that some image counts has both.
    """

    rows: dict[str, np.ndarray]
    complete: dict[str, np.ndarray]


def select_pseudo_gt(
    world: Sequence[ImageRecord],
    columns: Mapping[str, np.ndarray],
    overlaps: WorldOverlaps,
    survivors: Mapping[str, np.ndarray],
    config: RefinementConfig,
) -> PseudoGroundTruth:
    """Pick pseudo ground truth for every positive class of every image from current scores.

    ``columns`` is a score table (``score_table``), ``overlaps`` the world's
    ``world_overlaps`` and ``survivors`` a ``suppress_columns`` pass over both.
    Count-constrained selection of up to ``config.count_target(count)``
    regions walks each class's survivors in an image, in rank order, over the
    image's conflict words; every (image, positive class) problem of the
    world goes through one ``selection.greedy_walks`` call, which reads no
    threshold. An image without proposals gets an empty, incomplete
    selection. Overlaps of another world, a survivor row outside the world
    and a positive class without a column or survivors are ``ValueError``s.
    """
    features = _Features(world)
    offsets = features.offsets
    _check_columns(features, offsets[-1], columns)
    if not np.array_equal(overlaps.offsets, offsets):
        raise ValueError("overlaps were built for another world or image order")
    _check_rows("survivor", survivors, offsets[-1])
    targets = features.count_targets(config)
    unread = {name for name in targets if name not in columns or name not in survivors}
    if unread:
        record = next(r for r in features if not unread.isdisjoint(r.positive_classes()))
        name = next(name for name in record.positive_classes() if name in unread)
        raise ValueError(f"{record.image_id}: {name} has no score column or survivors")
    walked = walk_classes(overlaps, columns, survivors, targets)
    complete = {name: np.zeros(len(features), dtype=bool) for name in walked}
    for name, (images, _, done, _) in walked.items():
        complete[name][images] = done
    return PseudoGroundTruth({name: rows for name, (_, rows, _, _) in walked.items()}, complete)


def _check_rows(kind: str, rows: Mapping[str, np.ndarray], total: int) -> None:
    """Refuse a class's row outside ``[0, total)``, naming the class and the row."""
    for name, class_rows in rows.items():
        bad = class_rows[(class_rows < 0) | (class_rows >= total)]
        if bad.size:
            raise ValueError(f"{name}: {kind} row {bad[0]} is not in [0, {total})")


def retrain_scorer(
    pseudo_gt: PseudoGroundTruth,
    world: Sequence[ImageRecord],
    previous: CentroidScorer | None = None,
) -> CentroidScorer:
    """Fit per-class prototypes as the mean feature of selected regions.

    ``pseudo_gt`` is a ``select_pseudo_gt`` record over ``world``. A class
    with no selected regions anywhere keeps its previous prototype (zero when
    there is no previous scorer, which scores everything a neutral 0.5).
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
    selected = pseudo_gt.rows
    _check_rows("selected", selected, features.offsets[-1])
    every = np.concatenate([np.zeros(0, dtype=np.intp), *selected.values()])
    missing = every[features.dims[every] < 0]
    if missing.size:
        where, _, region_id = features.locate(missing.min()).rpartition(" proposal ")
        raise FeatureDimensionError(f"{where} selected proposal {region_id} has no feature")
    gathered = {c: () for record in world for c in record.counts} | selected
    kept = {} if previous is None else previous.prototypes
    prototypes = {
        name: features.stacked[0][rows].mean(axis=0) if len(rows)
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
    pseudo_gt: PseudoGroundTruth,
    world: Sequence[ImageRecord],
    table: TruthTable,
) -> float | None:
    """Pooled purity of selected regions across all images and classes.

    A region is pure when exactly one ground-truth box of its class reaches
    the match IoU with it: its row's candidate count in ``table``, the
    world's ground-truth table (``ground_truth_table``).
    """
    if table.image_ids != tuple(record.image_id for record in world):
        raise ValueError("ground-truth table was built for another world or image order")
    rows = pseudo_gt.rows
    _check_rows("selected", rows, _Features(world).offsets[-1])
    total = sum(len(class_rows) for class_rows in rows.values())
    pure = sum(
        int(np.count_nonzero(table.truth(class_id).candidates[class_rows] == 1))
        for class_id, class_rows in rows.items()
        if len(class_rows)
    )
    return pure / total if total else None


def score_table(
    world: Sequence[ImageRecord], scorer: CentroidScorer | None
) -> dict[str, np.ndarray]:
    """Every proposal's score per class, one ``(N,)`` array in stacked row order.

    Without a scorer each proposal's stored score is read, 0 for a class it
    lacks, and every class the world counts gets an array.
    """
    if scorer is None:
        scores = [p.scores for r in world for p in r.proposals]
        return {
            name: np.fromiter(map(dict.get, scores, repeat(name), repeat(0.0)), float, len(scores))
            for name in sorted({c for record in world for c in record.counts})
        }
    prototypes = {name: np.asarray(p, dtype=float) for name, p in scorer.prototypes.items()}
    for name, prototype in prototypes.items():
        if prototype.shape != (scorer.feature_dim,):
            found = f"{name}: prototype has shape {prototype.shape}"
            raise FeatureDimensionError(f"{found}, scorer expects ({scorer.feature_dim},)")
        with np.errstate(over="ignore", invalid="ignore"):
            square = prototype @ prototype
        if not np.isfinite(square):
            raise FeatureDimensionError(f"{name}: prototype is too large to score")
    features = _Features(world)
    bad = np.flatnonzero(features.dims != scorer.feature_dim)
    if bad.size:
        dim, expected = features.dims[bad[0]], scorer.feature_dim
        found = "no feature" if dim < 0 else f"dimension {dim}, scorer expects {expected}"
        raise FeatureDimensionError(f"{features.locate(bad[0])} has {found}")
    matrix, norms = features.stacked
    columns = {}
    for name, prototype in prototypes.items():
        dots, denominator = _row_dots(matrix, prototype), norms * math.sqrt(prototype @ prototype)
        # A zero norm gives cosine 0, a neutral 0.5; rounding can push others a hair past [0, 1].
        cosine = np.divide(dots, denominator, out=np.zeros_like(dots), where=denominator != 0.0)
        columns[name] = np.clip((1.0 + cosine) / 2.0, 0.0, 1.0)
    return columns


def _check_columns(
    world: Sequence[ImageRecord], total: int, columns: Mapping[str, np.ndarray]
) -> None:
    """Refuse a column that is not one score in [0, 1] per proposal, naming where.

    ``total`` is the world's proposal count, which callers holding its
    offsets read from them.
    """
    for name, column in columns.items():
        if len(column) > total:
            raise ValueError(f"{name}: got {len(column)} scores for {total} proposals")
        if len(column) < total:
            raise ValueError(f"{_Features(world).locate(len(column))} has no {name} score")
        bad = np.flatnonzero(~((column >= 0.0) & (column <= 1.0)))  # NaN is bad too
        if bad.size:
            where, score = _Features(world).locate(bad[0]), column[bad[0]]
            raise ValueError(f"{where}: {name} score must be in [0, 1], got {score}")


def detections_from_scores(
    world: Sequence[ImageRecord], columns: Mapping[str, np.ndarray], nms_threshold: float
) -> list[Detection]:
    """Suppression survivors of every image and scored class, as detections.

    ``columns`` holds one score per proposal of ``world`` for each class, as
    ``score_table`` returns them. Detections come image by image, then class
    by class, each class's in rank order.
    """
    _check_columns(world, sum(len(record.proposals) for record in world), columns)
    # Only the suppression words are read; any selection threshold will do.
    overlaps = world_overlaps(world, nms_threshold, DEFAULT_OVERLAP_THRESHOLD)
    kept = survivors_by_image(overlaps, suppress_columns(overlaps, columns))
    scores = {name: column.tolist() for name, column in columns.items()}
    return [
        Detection(record.image_id, name, record.proposals[i].box, scores[name][start + i])
        for k, (record, start) in enumerate(zip(world, overlaps.offsets.tolist()))
        for name in columns
        for i in kept[name][k]
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
    overlaps = world_overlaps(world, config.nms_threshold, config.threshold)
    # The overlaps hold the run's one conversion of its boxes to corners.
    table = ground_truth_table(world, overlaps.boxes, config.corloc_variant)
    report = RefinementReport(config=config)
    scorer: CentroidScorer | None = None
    columns = score_table(world, scorer)
    _check_columns(world, world.offsets[-1], columns)
    survivors = suppress_columns(overlaps, columns)

    def evaluate(purity: float | None) -> EvalReport:
        picks = {name: (rows, columns[name][rows]) for name, rows in survivors.items()}
        return replace(evaluate_picks(table, picks, ap_mode=config.ap_mode), purity=purity)

    report.iterations.append(IterationReport(iteration=0, report=evaluate(None)))
    for iteration in range(1, config.iterations + 1):
        # Selection walks the survivors the last evaluation suppressed these scores to.
        pseudo_gt = select_pseudo_gt(world, columns, overlaps, survivors, config)
        scorer = retrain_scorer(pseudo_gt, world, previous=scorer)
        columns = score_table(world, scorer)
        survivors = suppress_columns(overlaps, columns)
        purity_value = selection_purity(pseudo_gt, world, table)
        report.iterations.append(IterationReport(iteration, evaluate(purity_value)))
        corloc = report.iterations[-1].report.mean_corloc
        logger.info("iteration %d: corloc=%s purity=%s", iteration, corloc, purity_value)
    report.scorer = scorer
    return report
