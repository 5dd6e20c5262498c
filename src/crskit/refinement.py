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
proposal against its image's ground truth once (``ground_truth_table``), in a
table whose row r is stacked proposal r: the run's only record of ground
truth. A score table (``score_table``) is one ``(N,)`` array per class, in the
same row order; no per-image table is kept. Each table is suppressed once, by
one ``selection.suppress_columns`` pass over the arrays (one array step per
rank position of each proposal-count block, classes stacked), into every
(image, class) survivor as table rows. Its evaluation gathers their
confidences from the arrays and passes both to ``evaluation.evaluate_picks``,
with no ``Detection`` objects; the next selection walks the same survivors
image by image (``selection.survivors_by_image``): ``select_pseudo_gt`` takes
an image's survivors, masks and count target, and reads no threshold. Every
purity count reads the table's candidate counts. Features never change
either, so ``run_adr`` stacks them once into a private feature state
(``_Features``): each rescoring computes all of a class's scores in one
stacked kernel, and retraining and purity map the selected regions to its
rows, which retraining averages by index. ``run_adr`` checks the initial
score table up front, ``detections_from_scores`` the one it is given.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
from .geometry import box_array
from .selection import (
    DEFAULT_NMS_THRESHOLD,
    DEFAULT_OVERLAP_THRESHOLD,
    SelectionResult,
    _check_threshold,
    greedy_walk,
    nms,  # noqa: F401  re-exported: perfbench/tests checks refinement.nms is selection.nms
    suppress_columns,
    survivors_by_image,
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
    """Raised for a missing, mismatched or too large feature, or a mismatched prototype."""


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
    maps its unique region ids to positions in the image, and ``dims`` holds
    each row's feature length (-1 for none), so length checks precede the stacking.
    """

    def __new__(cls, world: Sequence[ImageRecord]) -> "_Features":
        if isinstance(world, cls):
            return world
        self = super().__new__(cls, world)
        self.offsets = np.cumsum([0] + [len(r.proposals) for r in self])
        self.positions = [{p.region_id: i for i, p in enumerate(r.proposals)} for r in self]
        for record, positions in zip(self, self.positions):
            if len(positions) != len(record.proposals):
                raise ValueError(f"{record.image_id}: region_ids must be unique within an image")
        self._rows = [p.feature for r in self for p in r.proposals]
        self.dims = np.array([-1 if f is None else len(f) for f in self._rows], dtype=int)
        return self

    def locate(self, row: int) -> str:
        """``"<image_id>: proposal <region_id>"`` for stacked row ``row``."""
        k = int(np.searchsorted(self.offsets, row, side="right")) - 1
        return f"{self[k].image_id}: proposal {self[k].proposals[row - self.offsets[k]].region_id}"

    def selected_rows(
        self, pseudo_gt: Mapping[str, Mapping[str, SelectionResult]]
    ) -> dict[str, list[int]]:
        """Each class's selected regions as stacked rows, image by image in world order.

        An image or a region id the world lacks is a ``ValueError`` naming it.
        """
        unknown = pseudo_gt.keys() - {record.image_id for record in self}
        if unknown:
            raise ValueError(f"{min(unknown)}: pseudo ground truth for an image not in the world")
        rows: dict[str, list[int]] = {}
        for record, offset, positions in zip(self, self.offsets.tolist(), self.positions):
            for class_id, result in (pseudo_gt.get(record.image_id) or {}).items():
                for region_id in result.selected:
                    if region_id not in positions:
                        raise ValueError(
                            f"{record.image_id}: selected region {region_id} is not a proposal"
                        )
                    rows.setdefault(class_id, []).append(offset + positions[region_id])
        return rows

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


def _check_scores(image: ImageRecord, class_scores: Sequence[float]) -> None:
    if len(class_scores) != len(image.proposals):
        raise ValueError(
            f"{image.image_id}: got {len(class_scores)} scores for "
            f"{len(image.proposals)} proposals"
        )
    for score in class_scores:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"{image.image_id}: score must be in [0, 1], got {score}")


def ground_truth_table(
    world: Sequence[ImageRecord], corloc_variant: str = "iou50"
) -> TruthTable:
    """Match every proposal of ``world`` against its image's ground truth.

    Table image k is ``world[k]``, and row r is the world's r-th proposal.
    """
    return truth_table(
        [record.image_id for record in world],
        [record.gt_boxes for record in world],
        np.repeat(np.arange(len(world)), [len(record.proposals) for record in world]),
        box_array(p.box for r in world for p in r.proposals),
        corloc_variant,
    )


def select_pseudo_gt(
    image: ImageRecord,
    class_scores: Sequence[float],
    kept: Sequence[int],
    target: int,
    masks: Sequence[int],
) -> SelectionResult:
    """Pick pseudo ground truth for one image and class from current scores.

    ``kept`` holds the class's suppression survivors in the image, positions
    in rank order, as ``selection.survivors_by_image`` splits them from a
    ``suppress_columns`` pass over the same scores. Count-constrained
    selection of up to ``target`` regions (a run passes
    ``RefinementConfig.count_target``) walks them over ``masks``, the image's
    conflict masks from the run's ``world_overlaps``, one per proposal. A
    position of ``kept`` outside the image's proposals is a ``ValueError``.
    An image without proposals yields an empty, incomplete result.
    """
    if isinstance(target, bool) or not isinstance(target, int) or target < 1:
        raise ValueError(f"{image.image_id}: target must be an int >= 1, got {target!r}")
    _check_scores(image, class_scores)
    n = len(image.proposals)
    if len(masks) != n:
        raise ValueError(f"{image.image_id}: got {len(masks)} masks for {n} proposals")
    if len(kept) and (min(kept) < 0 or max(kept) >= n):
        raise ValueError(f"{image.image_id}: kept positions must be in [0, {n}), got {kept}")
    chosen, total = greedy_walk(kept, class_scores, masks, target)
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
    selected = features.selected_rows(pseudo_gt)
    missing = [row for rows in selected.values() for row in rows if features.dims[row] < 0]
    if missing:
        where, _, region_id = features.locate(min(missing)).rpartition(" proposal ")
        raise FeatureDimensionError(f"{where} selected proposal {region_id} has no feature")
    gathered = {c: [] for record in world for c in record.counts} | selected
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
    the match IoU with it: its row's candidate count in ``table``, the
    world's ground-truth table (``ground_truth_table``).
    """
    if table.image_ids != tuple(record.image_id for record in world):
        raise ValueError("ground-truth table was built for another world or image order")
    rows = _Features(world).selected_rows(pseudo_gt)
    total = sum(len(class_rows) for class_rows in rows.values())
    pure = sum(
        int(np.count_nonzero(table.truth(class_id).candidates[class_rows] == 1))
        for class_id, class_rows in rows.items()
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
        return {
            name: np.fromiter((p.scores.get(name, 0.0) for r in world for p in r.proposals), float)
            for name in sorted({c for record in world for c in record.counts})
        }
    prototypes = {name: np.asarray(p, dtype=float) for name, p in scorer.prototypes.items()}
    for name, prototype in prototypes.items():
        if prototype.shape != (scorer.feature_dim,):
            found = f"{name}: prototype has shape {prototype.shape}"
            raise FeatureDimensionError(f"{found}, scorer expects ({scorer.feature_dim},)")
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


def _check_columns(world: Sequence[ImageRecord], columns: Mapping[str, np.ndarray]) -> None:
    """Refuse a column that is not one score in [0, 1] per proposal, naming where."""
    total = sum(len(record.proposals) for record in world)
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
    _check_columns(world, columns)
    # Only the suppression blocks are read; any selection threshold will do.
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
    table = ground_truth_table(world, config.corloc_variant)
    report = RefinementReport(config=config)
    scorer: CentroidScorer | None = None
    columns = score_table(world, scorer)
    _check_columns(world, columns)
    survivors = suppress_columns(overlaps, columns)
    offsets = world.offsets.tolist()

    def evaluate(purity: float | None) -> EvalReport:
        picks = {name: (rows, columns[name][rows]) for name, rows in survivors.items()}
        return replace(evaluate_picks(table, picks, ap_mode=config.ap_mode), purity=purity)

    report.iterations.append(IterationReport(iteration=0, report=evaluate(None)))
    for iteration in range(1, config.iterations + 1):
        # Selection walks the survivors the last evaluation suppressed these scores to.
        kept = survivors_by_image(overlaps, survivors)
        pseudo_gt: dict[str, dict[str, SelectionResult]] = {}
        images = zip(world, overlaps.conflict, offsets, offsets[1:])
        for k, (record, masks, start, end) in enumerate(images):
            picks = {
                name: select_pseudo_gt(
                    record, columns[name][start:end].tolist(), kept[name][k],
                    config.count_target(record.counts[name]), masks,
                )
                for name in record.positive_classes()
            }
            if picks:
                pseudo_gt[record.image_id] = picks
        scorer = retrain_scorer(pseudo_gt, world, previous=scorer)
        columns = score_table(world, scorer)
        survivors = suppress_columns(overlaps, columns)
        purity_value = selection_purity(pseudo_gt, world, table)
        report.iterations.append(IterationReport(iteration, evaluate(purity_value)))
        corloc = report.iterations[-1].report.mean_corloc
        logger.info("iteration %d: corloc=%s purity=%s", iteration, corloc, purity_value)
    report.scorer = scorer
    return report
