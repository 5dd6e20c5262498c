"""Detection metrics: greedy matching, average precision and localization.

Ground truth is passed as ``image_id -> class_id -> [Box, ...]``; only classes
with at least one box anywhere count toward the mean metrics, the rest are
reported as absent. A detection matches a ground-truth box at the PASCAL
criterion, IoU >= 0.5 (``MATCH_IOU``).

Every metric works from match rows, which ``truth_table`` builds for a set of
images: for each box of an image and each class with ground truth there, the
ground-truth indices its IoU reaches 0.5 with, best first, and whether it
localizes an instance for CorLoc. ``evaluate_picks`` turns picks of a
``TruthTable`` into per-class columns, ranks each class once, runs one greedy
matching walk and assembles the report. Each call of ``build_report``,
``slice_by_count`` (that report with its count buckets), ``match_detections``
or ``corloc`` (the report's CorLoc of one class) builds one table over its
``Detection`` list; the refinement loop builds one over its proposals once per
run and picks its suppression survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .geometry import PAIRS_PER_BATCH, Box, paired_overlaps

__all__ = [
    "AP_MODES",
    "CORLOC_VARIANTS",
    "MATCH_IOU",
    "Detection",
    "TruthRows",
    "TruthTable",
    "EvalReport",
    "truth_table",
    "evaluate_picks",
    "match_detections",
    "average_precision",
    "corloc",
    "build_report",
    "slice_by_count",
    "count_bucket",
]

AP_MODES = ("11pt", "area")
CORLOC_VARIANTS = ("iou50", "center")
MATCH_IOU = 0.5

# One image for ``truth_table``: its corner boxes and its ground truth by class.
ImageTruth = tuple[Sequence[tuple[float, float, float, float]], Mapping[str, Sequence[Box]]]
# A pick: a table image, a class, its picked box positions, confidences by box position.
Pick = tuple[int, str, Sequence[int], Sequence[float]]


@dataclass(frozen=True, slots=True)
class Detection:
    """One scored detection of a class in an image."""

    image_id: str
    class_id: str
    box: Box
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True, slots=True)
class TruthRows:
    """The boxes of one image against the image's ground truth of one class.

    ``matches[i]`` lists the ground-truth indices whose IoU with box i reaches
    0.5, highest IoU first and ties by index: the order in which greedy
    matching tries them. Boxes without such an index are left out. ``hits``
    holds the boxes that localize an instance under the CorLoc variant.
    """

    matches: dict[int, list[int]]
    hits: set[int]


def _batch_rows(images: Sequence[ImageTruth], corloc_variant: str) -> list[dict[str, TruthRows]]:
    out: list[dict[str, TruthRows]] = []
    groups: list[TruthRows] = []
    boxes: list[tuple[float, float, float, float]] = []
    gt_boxes: list[tuple[float, float, float, float]] = []
    gt_group: list[int] = []
    gt_index: list[int] = []
    box_counts: list[int] = []
    gt_counts: list[int] = []
    for image_boxes, gt in images:
        rows = {}
        first = len(gt_boxes)
        for name, class_gt in gt.items():
            if not class_gt:
                continue
            rows[name] = TruthRows(matches={}, hits=set())
            groups.append(rows[name])
            gt_boxes.extend(box.as_tuple() for box in class_gt)
            gt_group.extend([len(groups) - 1] * len(class_gt))
            gt_index.extend(range(len(class_gt)))
        out.append(rows)
        boxes.extend(image_boxes)
        box_counts.append(len(image_boxes))
        gt_counts.append(len(gt_boxes) - first)
    # Pair every box with every ground-truth box of its image; pair_box and
    # pair_gt index the flat lists, position is the box's index in its image.
    n_boxes = np.asarray(box_counts, dtype=int)
    n_gt = np.asarray(gt_counts, dtype=int)
    image = np.repeat(np.arange(len(n_boxes)), n_boxes)
    per_box = n_gt[image]
    pair_box = np.repeat(np.arange(len(boxes)), per_box)
    first_pair = np.cumsum(per_box) - per_box
    first_gt = (np.cumsum(n_gt) - n_gt)[image]
    pair_gt = np.arange(len(pair_box)) - first_pair[pair_box] + first_gt[pair_box]
    position = (np.arange(len(boxes)) - (np.cumsum(n_boxes) - n_boxes)[image])[pair_box]
    b = np.asarray(boxes, dtype=float).reshape(-1, 4)
    g = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)[pair_gt]
    group = np.asarray(gt_group, dtype=int)[pair_gt]
    index = np.asarray(gt_index, dtype=int)[pair_gt]
    ious, _ = paired_overlaps(b[pair_box], g)
    candidate = np.flatnonzero(ious >= MATCH_IOU)
    if corloc_variant == "iou50":
        hit = candidate
    else:
        cx = ((b[:, 0] + b[:, 2]) / 2.0)[pair_box]
        cy = ((b[:, 1] + b[:, 3]) / 2.0)[pair_box]
        hit = np.flatnonzero(
            (g[:, 0] <= cx) & (cx <= g[:, 2]) & (g[:, 1] <= cy) & (cy <= g[:, 3])
        )
    # IoU descending, then ground-truth index: the order greedy matching tries.
    candidate = candidate[np.lexsort((index[candidate], -ious[candidate]))]
    for k, i, j in zip(
        group[candidate].tolist(), position[candidate].tolist(), index[candidate].tolist()
    ):
        groups[k].matches.setdefault(i, []).append(j)
    for k, i in zip(group[hit].tolist(), position[hit].tolist()):
        groups[k].hits.add(i)
    return out


@dataclass(frozen=True)
class TruthTable:
    """The match rows of a set of images, indexed by table image.

    ``rows[k]`` holds image k's ``TruthRows`` per class with ground truth
    there, by box position; ``rank[k]`` is image k's position in image_id
    order, the ranking's tie-break.
    """

    image_ids: tuple[str, ...]
    rank: tuple[int, ...]
    rows: tuple[dict[str, TruthRows], ...]


def truth_table(
    image_ids: Sequence[str], images: Iterable[ImageTruth], corloc_variant: str = "iou50"
) -> TruthTable:
    """Match rows of ``images``, the corner boxes and ground truth of the named images.

    The IoU of every box with every ground-truth box of its image comes from
    ``geometry.paired_overlaps``, so it is ``iou(box, gt_box)`` bit for bit.
    The ``iou50`` CorLoc hit is a match candidate; ``center`` asks that the
    box's center lie inside a ground-truth box, boundary included.
    """
    if len(set(image_ids)) != len(image_ids):
        raise ValueError("image_ids must be unique within a table")
    if corloc_variant not in CORLOC_VARIANTS:
        raise ValueError(f"unknown corloc variant: {corloc_variant!r}")
    rank = {image_id: r for r, image_id in enumerate(sorted(image_ids))}
    rows: list[dict[str, TruthRows]] = []
    batch: list[ImageTruth] = []
    pairs = 0
    for image in images:
        batch.append(image)
        pairs += len(image[0]) * sum(len(boxes) for boxes in image[1].values())
        if pairs >= PAIRS_PER_BATCH:
            rows.extend(_batch_rows(batch, corloc_variant))
            batch, pairs = [], 0
    rows.extend(_batch_rows(batch, corloc_variant))
    return TruthTable(
        image_ids=tuple(image_ids),
        rank=tuple(rank[image_id] for image_id in image_ids),
        rows=tuple(rows),
    )


@dataclass
class ClassColumns:
    """One class's picked boxes as columns, in pick order.

    ``image`` holds each box's image rank, the ranking's tie-break. ``matches``
    maps the position of each box with match candidates to them; ``hits``
    lists the positions of boxes that localize an instance.
    """

    confidence: list[float] = field(default_factory=list)
    image: list[int] = field(default_factory=list)
    matches: dict[int, list[int]] = field(default_factory=dict)
    hits: list[int] = field(default_factory=list)


def _rank(columns: ClassColumns) -> np.ndarray:
    # Confidence descending, ties by image then input position (lexsort is
    # stable), so a monotone rescoring cannot reshuffle the ranking.
    return np.lexsort((np.asarray(columns.image), -np.asarray(columns.confidence, dtype=float)))


def _match(columns: ClassColumns, order: np.ndarray) -> list[bool]:
    # Greedy TP/FP walk in rank order over the detections with candidates:
    # each takes its best untaken ground-truth box of its image.
    flags = [False] * len(order)
    candidate = np.zeros(len(order), dtype=bool)
    candidate[list(columns.matches)] = True
    ranked = order.tolist()
    taken: set[tuple[int, int]] = set()
    for r in np.flatnonzero(candidate[order]).tolist():
        k = ranked[r]
        image = columns.image[k]
        for j in columns.matches[k]:
            if (image, j) not in taken:
                taken.add((image, j))
                flags[r] = True
                break
    return flags


def _localized(columns: ClassColumns, order: np.ndarray) -> int:
    # Images whose top-ranked detection localizes an instance.
    _, first = np.unique(np.asarray(columns.image)[order], return_index=True)
    hit = np.zeros(len(order), dtype=bool)
    hit[columns.hits] = True
    return int(np.count_nonzero(hit[order[first]]))


def _columns(table: TruthTable, picks: Iterable[Pick]) -> dict[str, ClassColumns]:
    columns: dict[str, ClassColumns] = {}
    for k, name, kept, confidences in picks:
        if not kept:
            continue
        col = columns.get(name)
        if col is None:
            col = columns[name] = ClassColumns()
        base = len(col.confidence)
        col.confidence.extend([confidences[i] for i in kept])
        col.image.extend([table.rank[k]] * len(kept))
        rows = table.rows[k].get(name)
        if rows is None:
            continue
        for t, i in enumerate(kept):
            if i in rows.matches:
                col.matches[base + t] = rows.matches[i]
            if i in rows.hits:
                col.hits.append(base + t)
    return columns


def _detection_picks(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    corloc_variant: str,
) -> tuple[TruthTable, list[Pick]]:
    """A table over the detections' boxes, and one pick per image and class.

    Only detections of classes with ground truth in their image become table
    boxes; the image's others follow them in its confidences. Picks keep the
    input order within an image and class.
    """
    by_image: dict[str, dict[str, list[Detection]]] = {}
    for d in detections:
        by_image.setdefault(d.image_id, {}).setdefault(d.class_id, []).append(d)
    picks: list[Pick] = []

    def images() -> Iterator[ImageTruth]:
        # The table takes these a batch at a time, so few boxes are held at once;
        # the picks are filled as it goes.
        for k, (image_id, by_class) in enumerate(by_image.items()):
            image_gt = gt.get(image_id, {})
            boxes: list[tuple[float, float, float, float]] = []
            confidences: list[float] = []
            for name, dets in sorted(by_class.items(), key=lambda item: not image_gt.get(item[0])):
                first = len(confidences)
                confidences.extend(d.confidence for d in dets)
                picks.append((k, name, range(first, len(confidences)), confidences))
                if image_gt.get(name):
                    boxes.extend(d.box.as_tuple() for d in dets)
            yield boxes, image_gt

    return truth_table(list(by_image), images(), corloc_variant), picks


def match_detections(
    detections: Sequence[Detection], gt_boxes: Mapping[str, Sequence[Box]]
) -> list[bool]:
    """Greedy TP/FP assignment for one class, returned in rank order.

    Each detection matches the highest-IoU unmatched ground-truth box of its
    image when that IoU reaches 0.5; every ground-truth box absorbs at most
    one detection, so duplicates become false positives.
    """
    # One class: every detection is matched against its image's boxes.
    single = [replace(d, class_id="") for d in detections]
    gt = {image_id: {"": boxes} for image_id, boxes in gt_boxes.items()}
    columns = _columns(*_detection_picks(single, gt, "iou50")).get("", ClassColumns())
    return _match(columns, _rank(columns))


def average_precision(
    tp_flags: Sequence[bool], num_gt: int, mode: str = "11pt"
) -> float:
    """Average precision from rank-ordered TP/FP flags.

    ``11pt`` averages the best precision at recall thresholds 0.0, 0.1, ...,
    1.0; ``area`` integrates the monotone-interpolated precision envelope over
    recall. No ground truth means no recall, so the AP is 0.
    """
    if mode not in AP_MODES:
        raise ValueError(f"unknown AP mode: {mode!r}")
    if num_gt < 0:
        raise ValueError(f"num_gt must be >= 0, got {num_gt}")
    if num_gt == 0 or not len(tp_flags):
        return 0.0
    if sum(tp_flags) > num_gt:
        raise ValueError(
            f"{sum(tp_flags)} true positives exceed {num_gt} ground-truth boxes"
        )
    tp = np.cumsum(np.asarray(tp_flags, dtype=float))
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / num_gt
    if mode == "11pt":
        total = 0.0
        for threshold in (j / 10 for j in range(11)):
            over = precision[recall >= threshold]
            total += float(over.max()) if over.size else 0.0
        return total / 11.0
    mrec = np.concatenate(([0.0], recall, [1.0]))
    # The envelope: the best precision at this recall or any higher one.
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def corloc(
    top_detections: Mapping[str, Detection | None],
    gt_boxes: Mapping[str, Sequence[Box]],
    variant: str = "iou50",
) -> float | None:
    """Fraction of positive images whose top detection localizes the class.

    ``iou50`` demands IoU of at least 0.5 with some ground-truth box;
    ``center`` only that the detection's center falls inside one. A detection
    counts for the image it is filed under; images without ground truth are
    ignored, and with no positive images the rate is undefined (None).
    """
    tops = [replace(d, image_id=key, class_id="") for key, d in top_detections.items() if d]
    gt = {image_id: {"": boxes} for image_id, boxes in gt_boxes.items()}
    return build_report(tops, gt, corloc_variant=variant).per_class_corloc.get("")


@dataclass
class EvalReport:
    """Per-class and averaged detection metrics.

    Classes never seen in the ground truth get AP 0 and are listed in
    ``absent_classes`` instead of entering the means. ``purity`` is the
    refinement loop's selection purity; other reports leave it None.
    """

    per_class_ap: dict[str, float] = field(default_factory=dict)
    per_class_corloc: dict[str, float] = field(default_factory=dict)
    mean_ap: float | None = None
    mean_corloc: float | None = None
    purity: float | None = None
    absent_classes: tuple[str, ...] = ()
    buckets: dict[str, "EvalReport"] | None = None


def evaluate_picks(
    table: TruthTable,
    picks: Iterable[Pick],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    *,
    ap_mode: str = "11pt",
) -> EvalReport:
    """Aggregate picked boxes of ``table`` against ground truth into an EvalReport.

    The table's rows must come from ``gt``. Every class with picks or named
    in ``gt`` gets an AP; one without ground-truth boxes is absent, with AP 0
    and no CorLoc.
    """
    columns = _columns(table, picks)
    # Ground-truth boxes and positive images per class with any boxes.
    gt_counts: dict[str, tuple[int, int]] = {}
    for per_class in gt.values():
        for name, boxes in per_class.items():
            if boxes:
                num_gt, positives = gt_counts.get(name, (0, 0))
                gt_counts[name] = (num_gt + len(boxes), positives + 1)
    # _columns makes a column only for a class with at least one pick.
    class_names = sorted({name for per_class in gt.values() for name in per_class} | set(columns))
    per_class_ap: dict[str, float] = {}
    per_class_corloc: dict[str, float] = {}
    absent: list[str] = []
    for name in class_names:
        num_gt, positives = gt_counts.get(name, (0, 0))
        if num_gt == 0:
            # No recall without ground truth; the call still checks the mode.
            per_class_ap[name] = average_precision([], 0, ap_mode)
            absent.append(name)
            continue
        col = columns.get(name, ClassColumns())
        order = _rank(col)
        per_class_ap[name] = average_precision(_match(col, order), num_gt, ap_mode)
        per_class_corloc[name] = _localized(col, order) / positives
    present_ap = [v for name, v in per_class_ap.items() if name not in absent]
    corlocs = list(per_class_corloc.values())
    return EvalReport(
        per_class_ap=per_class_ap,
        per_class_corloc=per_class_corloc,
        mean_ap=sum(present_ap) / len(present_ap) if present_ap else None,
        mean_corloc=sum(corlocs) / len(corlocs) if corlocs else None,
        absent_classes=tuple(absent),
    )


def build_report(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    *,
    corloc_variant: str = "iou50",
    ap_mode: str = "11pt",
) -> EvalReport:
    """Aggregate detections against ground truth into an EvalReport."""
    table, picks = _detection_picks(detections, gt, corloc_variant)
    return evaluate_picks(table, picks, gt, ap_mode=ap_mode)


def count_bucket(count: int) -> str:
    """Bucket label for a per-image, per-class ground-truth count."""
    if count < 1:
        raise ValueError(f"bucketed counts must be >= 1, got {count}")
    return str(count) if count <= 3 else "4+"


def slice_by_count(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    *,
    corloc_variant: str = "iou50",
    ap_mode: str = "11pt",
) -> EvalReport:
    """``build_report``'s report, with ``buckets`` split by ground-truth count.

    An (image, class) pair lands in the bucket of its count, 1, 2, 3 or 4+;
    empty buckets are omitted. One table serves the report and every bucket.
    """
    bucket_of = {
        (image_id, name): count_bucket(len(boxes))
        for image_id, per_class in gt.items()
        for name, boxes in per_class.items()
        if boxes
    }
    table, picks = _detection_picks(detections, gt, corloc_variant)
    report = evaluate_picks(table, picks, gt, ap_mode=ap_mode)
    report.buckets = {}
    for bucket in sorted(set(bucket_of.values())):
        bucket_gt = {
            image_id: {
                name: boxes
                for name, boxes in per_class.items()
                if bucket_of.get((image_id, name)) == bucket
            }
            for image_id, per_class in gt.items()
        }
        bucket_picks = [p for p in picks if bucket_of.get((table.image_ids[p[0]], p[1])) == bucket]
        report.buckets[bucket] = evaluate_picks(table, bucket_picks, bucket_gt, ap_mode=ap_mode)
    return report
