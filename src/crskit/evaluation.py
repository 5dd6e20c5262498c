"""Detection metrics: greedy matching, average precision, localization, purity.

Ground truth is passed as ``image_id -> class_id -> [Box, ...]``; only classes
with at least one box anywhere count toward the mean metrics, the rest are
reported as absent.

Every metric works from match rows (``truth_rows``): for each box of an image
and each class with ground truth there, the ground-truth indices its IoU
reaches the match threshold with, best first, and whether it localizes an
instance for CorLoc. One ranking, one greedy matching walk and one report
assembly (``assemble_report``) then work from per-class detection columns
(``ClassColumns``). ``build_report``, ``match_detections`` and
``slice_by_count`` turn their ``Detection`` lists into those columns; the
refinement loop builds its rows once per run, because its boxes and ground
truth never change, and its columns from the suppression survivors directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import Box, paired_overlaps

__all__ = [
    "AP_MODES",
    "CORLOC_VARIANTS",
    "Detection",
    "TruthRows",
    "ClassColumns",
    "EvalReport",
    "truth_rows",
    "match_detections",
    "average_precision",
    "corloc",
    "is_pure",
    "purity",
    "assemble_report",
    "build_report",
    "slice_by_count",
    "count_bucket",
]

AP_MODES = ("11pt", "area")
CORLOC_VARIANTS = ("iou50", "center")
MATCH_IOU = 0.5
PAIRS_PER_BATCH = 4096

# One image for ``truth_rows``: its corner boxes and its ground truth by class.
ImageTruth = tuple[Sequence[tuple[float, float, float, float]], Mapping[str, Sequence[Box]]]


@dataclass(frozen=True)
class Detection:
    """One scored detection of a class in an image."""

    image_id: str
    class_id: str
    box: Box
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class TruthRows:
    """The boxes of one image against the image's ground truth of one class.

    ``matches[i]`` lists the ground-truth indices whose IoU with box i reaches
    the match threshold, highest IoU first and ties by index: the order in
    which greedy matching tries them. Boxes without such an index are left
    out. ``hits`` holds the boxes that localize an instance under the CorLoc
    variant.
    """

    matches: dict[int, list[int]]
    hits: set[int]


def truth_rows(
    images: Iterable[ImageTruth],
    corloc_variant: str = "iou50",
    iou_threshold: float = MATCH_IOU,
) -> list[dict[str, TruthRows]]:
    """Match rows of each image's corner boxes, per class with ground truth there.

    ``images`` pairs each image's boxes with its ground truth. The IoU of
    every box with every ground-truth box of its image comes from
    ``geometry.paired_overlaps``, so it is ``iou(box, gt_box)`` bit for bit.
    The ``iou50`` CorLoc hit is an IoU of at least 0.5 with some ground-truth
    box, whatever ``iou_threshold`` is; ``center`` asks that the box's center
    lie inside one, boundary included.
    """
    if corloc_variant not in CORLOC_VARIANTS:
        raise ValueError(f"unknown corloc variant: {corloc_variant!r}")
    out: list[dict[str, TruthRows]] = []
    batch: list[ImageTruth] = []
    pairs = 0
    for image in images:
        batch.append(image)
        pairs += len(image[0]) * sum(len(boxes) for boxes in image[1].values())
        # Batches of a few thousand pairs keep the per-pair temporaries (about
        # 150 bytes a pair) small at a handful of numpy calls per batch.
        if pairs >= PAIRS_PER_BATCH:
            out.extend(_batch_rows(batch, corloc_variant, iou_threshold))
            batch, pairs = [], 0
    out.extend(_batch_rows(batch, corloc_variant, iou_threshold))
    return out


def _batch_rows(
    images: Sequence[ImageTruth],
    corloc_variant: str,
    iou_threshold: float,
) -> list[dict[str, TruthRows]]:
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
    candidate = np.flatnonzero(ious >= iou_threshold)
    # IoU descending, then ground-truth index: the order greedy matching tries.
    candidate = candidate[np.lexsort((index[candidate], -ious[candidate]))]
    for k, i, j in zip(
        group[candidate].tolist(), position[candidate].tolist(), index[candidate].tolist()
    ):
        groups[k].matches.setdefault(i, []).append(j)
    if corloc_variant == "iou50":
        hit = ious >= MATCH_IOU
    else:
        cx = ((b[:, 0] + b[:, 2]) / 2.0)[pair_box]
        cy = ((b[:, 1] + b[:, 3]) / 2.0)[pair_box]
        hit = (g[:, 0] <= cx) & (cx <= g[:, 2]) & (g[:, 1] <= cy) & (cy <= g[:, 3])
    hit = np.flatnonzero(hit)
    for k, i in zip(group[hit].tolist(), position[hit].tolist()):
        groups[k].hits.add(i)
    return out


@dataclass
class ClassColumns:
    """One class's detections as columns, in input order.

    ``image`` holds each detection's image rank: its image_id's position in
    sorted order, the ranking's tie-break. ``matches`` maps the position of
    each detection with match candidates to them (a ``TruthRows.matches``
    entry); ``hits`` lists the positions of detections that localize an
    instance.
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
    if not columns.matches:
        return flags
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
    if not columns.hits:
        return 0
    _, first = np.unique(np.asarray(columns.image)[order], return_index=True)
    hit = np.zeros(len(order), dtype=bool)
    hit[columns.hits] = True
    return int(np.count_nonzero(hit[order[first]]))


def _detection_rows(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    iou_threshold: float,
    corloc_variant: str,
) -> tuple[list[int], list[list[int] | None], list[bool]]:
    """Image rank, match candidates and CorLoc hit of every detection."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    rank = {image_id: r for r, image_id in enumerate(sorted({d.image_id for d in detections}))}
    members: dict[str, list[int]] = {}
    for k, d in enumerate(detections):
        if gt.get(d.image_id, {}).get(d.class_id):
            members.setdefault(d.image_id, []).append(k)
    matches: list[list[int] | None] = [None] * len(detections)
    hits = [False] * len(detections)
    images = (
        ([detections[k].box.as_tuple() for k in ks], gt[image_id])
        for image_id, ks in members.items()
    )
    for ks, rows in zip(
        members.values(), truth_rows(images, corloc_variant, iou_threshold)
    ):
        for t, k in enumerate(ks):
            class_rows = rows[detections[k].class_id]
            matches[k] = class_rows.matches.get(t)
            hits[k] = t in class_rows.hits
    return [rank[d.image_id] for d in detections], matches, hits


def _columns(
    detections: Sequence[Detection],
    keep: Sequence[int],
    rows: tuple[list[int], list[list[int] | None], list[bool]],
) -> dict[str, ClassColumns]:
    rank, matches, hits = rows
    columns: dict[str, ClassColumns] = {}
    for k in keep:
        d = detections[k]
        col = columns.get(d.class_id)
        if col is None:
            col = columns[d.class_id] = ClassColumns()
        position = len(col.confidence)
        col.confidence.append(d.confidence)
        col.image.append(rank[k])
        if matches[k]:
            col.matches[position] = matches[k]
        if hits[k]:
            col.hits.append(position)
    return columns


def match_detections(
    detections: Sequence[Detection],
    gt_boxes: Mapping[str, Sequence[Box]],
    iou_threshold: float = MATCH_IOU,
) -> list[bool]:
    """Greedy TP/FP assignment for one class, returned in rank order.

    Each detection matches the highest-IoU unmatched ground-truth box of its
    image when that IoU reaches the threshold; every ground-truth box absorbs
    at most one detection, so duplicates become false positives.
    """
    # One class: every detection is matched against its image's boxes.
    single = [replace(d, class_id="") for d in detections]
    gt = {image_id: {"": boxes} for image_id, boxes in gt_boxes.items()}
    rows = _detection_rows(single, gt, iou_threshold, "iou50")
    columns = _columns(single, range(len(single)), rows).get("", ClassColumns())
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
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def corloc(
    top_detections: Mapping[str, Detection | None],
    gt_boxes: Mapping[str, Sequence[Box]],
    variant: str = "iou50",
) -> float | None:
    """Fraction of positive images whose top detection localizes the class.

    ``iou50`` demands IoU of at least 0.5 with some ground-truth box;
    ``center`` only that the detection's center falls inside one. Images
    without ground truth are ignored; with no positive images the rate is
    undefined and None is returned.
    """
    positives = [image_id for image_id, boxes in gt_boxes.items() if boxes]
    found = [
        ([top_detections[image_id].box.as_tuple()], {"": gt_boxes[image_id]})
        for image_id in positives
        if top_detections.get(image_id) is not None
    ]
    rows = truth_rows(found, variant)
    if not positives:
        return None
    return sum(bool(r[""].hits) for r in rows) / len(positives)


def is_pure(box: Box, gt_boxes: Sequence[Box], iou_threshold: float = MATCH_IOU) -> bool:
    """True when ``box`` reaches the IoU threshold against exactly one ground-truth box.

    Merged hulls (no single box covered well) and near-duplicates straddling
    two boxes are both impure.
    """
    (rows,) = truth_rows([([box.as_tuple()], {"": gt_boxes})], iou_threshold=iou_threshold)
    return "" in rows and len(rows[""].matches.get(0, ())) == 1


def purity(
    selected: Sequence[Box], gt_boxes: Sequence[Box], iou_threshold: float = MATCH_IOU
) -> float | None:
    """Fraction of selected boxes that are pure (``is_pure``).

    Undefined (None) for an empty selection.
    """
    if not selected:
        return None
    pure = sum(1 for box in selected if is_pure(box, gt_boxes, iou_threshold))
    return pure / len(selected)


@dataclass
class EvalReport:
    """Per-class and averaged detection metrics.

    Classes never seen in the ground truth get AP 0 and are listed in
    ``absent_classes`` instead of entering the means. ``purity`` is carried
    through from selection when the caller provides it.
    """

    per_class_ap: dict[str, float] = field(default_factory=dict)
    per_class_corloc: dict[str, float] = field(default_factory=dict)
    mean_ap: float | None = None
    mean_corloc: float | None = None
    purity: float | None = None
    absent_classes: tuple[str, ...] = ()
    buckets: dict[str, "EvalReport"] | None = None


def assemble_report(
    columns: Mapping[str, ClassColumns],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    *,
    ap_mode: str = "11pt",
    purity_value: float | None = None,
) -> EvalReport:
    """Aggregate per-class detection columns against ground truth into an EvalReport.

    The columns' match candidates and hits must come from ``gt``. Every class
    with detections or named in ``gt`` gets an AP; one without ground-truth
    boxes is absent, with AP 0 and no CorLoc.
    """
    # Ground-truth boxes and positive images per class with any boxes.
    gt_counts: dict[str, tuple[int, int]] = {}
    for per_class in gt.values():
        for name, boxes in per_class.items():
            if boxes:
                num_gt, positives = gt_counts.get(name, (0, 0))
                gt_counts[name] = (num_gt + len(boxes), positives + 1)
    class_names = sorted(
        {name for per_class in gt.values() for name in per_class}
        | {name for name, col in columns.items() if col.confidence}
    )
    report = EvalReport(purity=purity_value)
    per_class_ap = {}
    per_class_corloc = {}
    absent = []
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
    report.per_class_ap = per_class_ap
    report.per_class_corloc = per_class_corloc
    report.absent_classes = tuple(absent)
    present_ap = [v for name, v in per_class_ap.items() if name not in report.absent_classes]
    report.mean_ap = sum(present_ap) / len(present_ap) if present_ap else None
    values = list(per_class_corloc.values())
    report.mean_corloc = sum(values) / len(values) if values else None
    return report


def build_report(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    *,
    iou_threshold: float = MATCH_IOU,
    corloc_variant: str = "iou50",
    ap_mode: str = "11pt",
    purity_value: float | None = None,
) -> EvalReport:
    """Aggregate detections against ground truth into an EvalReport."""
    rows = _detection_rows(detections, gt, iou_threshold, corloc_variant)
    return assemble_report(
        _columns(detections, range(len(detections)), rows),
        gt,
        ap_mode=ap_mode,
        purity_value=purity_value,
    )


def count_bucket(count: int) -> str:
    """Bucket label for a per-image, per-class ground-truth count."""
    if count < 1:
        raise ValueError(f"bucketed counts must be >= 1, got {count}")
    return str(count) if count <= 3 else "4+"


def slice_by_count(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    *,
    iou_threshold: float = MATCH_IOU,
    corloc_variant: str = "iou50",
    ap_mode: str = "11pt",
) -> dict[str, EvalReport]:
    """Split evaluation by ground-truth count buckets 1, 2, 3, and 4+.

    An (image, class) pair lands in the bucket of its ground-truth count;
    empty buckets are omitted from the result.
    """
    members: dict[str, set[tuple[str, str]]] = {}
    for image_id, per_class in gt.items():
        for name, boxes in per_class.items():
            if boxes:
                members.setdefault(count_bucket(len(boxes)), set()).add(
                    (image_id, name)
                )
    rows = _detection_rows(detections, gt, iou_threshold, corloc_variant)
    reports = {}
    for bucket in sorted(members):
        pairs = members[bucket]
        bucket_gt = {
            image_id: {
                name: boxes
                for name, boxes in per_class.items()
                if (image_id, name) in pairs
            }
            for image_id, per_class in gt.items()
        }
        keep = [
            k for k, d in enumerate(detections) if (d.image_id, d.class_id) in pairs
        ]
        reports[bucket] = assemble_report(
            _columns(detections, keep, rows), bucket_gt, ap_mode=ap_mode
        )
    return reports
