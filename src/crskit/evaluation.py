"""Detection metrics: greedy matching, average precision, localization, purity.

Ground truth is passed as ``image_id -> class_id -> [Box, ...]``; only classes
with at least one box anywhere count toward the mean metrics, the rest are
reported as absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import Box, iou

__all__ = [
    "AP_MODES",
    "CORLOC_VARIANTS",
    "Detection",
    "EvalReport",
    "match_detections",
    "average_precision",
    "corloc",
    "is_pure",
    "purity",
    "build_report",
    "slice_by_count",
    "count_bucket",
]

AP_MODES = ("11pt", "area")
CORLOC_VARIANTS = ("iou50", "center")
MATCH_IOU = 0.5


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


def _ranked(detections: Sequence[Detection]) -> list[Detection]:
    # Confidence descending; ties by image then input position, so a monotone
    # rescoring cannot reshuffle the ranking.
    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i].confidence, detections[i].image_id, i),
    )
    return [detections[i] for i in order]


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
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    taken: set[tuple[str, int]] = set()
    flags = []
    for det in _ranked(detections):
        candidates = gt_boxes.get(det.image_id, ())
        best_iou = 0.0
        best_index = -1
        for j, gt in enumerate(candidates):
            if (det.image_id, j) in taken:
                continue
            value = iou(det.box, gt)
            if value >= iou_threshold and value > best_iou:
                best_iou = value
                best_index = j
        if best_index >= 0:
            taken.add((det.image_id, best_index))
            flags.append(True)
        else:
            flags.append(False)
    return flags


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
    if variant not in CORLOC_VARIANTS:
        raise ValueError(f"unknown corloc variant: {variant!r}")
    positives = 0
    correct = 0
    for image_id, boxes in gt_boxes.items():
        if not boxes:
            continue
        positives += 1
        det = top_detections.get(image_id)
        if det is None:
            continue
        if variant == "iou50":
            hit = any(iou(det.box, g) >= 0.5 for g in boxes)
        else:
            cx, cy = det.box.center
            hit = any(g.contains_point(cx, cy) for g in boxes)
        correct += int(hit)
    if positives == 0:
        return None
    return correct / positives


def is_pure(box: Box, gt_boxes: Sequence[Box], iou_threshold: float = MATCH_IOU) -> bool:
    """True when ``box`` reaches the IoU threshold against exactly one ground-truth box.

    Merged hulls (no single box covered well) and near-duplicates straddling
    two boxes are both impure.
    """
    return sum(iou(box, g) >= iou_threshold for g in gt_boxes) == 1


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
    class_names = sorted(
        {c for per_class in gt.values() for c in per_class}
        | {d.class_id for d in detections}
    )
    report = EvalReport(purity=purity_value)
    per_class_ap = {}
    per_class_corloc = {}
    absent = []
    for name in class_names:
        class_gt = {
            image_id: list(per_class.get(name, []))
            for image_id, per_class in gt.items()
            if per_class.get(name)
        }
        class_dets = [d for d in detections if d.class_id == name]
        num_gt = sum(len(v) for v in class_gt.values())
        flags = match_detections(class_dets, class_gt, iou_threshold)
        ap = average_precision(flags, num_gt, ap_mode)
        per_class_ap[name] = ap
        if num_gt == 0:
            absent.append(name)
            continue
        tops: dict[str, Detection | None] = {}
        for det in _ranked(class_dets):
            tops.setdefault(det.image_id, det)
        rate = corloc(tops, class_gt, corloc_variant)
        if rate is not None:
            per_class_corloc[name] = rate
    report.per_class_ap = per_class_ap
    report.per_class_corloc = per_class_corloc
    report.absent_classes = tuple(absent)
    present_ap = [v for name, v in per_class_ap.items() if name not in report.absent_classes]
    report.mean_ap = sum(present_ap) / len(present_ap) if present_ap else None
    values = list(per_class_corloc.values())
    report.mean_corloc = sum(values) / len(values) if values else None
    return report


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
        bucket_gt = {k: v for k, v in bucket_gt.items() if v}
        bucket_dets = [
            d for d in detections if (d.image_id, d.class_id) in pairs
        ]
        reports[bucket] = build_report(
            bucket_dets,
            bucket_gt,
            iou_threshold=iou_threshold,
            corloc_variant=corloc_variant,
            ap_mode=ap_mode,
        )
    return reports
