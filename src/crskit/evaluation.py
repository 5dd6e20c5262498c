"""Detection metrics: greedy matching, average precision and localization.

Ground truth enters as ``image_id -> class_id -> [Box, ...]``, and only the
``TruthTable`` built from it is read. Classes without boxes are reported as
absent, outside the mean metrics. A detection matches a ground-truth box at
the PASCAL criterion, IoU >= 0.5 (``MATCH_IOU``).

Every metric works from a ``TruthTable``, which ``truth_table`` builds for a
set of images. It holds one row per box, each keyed by its image, in any image
order, and for each class with ground truth each row's CorLoc hit and, in one
CSR record (row starts into a flat array), the class's boxes in the row's
image that it reaches IoU 0.5 with, best first. It also counts each named
class's boxes per image. ``evaluate_picks`` is the one evaluation core: for
each class it takes picked rows in pick order with aligned confidences, ranks
them with one unstable ``argsort`` plus a sort of the tied runs only (the
order of one stable two-key lexsort), matches greedily over the rows with
candidates only, a stretch of one-candidate rows at a time, reads 11-point AP
from one precision envelope and CorLoc from each image's first ranked row, and
assembles the report. ``build_report``, ``slice_by_count`` (that report with
its count buckets, each a view of the table that keeps one bucket's box
counts), ``match_detections`` and ``corloc`` (the report's CorLoc of one
class; both file every detection as class ``""``) build one table with a row
per ``Detection``, in input order, whose table images are (image, class)
pairs, so each detection meets only its own class's boxes; the refinement loop
builds one over its proposals once per run, a table image per image, and picks
its NMS survivors' rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Hashable, Mapping, Sequence

import numpy as np

from .geometry import PAIRS_PER_BATCH, Box, box_array, paired_overlaps

__all__ = [
    "AP_MODES",
    "CORLOC_VARIANTS",
    "MATCH_IOU",
    "Detection",
    "ClassTruth",
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
# The recall thresholds of 11-point AP, 0.0, 0.1, ..., 1.0.
_RECALL_POINTS = np.array([j / 10 for j in range(11)])

# Each class's picked table rows, in pick order, and their confidences.
Picks = Mapping[str, tuple[np.ndarray, np.ndarray]]
_NO_PICKS = (np.zeros(0, dtype=int), np.zeros(0))


@dataclass(frozen=True, slots=True)
class Detection:
    """One scored detection of a class in an image.

    The constructor checks the confidence and stores the four values, one step each.
    """

    image_id: str
    class_id: str
    box: Box
    confidence: float

    def __init__(self, image_id: str, class_id: str, box: Box, confidence: float) -> None:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        _set_image_id(self, image_id)
        _set_class_id(self, class_id)
        _set_box(self, box)
        _set_confidence(self, confidence)


# The slot setters of the class that @dataclass(slots=True) built, which store
# a field of a frozen Detection without going through its refusing __setattr__.
_set_image_id, _set_class_id, _set_box, _set_confidence = (
    Detection.__dict__[name].__set__ for name in Detection.__slots__
)


@dataclass(frozen=True, slots=True, eq=False)
class ClassTruth:
    """Every box of a table against the ground truth of one class, by table row.

    Row r's match candidates, its image's boxes of the class at IoU >= 0.5, are
    ``matches[starts[r]:starts[r + 1]]`` (N + 1 starts into one flat ``int32``
    array), best first (IoU descending, ties by number): the order greedy
    matching tries them. A box's number counts every ground-truth box of the
    table, image after image. ``hit[r]`` says whether row r localizes an
    instance under the table's CorLoc variant.
    """

    hit: np.ndarray
    starts: np.ndarray
    matches: np.ndarray

    @property
    def candidates(self) -> np.ndarray:
        """Each row's candidate count; exactly one makes the box pure."""
        return np.diff(self.starts)


@dataclass(frozen=True, eq=False)
class TruthTable:
    """The ground truth of a set of images, by one row per box.

    ``image_ids`` holds each table image's key, and ``image_rank[r]`` is row
    r's image's position in key order, the ranking's tie-break. ``classes``
    holds a ``ClassTruth`` for each class with ground-truth boxes in any image
    of the table. ``gt_counts`` has a key for every class that the images'
    ground truth names, empty box lists included, and counts that class's
    boxes in each image, indexed by image rank.
    """

    image_ids: tuple[Hashable, ...]
    image_rank: np.ndarray
    classes: dict[str, ClassTruth]
    gt_counts: dict[str, np.ndarray]

    def truth(self, name: str) -> ClassTruth:
        """Class ``name``'s match data; no row matches a class without boxes here."""
        if name in self.classes:
            return self.classes[name]
        rows = len(self.image_rank)
        return ClassTruth(np.zeros(rows, bool), np.zeros(rows + 1, np.intp), np.zeros(0, np.int32))


def truth_table(
    image_ids: Sequence[Hashable],
    gt: Sequence[Mapping[str, Sequence[Box]]],
    row_image: np.ndarray,
    boxes: np.ndarray,
    corloc_variant: str = "iou50",
) -> TruthTable:
    """Match data of ``boxes``, an ``(N, 4)`` corner array, against their images' ground truth.

    Table image k is ``image_ids[k]``, any unique key that sorts with the
    others (an image id, or an (image id, class id) pair), with ground truth
    ``gt[k]``, and row r is ``boxes[r]`` in table image ``row_image[r]``; rows
    may come in any image order. The IoU of every box with every ground-truth
    box of its image comes from ``geometry.paired_overlaps``, so it is
    ``iou(box, gt_box)`` bit for bit. The ``iou50`` CorLoc hit is a match
    candidate; ``center`` asks that the box's center lie inside a ground-truth
    box, boundary included. One pass over ``gt`` numbers its boxes and gives
    ``gt_counts``; candidates are split by class once, after the chunks.
    """
    if len(set(image_ids)) != len(image_ids):
        raise ValueError("image_ids must be unique within a table")
    if corloc_variant not in CORLOC_VARIANTS:
        raise ValueError(f"unknown corloc variant: {corloc_variant!r}")
    if len(gt) != len(image_ids):
        raise ValueError(f"{len(image_ids)} image ids but {len(gt)} images")
    if len(row_image) != len(boxes) or ((row_image < 0) | (row_image >= len(gt))).any():
        raise ValueError(f"row_image must name one of the {len(gt)} table images per box")
    # One pass over the ground truth: (class, image, box count) for each class it names.
    names: dict[str, int] = {}
    cells = [
        (names.setdefault(name, len(names)), k, len(bs))
        for k, t in enumerate(gt)
        for name, bs in t.items()
    ]
    cell_class, cell_image, size = np.array(cells, dtype=np.intp).reshape(-1, 3).T
    # Ground-truth boxes are numbered image after image, class by class.
    gt_class = np.repeat(cell_class, size)
    gt_boxes = box_array(b for t in gt for bs in t.values() for b in bs)
    n_gt = np.bincount(np.repeat(cell_image, size), minlength=len(gt))
    # Row r's pairs with its image's ground truth are numbered from ends[r] - per_row[r];
    # adding shift[r] turns a pair's number into its ground-truth box's number.
    per_row = n_gt[row_image]
    ends = np.cumsum(per_row)
    shift = (np.cumsum(n_gt) - n_gt)[row_image] - (ends - per_row)
    total = len(row_image)
    hit = np.zeros((len(names), total), dtype=bool)
    found = [np.zeros((3, 0), dtype=np.intp)]  # (class, row, number) candidates by chunk
    start = 0
    while start < total:
        # At most PAIRS_PER_BATCH pairs a chunk, or one row.
        first = ends[start] - per_row[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + PAIRS_PER_BATCH, side="right")))
        counts = per_row[start:stop]
        row = np.repeat(np.arange(start, stop), counts)
        number = np.arange(first, ends[stop - 1]) + np.repeat(shift[start:stop], counts)
        b, g = boxes[row], gt_boxes[number]
        ious, _ = paired_overlaps(b, g)
        candidate = np.flatnonzero(ious >= MATCH_IOU)
        if corloc_variant == "iou50":
            localizes = candidate
        else:
            cx, cy = (b[:, 0] + b[:, 2]) / 2.0, (b[:, 1] + b[:, 3]) / 2.0
            localizes = np.flatnonzero(
                (g[:, 0] <= cx) & (cx <= g[:, 2]) & (g[:, 1] <= cy) & (cy <= g[:, 3])
            )
        hit[gt_class[number[localizes]], row[localizes]] = True
        # By row, then IoU descending, then number: the order greedy matching tries.
        # Chunks come in row order, so each class's rows come in it, best match first.
        order = candidate[np.lexsort((number[candidate], -ious[candidate], row[candidate]))]
        found.append(np.stack((gt_class[number[order]], row[order], number[order])))
        start = stop
    group, rows, numbers = np.concatenate(found, axis=1)
    classes = {}
    for name, k in names.items():
        if k in gt_class:
            mine = group == k
            starts = np.searchsorted(rows[mine], np.arange(total + 1))
            classes[name] = ClassTruth(hit[k], starts, numbers[mine].astype(np.int32))
    # Table images in image_id order; argsort inverts that order into each image's rank.
    order = sorted(range(len(image_ids)), key=image_ids.__getitem__)
    rank = np.argsort(order)
    gt_counts = np.zeros((len(names), len(gt)), dtype=np.int32)
    gt_counts[cell_class, rank[cell_image]] = size
    return TruthTable(
        image_ids=tuple(image_ids),
        image_rank=rank[row_image],
        classes=classes,
        gt_counts=dict(zip(names, gt_counts)),
    )


def _ranked(
    table: TruthTable, rows: np.ndarray, confidence: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows in rank order and their image ranks.

    The order is ``np.lexsort((images, -confidence))``'s: confidence
    descending (NaN last), ties by image, then by input position, so a
    monotone rescoring cannot reshuffle the ranking. One unstable
    ``argsort`` (numpy's SIMD sort) orders the confidences, and only the
    runs of equal confidence are sorted again, by image and position, with
    two single-key sorts. That repair is cheap while ties are few; where
    every confidence ties (a zero prototype scores everything 0.5) it sorts
    the whole class, in the same order as one lexsort.
    """
    images = table.image_rank[rows]
    order = np.argsort(-confidence)
    key = confidence[order]
    nan = np.isnan(key)
    # -0.0 and 0.0 are equal; NaNs, sorted last, tie with each other.
    same = (key[1:] == key[:-1]) | (nan[1:] & nan[:-1])
    if same.any():
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        at = np.flatnonzero(tied)
        # Tied runs keep their slots: sorted by (run, position) as one integer key, then
        # stably by (run, image) in the smallest dtype that holds it (16 bits radix-sort).
        run = np.cumsum(~np.r_[False, same][at])
        slots = np.sort(run * len(order) + order[at]) - run * len(order)
        key = run * (images.max() + 1) + images[slots]
        order[at] = slots[np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")]
    return rows[order], images[order]


def _true_positives(truth: ClassTruth, ranked: np.ndarray) -> np.ndarray:
    """Greedy TP flags in rank order: each row takes its best untaken ground-truth box.

    Between rows with several candidates, each stretch of rows with one
    candidate resolves at once: a row is a TP when it is the stretch's first to
    reach an untaken box. A row with several walks its run of ``matches``; only
    the ranked rows' ``starts`` are read.
    """
    flags = np.zeros(len(ranked), dtype=bool)
    starts, stops = truth.starts[ranked], truth.starts[ranked + 1]
    at = np.flatnonzero(stops > starts)
    best = truth.matches[starts[at]]
    several = np.flatnonzero(stops[at] - starts[at] > 1).tolist()
    taken = np.zeros(int(truth.matches.max(initial=-1)) + 1, dtype=bool)
    start = 0
    for stop in [*several, len(at)]:
        stretch = best[start:stop]
        _, first = np.unique(stretch, return_index=True)
        first = first[~taken[stretch[first]]]
        flags[at[start + first]] = True
        taken[stretch[first]] = True
        if stop < len(at):
            for j in truth.matches[starts[at[stop]] : stops[at[stop]]].tolist():
                if not taken[j]:
                    taken[j] = flags[at[stop]] = True
                    break
        start = stop + 1
    return flags


def _detection_picks(
    detections: Sequence[Detection],
    gt: Mapping[str, Mapping[str, Sequence[Box]]],
    corloc_variant: str,
) -> tuple[TruthTable, Picks]:
    """A table with one row per detection, in input order, and each class's rows and confidences.

    Row r is ``detections[r]``'s box in the table image keyed by its
    ``(image_id, class_id)``. A table image's ground truth is that class's
    boxes in that image, so a row meets only its own class's boxes. Each
    (image, class) pair that ``gt`` names and no row has follows, as a table
    image without rows.
    """
    n = len(detections)
    codes: dict[tuple[str, str], int] = {}
    keys = ((d.image_id, d.class_id) for d in detections)
    row_image = np.fromiter((codes.setdefault(key, len(codes)) for key in keys), int, n)
    names: dict[str, int] = {}
    key_class = np.fromiter((names.setdefault(name, len(names)) for _, name in codes), int)
    row_class = key_class[row_image]
    confidence = np.fromiter((d.confidence for d in detections), float, n)
    for image_id, truth in gt.items():
        for name in truth:
            codes.setdefault((image_id, name), len(codes))
    truths = [{name: gt[i][name]} if name in gt.get(i, ()) else {} for i, name in codes]
    boxes = box_array(d.box for d in detections)
    table = truth_table(list(codes), truths, row_image, boxes, corloc_variant)
    picks = {name: np.flatnonzero(row_class == c) for name, c in names.items()}
    return table, {name: (rows, confidence[rows]) for name, rows in picks.items()}


def match_detections(
    detections: Sequence[Detection], gt_boxes: Mapping[str, Sequence[Box]]
) -> list[bool]:
    """Greedy TP/FP assignment for one class, returned in rank order.

    Each detection matches the highest-IoU unmatched ground-truth box of its
    image when that IoU reaches 0.5; every ground-truth box absorbs at most
    one detection, so duplicates become false positives.
    """
    # One class, "": every detection is matched against its image's boxes.
    filed = [Detection(d.image_id, "", d.box, d.confidence) for d in detections]
    gt = {image_id: {"": boxes} for image_id, boxes in gt_boxes.items()}
    table, picks = _detection_picks(filed, gt, "iou50")
    ranked, _ = _ranked(table, *picks.get("", _NO_PICKS))
    return _true_positives(table.truth(""), ranked).tolist()


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
    true_positives = np.count_nonzero(tp_flags)
    if true_positives > num_gt:
        raise ValueError(f"{true_positives} true positives exceed {num_gt} ground-truth boxes")
    tp = np.cumsum(np.asarray(tp_flags, dtype=float))
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / num_gt
    if mode == "11pt":
        # Recall never falls, so the best precision at recall >= t is the
        # envelope below at the first rank reaching t, 0 where none does.
        envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
        # Added one by one in threshold order, as ever, so the value keeps its
        # bits (Python 3.12's sum() would compensate).
        total = 0.0
        for best in envelope[np.searchsorted(recall, _RECALL_POINTS)].tolist():
            total += best
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
    tops = [Detection(key, "", d.box, d.confidence) for key, d in top_detections.items() if d]
    gt = {image_id: {"": boxes} for image_id, boxes in gt_boxes.items()}
    table, picks = _detection_picks(tops, gt, variant)
    return evaluate_picks(table, picks).per_class_corloc.get("")


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


def evaluate_picks(table: TruthTable, picks: Picks, *, ap_mode: str = "11pt") -> EvalReport:
    """Aggregate picked rows of ``table`` against its ground truth into an EvalReport.

    ``picks`` maps each class to its picked rows, in pick order, and their
    confidences. Pick order is the last tie-break of the ranking, after the
    image, so only each image's own order matters. Every class with picks
    or named in the table's ground truth gets an AP; one without ground-truth
    boxes is absent, with AP 0 and no CorLoc.
    """
    if ap_mode not in AP_MODES:
        raise ValueError(f"unknown AP mode: {ap_mode!r}")
    picked = {name for name, (rows, _) in picks.items() if len(rows)}
    per_class_ap: dict[str, float] = {}
    per_class_corloc: dict[str, float] = {}
    absent: list[str] = []
    for name in sorted(table.gt_counts.keys() | picked):
        counts = table.gt_counts.get(name)
        if counts is None or not counts.any():
            # No recall without ground truth.
            per_class_ap[name] = 0.0
            absent.append(name)
            continue
        truth = table.truth(name)
        ranked, images = _ranked(table, *picks.get(name, _NO_PICKS))
        num_gt = int(counts.sum())
        per_class_ap[name] = average_precision(_true_positives(truth, ranked), num_gt, ap_mode)
        # Images whose top-ranked row localizes an instance: each image's
        # first rank position, len(ranked) where it has no row.
        first = np.full(len(table.image_ids), len(ranked))
        np.minimum.at(first, images, np.arange(len(ranked)))
        top = ranked[first[first < len(ranked)]]
        per_class_corloc[name] = int(np.count_nonzero(truth.hit[top])) / np.count_nonzero(counts)
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
    return evaluate_picks(table, picks, ap_mode=ap_mode)


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
    empty buckets are omitted. One table serves the report and every bucket:
    a bucket's view keeps only its pairs' box counts and picks.
    """
    table, picks = _detection_picks(detections, gt, corloc_variant)
    report = evaluate_picks(table, picks, ap_mode=ap_mode)
    report.buckets = {}
    # Bucket 4 is "4+".
    capped = {name: np.minimum(counts, 4) for name, counts in table.gt_counts.items()}
    for bucket in sorted(set().union(*(c.tolist() for c in capped.values())) - {0}):
        gt_counts, bucket_picks = {}, {}
        for name, counts in table.gt_counts.items():
            inside = capped[name] == bucket
            if inside.any():
                gt_counts[name] = np.where(inside, counts, 0)
                rows, confidence = picks.get(name, _NO_PICKS)
                keep = inside[table.image_rank[rows]]
                bucket_picks[name] = (rows[keep], confidence[keep])
        view = replace(table, gt_counts=gt_counts)
        report.buckets[count_bucket(bucket)] = evaluate_picks(view, bucket_picks, ap_mode=ap_mode)
    return report
