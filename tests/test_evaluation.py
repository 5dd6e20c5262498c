"""Detection metrics: hand-computed oracles and ranking properties."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from crskit import evaluation
from crskit.evaluation import (
    ClassTruth,
    Detection,
    EvalReport,
    average_precision,
    build_report,
    corloc,
    count_bucket,
    match_detections,
    slice_by_count,
    truth_table,
)
from crskit.geometry import Box, iou
from crskit.refinement import RefinementConfig, detections_from_scores, run_adr, score_table
from crskit.world import generate_world

GT_UNIT = Box(0, 0, 10, 10)


def det(image_id: str, confidence: float, box: Box, class_id: str = "cat") -> Detection:
    return Detection(image_id=image_id, class_id=class_id, box=box, confidence=confidence)


class TestMatching:
    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError):
            det("img", 1.1, GT_UNIT)

    def test_duplicate_becomes_false_positive(self):
        gt = {"img": [GT_UNIT]}
        flags = match_detections(
            [det("img", 0.9, Box(0, 0, 10, 10)), det("img", 0.8, Box(1, 0, 11, 10))],
            gt,
        )
        assert flags == [True, False]

    def test_low_iou_is_false_positive(self):
        # IoU = 100/300 = 1/3 < 0.5
        flags = match_detections([det("img", 0.9, Box(0, 0, 30, 10))], {"img": [GT_UNIT]})
        assert flags == [False]

    def test_matches_highest_iou_unmatched_box(self):
        g1 = Box(0, 0, 10, 10)
        g2 = Box(6, 0, 16, 10)
        gt = {"img": [g1, g2]}
        # d2 overlaps g1 more (85/135) than g2 (75/145) but g1 is taken,
        # so it falls through to g2 and still counts
        d1 = det("img", 0.9, Box(0, 0, 10, 10))
        d2 = det("img", 0.8, Box(1.5, 0, 13.5, 10))
        assert match_detections([d1, d2], gt) == [True, True]

    def test_takes_the_best_candidate_not_the_first(self):
        g1 = Box(0, 0, 10, 10)
        g2 = Box(2, 0, 12, 10)
        # d1 reaches both (IoU 2/3 with g1, 1 with g2) and takes g2, leaving
        # g1 for d2, which reaches only g1 (IoU 2/3; 3/7 with g2).
        d1 = det("img", 0.9, Box(2, 0, 12, 10))
        d2 = det("img", 0.8, Box(-2, 0, 8, 10))
        assert match_detections([d1, d2], {"img": [g1, g2]}) == [True, True]

    def test_ranking_by_confidence_then_image(self):
        gt = {"a": [GT_UNIT], "b": [GT_UNIT]}
        detections = [
            det("b", 0.8, Box(0, 0, 30, 10)),  # FP, ties with next
            det("a", 0.8, GT_UNIT),  # TP, image "a" ranks first on tie
            det("a", 0.9, Box(50, 50, 60, 60)),  # FP, highest confidence
        ]
        assert match_detections(detections, gt) == [False, True, False]


class TestAveragePrecision:
    def test_single_true_positive(self):
        assert average_precision([True], 1, "11pt") == 1.0
        assert average_precision([True], 1, "area") == 1.0

    def test_true_positive_then_false_positive(self):
        # recall hits 1.0 at precision 1.0 before the FP arrives
        assert average_precision([True, False], 1, "11pt") == 1.0
        assert average_precision([True, False], 1, "area") == 1.0

    def test_false_positive_then_true_positive(self):
        assert_allclose(average_precision([False, True], 1, "11pt"), 0.5)
        assert_allclose(average_precision([False, True], 1, "area"), 0.5)

    def test_interleaved_three_detections(self):
        flags = [True, False, True]
        # precisions 1, 1/2, 2/3 at recalls 1/2, 1/2, 1
        # 11pt: 6 thresholds see precision 1, 5 see 2/3
        assert_allclose(average_precision(flags, 2, "11pt"), (6 + 5 * 2 / 3) / 11)
        # area: 0.5 * 1 + 0.5 * 2/3
        assert_allclose(average_precision(flags, 2, "area"), 5 / 6)

    def test_no_ground_truth_and_no_detections(self):
        assert average_precision([], 5, "11pt") == 0.0
        assert average_precision([True], 0, "11pt") == 0.0
        assert average_precision([], 0, "area") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            average_precision([True], 1, "weird")
        with pytest.raises(ValueError):
            average_precision([True], -1)

    def test_rank_invariance_under_monotone_transforms(self):
        gt = {"img": [GT_UNIT, Box(20, 0, 30, 10)]}
        base = [
            det("img", 0.9, GT_UNIT),
            det("img", 0.6, Box(40, 40, 50, 50)),
            det("img", 0.3, Box(20, 0, 30, 10)),
        ]
        for mode in ("11pt", "area"):
            reference = average_precision(match_detections(base, gt), 2, mode)
            for transform in (lambda x: x**2, lambda x: 0.5 * x + 0.25, lambda x: x**0.3):
                rescored = [
                    det(d.image_id, transform(d.confidence), d.box) for d in base
                ]
                value = average_precision(match_detections(rescored, gt), 2, mode)
                assert_allclose(value, reference, rtol=0, atol=0)

    @given(
        st.lists(st.booleans(), max_size=12),
        st.integers(0, 12),
        st.integers(0, 5),
    )
    def test_adding_a_true_positive_never_hurts_11pt(self, flags, position, slack):
        num_gt = sum(flags) + 1 + slack
        before = average_precision(flags, num_gt, "11pt")
        extended = flags[: min(position, len(flags))] + [True] + flags[min(position, len(flags)) :]
        after = average_precision(extended, num_gt, "11pt")
        assert after >= before - 1e-12

    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.integers(0, 6))
    def test_bounded_and_trailing_fp_never_helps(self, flags, slack):
        num_gt = max(1, sum(flags) + slack)
        for mode in ("11pt", "area"):
            value = average_precision(flags, num_gt, mode)
            assert 0.0 <= value <= 1.0
            worse = average_precision(flags + [False], num_gt, mode)
            assert worse <= value + 1e-12

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(ValueError):
            average_precision([True, True], 1)


class TestCorloc:
    def test_iou50_versus_center(self):
        # wide box: IoU 100/300 too small, but its center (5, 5) is inside
        top = {"img": det("img", 0.9, Box(-10, 0, 20, 10))}
        gt = {"img": [GT_UNIT]}
        assert corloc(top, gt, "iou50") == 0.0
        assert corloc(top, gt, "center") == 1.0

    def test_center_on_boundary_counts(self):
        top = {"img": det("img", 0.9, Box(0, 0, 20, 10))}
        assert corloc(top, {"img": [GT_UNIT]}, "center") == 1.0

    def test_missing_detection_is_incorrect(self):
        gt = {"img_a": [GT_UNIT], "img_b": [GT_UNIT]}
        top = {"img_a": det("img_a", 0.9, GT_UNIT)}
        assert corloc(top, gt, "iou50") == 0.5

    def test_images_without_ground_truth_ignored(self):
        gt = {"img_a": [GT_UNIT], "img_b": []}
        top = {"img_a": det("img_a", 0.9, GT_UNIT)}
        assert corloc(top, gt, "iou50") == 1.0

    def test_undefined_without_positive_images(self):
        assert corloc({}, {"img": []}, "iou50") is None

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            corloc({}, {}, "bogus")


class TestReports:
    def small_scene(self):
        gt = {
            "img_a": {"cat": [GT_UNIT]},
            "img_b": {"cat": [GT_UNIT, Box(20, 0, 30, 10)]},
        }
        detections = [
            det("img_a", 0.9, GT_UNIT),
            det("img_b", 0.8, Box(0, 0, 30, 10)),  # merged hull, localizes nothing
        ]
        return detections, gt

    def test_per_class_and_mean_values(self):
        detections, gt = self.small_scene()
        report = build_report(detections, gt)
        # ranked flags [TP, FP] with 3 boxes: recall tops out at 1/3
        assert_allclose(report.per_class_ap["cat"], 4 / 11)
        assert_allclose(report.per_class_corloc["cat"], 0.5)
        assert_allclose(report.mean_ap, 4 / 11)
        assert_allclose(report.mean_corloc, 0.5)
        assert report.purity is None
        assert report.absent_classes == ()

    def test_absent_class_excluded_from_means(self):
        detections, gt = self.small_scene()
        detections = detections + [det("img_a", 0.7, GT_UNIT, class_id="ghost")]
        report = build_report(detections, gt)
        assert report.absent_classes == ("ghost",)
        assert report.per_class_ap["ghost"] == 0.0
        assert "ghost" not in report.per_class_corloc
        assert_allclose(report.mean_ap, 4 / 11)

    def test_count_bucket_labels(self):
        assert [count_bucket(c) for c in (1, 2, 3, 4, 7)] == ["1", "2", "3", "4+", "4+"]
        with pytest.raises(ValueError):
            count_bucket(0)

    def test_slice_by_count(self):
        detections, gt = self.small_scene()
        report = slice_by_count(detections, gt)
        assert replace(report, buckets=None) == build_report(detections, gt)
        buckets = report.buckets
        assert set(buckets) == {"1", "2"}
        assert buckets["1"].per_class_corloc["cat"] == 1.0
        assert buckets["1"].per_class_ap["cat"] == 1.0
        assert buckets["2"].per_class_corloc["cat"] == 0.0
        assert buckets["2"].per_class_ap["cat"] == 0.0

    def test_empty_inputs(self):
        report = build_report([], {})
        assert report.mean_ap is None
        assert report.mean_corloc is None
        assert slice_by_count([], {}) == replace(report, buckets={})

    def test_detections_meet_only_their_own_class(self):
        # Each (image, class) pair is a table image holding that class's boxes only.
        gt = {"img_a": {"cat": [GT_UNIT], "dog": [GT_UNIT]}, "img_b": {"dog": []}}
        detections = [det("img_a", 0.9, GT_UNIT), det("img_a", 0.8, GT_UNIT, class_id="dog")]
        table, picks = evaluation._detection_picks(detections, gt, "iou50")
        assert table.image_ids == (("img_a", "cat"), ("img_a", "dog"), ("img_b", "dog"))
        assert table.truth("cat").candidates.tolist() == [1, 0]
        assert table.truth("dog").candidates.tolist() == [0, 1]
        assert table.truth("cat").hit.tolist() == [True, False]
        assert {name: rows.tolist() for name, (rows, _) in picks.items()} == {
            "cat": [0], "dog": [1]
        }
        assert {name: c.tolist() for name, c in table.gt_counts.items()} == {
            "cat": [1, 0, 0], "dog": [0, 1, 0]
        }

    def test_gt_counts_of_a_detections_table_match_a_count_per_class(self):
        # A detections table has a table image per (image, class). Its one pass over the
        # ground truth must count what a comprehension per class over those images does.
        world = generate_world(30, 3, seed=4)
        world[7].gt_boxes["empty"] = []
        gt = {record.image_id: record.gt_boxes for record in world}
        detections = detections_from_scores(world, score_table(world, None), 0.3)
        table, _ = evaluation._detection_picks(detections, gt, "iou50")
        truths = {(i, c): {c: gt[i][c]} if c in gt.get(i, ()) else {} for i, c in table.image_ids}
        names = dict.fromkeys(name for key in table.image_ids for name in truths[key])
        assert len(names) == 4 and len(table.image_ids) > len(world)
        expected = {
            name: [len(truths[key].get(name, ())) for key in sorted(table.image_ids)]
            for name in names
        }
        assert list(table.gt_counts) == list(names)
        assert {name: c.tolist() for name, c in table.gt_counts.items()} == expected
        assert {c.dtype for c in table.gt_counts.values()} == {np.dtype(np.int32)}

    @pytest.mark.parametrize("report", [build_report, slice_by_count])
    def test_ap_mode_is_checked_without_classes(self, report):
        with pytest.raises(ValueError, match="unknown AP mode: 'bogus'"):
            report([], {}, ap_mode="bogus")

    @pytest.mark.parametrize("images", [1, 3])
    def test_truth_table_takes_one_image_per_id(self, images):
        with pytest.raises(ValueError, match=f"^2 image ids but {images} images$"):
            truth_table(["a", "b"], [{}] * images, np.zeros(0, dtype=int), np.zeros((0, 4)))

    # An image out of range, or one image per box too many or too few.
    @pytest.mark.parametrize("row_image, rows", [([0, 2], 2), ([-1, 0], 2), ([0, 1], 3), ([0], 2)])
    def test_truth_table_rows_name_a_table_image_each(self, row_image, rows):
        boxes = np.tile(GT_UNIT.as_tuple(), (rows, 1))
        with pytest.raises(ValueError):
            truth_table(["a", "b"], [{}] * 2, np.array(row_image), boxes)


# Reference implementation: Detection-based loops over the scalar ``iou``,
# which the array core must equal exactly. Ranking is confidence descending,
# ties by image_id, then input position.


def reference_ranked(detections):
    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i].confidence, detections[i].image_id, i),
    )
    return [detections[i] for i in order]


def reference_match(detections, gt_boxes, iou_threshold=0.5):
    taken = set()
    flags = []
    for d in reference_ranked(detections):
        best_iou, best_index = 0.0, -1
        for j, g in enumerate(gt_boxes.get(d.image_id, ())):
            value = iou(d.box, g)
            if (d.image_id, j) not in taken and value >= iou_threshold and value > best_iou:
                best_iou, best_index = value, j
        if best_index >= 0:
            taken.add((d.image_id, best_index))
        flags.append(best_index >= 0)
    return flags


def reference_hit(det, boxes, variant):
    if variant == "iou50":
        return any(iou(det.box, g) >= 0.5 for g in boxes)
    cx, cy = (det.box.x1 + det.box.x2) / 2.0, (det.box.y1 + det.box.y2) / 2.0
    return any(g.x1 <= cx <= g.x2 and g.y1 <= cy <= g.y2 for g in boxes)


def reference_report(detections, gt, corloc_variant="iou50", ap_mode="11pt"):
    names = sorted(
        {c for per_class in gt.values() for c in per_class} | {d.class_id for d in detections}
    )
    per_class_ap, per_class_corloc, absent = {}, {}, []
    for name in names:
        class_gt = {i: list(p[name]) for i, p in gt.items() if p.get(name)}
        dets = [d for d in detections if d.class_id == name]
        num_gt = sum(len(v) for v in class_gt.values())
        per_class_ap[name] = average_precision(reference_match(dets, class_gt), num_gt, ap_mode)
        if num_gt == 0:
            absent.append(name)
            continue
        tops = {}
        for d in reference_ranked(dets):
            tops.setdefault(d.image_id, d)
        correct = sum(
            reference_hit(tops[i], boxes, corloc_variant)
            for i, boxes in class_gt.items()
            if i in tops
        )
        per_class_corloc[name] = correct / len(class_gt)
    present = [v for name, v in per_class_ap.items() if name not in absent]
    corlocs = list(per_class_corloc.values())
    return EvalReport(
        per_class_ap=per_class_ap,
        per_class_corloc=per_class_corloc,
        mean_ap=sum(present) / len(present) if present else None,
        mean_corloc=sum(corlocs) / len(corlocs) if corlocs else None,
        absent_classes=tuple(absent),
    )


def reference_slices(detections, gt, corloc_variant="iou50", ap_mode="11pt"):
    members = {}
    for image_id, per_class in gt.items():
        for name, boxes in per_class.items():
            if boxes:
                members.setdefault(count_bucket(len(boxes)), set()).add((image_id, name))
    return {
        bucket: reference_report(
            [d for d in detections if (d.image_id, d.class_id) in pairs],
            {
                image_id: {n: b for n, b in per_class.items() if (image_id, n) in pairs}
                for image_id, per_class in gt.items()
            },
            corloc_variant,
            ap_mode,
        )
        for bucket, pairs in sorted(members.items())
    }


def tied_world():
    """A world built to stress the ranking and the report's edge cases.

    Scores sit on a quarter grid, so confidences tie within and across
    images; the images run in reverse image_id order, so input position and
    image_id disagree on ties; "ghost" is scored but has no ground truth,
    "unscored" has ground truth but no scores, and one image has no
    proposals.
    """
    world = generate_world(40, 3, seed=21)[::-1]
    for record in world:
        for p in record.proposals:
            p.scores = {name: round(s * 4) / 4 for name, s in p.scores.items()}
    world[0].counts["ghost"] = 0
    world[1].gt_boxes["unscored"] = [Box(0, 0, 20, 20)]
    world[2].proposals = []
    return world


def world_rows(world):
    """``truth_table``'s arguments for ``world``, one row per proposal in world order."""
    return (
        [r.image_id for r in world],
        [r.gt_boxes for r in world],
        np.repeat(np.arange(len(world)), [len(r.proposals) for r in world]),
        np.array([p.box.as_tuple() for r in world for p in r.proposals]),
    )


box_coords = st.integers(0, 6)
grid_boxes = st.tuples(box_coords, box_coords, st.integers(1, 4), st.integers(1, 4)).map(
    lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3])
)


class TestAgainstReference:
    @given(
        st.lists(
            st.tuples(st.sampled_from("ab"), st.integers(0, 4), grid_boxes), max_size=14
        ),
        st.dictionaries(st.sampled_from("abc"), st.lists(grid_boxes, max_size=4)),
    )
    def test_match_detections(self, raw, gt_boxes):
        detections = [det(i, c / 4, box) for i, c, box in raw]
        assert match_detections(detections, gt_boxes) == reference_match(detections, gt_boxes)

    @pytest.mark.parametrize("corloc_variant", ["iou50", "center"])
    def test_truth_rows_do_not_depend_on_batching(self, corloc_variant, monkeypatch):
        world = generate_world(30, 3, seed=4)[::-1]
        world[7].gt_boxes["empty"] = []
        rows = world_rows(world)
        unbatched = truth_table(*rows, corloc_variant)
        monkeypatch.setattr(evaluation, "PAIRS_PER_BATCH", 64)
        batched = truth_table(*rows, corloc_variant)
        assert batched.image_ids == unbatched.image_ids
        assert np.array_equal(batched.image_rank, unbatched.image_rank)
        assert list(batched.classes) == list(unbatched.classes)
        # Every named class has box counts, by image rank; "empty" has no boxes.
        assert set(unbatched.gt_counts) == {"class_0", "class_1", "class_2", "empty"}
        assert list(batched.gt_counts) == list(unbatched.gt_counts)
        by_rank = sorted(world, key=lambda r: r.image_id)
        for name, counts in unbatched.gt_counts.items():
            assert np.array_equal(batched.gt_counts[name], counts), name
            assert counts.tolist() == [len(r.gt_boxes.get(name, [])) for r in by_rank], name
        for name, truth in unbatched.classes.items():
            other = batched.classes[name]
            assert np.array_equal(other.hit, truth.hit), name
            assert np.array_equal(other.candidates, truth.candidates), name
            assert other.matches == truth.matches, name
            assert np.array_equal(other.best, truth.best), name
            # Each row's best match is the first it tries, -1 without candidates.
            firsts = [truth.matches[r][0] if r in truth.matches else -1 for r in range(len(rows[2]))]
            assert truth.best.tolist() == firsts, name

    @pytest.mark.parametrize("corloc_variant", ["iou50", "center"])
    def test_truth_rows_do_not_depend_on_row_order(self, corloc_variant, monkeypatch):
        # Small chunks, so rows of one image land in several of them.
        monkeypatch.setattr(evaluation, "PAIRS_PER_BATCH", 64)
        world = generate_world(30, 3, seed=4)[::-1]
        world[7].gt_boxes["empty"] = []
        image_ids, gt, row_image, boxes = world_rows(world)
        grouped = truth_table(image_ids, gt, row_image, boxes, corloc_variant)
        order = np.random.default_rng(8).permutation(len(boxes))
        shuffled = truth_table(image_ids, gt, row_image[order], boxes[order], corloc_variant)
        # Row r of the shuffled table is row order[r] of the grouped one.
        assert np.array_equal(shuffled.image_rank, grouped.image_rank[order])
        assert set(shuffled.gt_counts) == set(grouped.gt_counts)
        for name, counts in grouped.gt_counts.items():
            assert np.array_equal(shuffled.gt_counts[name], counts), name
        assert set(shuffled.classes) == set(grouped.classes)
        for name, truth in grouped.classes.items():
            other = shuffled.classes[name]
            assert np.array_equal(other.hit, truth.hit[order]), name
            assert np.array_equal(other.candidates, truth.candidates[order]), name
            moved = {r: truth.matches[j] for r, j in enumerate(order) if j in truth.matches}
            assert other.matches == moved, name
            assert np.array_equal(other.best, truth.best[order]), name

    @pytest.mark.parametrize("variant", ["iou50", "center"])
    @given(
        st.dictionaries(
            st.sampled_from("abcd"), st.none() | st.tuples(st.sampled_from("abcd"), grid_boxes)
        ),
        st.dictionaries(st.sampled_from("abcd"), st.lists(grid_boxes, max_size=3)),
    )
    @example({"a": ("b", GT_UNIT)}, {"a": [GT_UNIT], "b": [Box(20, 0, 30, 10)], "c": []})
    def test_corloc(self, variant, filed, gt_boxes):
        # ``filed`` gives each key the image id and box of its detection; one
        # filed under another image's key counts for the key's image.
        tops = {key: None if d is None else det(d[0], 0.5, d[1]) for key, d in filed.items()}
        hits = [
            reference_hit(tops[image_id], boxes, variant)
            for image_id, boxes in gt_boxes.items()
            if boxes and tops.get(image_id) is not None
        ]
        positives = sum(bool(boxes) for boxes in gt_boxes.values())
        assert corloc(tops, gt_boxes, variant) == (sum(hits) / positives if positives else None)

    @pytest.mark.parametrize("corloc_variant, ap_mode", [("iou50", "11pt"), ("center", "area")])
    def test_public_reports(self, corloc_variant, ap_mode):
        world = tied_world()
        gt = {record.image_id: dict(record.gt_boxes) for record in world}
        detections = detections_from_scores(world, score_table(world, None), 0.3)
        kwargs = {"corloc_variant": corloc_variant, "ap_mode": ap_mode}
        expected = reference_report(detections, gt, **kwargs)
        assert expected.absent_classes == ("ghost",)
        assert expected.per_class_ap["unscored"] == 0.0
        # In world order the detections come grouped by image and class; the
        # shuffled copy interleaves them, and input position still breaks ties.
        shuffled = random.Random(5).sample(detections, len(detections))
        for dets in (detections, shuffled):
            assert build_report(dets, gt, **kwargs) == reference_report(dets, gt, **kwargs)
            assert slice_by_count(dets, gt, **kwargs) == replace(
                reference_report(dets, gt, **kwargs), buckets=reference_slices(dets, gt, **kwargs)
            )

    @pytest.mark.parametrize("corloc_variant, ap_mode", [("iou50", "11pt"), ("center", "area")])
    @given(
        # Image "e" never has ground truth and "d" never has a detection; a
        # class entry may hold no boxes, or more than four.
        st.lists(
            st.tuples(
                st.sampled_from("abce"), st.sampled_from("xyz"), st.integers(0, 4), grid_boxes
            ),
            max_size=16,
        ),
        st.dictionaries(
            st.sampled_from("abcd"),
            st.dictionaries(st.sampled_from("xy"), st.lists(grid_boxes, max_size=5)),
        ),
    )
    @example(
        [("a", "x", 3, GT_UNIT), ("e", "x", 4, GT_UNIT), ("a", "z", 2, GT_UNIT)],
        {"a": {"x": [GT_UNIT] * 5, "y": []}, "d": {"x": [GT_UNIT], "y": [GT_UNIT] * 2}},
    )
    def test_random_reports(self, corloc_variant, ap_mode, raw, gt):
        detections = [det(i, c / 4, box, class_id=name) for i, name, c, box in raw]
        kwargs = {"corloc_variant": corloc_variant, "ap_mode": ap_mode}
        expected = reference_report(detections, gt, **kwargs)
        assert build_report(detections, gt, **kwargs) == expected
        assert slice_by_count(detections, gt, **kwargs) == replace(
            expected, buckets=reference_slices(detections, gt, **kwargs)
        )

    @pytest.mark.parametrize("corloc_variant, ap_mode", [("iou50", "11pt"), ("center", "area")])
    @given(st.integers(0, 2**32 - 1))
    def test_pick_order_matters_only_within_an_image(self, corloc_variant, ap_mode, seed):
        # Ranking ties break by image rank before pick position, so picks may
        # come image after image in any order, as long as each image keeps its own.
        rng = np.random.default_rng(seed)

        def grid(k):
            return [(x, y, x + w, y + h) for x, y, w, h in rng.integers(1, 5, (k, 4)).tolist()]

        images = []
        for _ in range(rng.integers(1, 8)):
            gt = {name: [Box(*b) for b in grid(rng.integers(0, 3))] for name in "xy"}
            images.append((grid(rng.integers(0, 6)), gt))
        # Image ids out of rank order; class "z" has no ground truth.
        image_ids = [f"img_{k}" for k in rng.permutation(len(images))]
        row_image = np.repeat(np.arange(len(images)), [len(corners) for corners, _ in images])
        boxes = np.array([box for corners, _ in images for box in corners], float).reshape(-1, 4)
        table = truth_table(image_ids, [gt for _, gt in images], row_image, boxes, corloc_variant)
        total = len(row_image)
        picks, permuted = {}, {}
        for name in "xyz":
            rows = rng.permutation(total)[: rng.integers(0, total + 1)]
            # Confidences on a half grid tie within and across images.
            picks[name] = rows, rng.integers(0, 3, len(rows)) / 2
            image = row_image[rows]
            # The j-th pick of an image fills that image's j-th slot in a shuffled sequence.
            slots = np.argsort(rng.permutation(image), kind="stable")
            order = np.empty(len(rows), dtype=int)
            order[slots] = np.argsort(image, kind="stable")
            permuted[name] = rows[order], picks[name][1][order]
            for k in range(len(images)):
                assert np.array_equal(rows[order][image[order] == k], rows[image == k])
        report = evaluation.evaluate_picks(table, picks, ap_mode=ap_mode)
        assert evaluation.evaluate_picks(table, permuted, ap_mode=ap_mode) == report

    @pytest.mark.parametrize("count_guided", [True, False])
    @pytest.mark.parametrize("corloc_variant, ap_mode", [("iou50", "11pt"), ("center", "area")])
    def test_run_adr_evaluation(self, count_guided, corloc_variant, ap_mode):
        # Iteration 0 evaluates the initial scores, iteration 1 the final scorer's.
        world = tied_world()
        gt = {record.image_id: dict(record.gt_boxes) for record in world}
        config = RefinementConfig(
            iterations=1,
            count_guided=count_guided,
            corloc_variant=corloc_variant,
            ap_mode=ap_mode,
        )
        report = run_adr(world, config)
        for entry, scorer in zip(report.iterations, (None, report.scorer)):
            detections = detections_from_scores(world, score_table(world, scorer), 0.3)
            expected = reference_report(detections, gt, corloc_variant, ap_mode)
            assert replace(entry.report, purity=None) == expected


# The per-class kernels of evaluate_picks against the code they replaced: one
# stable two-key lexsort, one mask per 11-point threshold, and a Python walk
# over the rows with candidates.


def reference_ranked_rows(image_rank, rows, confidence):
    images = image_rank[rows]
    order = np.lexsort((images, -confidence))
    return rows[order], images[order]


def reference_ap11(flags, num_gt):
    tp = np.cumsum(np.asarray(flags, dtype=float))
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / num_gt
    total = 0.0
    for threshold in (j / 10 for j in range(11)):
        over = precision[recall >= threshold]
        total += float(over.max()) if over.size else 0.0
    return total / 11.0


def reference_true_positives(truth, ranked):
    positives, taken = [], set()
    candidate = np.flatnonzero(truth.candidates[ranked])
    for r, row in zip(candidate.tolist(), ranked[candidate].tolist()):
        for j in truth.matches[row]:
            if j not in taken:
                taken.add(j)
                positives.append(r)
                break
    flags = np.zeros(len(ranked), dtype=bool)
    flags[positives] = True
    return flags


def random_class_truth(rng, rows, boxes):
    """A ClassTruth of ``rows`` rows, each with 0-3 distinct candidates of ``boxes`` boxes."""
    counts = rng.integers(0, min(3, boxes) + 1, rows)
    matches = {
        r: rng.permutation(boxes)[:c].tolist() for r, c in enumerate(counts.tolist()) if c
    }
    best = np.array([matches[r][0] if r in matches else -1 for r in range(rows)], dtype=int)
    hit = rng.integers(0, 2, rows).astype(bool)
    return ClassTruth(hit, counts.astype(np.int32), matches, best)


# Ties, both zeros, NaN and the infinities, which evaluate_picks does not refuse.
confidences = st.sampled_from([0.0, -0.0, 0.5, 1.0, float("nan"), float("inf"), -float("inf")])


class TestArrayKernels:
    @given(
        st.lists(st.tuples(confidences | st.floats(0, 1), st.integers(0, 5)), max_size=60),
        st.integers(0, 2**32 - 1),
    )
    @example([(0.5, 0)] * 40, 0)
    @example([(0.0, 1), (-0.0, 0), (0.0, 0), (-0.0, 1)], 1)
    @example([(float("nan"), 2), (1.0, 0), (float("nan"), 1), (float("nan"), 2)], 2)
    def test_ranked_is_the_stable_lexsort(self, picks, seed):
        rng = np.random.default_rng(seed)
        image_rank = np.array([image for _, image in picks], dtype=int)
        table = evaluation.TruthTable((), image_rank, {}, {})
        # Picks in a random order, some of the table's rows left out.
        rows = rng.permutation(len(picks))[: rng.integers(0, len(picks) + 1)]
        confidence = np.array([picks[r][0] for r in rows.tolist()], dtype=float)
        ranked, images = evaluation._ranked(table, rows, confidence)
        expected_rows, expected_images = reference_ranked_rows(image_rank, rows, confidence)
        assert np.array_equal(ranked, expected_rows)
        assert np.array_equal(images, expected_images)

    @given(st.lists(st.booleans(), min_size=1, max_size=80), st.integers(0, 20))
    @example([True] * 10, 0)
    @example([False, True, False, True, True], 7)
    def test_eleven_point_ap_keeps_its_bits(self, flags, slack):
        num_gt = sum(flags) + slack
        if num_gt:
            assert average_precision(flags, num_gt) == reference_ap11(flags, num_gt)

    @given(st.integers(0, 2**32 - 1))
    def test_true_positives_match_the_greedy_walk(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            rows, boxes = int(rng.integers(0, 25)), int(rng.integers(1, 8))
            truth = random_class_truth(rng, rows, boxes)
            # Any subset of the rows in any order.
            ranked = rng.permutation(rows)[: rng.integers(0, rows + 1)]
            expected = reference_true_positives(truth, ranked)
            assert np.array_equal(evaluation._true_positives(truth, ranked), expected)

    def test_best_is_each_classs_first_match_when_classes_interleave(self):
        # The row reaches cat boxes 0 and 1 at IoU 0.7 and 0.9, and dog box 2
        # at 0.8, between them in the order greedy matching tries.
        gt = [{"cat": [Box(0, 0, 10, 7), Box(0, 0, 10, 9)], "dog": [Box(0, 0, 10, 8)]}]
        table = truth_table(["img"], gt, np.zeros(1, dtype=int), np.array([GT_UNIT.as_tuple()]))
        assert table.classes["cat"].matches == {0: [1, 0]}
        assert table.classes["cat"].best.tolist() == [1]
        assert table.classes["dog"].best.tolist() == [2]
