"""Refinement loop: scorer behavior, pseudo-GT selection, full trajectories."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crskit import refinement
from crskit.evaluation import Detection
from crskit.geometry import Box, asymmetric_overlap, iou
from crskit.refinement import (
    CentroidScorer,
    _Features,
    _row_dots,
    FeatureDimensionError,
    PseudoGroundTruth,
    RefinementConfig,
    count_targets,
    detections_from_scores,
    ground_truth_table,
    retrain_scorer,
    run_adr,
    score_proposals,
    score_table,
    select_pseudo_gt,
    selection_purity,
)
from crskit.selection import (
    ScoredRegion,
    SelectionProblem,
    SelectionResult,
    crs_greedy,
    nms,
    suppress_columns,
    world_overlaps,
)
from crskit.world import ImageRecord, Proposal, generate_world
from test_evaluation import reference_report


def proposal(region_id, box, score, feature=None) -> Proposal:
    return Proposal(
        region_id=region_id, box=box, scores={"cat": score}, feature=feature
    )


def trained_scorer(world) -> CentroidScorer:
    """The scorer after one count-guided refinement pass over ``world``."""
    return run_adr(world, RefinementConfig(iterations=1)).scorer


def select_world(world, columns, config):
    """``select_pseudo_gt`` as a run calls it: the table ``columns``, the world's
    masks and one ``suppress_columns`` pass over both."""
    overlaps = world_overlaps(world, config.nms_threshold, config.threshold)
    survivors = suppress_columns(overlaps, columns)
    return select_pseudo_gt(world, columns, overlaps, survivors, config)


def picks_by_image(world, pseudo_gt):
    """``pseudo_gt`` in region ids: ``{image_id: {class: (selected ids, complete)}}`` for
    every image's positive classes, its rows mapped back through ``world``."""
    offsets = np.cumsum([0] + [len(record.proposals) for record in world]).tolist()
    picks = {
        record.image_id: {name: [] for name in record.positive_classes()} for record in world
    }
    for name, rows in pseudo_gt.rows.items():
        for row in rows.tolist():
            k = bisect_right(offsets, row) - 1
            picks[world[k].image_id][name].append(world[k].proposals[row - offsets[k]].region_id)
    return {
        record.image_id: {
            name: (tuple(ids), bool(pseudo_gt.complete[name][k]))
            for name, ids in picks[record.image_id].items()
        }
        for k, record in enumerate(world)
    }


def select(image, name, scores, config):
    """``select_world`` on a one-image world scored only for ``name``: its
    selected region ids and complete flag there."""
    columns = {name: np.array(scores, dtype=float)}
    return picks_by_image([image], select_world([image], columns, config))[image.image_id][name]


def picked(**rows):
    """A ``PseudoGroundTruth`` of the given rows per class, every selection complete."""
    return PseudoGroundTruth(
        {name: np.array(r, dtype=np.intp) for name, r in rows.items()},
        {name: np.ones(1, dtype=bool) for name in rows},
    )


def image_lists(world, columns):
    """A ``score_table`` cut into each image's score lists, by image_id and class."""
    offsets = np.cumsum([0] + [len(record.proposals) for record in world]).tolist()
    return {
        record.image_id: {name: column[start:end].tolist() for name, column in columns.items()}
        for record, start, end in zip(world, offsets, offsets[1:])
    }


def one_image(proposals, count=1) -> ImageRecord:
    return ImageRecord(
        image_id="img_0",
        gt_boxes={"cat": [Box(0, 0, 10, 10)]},
        counts={"cat": count},
        proposals=proposals,
    )


def duplicate_ids_image() -> ImageRecord:
    """An image whose instance box and background box share region id 0."""
    return one_image(
        [
            proposal(0, Box(0, 0, 10, 10), 0.9, np.array([1.0, 0.0])),
            proposal(0, Box(50, 50, 60, 60), 0.1, np.array([0.0, 1.0])),
        ]
    )


class TestConfig:
    def test_defaults(self):
        config = RefinementConfig()
        assert config.iterations == 3
        assert config.threshold == 0.1
        assert config.count_cap == 3
        assert config.nms_threshold == 0.3
        assert config.count_guided
        assert (config.corloc_variant, config.ap_mode) == ("iou50", "11pt")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"threshold": 0.0},
            {"threshold": 1.5},
            {"count_cap": 0},
            {"nms_threshold": 0.0},
            {"nms_threshold": 1.5},
            {"corloc_variant": "largest"},
            {"ap_mode": "coco"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RefinementConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("iterations", 2.5),
            ("iterations", True),
            ("iterations", "2"),
            ("count_cap", 1.5),
            ("count_cap", True),
            ("count_cap", 3.0),
            ("count_guided", "no"),
            ("count_guided", 1),
            ("count_guided", None),
            ("seed", -5),
            ("seed", "3"),
            ("seed", True),
        ],
        ids=repr,
    )
    def test_field_types(self, name, value):
        # The type rule config files and flags get, for a config built in code.
        with pytest.raises(ValueError, match=f"^{name} must be "):
            RefinementConfig(**{name: value})

    def test_count_target(self):
        assert [RefinementConfig(count_cap=3).count_target(n) for n in (1, 3, 5)] == [1, 3, 3]
        assert RefinementConfig(count_guided=False).count_target(5) == 1


class TestScorer:
    def test_untrained_scores_neutral(self):
        # A zero prototype is what a class gets before any selection.
        scorer = CentroidScorer({"cat": np.zeros(4)}, feature_dim=4)
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(4))])
        assert score_proposals(scorer, image) == {"cat": [0.5]}

    def test_cosine_extremes(self):
        scorer = CentroidScorer({"cat": np.array([1.0, 0.0])}, feature_dim=2)
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9, np.array([2.0, 0.0])),
                proposal(1, Box(20, 0, 30, 10), 0.5, np.array([-3.0, 0.0])),
                proposal(2, Box(40, 0, 50, 10), 0.5, np.array([0.0, 5.0])),
                proposal(3, Box(60, 0, 70, 10), 0.5, np.array([0.0, 0.0])),
            ]
        )
        scores = score_proposals(scorer, image)["cat"]
        assert_allclose(scores, [1.0, 0.0, 0.5, 0.5])

    def test_dimension_mismatch_raises(self):
        scorer = CentroidScorer({"cat": np.zeros(4)}, feature_dim=4)
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(3))])
        with pytest.raises(FeatureDimensionError):
            score_proposals(scorer, image)

    def test_prototype_of_another_length_is_named(self, monkeypatch):
        world = generate_world(3, 2, seed=2)
        scorer = CentroidScorer({"class_0": np.zeros(16), "class_1": np.zeros(3)}, 16)
        # Refused before any score is computed.
        monkeypatch.setattr(refinement, "_row_dots", None)
        with pytest.raises(FeatureDimensionError) as info:
            score_table(world, scorer)
        assert str(info.value) == "class_1: prototype has shape (3,), scorer expects (16,)"

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_prototype_too_large_to_score_is_named(self, value, monkeypatch):
        world = generate_world(3, 2, seed=2)
        scorer = CentroidScorer({"class_0": np.zeros(16), "class_1": np.full(16, value)}, 16)
        # Refused before any score is computed, and without an overflow warning.
        monkeypatch.setattr(refinement, "_row_dots", None)
        with pytest.raises(FeatureDimensionError) as info:
            score_table(world, scorer)
        assert str(info.value) == "class_1: prototype is too large to score"

    def test_missing_feature_raises(self):
        scorer = CentroidScorer({"cat": np.zeros(4)}, feature_dim=4)
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, None)])
        with pytest.raises(FeatureDimensionError):
            score_proposals(scorer, image)

    @pytest.mark.parametrize("bad_feature", [np.ones(3), None])
    def test_bad_feature_after_valid_ones_raises(self, bad_feature):
        # Checked for every proposal before any norm is computed.
        scorer = CentroidScorer({"cat": np.ones(4)}, feature_dim=4)
        proposals = [
            proposal(i, Box(20 * i, 0, 20 * i + 10, 10), 0.9, np.ones(4)) for i in range(3)
        ]
        proposals[2].feature = bad_feature
        with pytest.raises(FeatureDimensionError):
            score_proposals(scorer, one_image(proposals))

    def test_zero_norm_feature_is_neutral_for_every_class(self):
        # The feature norm is computed once and shared by all classes.
        scorer = CentroidScorer(
            {"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 2.0])},
            feature_dim=2,
        )
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9, np.array([3.0, 0.0])),
                proposal(1, Box(20, 0, 30, 10), 0.5, np.zeros(2)),
            ]
        )
        assert score_proposals(scorer, image) == {"cat": [1.0, 0.5], "dog": [0.5, 0.5]}


def feature_world(features, per_image=50):
    """Images of ``per_image`` proposals carrying the rows of ``features`` in order."""
    return [
        ImageRecord(
            image_id=f"img_{start}",
            counts={"cat": 1},
            proposals=[
                proposal(i, Box(0, 0, 10, 10), 0.5, features[i])
                for i in range(start, min(start + per_image, len(features)))
            ],
        )
        for start in range(0, len(features), per_image)
    ]


def reference_scores(scorer, image):
    """Shifted cosine scores computed one proposal and class at a time."""
    out = {}
    for name, prototype in scorer.prototypes.items():
        prototype_norm = math.sqrt(prototype @ prototype)
        out[name] = []
        for p in image.proposals:
            feature_norm = math.sqrt(p.feature @ p.feature)
            if feature_norm == 0.0 or prototype_norm == 0.0:
                out[name].append(0.5)
            else:
                value = (1.0 + float(p.feature @ prototype) / (feature_norm * prototype_norm)) / 2.0
                out[name].append(min(max(value, 0.0), 1.0))
    return out


class TestBatchedKernel:
    """The stacked kernel must keep the bits of per-row ``f @ p`` and ``sqrt(f @ f)``.

    A numpy release that dispatches the stacked products differently fails
    here, naming its version, before the golden trajectories drift.
    """

    @pytest.fixture
    def features(self):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(600, 16)) * rng.choice([1e-3, 1.0, 1e3], size=(600, 1))
        features[::37] = 0.0
        return features

    def test_dots_and_norms_match_per_row_products(self, features):
        version = f"numpy {np.__version__}"
        for prototype in (features[1:60].mean(axis=0), features[100], np.zeros(16)):
            dots = _row_dots(features, prototype)
            bad = [i for i, f in enumerate(features) if dots[i].hex() != (f @ prototype).hex()]
            assert not bad, f"{version}: stacked dots differ from f @ p in rows {bad[:5]}"
        norms = _Features(feature_world(features)).stacked[1]
        bad = [i for i, f in enumerate(features) if norms[i].hex() != math.sqrt(f @ f).hex()]
        assert not bad, f"{version}: stacked norms differ from sqrt(f @ f) in rows {bad[:5]}"

    def test_scores_match_per_row_scores(self, features):
        prototypes = {"cat": features[1:60].mean(axis=0), "dog": features[100], "cow": np.zeros(16)}
        scorer = CentroidScorer(prototypes, feature_dim=16)
        world = feature_world(features)
        table = image_lists(world, score_table(world, scorer))
        for image in world:
            expected = reference_scores(scorer, image)
            for name, scores in table[image.image_id].items():
                assert [s.hex() for s in scores] == [s.hex() for s in expected[name]], (
                    f"numpy {np.__version__}: {image.image_id} {name}"
                )

    def test_table_equals_per_image_scores(self, canonical_world):
        scorer = trained_scorer(canonical_world)
        table = image_lists(canonical_world, score_table(canonical_world, scorer))
        assert table == {r.image_id: score_proposals(scorer, r) for r in canonical_world}
        assert table == {r.image_id: reference_scores(scorer, r) for r in canonical_world}

    @pytest.mark.parametrize("count_guided", [True, False])
    def test_indexed_mean_matches_per_row_mean(self, canonical_world, count_guided):
        config = RefinementConfig(count_guided=count_guided)
        columns, scorer = score_table(canonical_world, None), None
        for _ in range(2):
            pseudo_gt = select_world(canonical_world, columns, config)
            scorer = retrain_scorer(pseudo_gt, canonical_world, previous=scorer)
            picks = picks_by_image(canonical_world, pseudo_gt)
            for name, prototype in scorer.prototypes.items():
                rows = [
                    np.asarray(r.proposal_map()[region_id].feature, dtype=float)
                    for r in canonical_world
                    if name in picks[r.image_id]
                    for region_id in picks[r.image_id][name][0]
                ]
                assert prototype.tobytes() == np.mean(rows, axis=0).tobytes()
            columns = score_table(canonical_world, scorer)

    def test_feature_too_large_to_score_is_located(self):
        scorer = CentroidScorer({"cat": np.ones(2)}, feature_dim=2)
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(2)),
                proposal(1, Box(20, 0, 30, 10), 0.9, np.array([1e200, 1.0])),
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FeatureDimensionError) as info:
                score_proposals(scorer, image)
        assert str(info.value) == "img_0: proposal 1 has a feature too large to score"


def test_stored_scores_fill_every_counted_class():
    # Without a scorer each row holds its proposal's stored score, 0 for a
    # class it has no score for, and every class any image counts gets a
    # column, so every image has the same classes.
    world = generate_world(5, 3, seed=6)
    world[1].counts["ghost"] = 0
    del world[2].proposals[0].scores["class_0"]
    table = score_table(world, None)
    assert list(table) == ["class_0", "class_1", "class_2", "ghost"]
    for name, column in table.items():
        assert column.dtype == float
        assert column.tolist() == [p.scores.get(name, 0.0) for r in world for p in r.proposals]


class TestSelectPseudoGt:
    def test_count_guided_respects_count_and_cap(self):
        boxes = [Box(15.0 * i, 0, 15.0 * i + 10, 10) for i in range(5)]
        image = one_image(
            [proposal(i, b, 0.5 + 0.05 * i) for i, b in enumerate(boxes)], count=4
        )
        scores = [p.scores["cat"] for p in image.proposals]
        config = RefinementConfig(count_cap=3)
        selected, complete = select(image, "cat", scores, config)
        assert len(selected) == 3 and complete  # min(count=4, cap=3)
        capped, complete = select(image, "cat", scores, RefinementConfig(count_cap=10))
        assert len(capped) == 4 and complete

    def test_baseline_takes_single_top_region(self):
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9),
                proposal(1, Box(20, 0, 30, 10), 0.8),
            ],
            count=3,
        )
        config = RefinementConfig(count_guided=False)
        assert select(image, "cat", [0.9, 0.8], config) == ((0,), True)

    def test_suppression_runs_before_selection(self):
        # near-duplicate of the top region is suppressed, so even a permissive
        # overlap threshold cannot select it
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9),
                proposal(1, Box(1, 0, 11, 10), 0.85),  # IoU 9/11 with region 0
                proposal(2, Box(50, 0, 60, 10), 0.5),
            ],
            count=2,
        )
        config = RefinementConfig(threshold=1.0)
        assert select(image, "cat", [0.9, 0.85, 0.5], config)[0] == (0, 2)

    def test_zero_count_class_is_not_selected(self):
        # Only positive classes are selected, so no count gives a target below 1.
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)], count=1)
        image.counts["cat"] = 0
        pseudo_gt = select_world([image], score_table([image], None), RefinementConfig())
        assert (pseudo_gt.rows, pseudo_gt.complete) == ({}, {})

    # A target is config.count_target of a positive count (>= 1), so only the cap could
    # make it a bool, a fraction or below 1; the config refuses each such cap.
    @pytest.mark.parametrize("target", [-1, True, 1.5], ids=repr)
    def test_bad_target_rejected(self, target):
        with pytest.raises(ValueError) as caught:
            RefinementConfig(count_cap=target)
        if target == -1:
            assert str(caught.value) == "count_cap must be >= 1, got -1"
        else:
            assert str(caught.value) == f"count_cap must be int, got {type(target).__name__}"

    def test_score_alignment_checked(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        with pytest.raises(ValueError, match=r"^cat: got 2 scores for 1 proposals$"):
            select(image, "cat", [0.9, 0.1], RefinementConfig())

    def test_nan_score_is_named(self):
        # A NaN fails every comparison; the check names it, not the score after it.
        world = generate_world(3, 2, seed=1)
        columns = score_table(world, None)
        name = world[1].positive_classes()[0]
        columns[name][len(world[0].proposals) + 1] = math.nan
        overlaps = world_overlaps(world, 0.3, 0.1)
        survivors = suppress_columns(overlaps, score_table(world, None))
        with pytest.raises(ValueError) as caught:
            select_pseudo_gt(world, columns, overlaps, survivors, RefinementConfig())
        region_id = world[1].proposals[1].region_id
        assert str(caught.value) == (
            f"{world[1].image_id}: proposal {region_id}: {name} score must be in [0, 1], got nan"
        )

    def test_overlaps_of_another_world_rejected(self):
        # Masks of another world or image order would walk the wrong proposals.
        world = generate_world(4, 2, seed=2)
        columns = score_table(world, None)
        for other in (world[:3], world[::-1]):
            overlaps = world_overlaps(other, 0.3, 0.1)
            survivors = suppress_columns(overlaps, score_table(other, None))
            with pytest.raises(ValueError) as caught:
                select_pseudo_gt(world, columns, overlaps, survivors, RefinementConfig())
            assert str(caught.value) == "overlaps were built for another world or image order"

    # Neither row is in an image: -1 lies before the first, the row count past the last.
    @pytest.mark.parametrize("row", [-1, "total"])
    def test_survivor_row_outside_the_world_rejected(self, row):
        world = generate_world(4, 2, seed=2)
        columns = score_table(world, None)
        overlaps = world_overlaps(world, 0.3, 0.1)
        survivors = suppress_columns(overlaps, columns)
        total = int(overlaps.offsets[-1])
        row = total if row == "total" else row
        name = next(iter(survivors))
        survivors[name] = np.append(survivors[name], row)
        with pytest.raises(ValueError) as caught:
            select_pseudo_gt(world, columns, overlaps, survivors, RefinementConfig())
        assert str(caught.value) == f"{name}: survivor row {row} is not in [0, {total})"

    @pytest.mark.parametrize("missing", ["column", "survivors"])
    def test_positive_class_without_column_or_survivors_rejected(self, missing):
        world = generate_world(4, 2, seed=2)
        columns = score_table(world, None)
        overlaps = world_overlaps(world, 0.3, 0.1)
        survivors = suppress_columns(overlaps, columns)
        record = next(r for r in world if r.positive_classes())
        name = record.positive_classes()[0]
        del (columns if missing == "column" else survivors)[name]
        with pytest.raises(ValueError) as caught:
            select_pseudo_gt(world, columns, overlaps, survivors, RefinementConfig())
        assert str(caught.value) == f"{record.image_id}: {name} has no score column or survivors"

    def test_no_proposals_gives_empty_incomplete_result(self):
        image = one_image([], count=2)
        assert select(image, "cat", [], RefinementConfig()) == ((), False)

    def test_count_above_post_nms_regions_is_incomplete(self):
        # Three proposals, one suppressed as a near-duplicate: a count of 3
        # can only be met by 2 regions.
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9),
                proposal(1, Box(1, 0, 11, 10), 0.85),
                proposal(2, Box(50, 0, 60, 10), 0.5),
            ],
            count=3,
        )
        assert select(image, "cat", [0.9, 0.85, 0.5], RefinementConfig()) == ((0, 2), False)

    def test_out_of_range_score_rejected(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        with pytest.raises(ValueError):
            select(image, "cat", [1.5], RefinementConfig())

    def test_target_beyond_any_int64_stays_incomplete(self):
        # A count and cap past int64 select every compatible region, incomplete.
        image = one_image(
            [proposal(0, Box(0, 0, 10, 10), 0.9), proposal(1, Box(50, 0, 60, 10), 0.5)],
            count=10**30,
        )
        config = RefinementConfig(count_cap=10**30)
        assert count_targets([image], config)["cat"].tolist() == [3]
        assert select(image, "cat", [0.9, 0.5], config) == ((0, 1), False)

    @pytest.mark.parametrize("rescored", [False, True])
    @pytest.mark.parametrize("count_guided", [True, False])
    def test_matches_public_nms_then_greedy(self, rescored, count_guided):
        # Cached masks give what the public functions give on the same
        # regions, for the stored scores and for a retrained scorer's, which
        # rank the proposals differently over the same masks.
        world = generate_world(30, 3, seed=12)
        config = RefinementConfig(count_guided=count_guided)
        columns = score_table(world, trained_scorer(world) if rescored else None)
        table = image_lists(world, columns)
        expected = {}
        for record in world:
            for name in record.positive_classes():
                regions = [
                    ScoredRegion(p.box, s, p.region_id)
                    for p, s in zip(record.proposals, table[record.image_id][name])
                ]
                target = min(record.counts[name], config.count_cap) if count_guided else 1
                problem = SelectionProblem(
                    tuple(nms(regions, config.nms_threshold)), target, config.threshold
                )
                result = crs_greedy(problem)
                expected.setdefault(record.image_id, {})[name] = (result.selected, result.complete)
        assert picks_by_image(world, select_world(world, columns, config)) == {
            record.image_id: expected.get(record.image_id, {}) for record in world
        }


    @pytest.mark.parametrize(
        "config",
        [RefinementConfig(), RefinementConfig(count_cap=8, threshold=0.3), RefinementConfig(
            count_guided=False
        )],
        ids=["default", "k8-T0.3", "top1"],
    )
    def test_wide_images_match_public_nms_then_greedy(self, config):
        # Images of 65-200 proposals (2-4 conflict words) among small and empty
        # ones, walked in one call: each class's rows are nms then crs_greedy,
        # image by image, mapped to rows.
        rng = np.random.default_rng(5)
        world = []
        for k, n in enumerate([8, 200, 0, 65, 3, 130, 1, 64, 21]):
            proposals = []
            for region_id in rng.permutation(3 * n)[:n].tolist():
                x, y, side = rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(4, 30, 2)
                # Cat scores on an eighth grid tie within images.
                scores = {"cat": round(rng.random() * 8) / 8, "dog": rng.random()}
                proposals.append(Proposal(region_id, Box(x, y, x + side[0], y + side[1]), scores))
            counts = {"cat": int(rng.integers(1, 9)), "dog": int(rng.integers(0, 3))}
            world.append(ImageRecord(f"img_{k}", counts=counts, proposals=proposals))
        columns = score_table(world, None)
        pseudo_gt = select_world(world, columns, config)
        offsets = np.cumsum([0] + [len(record.proposals) for record in world]).tolist()
        rows = {name: [] for name in ("cat", "dog")}
        for k, record in enumerate(world):
            position = {p.region_id: i for i, p in enumerate(record.proposals)}
            for name in record.positive_classes():
                regions = [
                    ScoredRegion(p.box, p.scores[name], p.region_id) for p in record.proposals
                ]
                target = config.count_target(record.counts[name])
                result = crs_greedy(
                    SelectionProblem(nms(regions, config.nms_threshold), target, config.threshold)
                ) if regions else SelectionResult((), 0.0, False)
                rows[name] += [offsets[k] + position[i] for i in result.selected]
                assert pseudo_gt.complete[name][k] == result.complete, (k, name)
            for name in set(rows) - set(record.positive_classes()):
                assert not pseudo_gt.complete[name][k]
        assert {name: r.tolist() for name, r in pseudo_gt.rows.items()} == rows

class TestDetectionsFromScores:
    @pytest.mark.parametrize("rescored", [False, True])
    def test_matches_public_nms(self, rescored):
        world = generate_world(20, 3, seed=5)
        columns = score_table(world, trained_scorer(world) if rescored else None)
        detections = detections_from_scores(world, columns, 0.3)
        scores = image_lists(world, columns)
        expected = [
            (record.image_id, name, region.box, region.score)
            for record in world
            for name, class_scores in scores[record.image_id].items()
            for region in nms(
                [
                    ScoredRegion(p.box, s, p.region_id)
                    for p, s in zip(record.proposals, class_scores)
                ],
                0.3,
            )
        ]
        assert [(d.image_id, d.class_id, d.box, d.confidence) for d in detections] == expected

    def test_out_of_range_score_rejected(self):
        # The first bad score is located at its image and proposal.
        world = generate_world(3, 2, seed=1)
        region_id = world[1].proposals[1].region_id
        for bad in (1.5, -0.25, math.nan):
            columns = score_table(world, None)
            name = list(columns)[1]
            columns[name][len(world[0].proposals) + 1] = bad
            columns[name][-1] = 2.0
            with pytest.raises(ValueError) as caught:
                detections_from_scores(world, columns, 0.3)
            assert str(caught.value) == (
                f"{world[1].image_id}: proposal {region_id}: {name} score must be in [0, 1], "
                f"got {bad}"
            )

    def test_short_column_is_located(self):
        # A column that stops early names the first proposal without a score.
        world = generate_world(2, 2, seed=1)
        columns = score_table(world, None)
        name = list(columns)[1]
        full = columns[name]
        columns[name] = full[: len(world[0].proposals)]
        with pytest.raises(ValueError) as caught:
            detections_from_scores(world, columns, 0.3)
        region_id = world[1].proposals[0].region_id
        assert str(caught.value) == f"{world[1].image_id}: proposal {region_id} has no {name} score"
        # One past the last proposal has no proposal to name.
        columns[name] = np.append(full, 0.5)
        with pytest.raises(ValueError) as caught:
            detections_from_scores(world, columns, 0.3)
        assert str(caught.value) == f"{name}: got {len(full) + 1} scores for {len(full)} proposals"


class TestRetrain:
    def test_prototype_is_mean_of_selected_features(self):
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9, np.array([1.0, 0.0])),
                proposal(1, Box(20, 0, 30, 10), 0.8, np.array([0.0, 1.0])),
                proposal(2, Box(40, 0, 50, 10), 0.1, np.array([9.0, 9.0])),
            ],
            count=2,
        )
        scorer = retrain_scorer(picked(cat=[0, 1]), [image])
        assert_allclose(scorer.prototypes["cat"], [0.5, 0.5])

    def test_unselected_class_keeps_previous_prototype(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.array([1.0, 2.0]))])
        previous = CentroidScorer({"cat": np.array([3.0, 4.0])}, 2)
        scorer = retrain_scorer(picked(), [image], previous=previous)
        assert_allclose(scorer.prototypes["cat"], [3.0, 4.0])
        # no selected row in a class keeps its prototype too
        scorer = retrain_scorer(picked(cat=[]), [image], previous=previous)
        assert_allclose(scorer.prototypes["cat"], [3.0, 4.0])
        # without a previous scorer the prototype is zero: neutral 0.5 scores
        cold = retrain_scorer(picked(), [image])
        assert_allclose(cold.prototypes["cat"], [0.0, 0.0])
        assert score_proposals(cold, image) == {"cat": [0.5]}

    def test_selected_region_without_feature_raises(self):
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(2)),
                proposal(1, Box(20, 0, 30, 10), 0.9, None),
                proposal(2, Box(40, 0, 50, 10), 0.9, None),
            ]
        )
        # The first row without a feature is named, whichever class selected it.
        with pytest.raises(FeatureDimensionError) as caught:
            retrain_scorer(picked(cat=[0, 2], dog=[1]), [image])
        assert str(caught.value) == "img_0: selected proposal 1 has no feature"

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            retrain_scorer(picked(), [])

    @pytest.mark.parametrize("row", [999, -1])
    def test_selected_row_outside_the_world_is_named(self, row):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(2))])
        with pytest.raises(ValueError) as caught:
            retrain_scorer(picked(cat=[0, row]), [image])
        assert str(caught.value) == f"cat: selected row {row} is not in [0, 1)"

    def test_duplicate_region_ids_rejected(self):
        with pytest.raises(ValueError) as caught:
            retrain_scorer(picked(cat=[0]), [duplicate_ids_image()])
        assert str(caught.value) == "img_0: region_ids must be unique within an image"

    def test_mixed_dimensions_name_where_each_was_seen(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.array([1.0, 2.0]))])
        previous = CentroidScorer({"cat": np.array([3.0, 4.0, 5.0])}, 3)
        with pytest.raises(FeatureDimensionError) as info:
            retrain_scorer(picked(), [image], previous=previous)
        assert str(info.value) == (
            "mixed feature dimensions: the previous scorer has 3, img_0: proposal 0 has 2"
        )


class TestRunAdr:
    def test_report_structure(self):
        world = generate_world(16, 2, seed=3)
        config = RefinementConfig(iterations=3, seed=3)
        report = run_adr(world, config)
        assert [entry.iteration for entry in report.iterations] == [0, 1, 2, 3]
        assert report.iterations[0].report.purity is None
        for entry in report.iterations[1:]:
            assert entry.report.purity is not None
        assert report.scorer is not None
        assert report.config == config

    def test_single_pass_baseline(self):
        world = generate_world(8, 2, seed=4)
        config = RefinementConfig(iterations=1, count_guided=False, seed=4)
        report = run_adr(world, config)
        assert len(report.iterations) == 2
        assert report.iterations[1].report.purity is not None

    def test_deterministic(self):
        from crskit.dataio import refinement_report_to_dict

        world = generate_world(10, 2, seed=6)
        config = RefinementConfig(seed=6)
        first = refinement_report_to_dict(run_adr(world, config))
        second = refinement_report_to_dict(run_adr(world, config))
        assert first == second

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            run_adr([], RefinementConfig())

    def test_out_of_range_initial_score_rejected(self):
        # A count-0 class is never selected, so only the check of the
        # initial scores sees its score.
        world = generate_world(4, 2, seed=8)
        world[2].counts["ghost"] = 0
        world[2].proposals[0].scores["ghost"] = 1.5
        with pytest.raises(ValueError, match="score must be in"):
            run_adr(world, RefinementConfig(iterations=1))

    @pytest.mark.parametrize("count_guided", [True, False])
    def test_each_score_table_is_suppressed_once(self, monkeypatch, count_guided):
        # Selection walks the survivors its evaluation suppressed the same table to.
        tables = []

        def counted(overlaps, columns):
            tables.append(columns)
            return suppress_columns(overlaps, columns)

        monkeypatch.setattr(refinement, "suppress_columns", counted)
        world = generate_world(12, 2, seed=3)
        run_adr(world, RefinementConfig(iterations=3, count_guided=count_guided))
        assert len(tables) == 3 + 1
        assert len({id(table) for table in tables}) == len(tables)

    def test_image_without_proposals(self):
        world = generate_world(8, 2, seed=9)
        world[3].proposals = []
        for count_guided in (True, False):
            report = run_adr(world, RefinementConfig(count_guided=count_guided, seed=9))
            assert len(report.iterations) == 4
            for entry in report.iterations[1:]:
                assert 0.0 <= entry.report.purity <= 1.0

    @pytest.mark.parametrize(
        "region_id, count_guided, message",
        [
            # A background proposal is never selected: rescoring finds it.
            (9, True, "img_0000: proposal 9 has no feature"),
            # Top-1 selects the merged hull: retraining finds it first.
            (8, False, "img_0000: selected proposal 8 has no feature"),
        ],
    )
    def test_missing_feature_fails_where_it_is_first_read(self, region_id, count_guided, message):
        world = generate_world(20, 2, seed=1)
        assert world[0].proposals[region_id].provenance == (
            "background" if count_guided else "merged"
        )
        world[0].proposals[region_id].feature = None
        with pytest.raises(FeatureDimensionError) as info:
            run_adr(world, RefinementConfig(count_guided=count_guided))
        assert str(info.value) == message

    def test_threshold_binds_on_the_canonical_world_only_at_one(self, canonical_world):
        # Same-class tight boxes keep apart, so from 0.02 to 0.8 count guidance
        # picks the same pure regions; at 1.0 merged hulls get in for one
        # iteration and retraining heals them.
        runs = {
            t: run_adr(canonical_world, RefinementConfig(threshold=t))
            for t in (0.1, 0.02, 0.3, 0.8, 1.0)
        }
        base = runs[0.1]
        assert [entry.report.purity for entry in base.iterations] == [None, 1.0, 1.0, 1.0]
        for t in (0.02, 0.3, 0.8):
            assert runs[t].iterations == base.iterations, t
            assert runs[t].scorer.prototypes.keys() == base.scorer.prototypes.keys()
            for name, prototype in base.scorer.prototypes.items():
                assert np.array_equal(runs[t].scorer.prototypes[name], prototype), (t, name)
        loose = runs[1.0].iterations
        assert loose[1] != base.iterations[1]
        assert loose[1].report.purity < 1.0
        assert [entry.report.purity for entry in loose[2:]] == [1.0, 1.0]

    def test_metrics_in_range(self):
        world = generate_world(12, 2, seed=8)
        report = run_adr(world, RefinementConfig(iterations=2, seed=8))
        for entry in report.iterations:
            assert 0.0 <= entry.report.mean_corloc <= 1.0
            assert 0.0 <= entry.report.mean_ap <= 1.0
            if entry.report.purity is not None:
                assert 0.0 <= entry.report.purity <= 1.0


class TestSelectionPurity:
    def test_pooled_fraction(self):
        for second, gt in [
            (Box(50, 0, 60, 10), [Box(0, 0, 10, 10)]),  # matches nothing
            # A hull over two equal boxes has IoU 1/3 with each: it covers neither.
            (Box(0, 0, 30, 10), [Box(0, 0, 10, 10), Box(20, 0, 30, 10)]),
        ]:
            image = one_image(
                [
                    proposal(0, Box(0, 0, 10, 10), 0.9),  # matches the first gt box
                    proposal(1, second, 0.8),
                ],
                count=2,
            )
            image.gt_boxes["cat"] = gt
            pseudo_gt = picked(cat=[0, 1])
            assert selection_purity(pseudo_gt, [image], ground_truth_table([image])) == 0.5
            assert is_pure_purity({"img_0": {"cat": (0, 1)}}, [image]) == 0.5

    def test_undefined_without_selections(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        for pseudo_gt in (picked(), picked(cat=[])):
            assert selection_purity(pseudo_gt, [image], ground_truth_table([image])) is None

    @pytest.mark.parametrize("row", [999, -1])
    def test_selected_row_outside_the_world_is_named(self, row):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        with pytest.raises(ValueError) as caught:
            selection_purity(picked(cat=[0, row]), [image], ground_truth_table([image]))
        assert str(caught.value) == f"cat: selected row {row} is not in [0, 1)"

    def test_duplicate_region_ids_rejected(self):
        image = duplicate_ids_image()
        with pytest.raises(ValueError) as caught:
            selection_purity(picked(cat=[0]), [image], ground_truth_table([image]))
        assert str(caught.value) == "img_0: region_ids must be unique within an image"


def is_pure_purity(picks, world):
    """Pooled purity region by region over ``{image_id: {class: selected region ids}}``:
    a region is pure when it reaches IoU 0.5 with exactly one ground-truth box
    of its class, by the scalar ``iou``."""
    verdicts = []
    for record in world:
        proposals = record.proposal_map()
        for name, selected in picks.get(record.image_id, {}).items():
            gt = record.gt_boxes.get(name, [])
            for region_id in selected:
                verdicts.append(sum(iou(proposals[region_id].box, g) >= 0.5 for g in gt) == 1)
    return sum(verdicts) / len(verdicts) if verdicts else None


class TestGroundTruthTable:
    def test_table_for_another_world_rejected(self):
        world = generate_world(4, 2, seed=2)
        for other in (world[:3], world[::-1]):
            with pytest.raises(ValueError):
                selection_purity(picked(), world, ground_truth_table(other))

    def test_duplicate_image_ids_rejected(self):
        world = generate_world(2, 2, seed=2)
        world[1].image_id = world[0].image_id
        with pytest.raises(ValueError):
            ground_truth_table(world)

    @pytest.mark.parametrize("dog_boxes", [None, []])
    def test_counted_class_without_ground_truth_is_impure(self, dog_boxes):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        image.counts["dog"] = 1
        if dog_boxes is not None:
            image.gt_boxes["dog"] = dog_boxes
        pseudo_gt = picked(cat=[0], dog=[0])
        table = ground_truth_table([image])
        assert selection_purity(pseudo_gt, [image], table) == 0.5
        assert is_pure_purity({"img_0": {"cat": (0,), "dog": (0,)}}, [image]) == 0.5

    def test_box_straddling_two_boxes_is_impure(self):
        # IoU exactly 0.5 with both neighbours: covers two, not one.
        image = one_image(
            [proposal(0, Box(0, 0, 20, 10), 0.9), proposal(1, Box(10, 0, 20, 10), 0.8)],
            count=2,
        )
        image.gt_boxes["cat"] = [Box(0, 0, 10, 10), Box(10, 0, 20, 10)]
        pseudo_gt = picked(cat=[0, 1])
        table = ground_truth_table([image])
        assert selection_purity(pseudo_gt, [image], table) == 0.5
        assert is_pure_purity({"img_0": {"cat": (0, 1)}}, [image]) == 0.5

    @pytest.mark.parametrize("count_guided", [True, False])
    def test_purity_matches_is_pure_on_real_selections(self, count_guided):
        world = generate_world(30, 3, seed=13)
        config = RefinementConfig(count_guided=count_guided)
        pseudo_gt = select_world(world, score_table(world, None), config)
        picks = picks_by_image(world, pseudo_gt)
        selected = {i: {c: ids for c, (ids, _) in p.items()} for i, p in picks.items()}
        expected = is_pure_purity(selected, world)
        assert selection_purity(pseudo_gt, world, ground_truth_table(world)) == expected


def test_count_guidance_beats_baseline_across_seeds():
    # Statistical property: pooled over 20 seeds, count-guided selection is
    # purer than top-1 selection on worlds full of multi-instance images.
    guided_values = []
    baseline_values = []
    for seed in range(20):
        world = generate_world(24, 2, seed=seed)
        for count_guided, bucket in (
            (True, guided_values),
            (False, baseline_values),
        ):
            config = RefinementConfig(
                iterations=2, count_guided=count_guided, seed=seed
            )
            report = run_adr(world, config)
            bucket.append(report.iterations[-1].report.purity)
    assert np.mean(guided_values) >= np.mean(baseline_values) + 0.1


# A whole-loop reference for ``run_adr``, built only from scalar pieces: rank
# order by (score descending, region_id), suppression by ``iou``, the greedy
# count-constrained walk by ``asymmetric_overlap``, prototypes as the mean of
# the selected features in gather order, per-row cosine scores
# (``reference_scores``), purity by ``iou`` (``is_pure_purity``) and the
# Detection-based ``reference_report``. No mask, table or stacked kernel of
# the library takes part, so a change that moves any batched path's bits on
# any world shows up here.


def reference_survivors(record, scores, nms_threshold):
    """Positions that survive suppression, in rank order."""
    proposals = record.proposals
    ranked = sorted(range(len(proposals)), key=lambda i: (-scores[i], proposals[i].region_id))
    kept = []
    for i in ranked:
        if all(iou(proposals[i].box, proposals[j].box) < nms_threshold for j in kept):
            kept.append(i)
    return kept


def reference_selection(record, scores, kept, target, threshold):
    """Every survivor seeds a set walked in rank order; the best-scoring set wins."""
    boxes = [p.box for p in record.proposals]
    best, best_total = [], 0.0
    for start, seed in enumerate(kept):
        chosen, total = [seed], scores[seed]
        for j in kept[start + 1 :]:
            if len(chosen) == target:
                break
            if all(asymmetric_overlap(boxes[m], boxes[j]) < threshold for m in chosen):
                chosen.append(j)
                total += scores[j]
        if not best or total > best_total:
            best, best_total = chosen, total
    selected = tuple(record.proposals[i].region_id for i in best)
    return SelectionResult(selected, best_total, len(best) == target)


def reference_adr(world, config):
    """Every iteration's EvalReport of ``run_adr(world, config)``, and its final prototypes."""
    classes = sorted({name for record in world for name in record.counts})
    gt = {record.image_id: dict(record.gt_boxes) for record in world}
    scores = {
        r.image_id: {name: [p.scores.get(name, 0.0) for p in r.proposals] for name in classes}
        for r in world
    }
    dim = len(next(p.feature for r in world for p in r.proposals))
    prototypes = {name: np.zeros(dim) for name in classes}

    def evaluate(purity):
        detections = [
            Detection(r.image_id, name, r.proposals[i].box, class_scores[i])
            for r in world
            for name, class_scores in scores[r.image_id].items()
            for i in reference_survivors(r, class_scores, config.nms_threshold)
        ]
        report = reference_report(detections, gt, config.corloc_variant, config.ap_mode)
        return replace(report, purity=purity)

    reports = [evaluate(None)]
    for _ in range(config.iterations):
        pseudo_gt = {}
        for r in world:
            pseudo_gt[r.image_id] = {}
            for name in r.positive_classes():
                class_scores = scores[r.image_id][name]
                kept = reference_survivors(r, class_scores, config.nms_threshold)
                target = config.count_target(r.counts[name])
                pseudo_gt[r.image_id][name] = reference_selection(
                    r, class_scores, kept, target, config.threshold
                )
        for name in classes:
            rows = [
                r.proposal_map()[region_id].feature
                for r in world
                if name in pseudo_gt[r.image_id]
                for region_id in pseudo_gt[r.image_id][name].selected
            ]
            if rows:
                prototypes[name] = np.array(rows).mean(axis=0)
        scorer = CentroidScorer(dict(prototypes), dim)
        scores = {r.image_id: reference_scores(scorer, r) for r in world}
        picks = {i: {c: result.selected for c, result in p.items()} for i, p in pseudo_gt.items()}
        reports.append(evaluate(is_pure_purity(picks, world)))
    return reports, prototypes


def threshold_image(world):
    """An image whose overlaps sit exactly on the default thresholds.

    Proposal 1's directed overlap with proposal 0 is 0.1 and proposal 3's IoU
    with it is 0.3, so both conflicts hold only because a threshold is
    reached, not passed. Count guidance then picks proposals 0 and 2, which
    each cover one box. Features come from ``world``'s class_0 proposals.
    """
    features = {}
    for p in (p for r in world for p in r.proposals):
        if max(p.scores, key=p.scores.get) == "class_0":
            features.setdefault(p.provenance, []).append(p.feature.copy())
    boxes = [Box(0, 0, 10, 10), Box(9, 0, 19, 10), Box(30, 0, 40, 10), Box(0, 0, 10, 3)]
    kinds = ["tight", "background", "tight", "part"]
    initial = [1.0, 0.75, 0.5, 0.25]
    names = sorted({name for r in world for name in r.counts})
    return ImageRecord(
        image_id="img_edge",
        gt_boxes={"class_0": [boxes[0], boxes[2]]},
        counts={"class_0": 2},
        proposals=[
            Proposal(
                13 - i,
                box,
                {name: initial[i] if name == "class_0" else 0.25 for name in names},
                features[kind][i] if kind in features else features["tight"][-1 - i],
            )
            for i, (box, kind) in enumerate(zip(boxes, kinds))
        ],
    )


def edge_world():
    """A world of ties and edge cases for the whole loop.

    Initial scores sit on a quarter grid and proposals run against region_id
    order, so ties meet a tie-break that input position would get wrong; in
    twenty images a background proposal carries a tight proposal's feature,
    so the two tie in every rescored table. Images run in reverse image_id order. One image has
    no proposals, one counts a class without boxes, one has a class with boxes
    and no scores, one has a zero-norm feature, and one sits on the thresholds.
    """
    world = generate_world(40, 3, seed=21)[::-1]
    for record in world:
        record.proposals.reverse()
        for p in record.proposals:
            p.scores = {name: round(s * 4) / 4 for name, s in p.scores.items()}
    for record in world[5:25]:
        by_kind = {p.provenance: p for p in record.proposals}
        by_kind["background"].feature = by_kind["tight"].feature.copy()
    world[0].proposals = []
    world[1].counts["ghost"] = 1
    world[2].gt_boxes["unscored"] = [Box(0, 0, 20, 20)]
    world[3].proposals[0].feature = np.zeros_like(world[3].proposals[0].feature)
    world.append(threshold_image(world))
    return world


WHOLE_LOOP_CASES = {
    "edges": (edge_world, RefinementConfig()),
    "default": (lambda: generate_world(60, 3, seed=3), RefinementConfig()),
    "center-area-T0.25-k2": (
        lambda: generate_world(50, 4, seed=11),
        RefinementConfig(threshold=0.25, count_cap=2, corloc_variant="center", ap_mode="area"),
    ),
    "nms0.5": (
        lambda: generate_world(40, 1, seed=5), RefinementConfig(iterations=2, nms_threshold=0.5)
    ),
}


class TestWholeLoopReference:
    @pytest.mark.parametrize("count_guided", [True, False], ids=["guided", "top1"])
    @pytest.mark.parametrize("case", list(WHOLE_LOOP_CASES))
    def test_run_adr_equals_reference(self, case, count_guided):
        make_world, config = WHOLE_LOOP_CASES[case]
        config = replace(config, count_guided=count_guided)
        world = make_world()
        report = run_adr(world, config)
        expected, prototypes = reference_adr(world, config)
        assert [entry.report for entry in report.iterations] == expected
        assert report.scorer.prototypes.keys() == prototypes.keys()
        for name, prototype in prototypes.items():
            assert report.scorer.prototypes[name].tobytes() == prototype.tobytes(), name
