"""Refinement loop: scorer behavior, pseudo-GT selection, full trajectories."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crskit.geometry import Box, plus_one_convention
from crskit.refinement import (
    CentroidScorer,
    FeatureDimensionError,
    RefinementConfig,
    detections_from_scores,
    image_overlaps,
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
)
from crskit.world import ImageRecord, Proposal, generate_world


def proposal(region_id, box, score, feature=None) -> Proposal:
    return Proposal(
        region_id=region_id, box=box, scores={"cat": score}, feature=feature
    )


def one_image(proposals, count=1) -> ImageRecord:
    return ImageRecord(
        image_id="img_0",
        gt_boxes={"cat": [Box(0, 0, 10, 10)]},
        counts={"cat": count},
        proposals=proposals,
    )


class TestConfig:
    def test_defaults(self):
        config = RefinementConfig()
        assert config.iterations == 3
        assert config.threshold == 0.1
        assert config.count_cap == 3
        assert config.nms_threshold == 0.3
        assert config.feature_dim == 16
        assert config.count_guided

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"threshold": 0.0},
            {"threshold": 1.5},
            {"count_cap": 0},
            {"nms_threshold": 0.0},
            {"feature_dim": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RefinementConfig(**kwargs)


class TestScorer:
    def test_untrained_scores_neutral(self):
        scorer = CentroidScorer.untrained(["cat"], 4)
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(4))])
        assert score_proposals(scorer, image) == {"cat": [0.5]}
        assert not scorer.trained

    def test_cosine_extremes(self):
        scorer = CentroidScorer({"cat": np.array([1.0, 0.0])}, feature_dim=2, trained=True)
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
        scorer = CentroidScorer({"cat": np.zeros(4)}, feature_dim=4, trained=True)
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.ones(3))])
        with pytest.raises(FeatureDimensionError):
            score_proposals(scorer, image)

    def test_missing_feature_raises(self):
        scorer = CentroidScorer({"cat": np.zeros(4)}, feature_dim=4, trained=True)
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, None)])
        with pytest.raises(FeatureDimensionError):
            score_proposals(scorer, image)

    @pytest.mark.parametrize("bad_feature", [np.ones(3), None])
    def test_bad_feature_after_valid_ones_raises(self, bad_feature):
        # Checked for every proposal before any norm is computed.
        scorer = CentroidScorer({"cat": np.ones(4)}, feature_dim=4, trained=True)
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
            trained=True,
        )
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9, np.array([3.0, 0.0])),
                proposal(1, Box(20, 0, 30, 10), 0.5, np.zeros(2)),
            ]
        )
        assert score_proposals(scorer, image) == {"cat": [1.0, 0.5], "dog": [0.5, 0.5]}


class TestSelectPseudoGt:
    def make_config(self, **kwargs):
        defaults = dict(feature_dim=2)
        defaults.update(kwargs)
        return RefinementConfig(**defaults)

    def test_count_guided_respects_count_and_cap(self):
        boxes = [Box(15.0 * i, 0, 15.0 * i + 10, 10) for i in range(5)]
        image = one_image(
            [proposal(i, b, 0.5 + 0.05 * i) for i, b in enumerate(boxes)], count=4
        )
        scores = [p.scores["cat"] for p in image.proposals]
        config = self.make_config(count_cap=3)
        result = select_pseudo_gt(image, "cat", scores, config)
        assert len(result.selected) == 3  # min(count=4, cap=3)
        capped = select_pseudo_gt(image, "cat", scores, self.make_config(count_cap=10))
        assert len(capped.selected) == 4

    def test_baseline_takes_single_top_region(self):
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9),
                proposal(1, Box(20, 0, 30, 10), 0.8),
            ],
            count=3,
        )
        config = self.make_config(count_guided=False)
        result = select_pseudo_gt(image, "cat", [0.9, 0.8], config)
        assert result == SelectionResult((0,), 0.9, True)

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
        config = self.make_config(threshold=1.0)
        result = select_pseudo_gt(image, "cat", [0.9, 0.85, 0.5], config)
        assert result.selected == (0, 2)

    def test_zero_count_rejected(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)], count=1)
        image.counts["cat"] = 0
        with pytest.raises(ValueError):
            select_pseudo_gt(image, "cat", [0.9], self.make_config())

    def test_score_alignment_checked(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        with pytest.raises(ValueError):
            select_pseudo_gt(image, "cat", [0.9, 0.1], self.make_config())

    def test_no_proposals_gives_empty_incomplete_result(self):
        image = one_image([], count=2)
        result = select_pseudo_gt(image, "cat", [], self.make_config())
        assert result == SelectionResult((), 0.0, False)

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
        config = self.make_config()
        scores = [0.9, 0.85, 0.5]
        overlaps = image_overlaps(image, config.nms_threshold, config.threshold)
        for cached in (None, overlaps):
            result = select_pseudo_gt(image, "cat", scores, config, cached)
            assert result.selected == (0, 2)
            assert not result.complete

    def test_out_of_range_score_rejected(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        with pytest.raises(ValueError):
            select_pseudo_gt(image, "cat", [1.5], self.make_config())

    def test_overlaps_for_other_thresholds_rejected(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        config = self.make_config()
        stale = image_overlaps(image, 0.5, config.threshold)
        with pytest.raises(ValueError):
            select_pseudo_gt(image, "cat", [0.9], config, stale)

    @pytest.mark.parametrize("plus_one", [False, True])
    @pytest.mark.parametrize("count_guided", [True, False])
    def test_matches_public_nms_then_greedy(self, plus_one, count_guided):
        # Cached masks give what the public functions give on the same
        # regions, under both extent conventions.
        world = generate_world(30, 3, seed=12)
        config = self.make_config(count_guided=count_guided)
        with plus_one_convention(plus_one):
            for record in world:
                overlaps = image_overlaps(record, config.nms_threshold, config.threshold)
                for name in record.positive_classes():
                    scores = [p.scores.get(name, 0.0) for p in record.proposals]
                    regions = [
                        ScoredRegion(p.box, s, p.region_id)
                        for p, s in zip(record.proposals, scores)
                    ]
                    target = min(record.counts[name], config.count_cap) if count_guided else 1
                    expected = crs_greedy(
                        SelectionProblem(
                            tuple(nms(regions, config.nms_threshold)), target, config.threshold
                        )
                    )
                    result = select_pseudo_gt(record, name, scores, config, overlaps)
                    assert result == expected


class TestDetectionsFromScores:
    @pytest.mark.parametrize("plus_one", [False, True])
    def test_matches_public_nms(self, plus_one):
        world = generate_world(20, 3, seed=5)
        scores = score_table(world, None)
        with plus_one_convention(plus_one):
            overlaps = [image_overlaps(r, 0.3, 0.1) for r in world]
            cached = detections_from_scores(world, scores, 0.3, overlaps)
            assert cached == detections_from_scores(world, scores, 0.3)
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
        assert [(d.image_id, d.class_id, d.box, d.confidence) for d in cached] == expected

    def test_overlaps_must_match_the_world_and_threshold(self):
        world = generate_world(3, 2, seed=1)
        scores = score_table(world, None)
        with pytest.raises(ValueError):
            detections_from_scores(world, scores, 0.3, [image_overlaps(world[0], 0.3, 0.1)])
        stale = [image_overlaps(record, 0.5, 0.1) for record in world]
        with pytest.raises(ValueError):
            detections_from_scores(world, scores, 0.3, stale)


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
        pseudo_gt = {"img_0": {"cat": SelectionResult((0, 1), 1.7, True)}}
        scorer = retrain_scorer(pseudo_gt, [image])
        assert scorer.trained
        assert_allclose(scorer.prototypes["cat"], [0.5, 0.5])

    def test_unselected_class_keeps_previous_prototype(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, np.array([1.0, 2.0]))])
        previous = CentroidScorer({"cat": np.array([3.0, 4.0])}, 2, trained=True)
        scorer = retrain_scorer({}, [image], previous=previous)
        assert_allclose(scorer.prototypes["cat"], [3.0, 4.0])
        # without a previous scorer the prototype is zero: neutral 0.5 scores
        cold = retrain_scorer({}, [image])
        assert_allclose(cold.prototypes["cat"], [0.0, 0.0])
        assert score_proposals(cold, image) == {"cat": [0.5]}

    def test_selected_region_without_feature_raises(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9, None)])
        pseudo_gt = {"img_0": {"cat": SelectionResult((0,), 0.9, True)}}
        with pytest.raises(FeatureDimensionError):
            retrain_scorer(pseudo_gt, [image])

    def test_empty_world_rejected(self):
        with pytest.raises(ValueError):
            retrain_scorer({}, [])


class TestRunAdr:
    def test_report_structure(self):
        world = generate_world(16, 2, seed=3)
        config = RefinementConfig(iterations=3, seed=3)
        report = run_adr(world, config)
        assert [entry.iteration for entry in report.iterations] == [0, 1, 2, 3]
        assert report.iterations[0].report.purity is None
        for entry in report.iterations[1:]:
            assert entry.report.purity is not None
        assert report.scorer is not None and report.scorer.trained
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

    def test_image_without_proposals(self):
        world = generate_world(8, 2, seed=9)
        world[3].proposals = []
        for count_guided in (True, False):
            report = run_adr(world, RefinementConfig(count_guided=count_guided, seed=9))
            assert len(report.iterations) == 4
            for entry in report.iterations[1:]:
                assert 0.0 <= entry.report.purity <= 1.0

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
        image = one_image(
            [
                proposal(0, Box(0, 0, 10, 10), 0.9),  # matches the one gt box
                proposal(1, Box(50, 0, 60, 10), 0.8),  # matches nothing
            ],
            count=2,
        )
        pseudo_gt = {"img_0": {"cat": SelectionResult((0, 1), 1.7, True)}}
        assert selection_purity(pseudo_gt, [image]) == 0.5

    def test_undefined_without_selections(self):
        image = one_image([proposal(0, Box(0, 0, 10, 10), 0.9)])
        assert selection_purity({}, [image]) is None


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
