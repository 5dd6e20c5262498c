"""Selection: frozen worked examples, a brute-force oracle, and properties."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from crskit import selection
from crskit.geometry import PAIRS_PER_BATCH, Box, asymmetric_overlap, iou, pairwise_overlaps
from crskit.refinement import RefinementConfig, detections_from_scores, score_table
from crskit.selection import (
    DEFAULT_NMS_THRESHOLD,
    CapacityError,
    ScoredRegion,
    SelectionProblem,
    SelectionResult,
    _feasible_order,
    _ranked_conflicts,
    conflict_masks,
    crs_exact,
    crs_greedy,
    nms,
    world_overlaps,
)
from crskit.world import ImageRecord, Proposal, generate_world

# The worked fixture: a high-scoring hull over two instances plus one tight
# box per instance. IoU(hull, left) = 40/100 = 0.4, IoU(left, right) = 0.
HULL = ScoredRegion(Box(0, 0, 10, 10), 0.9, 0)
LEFT = ScoredRegion(Box(0, 0, 4, 10), 0.6, 1)
RIGHT = ScoredRegion(Box(6, 0, 10, 10), 0.5, 2)


def brute_force_total(
    regions: tuple[ScoredRegion, ...], count: int, threshold: float, mode: str
) -> float:
    """Independent reference: try every subset, and for the directional
    constraint every insertion order, keeping the best score sum."""
    best = None
    for size in range(1, count + 1):
        for subset in itertools.combinations(regions, size):
            if mode == "symmetric":
                ok = all(
                    asymmetric_overlap(a.box, b.box) < threshold
                    for a in subset
                    for b in subset
                    if a is not b
                )
            else:
                ok = any(
                    all(
                        asymmetric_overlap(perm[i].box, perm[j].box) < threshold
                        for j in range(1, len(perm))
                        for i in range(j)
                    )
                    for perm in itertools.permutations(subset)
                )
            if ok:
                total = sum(r.score for r in subset)
                if best is None or total > best:
                    best = total
    assert best is not None
    return best


def reference_exact(problem: SelectionProblem, mode: str) -> SelectionResult:
    """The enumeration ``crs_exact`` used before its pruned search: every
    subset of size up to ``count``, each feasible one keyed (score desc, size
    desc, earliest rank positions), the least key winning."""
    ranked, masks = _ranked_conflicts(problem)
    n = len(ranked)
    best_key = None
    best_order: tuple[int, ...] = ()
    for size in range(1, min(problem.count, n) + 1):
        for combo in itertools.combinations(range(n), size):
            order = _feasible_order(combo, masks, mode == "symmetric")
            if order is None:
                continue
            total = 0
            for i in combo:
                # Left to right, as sum() adds floats before Python 3.12.
                total += ranked[i].score
            key = (-total, -size, combo)
            if best_key is None or key < best_key:
                best_key, best_order = key, order
    assert best_key is not None
    return SelectionResult(
        tuple(ranked[i].region_id for i in best_order),
        -best_key[0],
        len(best_order) == problem.count,
    )


def reference_nms(
    regions: tuple[ScoredRegion, ...], threshold: float
) -> list[ScoredRegion]:
    """Suppression written directly on the scalar IoU kernel."""
    kept: list[ScoredRegion] = []
    for region in sorted(regions, key=lambda r: (-r.score, r.region_id)):
        if all(iou(region.box, k.box) < threshold for k in kept):
            kept.append(region)
    return kept


def reference_greedy(problem: SelectionProblem) -> SelectionResult:
    """Greedy selection written directly on the scalar directed-overlap kernel."""
    ranked = sorted(problem.regions, key=lambda r: (-r.score, r.region_id))
    best: list[ScoredRegion] = []
    best_score = 0.0
    for i, seed in enumerate(ranked):
        chosen = [seed]
        total = seed.score
        for candidate in ranked[i + 1 :]:
            if len(chosen) == problem.count:
                break
            if all(
                asymmetric_overlap(member.box, candidate.box) < problem.threshold
                for member in chosen
            ):
                chosen.append(candidate)
                total += candidate.score
        if not best or total > best_score:
            best, best_score = chosen, total
    return SelectionResult(
        tuple(r.region_id for r in best), best_score, len(best) == problem.count
    )


@st.composite
def canvas_regions(draw, integer_grid: bool) -> tuple[ScoredRegion, ...]:
    """Boxes on a small canvas. On the integer grid, identical, nested and
    touching boxes, and overlaps exactly at a threshold, are common."""
    n = draw(st.integers(1, 10))
    coord = st.integers(0, 20) if integer_grid else st.floats(0.0, 20.0)
    side = st.integers(1, 12) if integer_grid else st.floats(0.5, 12.0)
    regions = []
    for region_id in range(n):
        x = draw(coord)
        y = draw(coord)
        w = draw(side)
        h = draw(side)
        score = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0))
        regions.append(ScoredRegion(Box(x, y, x + w, y + h), score, region_id))
    return tuple(regions)


def random_problem(rng: np.random.Generator, max_regions: int = 7) -> SelectionProblem:
    n = int(rng.integers(2, max_regions + 1))
    regions = []
    for rid in range(n):
        w = rng.uniform(5, 60)
        h = rng.uniform(5, 60)
        x = rng.uniform(0, 100 - w)
        y = rng.uniform(0, 100 - h)
        regions.append(ScoredRegion(Box(x, y, x + w, y + h), float(rng.uniform(0, 1)), rid))
    count = int(rng.integers(1, 5))
    threshold = float(rng.choice([0.1, 0.3, 0.5, 0.7, 1.0]))
    return SelectionProblem(tuple(regions), count, threshold)


def tie_problem(rng: np.random.Generator) -> SelectionProblem:
    """Integer-grid boxes with few distinct scores, so many sets tie exactly,
    some scores are 0.0, 0.1 + 0.2 overshoots 0.3, and count may exceed the
    region count."""
    n = int(rng.integers(1, 11))
    regions = []
    for rid in rng.permutation(n):
        x, y = (float(v) for v in rng.integers(0, 16, 2))
        w, h = (float(v) for v in rng.integers(1, 10, 2))
        score = float(rng.choice([0.0, 0.1, 0.2, 0.25, 0.3, 0.5]))
        regions.append(ScoredRegion(Box(x, y, x + w, y + h), score, int(rid)))
    count = int(rng.integers(1, n + 3))
    return SelectionProblem(tuple(regions), count, float(rng.choice([0.05, 1.0])))


def real_problems(threshold: float, count_cap: int = 3) -> list[SelectionProblem]:
    """The post-NMS problems refinement solves on a small world's initial scores."""
    problems = []
    for record in generate_world(40, 4, seed=7):
        for name in record.positive_classes():
            regions = [
                ScoredRegion(p.box, p.scores.get(name, 0.0), p.region_id)
                for p in record.proposals
            ]
            kept = tuple(nms(regions, DEFAULT_NMS_THRESHOLD))
            count = min(record.counts[name], count_cap)
            problems.append(SelectionProblem(kept, count, threshold))
    return problems


class TestValidation:
    def test_score_range(self):
        with pytest.raises(ValueError):
            ScoredRegion(Box(0, 0, 1, 1), 1.5, 0)
        with pytest.raises(ValueError):
            ScoredRegion(Box(0, 0, 1, 1), -0.1, 0)

    def test_problem_invariants(self):
        with pytest.raises(ValueError):
            SelectionProblem((HULL,), count=0)
        with pytest.raises(ValueError):
            SelectionProblem((HULL,), count=1, threshold=0.0)
        with pytest.raises(ValueError):
            SelectionProblem((HULL,), count=1, threshold=1.2)
        with pytest.raises(ValueError):
            SelectionProblem((HULL, ScoredRegion(Box(1, 1, 2, 2), 0.5, 0)), count=1)

    # A float count would let greedy select every compatible region and make
    # crs_exact slice with a float; a bool is an int but not a count.
    @pytest.mark.parametrize("count", [1.5, 2.0, True, "2"], ids=repr)
    def test_count_must_be_int(self, count):
        with pytest.raises(ValueError) as caught:
            SelectionProblem((HULL, LEFT, RIGHT), count)
        assert str(caught.value) == f"count must be int, got {type(count).__name__}"

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            crs_greedy(SelectionProblem((), count=1))
        with pytest.raises(ValueError):
            crs_exact(SelectionProblem((), count=1))

    def test_enumeration_cap(self):
        regions = tuple(
            ScoredRegion(Box(3 * i, 0, 3 * i + 2, 2), 0.5, i) for i in range(21)
        )
        with pytest.raises(CapacityError):
            crs_exact(SelectionProblem(regions, count=2))
        # one region fewer is within the cap and solved
        result = crs_exact(SelectionProblem(regions[:20], count=2))
        assert result.complete

    def test_unknown_constraint_mode(self):
        with pytest.raises(ValueError):
            crs_exact(SelectionProblem((HULL,), count=1), constraint_mode="bogus")


# Every caller that takes a threshold, and the name its error gives that threshold.
THRESHOLD_WORLD = generate_world(3, 2, seed=1)
THRESHOLD_CALLERS = {
    "nms": ("iou_threshold", lambda t: nms([HULL], t)),
    # One image's masks (``ImageOverlaps``), built for a world of that image.
    "image_overlaps-nms_threshold": (
        "nms_threshold", lambda t: world_overlaps(THRESHOLD_WORLD[:1], t, 0.1)
    ),
    "image_overlaps-threshold": (
        "threshold", lambda t: world_overlaps(THRESHOLD_WORLD[:1], 0.3, t)
    ),
    # An empty world is refused a bad threshold too.
    "world_overlaps-empty-nms_threshold": ("nms_threshold", lambda t: world_overlaps([], t, 0.1)),
    "world_overlaps-empty-threshold": ("threshold", lambda t: world_overlaps([], 0.3, t)),
    "detections_from_scores": (
        "nms_threshold",
        lambda t: detections_from_scores(THRESHOLD_WORLD, score_table(THRESHOLD_WORLD, None), t),
    ),
    # An empty world is refused the same threshold, not returned as no detections.
    "detections_from_scores-empty": ("nms_threshold", lambda t: detections_from_scores([], {}, t)),
    "SelectionProblem": ("threshold", lambda t: SelectionProblem((HULL,), 1, t)),
    "RefinementConfig-threshold": ("threshold", lambda t: RefinementConfig(threshold=t)),
    "RefinementConfig-nms_threshold": (
        "nms_threshold", lambda t: RefinementConfig(nms_threshold=t)
    ),
}


class TestNms:
    def test_worked_example(self):
        # IoU(A, B) = 50/150 = 1/3 >= 0.3, so B is suppressed
        a = ScoredRegion(Box(0, 0, 10, 10), 0.9, 0)
        b = ScoredRegion(Box(5, 0, 15, 10), 0.8, 1)
        assert nms([a, b], 0.3) == [a]
        # just above 1/3 both survive
        assert nms([a, b], 0.34) == [a, b]

    @pytest.mark.parametrize("value", [0.0, -1.0, 1.5, math.nan, True, "0.1"], ids=str)
    @pytest.mark.parametrize("caller", sorted(THRESHOLD_CALLERS))
    def test_threshold_validation(self, caller, value):
        # One (0, 1] rule for both thresholds wherever they are taken: NaN, a
        # bool and a string are refused too.
        name, call = THRESHOLD_CALLERS[caller]
        with pytest.raises(ValueError) as caught:
            call(value)
        assert str(caught.value) == f"{name} must be in (0, 1], got {value}"

    def test_tie_broken_by_region_id(self):
        a = ScoredRegion(Box(0, 0, 10, 10), 0.8, 2)
        b = ScoredRegion(Box(1, 0, 11, 10), 0.8, 1)
        kept = nms([a, b], 0.5)
        assert [r.region_id for r in kept] == [1]

    @given(st.data())
    def test_survivor_invariants(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        problem = random_problem(rng)
        threshold = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.9]))
        kept = nms(problem.regions, threshold)
        assert kept  # never empty for non-empty input
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert iou(a.box, b.box) < threshold
        kept_ids = {r.region_id for r in kept}
        ranked = sorted(problem.regions, key=lambda r: (-r.score, r.region_id))
        for region in ranked:
            if region.region_id not in kept_ids:
                # every suppressed region overlaps some higher-ranked survivor
                assert any(iou(region.box, k.box) >= threshold for k in kept)
        scores = [r.score for r in kept]
        assert scores == sorted(scores, reverse=True)


class TestAgainstScalarReference:
    """The mask walks agree with loops over the scalar kernels."""

    @pytest.mark.parametrize("integer_grid", [False, True])
    @given(
        data=st.data(),
        threshold=st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]),
        count=st.integers(1, 4),
    )
    def test_nms_and_greedy_match_reference(self, integer_grid, data, threshold, count):
        regions = data.draw(canvas_regions(integer_grid))
        assert nms(regions, threshold) == reference_nms(regions, threshold)
        problem = SelectionProblem(regions, count, threshold)
        assert crs_greedy(problem) == reference_greedy(problem)

    def test_touching_boxes_never_conflict(self):
        # Boxes that share only an edge do not intersect.
        left = ScoredRegion(Box(0, 0, 10, 10), 0.9, 0)
        right = ScoredRegion(Box(10, 0, 20, 10), 0.8, 1)
        problem = SelectionProblem((left, right), count=2, threshold=0.05)
        assert crs_greedy(problem).selected == (0, 1)
        assert nms([left, right], 0.04) == [left, right]


def grid_image(rng: np.random.Generator, image_id: str, n: int) -> ImageRecord:
    """An image of ``n`` integer-grid proposals with shuffled, spaced region ids,
    so identical, nested and touching boxes and overlaps exactly at a threshold
    are common."""
    proposals = []
    for rid in rng.permutation(n):
        x, y = (float(v) for v in rng.integers(0, 12, 2))
        w, h = (float(v) for v in rng.integers(1, 8, 2))
        proposals.append(Proposal(3 * int(rid), Box(x, y, x + w, y + h), {}))
    return ImageRecord(image_id, proposals=proposals)


class TestWorldOverlaps:
    """The batched masks agree bit for bit with the scalar kernels."""

    # Each count twice, out of order: empty images, one proposal, both sides
    # of a byte boundary, and masks wider than 64 bits.
    COUNTS = (65, 8, 0, 21, 1, 9, 8, 65, 9, 0, 21, 1)

    # 1 puts every image in its own chunk; 200 stacks two images of 8 or 9.
    @pytest.mark.parametrize("batch", [1, 200, PAIRS_PER_BATCH])
    def test_masks_match_scalar_kernels(self, batch, monkeypatch):
        monkeypatch.setattr(selection, "PAIRS_PER_BATCH", batch)
        rng = np.random.default_rng(11)
        world = [grid_image(rng, f"img_{k}", n) for k, n in enumerate(self.COUNTS)]
        overlaps = world_overlaps(world, 0.3, 0.5)
        assert len(overlaps) == len(world)
        for image, masks in zip(world, overlaps):
            boxes = [p.box for p in image.proposals]
            ids = [p.region_id for p in image.proposals]
            n = len(boxes)
            assert [ids[i] for i in masks.by_id] == sorted(ids)
            assert masks.suppress == [
                sum(1 << k for k in range(n) if iou(boxes[i], boxes[k]) >= 0.3)
                for i in range(n)
            ]
            # conflict[j] marks the members k that keep candidate j out.
            assert masks.conflict == [
                sum(1 << k for k in range(n) if asymmetric_overlap(boxes[k], boxes[j]) >= 0.5)
                for j in range(n)
            ]
            assert world_overlaps([image], 0.3, 0.5)[0] == masks

    def test_first_duplicate_in_world_order_is_named(self):
        rng = np.random.default_rng(12)
        world = [grid_image(rng, f"img_{k}", n) for k, n in enumerate((8, 9, 21, 1, 8))]
        # img_4 shares its proposal count with img_0 and has fewer proposals than img_2.
        for image in (world[2], world[4]):
            image.proposals[-1].region_id = image.proposals[0].region_id
        with pytest.raises(ValueError) as caught:
            world_overlaps(world, 0.3, 0.1)
        assert str(caught.value) == "img_2: region_ids must be unique within an image"

    def test_stacked_pairwise_overlaps_match_each_slice(self):
        rng = np.random.default_rng(13)
        stack = np.array(
            [[p.box.as_tuple() for p in grid_image(rng, "", 9).proposals] for _ in range(5)]
        )
        ious, directed = pairwise_overlaps(stack)
        assert ious.shape == directed.shape == (5, 9, 9)
        for g, boxes in enumerate(stack):
            one_ious, one_directed = pairwise_overlaps(boxes)
            assert ious[g].tobytes() == one_ious.tobytes()
            assert directed[g].tobytes() == one_directed.tobytes()
        empty_ious, _ = pairwise_overlaps(np.zeros((3, 0, 4)))
        assert empty_ious.shape == (3, 0, 0)
        assert conflict_masks(empty_ious, 0.5) == []


class TestWorkedExample:
    def test_count_two_picks_both_instances(self):
        result = crs_greedy(SelectionProblem((HULL, LEFT, RIGHT), count=2, threshold=0.1))
        assert result.selected == (1, 2)
        assert_allclose(result.total_score, 1.1)
        assert result.complete

    def test_count_one_reduces_to_argmax(self):
        result = crs_greedy(SelectionProblem((HULL, LEFT, RIGHT), count=1, threshold=0.1))
        assert result == SelectionResult((0,), 0.9, True)

    def test_exact_agrees_in_both_modes(self):
        problem = SelectionProblem((HULL, LEFT, RIGHT), count=2, threshold=0.1)
        for mode in ("directional", "symmetric"):
            result = crs_exact(problem, constraint_mode=mode)
            assert set(result.selected) == {1, 2}
            assert_allclose(result.total_score, 1.1)
            assert result.complete

    def test_directional_inserts_the_hull_after_its_parts(self):
        # At T = 0.5 the hull blocks each part (overlap 1.0) but a part does not
        # block the hull (overlap 0.4), so only parts-then-hull is admissible.
        problem = SelectionProblem((HULL, LEFT, RIGHT), count=3, threshold=0.5)
        result = crs_exact(problem, constraint_mode="directional")
        assert result.selected == (1, 2, 0)
        assert_allclose(result.total_score, 2.0)
        assert result.complete
        for result in (crs_exact(problem, constraint_mode="symmetric"), crs_greedy(problem)):
            assert result.selected == (1, 2)
            assert_allclose(result.total_score, 1.1)
            assert not result.complete

    def test_incompatible_pair_degrades_to_top_region(self):
        outer = ScoredRegion(Box(0, 0, 10, 10), 0.9, 0)
        inner = ScoredRegion(Box(1, 1, 9, 9), 0.8, 1)
        problem = SelectionProblem((outer, inner), count=3, threshold=0.1)
        for solver in (crs_greedy, crs_exact):
            result = solver(problem)
            assert result.selected == (0,)
            assert not result.complete

    def test_all_zero_scores_still_select(self):
        a = ScoredRegion(Box(0, 0, 10, 10), 0.0, 0)
        b = ScoredRegion(Box(20, 0, 30, 10), 0.0, 1)
        result = crs_greedy(SelectionProblem((a, b), count=2, threshold=0.1))
        assert result.selected == (0, 1)
        assert result.total_score == 0.0


@pytest.fixture(scope="module")
def brute_force_problems() -> list[SelectionProblem]:
    rng = np.random.default_rng(90210)
    # Random boxes, then the problems the pipeline actually produces.
    problems = [random_problem(rng) for _ in range(120)]
    return problems + real_problems(0.1) + real_problems(0.5)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("mode", ["directional", "symmetric"])
    def test_exact_matches_brute_force(self, mode, brute_force_problems):
        for problem in brute_force_problems:
            expected = brute_force_total(
                problem.regions, problem.count, problem.threshold, mode
            )
            result = crs_exact(problem, constraint_mode=mode)
            assert_allclose(result.total_score, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["directional", "symmetric"])
    def test_exact_matches_reference_solver(self, mode, brute_force_problems):
        # Same set, same insertion order and the same bits as full enumeration,
        # also where ties are the rule: pruning may skip no tied set.
        rng = np.random.default_rng(4242)
        for problem in brute_force_problems + [tie_problem(rng) for _ in range(300)]:
            expected = reference_exact(problem, mode)
            result = crs_exact(problem, constraint_mode=mode)
            assert (result.selected, result.total_score.hex(), result.complete) == (
                expected.selected,
                expected.total_score.hex(),
                expected.complete,
            )

    def test_greedy_never_beats_brute_force(self):
        rng = np.random.default_rng(1337)
        for _ in range(150):
            problem = random_problem(rng)
            expected = brute_force_total(
                problem.regions, problem.count, problem.threshold, "directional"
            )
            result = crs_greedy(problem)
            assert result.total_score <= expected + 1e-9


class TestResultInvariants:
    @pytest.mark.parametrize(
        "solver",
        [crs_greedy, crs_exact, lambda p: crs_exact(p, constraint_mode="symmetric")],
    )
    def test_selection_order_is_admissible(self, solver):
        rng = np.random.default_rng(2024)
        for _ in range(80):
            problem = random_problem(rng)
            result = solver(problem)
            by_id = {r.region_id: r for r in problem.regions}
            chosen = [by_id[i] for i in result.selected]
            assert 1 <= len(chosen) <= problem.count
            assert result.complete == (len(chosen) == problem.count)
            assert_allclose(
                result.total_score, sum(r.score for r in chosen), rtol=0, atol=1e-12
            )
            for j, later in enumerate(chosen):
                for earlier in chosen[:j]:
                    assert (
                        asymmetric_overlap(earlier.box, later.box) < problem.threshold
                    )
            # Every solver keeps rank order whenever rank order is admissible.
            ranked = sorted(chosen, key=lambda r: (-r.score, r.region_id))
            if all(
                asymmetric_overlap(earlier.box, later.box) < problem.threshold
                for j, later in enumerate(ranked)
                for earlier in ranked[:j]
            ):
                assert result.selected == tuple(r.region_id for r in ranked)

    def test_deterministic_and_order_independent(self):
        rng = np.random.default_rng(5150)
        for _ in range(40):
            problem = random_problem(rng)
            reversed_problem = SelectionProblem(
                tuple(reversed(problem.regions)), problem.count, problem.threshold
            )
            assert crs_greedy(problem) == crs_greedy(reversed_problem)
            assert crs_exact(problem) == crs_exact(reversed_problem)

    def test_score_scaling_equivariance(self):
        rng = np.random.default_rng(8080)
        for _ in range(30):
            problem = random_problem(rng)
            scale = float(rng.uniform(0.1, 1.0))
            scaled = SelectionProblem(
                tuple(
                    ScoredRegion(r.box, r.score * scale, r.region_id)
                    for r in problem.regions
                ),
                problem.count,
                problem.threshold,
            )
            base = crs_greedy(problem)
            result = crs_greedy(scaled)
            assert result.selected == base.selected
            assert_allclose(result.total_score, base.total_score * scale, rtol=1e-9)

    def test_exact_monotone_in_count(self):
        rng = np.random.default_rng(31415)
        for _ in range(60):
            problem = random_problem(rng)
            if problem.count >= 4:
                continue
            bigger = SelectionProblem(
                problem.regions, problem.count + 1, problem.threshold
            )
            assert (
                crs_exact(bigger).total_score
                >= crs_exact(problem).total_score - 1e-12
            )

    def test_disjoint_regions_yield_top_count(self):
        rng = np.random.default_rng(777)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            regions = tuple(
                ScoredRegion(
                    Box(12.0 * i, 0, 12.0 * i + 10, 10),
                    float(rng.uniform(0, 1)),
                    i,
                )
                for i in range(n)
            )
            count = int(rng.integers(1, n + 1))
            problem = SelectionProblem(regions, count, 0.1)
            expected = sum(sorted((r.score for r in regions), reverse=True)[:count])
            for result in (
                crs_greedy(problem),
                crs_exact(problem),
                crs_exact(problem, constraint_mode="symmetric"),
            ):
                assert_allclose(result.total_score, expected, rtol=0, atol=1e-12)
                assert result.complete
