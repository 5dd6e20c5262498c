"""Selection: frozen worked examples, a brute-force oracle, and properties."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
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
    greedy_walk,
    greedy_walks,
    nms,
    suppress_columns,
    survivors_by_image,
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


def large_problem(rng: np.random.Generator, few_scores: bool) -> SelectionProblem:
    """13 to 20 regions and a count of 1 to 4: the deep searches. With few
    distinct scores the integer-grid boxes crowd a smaller canvas, so sets
    often stay below the count and many tie exactly."""
    n = int(rng.integers(13, 21))
    canvas = 8 if few_scores else 30
    regions = []
    for rid in rng.permutation(n):
        x, y = (float(v) for v in rng.integers(0, canvas, 2))
        w, h = (float(v) for v in rng.integers(2, 15, 2))
        if few_scores:
            score = float(rng.choice([0.0, 0.1, 0.2, 0.3, 0.5]))
        else:
            score = float(rng.uniform(0, 1))
        regions.append(ScoredRegion(Box(x, y, x + w, y + h), score, int(rid)))
    count = int(rng.integers(1, 5))
    return SelectionProblem(tuple(regions), count, float(rng.choice([0.1, 0.3, 1.0])))


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
    # One image's masks, built by ``world_overlaps`` for a world of that image.
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

    # 1 computes every image row by row; 200 stacks the two images of 8 or of 9
    # and computes the 21- and 65-proposal images in chunks of rows.
    @pytest.mark.parametrize("batch", [1, 200, PAIRS_PER_BATCH])
    def test_masks_match_scalar_kernels(self, batch, monkeypatch):
        monkeypatch.setattr(selection, "PAIRS_PER_BATCH", batch)
        rng = np.random.default_rng(11)
        world = [grid_image(rng, f"img_{k}", n) for k, n in enumerate(self.COUNTS)]
        overlaps = world_overlaps(world, 0.3, 0.5)
        offsets = np.cumsum([0] + [len(image.proposals) for image in world])
        assert overlaps.offsets.tolist() == offsets.tolist()

        def masks(words):
            # Each row's words as one int: bit k % 64 of word k // 64 is its bit k.
            return [sum(word << (64 * w) for w, word in enumerate(row)) for row in words.tolist()]

        # 65 proposals take two 64-bit words a row, in both arrays.
        for packed in (overlaps.suppress, overlaps.conflict):
            assert packed.dtype == np.uint64
            assert packed.shape == (offsets[-1], 2)
        for k, image in enumerate(world):
            boxes = [p.box for p in image.proposals]
            ids = [p.region_id for p in image.proposals]
            n = len(boxes)
            span = slice(offsets[k], offsets[k + 1])
            assert overlaps.id_rank[span].tolist() == [sorted(ids).index(i) for i in ids]
            suppress, conflict = masks(overlaps.suppress[span]), masks(overlaps.conflict[span])
            # Row j marks the proposals i whose keeping suppresses candidate j.
            assert suppress == [
                sum(1 << i for i in range(n) if iou(boxes[j], boxes[i]) >= 0.3) for j in range(n)
            ]
            # Row j marks the members k that keep candidate j out.
            assert conflict == [
                sum(1 << k for k in range(n) if asymmetric_overlap(boxes[k], boxes[j]) >= 0.5)
                for j in range(n)
            ]
            # Alone, an image gets as many words as it needs, one at least, in both arrays.
            alone = world_overlaps([image], 0.3, 0.5)
            assert alone.suppress.shape == alone.conflict.shape == (n, max(1, -(-n // 64)))
            assert (masks(alone.suppress), masks(alone.conflict)) == (suppress, conflict)

    def test_wide_image_is_computed_in_row_chunks(self):
        image = grid_image(np.random.default_rng(5), "wide", 1000)
        tracemalloc.start()
        try:
            overlaps = world_overlaps([image], 0.3, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert overlaps.suppress.shape == overlaps.conflict.shape == (1000, 16)
        # One (1000, 1000) float array, as one chunk of the whole image would hold
        # several of, takes 8 MB; the two word arrays take 256 KB.
        assert peak < 2_000_000

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


class TestSuppressColumns:
    """The class-stacked kernel keeps what the per-problem ``nms`` keeps."""

    @given(
        # Repeated proposal counts share a block; 65 gives masks wider than 64 bits.
        st.lists(st.sampled_from([0, 1, 2, 5, 8, 65]), max_size=8),
        st.integers(1, 4),
        # Grid boxes often overlap exactly at these IoUs; at 1.0 only copies suppress.
        st.sampled_from([0.25, 0.5, 1.0]),
        # 1 puts every image in its own chunk; 200 stacks three images of 8 a chunk.
        st.sampled_from([1, 200, PAIRS_PER_BATCH]),
        st.integers(0, 2**32 - 1),
        # Zeroed suppression words, as crskit select ranks: every proposal survives.
        st.booleans(),
    )
    @example(list(TestWorldOverlaps.COUNTS), 4, 0.5, 200, 0, False)
    @example(list(TestWorldOverlaps.COUNTS), 4, 0.5, 200, 0, True)
    def test_survivors_equal_the_walks(
        self, counts, classes, nms_threshold, batch, seed, unsuppressed
    ):
        rng = np.random.default_rng(seed)
        world = [grid_image(rng, f"img_{k}", n) for k, n in enumerate(counts)]
        with mock.patch.object(selection, "PAIRS_PER_BATCH", batch):
            overlaps = world_overlaps(world, nms_threshold, 0.1)
        if unsuppressed:
            overlaps = replace(overlaps, suppress=np.zeros_like(overlaps.suppress))
        offsets = np.cumsum([0] + counts)
        # Scores on a quarter grid tie within and across images.
        columns = {f"c{c}": rng.integers(0, 5, offsets[-1]) / 4 for c in range(classes)}
        kept = suppress_columns(overlaps, columns)
        assert list(kept) == list(columns)
        by_image = survivors_by_image(overlaps, kept)
        for name, rows in kept.items():
            expected = []
            for k, image in enumerate(world):
                scores = columns[name][offsets[k] : offsets[k + 1]].tolist()
                position = {p.region_id: i for i, p in enumerate(image.proposals)}
                regions = [
                    ScoredRegion(p.box, s, p.region_id) for p, s in zip(image.proposals, scores)
                ]
                if unsuppressed:
                    regions.sort(key=lambda r: (-r.score, r.region_id))
                else:
                    regions = nms(regions, nms_threshold)
                expected.append([position[r.region_id] for r in regions])
            assert by_image[name] == expected, name
            # Image by image in world order, each image's survivors in rank order.
            assert rows.tolist() == [
                offsets[k] + i for k, positions in enumerate(expected) for i in positions
            ]

    def test_no_classes_no_rows(self):
        world = [grid_image(np.random.default_rng(3), "img_0", 5)]
        assert suppress_columns(world_overlaps(world, 0.3, 0.1), {}) == {}


def walk_problems(rng, problems, density, ties):
    """Random problems as ``greedy_walks`` takes them, and each as ``greedy_walk`` does.

    Problem p has ``n`` positions in its own row range of the conflict words,
    each position's mask drawn bit by bit at ``density``, scores from a few
    values (``ties``) or uniform, and a random subset of its positions in a
    random walk order as its candidates.
    """
    sizes = [n for n, _ in problems]
    first = np.cumsum([0] + sizes).tolist()
    words = max(1, -(-max(sizes) // 64))
    conflict = np.zeros((first[-1], words), dtype=np.uint64)
    rows, positions, scores, offsets, references = [], [], [], [0], []
    for p, (n, target) in enumerate(problems):
        bits = [np.flatnonzero(rng.random(n) < density).tolist() for _ in range(n)]
        masks = [sum(1 << k for k in members) for members in bits]
        for j, mask in enumerate(masks):
            conflict[first[p] + j] = [(mask >> (64 * w)) & (2**64 - 1) for w in range(words)]
        # -0.0 ties 0.0, and a total of it alone keeps its sign.
        values = (rng.choice([-0.0, 0.0, 0.5, 1.0], n) if ties else rng.random(n)).tolist()
        order = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
        rows += [first[p] + i for i in order]
        positions += order
        scores += [values[i] for i in order]
        offsets.append(len(rows))
        references.append((order, values, masks, target))
    arrays = [np.array(a, dtype=np.intp) for a in (offsets, rows, positions)]
    targets = np.array([t for _, t in problems])
    return (conflict, *arrays, np.array(scores, dtype=float), targets), references


class TestGreedyWalks:
    """The batched walk keeps ``greedy_walk``'s bits on every problem of a call."""

    @given(
        # 65-200 positions take 2-4 words; targets run past the candidate counts.
        st.lists(
            st.tuples(st.sampled_from([0, 1, 2, 5, 9, 63, 64, 65, 130, 200]), st.integers(1, 8)),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
        st.booleans(),
        # 40 seed words a chunk puts each wide problem in a chunk of its own.
        st.sampled_from([40, selection.SEEDS_PER_BATCH]),
        st.integers(0, 2**32 - 1),
    )
    @example([(200, 3), (0, 2), (1, 1), (65, 8), (5, 9), (130, 1)], 0.02, True, 40, 0)
    def test_each_problem_equals_greedy_walk(self, problems, density, ties, budget, seed):
        inputs, references = walk_problems(np.random.default_rng(seed), problems, density, ties)
        with mock.patch.object(selection, "SEEDS_PER_BATCH", budget):
            chosen, totals = greedy_walks(*inputs)
        offsets, positions = inputs[1], inputs[3]
        for p, (order, values, masks, target) in enumerate(references):
            expected, total = greedy_walk(order, values, masks, target)
            line = slice(offsets[p], offsets[p + 1])
            assert positions[line][chosen[line]].tolist() == expected, p
            assert totals[p].hex() == float(total).hex(), p
            assert np.count_nonzero(chosen[line]) == len(expected) <= target

    def test_empty_call_and_empty_problems(self):
        conflict, none = np.zeros((0, 1), dtype=np.uint64), np.zeros(0, dtype=np.intp)
        for problems in (0, 3):
            offsets, targets = np.zeros(problems + 1, dtype=np.intp), np.ones(problems)
            chosen, totals = greedy_walks(conflict, offsets, none, none, np.zeros(0), targets)
            assert chosen.shape == (0,) and totals.tolist() == [0.0] * problems

    def test_first_best_seed_wins_a_tie(self):
        # Seeds 0 and 1 each grow a set of total 1.0; the walk's first seed wins.
        conflict = np.array([[0b010], [0b001], [0b000]], dtype=np.uint64)
        rows, scores = np.arange(3), np.array([0.5, 0.5, 0.5])
        chosen, totals = greedy_walks(conflict, np.array([0, 3]), rows, rows, scores, np.array([2]))
        assert chosen.tolist() == [True, False, True] and totals.tolist() == [1.0]
        assert greedy_walk([0, 1, 2], [0.5] * 3, [0b010, 0b001, 0], 2) == ([0, 2], 1.0)


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

    @pytest.mark.parametrize("mode", ["directional", "symmetric"])
    def test_exact_matches_reference_solver_on_large_problems(self, mode):
        # Deep searches, where the sibling cut skips the most children.
        rng = np.random.default_rng(2718)
        for index in range(40):
            problem = large_problem(rng, few_scores=index % 2 == 1)
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


class TestExactSearchWork:
    """Result tests cannot see pruning, so these pin where the search stops."""

    def test_children_below_the_best_are_not_entered(self, monkeypatch):
        # Every later singleton scores below the top one, so the root's loop
        # stops at its second child, before its feasibility test, instead of
        # testing all 20.
        regions = tuple(
            ScoredRegion(Box(20.0 * i, 0, 20.0 * i + 10, 10), 1.0 - 0.01 * i, i)
            for i in range(20)
        )
        calls = []
        feasible_order = selection._feasible_order

        def counting(members, *args):
            calls.append(members)
            return feasible_order(members, *args)

        monkeypatch.setattr(selection, "_feasible_order", counting)
        result = crs_exact(SelectionProblem(regions, count=1))
        assert result.selected == (0,)
        assert calls == [(0,)]

    @pytest.mark.parametrize("mode", ["directional", "symmetric"])
    @pytest.mark.parametrize("score", [0.0, 0.5])
    def test_tied_children_are_entered(self, mode, score):
        # All scores equal, so a full window's bound ties the best: the strict
        # test must enter it. At 0.0 every set ties the top singleton, and
        # only entering the tied children finds the larger sets.
        rng = np.random.default_rng(31)
        regions = tuple(
            ScoredRegion(Box(x, y, x + 8.0, y + 8.0), score, i)
            for i, (x, y) in enumerate(rng.integers(0, 24, (12, 2)).astype(float).tolist())
        )
        problem = SelectionProblem(regions, count=4, threshold=0.3)
        assert crs_exact(problem, constraint_mode=mode) == reference_exact(problem, mode)


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
