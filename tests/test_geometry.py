"""Box geometry: frozen hand-computed values plus algebraic properties."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from crskit.geometry import (
    Box,
    GeometryError,
    area,
    asymmetric_overlap,
    hull,
    intersection_area,
    iou,
    paired_overlaps,
    pairwise_overlaps,
)


def boxes(max_coord: float = 100.0, min_side: float = 0.1):
    coord = st.floats(-max_coord, max_coord, allow_nan=False)
    side = st.floats(min_side, max_coord, allow_nan=False)
    return st.builds(
        lambda x, y, w, h: Box(x, y, x + w, y + h), coord, coord, side, side
    )


def grid_boxes():
    """Integer-pixel boxes on a small canvas: identical, nested and touching
    boxes, and exact ties, are common."""
    coord = st.integers(0, 20)
    side = st.integers(1, 12)
    return st.builds(
        lambda x, y, w, h: Box(x, y, x + w, y + h), coord, coord, side, side
    )


class TestFrozenValues:
    def test_unit_square_area(self):
        # 10 * 10 = 100
        assert area(Box(0, 0, 10, 10)) == 100.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(GeometryError):
            Box(2, 3, 2, 5)
        with pytest.raises(GeometryError):
            Box(0, 5, 10, 5)
        with pytest.raises(GeometryError):
            Box(0, 0, 10, -1)

    @pytest.mark.parametrize(
        "coords",
        [
            (float("-inf"), 0, 10, 10),  # infinite coordinate
            (-1e308, 0, 1e308, 10),  # width overflows
            (0, -1e308, 10, 1e308),  # height overflows
            (0, 0, 1e200, 1e200),  # finite sides, area overflows
        ],
    )
    def test_non_finite_extent_rejected(self, coords):
        with pytest.raises(GeometryError, match="non-finite extent"):
            Box(*coords)

    def test_constructor_converts_checks_and_freezes(self):
        with pytest.raises(GeometryError) as caught:
            Box(2, 3, 2, 5)
        assert str(caught.value) == "degenerate box (2.0, 3.0, 2.0, 5.0)"
        with pytest.raises(GeometryError) as caught:
            Box(0, 0, 1e200, 1e200)
        assert str(caught.value) == "box (0.0, 0.0, 1e+200, 1e+200) has a non-finite extent"
        box = Box(1, 2, 3, 4)
        assert box.as_tuple() == (1.0, 2.0, 3.0, 4.0)
        assert all(type(v) is float for v in box.as_tuple())
        assert Box(x1=1.0, y1=2, x2=3, y2=4.0) == box
        assert copy.deepcopy(box) == box
        assert pickle.loads(pickle.dumps(box)) == box
        with pytest.raises(FrozenInstanceError):
            box.x1 = 0.0

    def test_half_overlap_intersection(self):
        # overlap strip is 5 wide, 10 tall
        assert intersection_area(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == 50.0

    def test_touching_boxes_do_not_intersect(self):
        assert intersection_area(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 0.0
        assert iou(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 0.0

    def test_disjoint_boxes(self):
        assert intersection_area(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_iou_half_shifted(self):
        # intersection 50, union 100 + 100 - 50 = 150
        assert_allclose(iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)), 1 / 3)

    def test_iou_identical(self):
        assert iou(Box(2, 3, 7, 9), Box(2, 3, 7, 9)) == 1.0

    def test_asymmetric_overlap_nested(self):
        # candidate fully inside the selected box, whatever its size
        assert asymmetric_overlap(Box(0, 0, 10, 10), Box(0, 0, 5, 5)) == 1.0
        # reversed: 25 / 100
        assert asymmetric_overlap(Box(0, 0, 5, 5), Box(0, 0, 10, 10)) == 0.25

    def test_hull(self):
        assert hull([Box(0, 0, 4, 10), Box(6, 0, 10, 10)]) == Box(0, 0, 10, 10)
        with pytest.raises(GeometryError):
            hull([])

    def test_box_helpers(self):
        b = Box(1, 2, 5, 10)
        assert b.width == 4 and b.height == 8


class TestProperties:
    @given(boxes(), boxes())
    def test_iou_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert_allclose(v, iou(b, a), rtol=1e-9, atol=0)

    @given(boxes(), boxes())
    def test_iou_below_both_directed_overlaps(self, a, b):
        # the union is at least as large as either box
        v = iou(a, b)
        assert v <= asymmetric_overlap(a, b) + 1e-12
        assert v <= asymmetric_overlap(b, a) + 1e-12

    @given(boxes(), boxes())
    def test_directed_overlap_bounded(self, a, b):
        assert 0.0 <= asymmetric_overlap(a, b) <= 1.0

    @given(boxes(), boxes())
    def test_intersection_bounded_by_smaller_area(self, a, b):
        inter = intersection_area(a, b)
        assert 0.0 <= inter <= min(area(a), area(b)) + 1e-9

    @given(
        boxes(),
        boxes(),
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    )
    def test_translation_invariance(self, a, b, dx, dy):
        moved_a = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
        moved_b = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
        assert_allclose(iou(moved_a, moved_b), iou(a, b), rtol=1e-6, atol=1e-9)
        assert_allclose(
            asymmetric_overlap(moved_a, moved_b), asymmetric_overlap(a, b), rtol=1e-6, atol=1e-9
        )

    @given(boxes(), boxes(), st.floats(0.1, 10, allow_nan=False))
    def test_scaling_invariance_of_ratios(self, a, b, s):
        scaled_a = Box(a.x1 * s, a.y1 * s, a.x2 * s, a.y2 * s)
        scaled_b = Box(b.x1 * s, b.y1 * s, b.x2 * s, b.y2 * s)
        assert_allclose(iou(scaled_a, scaled_b), iou(a, b), rtol=1e-6, atol=1e-9)
        assert_allclose(area(scaled_a), area(a) * s * s, rtol=1e-6)

    @given(boxes())
    def test_self_overlap_is_one(self, a):
        assert iou(a, a) == 1.0
        assert asymmetric_overlap(a, a) == 1.0

    @given(boxes(), boxes())
    def test_nested_candidate_has_full_overlap(self, a, b):
        inner = b.x1 >= a.x1 and b.y1 >= a.y1 and b.x2 <= a.x2 and b.y2 <= a.y2
        value = asymmetric_overlap(a, b)
        if inner:
            assert_allclose(value, 1.0, rtol=1e-9)
        # containment (up to rounding) is the only way to reach 1.0
        if value == 1.0:
            eps = 1e-6
            assert b.x1 >= a.x1 - eps and b.y1 >= a.y1 - eps
            assert b.x2 <= a.x2 + eps and b.y2 <= a.y2 + eps

    @given(st.lists(boxes(), min_size=1, max_size=6))
    def test_hull_contains_members(self, members):
        h = hull(members)
        for b in members:
            assert asymmetric_overlap(h, b) == pytest.approx(1.0)


class TestPairwiseOverlaps:
    @pytest.mark.parametrize("integer_grid", [False, True])
    @given(data=st.data())
    def test_matches_scalar_kernels_bit_for_bit(self, integer_grid, data):
        members = data.draw(st.lists(grid_boxes() if integer_grid else boxes(), max_size=8))
        ious, directed = pairwise_overlaps([b.as_tuple() for b in members])
        assert ious.shape == directed.shape == (len(members), len(members))
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                # hex() tells every bit apart, signed zeros included
                assert float(ious[i, j]).hex() == iou(a, b).hex()
                assert float(directed[i, j]).hex() == asymmetric_overlap(a, b).hex()
        # paired_overlaps: row k of the boxes against row k of the reversed boxes.
        others = members[::-1]
        ious, directed = paired_overlaps(
            [b.as_tuple() for b in members], [b.as_tuple() for b in others]
        )
        assert ious.shape == directed.shape == (len(members),)
        for k, (a, b) in enumerate(zip(members, others)):
            assert float(ious[k]).hex() == iou(a, b).hex()
            assert float(directed[k]).hex() == asymmetric_overlap(a, b).hex()

    def test_touching_boxes_do_not_overlap(self):
        ious, directed = pairwise_overlaps([(0, 0, 10, 10), (10, 0, 20, 10)])
        assert ious[0, 1] == directed[0, 1] == directed[1, 0] == 0.0
