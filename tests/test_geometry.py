"""Box geometry: frozen hand-computed values plus algebraic properties."""

from __future__ import annotations

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
    pairwise_overlaps,
    plus_one_convention,
    plus_one_enabled,
    set_plus_one,
)


def boxes(max_coord: float = 100.0, min_side: float = 0.1):
    coord = st.floats(-max_coord, max_coord, allow_nan=False)
    side = st.floats(min_side, max_coord, allow_nan=False)
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
        assert b.center == (3.0, 6.0)
        assert b.width == 4 and b.height == 8
        assert b.contains_point(1, 2) and b.contains_point(5, 10)
        assert not b.contains_point(5.01, 6)
        assert b.translate(2, -1) == Box(3, 1, 7, 9)
        assert b.scale(2) == Box(2, 4, 10, 20)
        with pytest.raises(GeometryError):
            b.scale(0)


class TestPlusOneConvention:
    def test_inclusive_pixel_area(self):
        # (10 - 0 + 1) squared
        with plus_one_convention():
            assert area(Box(0, 0, 10, 10)) == 121.0
        assert area(Box(0, 0, 10, 10)) == 100.0

    def test_touching_boxes_share_a_pixel_strip(self):
        with plus_one_convention():
            # shared column x = 10, 11 pixels tall
            assert intersection_area(Box(0, 0, 10, 10), Box(10, 0, 20, 10)) == 11.0

    def test_identical_iou_stays_one(self):
        with plus_one_convention():
            assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_flag_state_restored_after_error(self):
        assert not plus_one_enabled()
        try:
            with plus_one_convention():
                assert plus_one_enabled()
                raise RuntimeError
        except RuntimeError:
            pass
        assert not plus_one_enabled()

    def test_set_plus_one_round_trip(self):
        set_plus_one(True)
        assert plus_one_enabled()
        set_plus_one(False)
        assert not plus_one_enabled()


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
        assert_allclose(
            iou(a.translate(dx, dy), b.translate(dx, dy)), iou(a, b), rtol=1e-6, atol=1e-9
        )
        assert_allclose(
            asymmetric_overlap(a.translate(dx, dy), b.translate(dx, dy)),
            asymmetric_overlap(a, b),
            rtol=1e-6,
            atol=1e-9,
        )

    @given(boxes(), boxes(), st.floats(0.1, 10, allow_nan=False))
    def test_scaling_invariance_of_ratios(self, a, b, s):
        assert_allclose(iou(a.scale(s), b.scale(s)), iou(a, b), rtol=1e-6, atol=1e-9)
        assert_allclose(area(a.scale(s)), area(a) * s * s, rtol=1e-6)

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
    @pytest.mark.parametrize("plus_one", [False, True])
    @given(members=st.lists(boxes(), max_size=8))
    def test_matches_scalar_kernels_bit_for_bit(self, plus_one, members):
        with plus_one_convention(plus_one):
            ious, directed = pairwise_overlaps([b.as_tuple() for b in members])
            assert ious.shape == directed.shape == (len(members), len(members))
            for i, a in enumerate(members):
                for j, b in enumerate(members):
                    # hex() tells every bit apart, signed zeros included
                    assert float(ious[i, j]).hex() == iou(a, b).hex()
                    assert float(directed[i, j]).hex() == asymmetric_overlap(a, b).hex()

    def test_follows_the_active_extent_convention(self):
        touching = [(0, 0, 10, 10), (10, 0, 20, 10)]
        assert pairwise_overlaps(touching)[0][0, 1] == 0.0
        with plus_one_convention():
            # 11 shared pixels over 121 + 121 - 11
            assert pairwise_overlaps(touching)[0][0, 1] == 11.0 / 231.0
