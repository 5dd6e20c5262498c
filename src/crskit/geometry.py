"""Axis-aligned box geometry: areas, intersection, IoU, and directed overlap.

The scalar kernels work on ``Box`` objects; ``pairwise_overlaps`` computes the
same quantities for every pair of an ``(n, 4)`` box array (or of each in a
stack) at once, and ``paired_overlaps`` for the matching rows of two arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "GeometryError",
    "Box",
    "area",
    "intersection_area",
    "iou",
    "asymmetric_overlap",
    "pairwise_overlaps",
    "paired_overlaps",
    "hull",
]

# Box pairs per batched overlap call: small temporaries (~150 B a pair), few calls.
PAIRS_PER_BATCH = 4096


class GeometryError(ValueError):
    """Raised for degenerate boxes: non-positive or overflowing width or height."""


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle in corner format with strictly positive, finite extent.

    The constructor converts each coordinate with ``float`` (ints are stored as
    floats), checks the extent and stores the four values, one step each.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        if not type(x1) is type(y1) is type(x2) is type(y2) is float:
            x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
        if not (x2 > x1 and y2 > y1):
            raise GeometryError(f"degenerate box ({x1}, {y1}, {x2}, {y2})")
        # Infinite coordinates, overflowing sides or area: overlap ratios would be NaN.
        if not math.isfinite((x2 - x1) * (y2 - y1)):
            raise GeometryError(f"box ({x1}, {y1}, {x2}, {y2}) has a non-finite extent")
        _set_x1(self, x1)
        _set_y1(self, y1)
        _set_x2(self, x2)
        _set_y2(self, y2)

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


# The slot setters of the class that @dataclass(slots=True) built, which store
# a field of a frozen Box without going through its refusing __setattr__.
_set_x1, _set_y1, _set_x2, _set_y2 = (Box.__dict__[name].__set__ for name in Box.__slots__)


def area(box: Box) -> float:
    """Box area; positive for any valid Box."""
    return box.width * box.height


def intersection_area(a: Box, b: Box) -> float:
    """Overlap area of two boxes; 0.0 when they are disjoint.

    Coordinates are continuous, so boxes that share only an edge do not
    intersect.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: Box, b: Box) -> float:
    """Symmetric intersection-over-union, in [0, 1]."""
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    return inter / (area(a) + area(b) - inter)


def asymmetric_overlap(selected: Box, candidate: Box) -> float:
    """Directed overlap: intersection area divided by the candidate's area.

    Reaches 1.0 whenever the candidate lies inside the selected box, however
    small the candidate is, which is what penalizes sub-regions of an already
    chosen box. Not symmetric in its arguments.
    """
    inter = intersection_area(selected, candidate)
    if inter == 0.0:
        return 0.0
    return inter / area(candidate)


def _overlaps(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    area_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    area_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # IoU and directed overlap (a selected, b the candidate) of broadcast box
    # pairs, with the scalar kernels' elementwise operations in their order.
    overlap = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    iw, ih = overlap[..., 0], overlap[..., 1]
    inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
    overlapping = inter != 0.0
    union = area_a + area_b - inter
    ious = np.divide(inter, union, out=np.zeros_like(inter), where=overlapping)
    directed = np.divide(inter, area_b, out=np.zeros_like(inter), where=overlapping)
    return ious, directed


def _corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b = np.asarray(boxes, dtype=float)
    b = b.reshape(b.shape[:-2] + (-1, 4))
    lo, hi = b[..., :2], b[..., 2:]
    sides = hi - lo
    return lo, hi, sides[..., 0] * sides[..., 1]


def pairwise_overlaps(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and directed-overlap matrices for an ``(..., n, 4)`` array of corner boxes.

    ``ious[..., i, j]`` is ``iou(box_i, box_j)`` and ``directed[..., i, j]``
    is ``asymmetric_overlap(box_i, box_j)`` (box i selected, box j the
    candidate) within each ``(n, 4)`` array of the stack, bit for bit: the
    same elementwise operations in the same order.
    """
    lo, hi, areas = _corners(boxes)
    rows = lo[..., None, :], hi[..., None, :], areas[..., None]
    return _overlaps(*rows, lo[..., None, :, :], hi[..., None, :, :], areas[..., None, :])


def paired_overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and directed overlap of row k of ``a`` with row k of ``b``, two ``(n, 4)`` arrays.

    ``ious[k]`` is ``iou(a_k, b_k)`` and ``directed[k]`` is
    ``asymmetric_overlap(a_k, b_k)``, bit for bit, as in ``pairwise_overlaps``.
    """
    return _overlaps(*_corners(a), *_corners(b))


def hull(boxes: Iterable[Box]) -> Box:
    """Smallest box enclosing every box in a non-empty collection."""
    boxes = list(boxes)
    if not boxes:
        raise GeometryError("hull of an empty collection")
    return Box(
        min(b.x1 for b in boxes),
        min(b.y1 for b in boxes),
        max(b.x2 for b in boxes),
        max(b.y2 for b in boxes),
    )
