"""Axis-aligned box geometry: areas, intersection, IoU, and directed overlap.

The scalar kernels work on ``Box`` objects; ``pairwise_overlaps`` computes the
same quantities for every pair of an ``(n, 4)`` box array (or of each in a
stack) at once, and ``paired_overlaps`` for the matching rows of two arrays.
``box_array`` is the one conversion from ``Box`` objects to such an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
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
    "box_array",
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

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


# The slot setters of the class that @dataclass(slots=True) built, which store
# a field of a frozen Box without going through its refusing __setattr__.
_set_x1, _set_y1, _set_x2, _set_y2 = (Box.__dict__[name].__set__ for name in Box.__slots__)


def area(box: Box) -> float:
    """Box area; positive for any valid Box."""
    return (box.x2 - box.x1) * (box.y2 - box.y1)


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


def _overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # IoU and directed overlap (a selected, b the candidate) of broadcast
    # ``(..., 4)`` corner arrays, with the scalar kernels' elementwise
    # operations in their order, one corner column at a time.
    x1, y1, x2, y2 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    u1, v1, u2, v2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(x2, u2) - np.maximum(x1, u1)
    ih = np.minimum(y2, v2) - np.maximum(y1, v1)
    inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
    overlapping = inter != 0.0
    area_b = (u2 - u1) * (v2 - v1)
    union = (x2 - x1) * (y2 - y1) + area_b - inter
    ious = np.divide(inter, union, out=np.zeros_like(inter), where=overlapping)
    directed = np.divide(inter, area_b, out=np.zeros_like(inter), where=overlapping)
    return ious, directed


def _stacked(boxes: np.ndarray) -> np.ndarray:
    # Any box input as a float ``(..., n, 4)`` array; no boxes at all is (0, 4).
    b = np.asarray(boxes, dtype=float)
    return b.reshape(b.shape[:-2] + (-1, 4))


def pairwise_overlaps(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and directed-overlap matrices for an ``(..., n, 4)`` array of corner boxes.

    ``ious[..., i, j]`` is ``iou(box_i, box_j)`` and ``directed[..., i, j]``
    is ``asymmetric_overlap(box_i, box_j)`` (box i selected, box j the
    candidate) within each ``(n, 4)`` array of the stack, bit for bit: the
    same elementwise operations in the same order.
    """
    b = _stacked(boxes)
    return _overlaps(b[..., :, None, :], b[..., None, :, :])


def paired_overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and directed overlap of row k of ``a`` with row k of ``b``, two ``(n, 4)`` arrays.

    ``ious[k]`` is ``iou(a_k, b_k)`` and ``directed[k]`` is
    ``asymmetric_overlap(a_k, b_k)``, bit for bit, as in ``pairwise_overlaps``;
    any two ``(..., 4)`` arrays that broadcast pair up the same way.
    """
    return _overlaps(_stacked(a), _stacked(b))


def box_array(boxes: Iterable[Box]) -> np.ndarray:
    """The ``(n, 4)`` float array of ``boxes``' corners, one ``as_tuple`` row per box."""
    return np.fromiter(chain.from_iterable(b.as_tuple() for b in boxes), float).reshape(-1, 4)


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
