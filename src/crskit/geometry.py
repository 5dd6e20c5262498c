"""Axis-aligned box geometry: areas, intersection, IoU, and directed overlap.

The scalar kernels work on ``Box`` objects; ``pairwise_overlaps`` computes the
same quantities for every pair of an ``(n, 4)`` box array at once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "GeometryError",
    "Box",
    "area",
    "intersection_area",
    "iou",
    "asymmetric_overlap",
    "pairwise_overlaps",
    "hull",
    "set_plus_one",
    "plus_one_enabled",
    "plus_one_convention",
]


class GeometryError(ValueError):
    """Raised for degenerate boxes (non-positive width or height)."""


# When enabled, extents count inclusive pixels (the x2 - x1 + 1 convention
# used by integer-grid annotations). Off by default: continuous coordinates.
_PLUS_ONE = False


def set_plus_one(enabled: bool) -> None:
    """Switch the global extent convention used by all area computations."""
    global _PLUS_ONE
    _PLUS_ONE = bool(enabled)


def plus_one_enabled() -> bool:
    return _PLUS_ONE


@contextmanager
def plus_one_convention(enabled: bool = True) -> Iterator[None]:
    """Temporarily switch the extent convention, restoring it afterwards."""
    previous = _PLUS_ONE
    set_plus_one(enabled)
    try:
        yield
    finally:
        set_plus_one(previous)


def _extent(lo: float, hi: float) -> float:
    return hi - lo + 1.0 if _PLUS_ONE else hi - lo


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in corner format with strictly positive extent."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise GeometryError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return _extent(self.x1, self.x2)

    @property
    def height(self) -> float:
        return _extent(self.y1, self.y2)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def contains_point(self, x: float, y: float) -> bool:
        """True when (x, y) lies inside the box, boundary included."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def translate(self, dx: float, dy: float) -> Box:
        return Box(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scale(self, factor: float) -> Box:
        if factor <= 0:
            raise GeometryError(f"scale factor must be positive, got {factor}")
        return Box(self.x1 * factor, self.y1 * factor, self.x2 * factor, self.y2 * factor)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def area(box: Box) -> float:
    """Box area under the active extent convention; positive for any valid Box."""
    return box.width * box.height


def intersection_area(a: Box, b: Box) -> float:
    """Overlap area of two boxes; 0.0 when they are disjoint.

    Under the default continuous convention boxes that share only an edge do
    not intersect; under the inclusive-pixel convention they share a
    one-pixel strip.
    """
    iw = _extent(max(a.x1, b.x1), min(a.x2, b.x2))
    ih = _extent(max(a.y1, b.y1), min(a.y2, b.y2))
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


def _extents(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return hi - lo + 1.0 if _PLUS_ONE else hi - lo


def pairwise_overlaps(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and directed-overlap matrices for an ``(n, 4)`` array of corner boxes.

    ``ious[i, j]`` is ``iou(box_i, box_j)`` and ``directed[i, j]`` is
    ``asymmetric_overlap(box_i, box_j)`` (box i selected, box j the
    candidate), bit for bit: the same elementwise operations in the same
    order, under the active extent convention.
    """
    b = np.asarray(boxes, dtype=float).reshape(-1, 4)
    lo, hi = b[:, :2], b[:, 2:]
    sides = _extents(lo, hi)
    areas = sides[:, 0] * sides[:, 1]
    # [i, j, axis]: extent of the intersection of boxes i and j along x and y.
    overlap = _extents(np.maximum(lo[:, None], lo), np.minimum(hi[:, None], hi))
    iw, ih = overlap[..., 0], overlap[..., 1]
    inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
    overlapping = inter != 0.0
    union = areas[:, None] + areas - inter
    ious = np.divide(inter, union, out=np.zeros_like(inter), where=overlapping)
    directed = np.divide(inter, areas, out=np.zeros_like(inter), where=overlapping)
    return ious, directed


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
