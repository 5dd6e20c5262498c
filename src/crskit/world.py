"""Synthetic detection worlds with controllable proposal pathology.

Each image carries per-class ground-truth boxes plus four proposal kinds:

* ``tight``: one jittered near-copy per ground-truth instance,
* ``part``: a sub-box strictly inside one instance,
* ``merged``: the bounding hull over all instances of a multi-instance class,
* ``background``: random clutter anywhere on the canvas.

Features live on per-class signature directions. Tight proposals sit on the
class signature, parts on a down-weighted mix of the signature and a per-class
part direction, and merged hulls blend the signature with a per-class
multi-instance direction in proportion to how much of the hull is actual
object. Background features are isotropic noise. Initial proposal scores
imitate a weak image-level-trained detector that ranks merged hulls above
single-instance boxes.

The same seed gives the same bytes. Grouped draws spend the stream exactly as
one call per value would: ``Generator.uniform(a, b)`` is ``a + (b - a) * u`` for
the next double ``u``, and an array draw takes consecutive doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, area, hull

__all__ = [
    "DEFAULT_FEATURE_DIM",
    "CANVAS_SIDE",
    "PROVENANCE_TAGS",
    "Proposal",
    "ImageRecord",
    "generate_world",
]

DEFAULT_FEATURE_DIM = 16
CANVAS_SIDE = 100.0
PROVENANCE_TAGS = ("tight", "merged", "part", "background")

INSTANCE_SIDE = (10.0, 24.0)
# Same-class instances keep this much clearance on some axis so their
# jittered tight proposals never overlap each other.
MIN_GAP = 6.0
JITTER_FRACTION = 0.1
# A multi-instance hull must dwarf its largest member (keeps hull/tight IoU
# under the suppression threshold) and the summed member area (bounds how
# object-like the hull's feature can get).
HULL_MAX_FACTOR = 5.0
HULL_SUM_FACTOR = 2.5
PART_AREA_FRACTION = (0.2, 0.5)
PART_SIGNATURE_WEIGHT = 0.7
FEATURE_NOISE = 0.1
BACKGROUNDS_PER_IMAGE = 3
BACKGROUND_SIDE = (8.0, 40.0)

BASE_SCORES = {"merged": 0.9, "tight": 0.7, "part": 0.5, "background": 0.2}
OFF_CLASS_SCORE = 0.2
SCORE_JITTER = 0.05
MAX_PLACEMENT_TRIES = 200


@dataclass
class Proposal:
    """A candidate region with per-class scores and an optional feature."""

    region_id: int
    box: Box
    scores: dict[str, float]
    feature: np.ndarray | None = None
    provenance: str | None = None


@dataclass
class ImageRecord:
    """One image: per-class ground truth, count annotations, and proposals."""

    image_id: str
    gt_boxes: dict[str, list[Box]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    proposals: list[Proposal] = field(default_factory=list)

    def positive_classes(self) -> list[str]:
        return [c for c, n in self.counts.items() if n >= 1]

    def proposal_map(self) -> dict[int, Proposal]:
        return {p.region_id: p for p in self.proposals}


def _scaled_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(0.0, 1.0, dim)
    return v / np.linalg.norm(v) * math.sqrt(dim)


def _scaled_orthogonal(
    rng: np.random.Generator, dim: int, base: np.ndarray
) -> np.ndarray:
    # Remove the base component so class-level direction luck cannot shrink
    # the margin between proposal kinds.
    v = rng.normal(0.0, 1.0, dim)
    v = v - (v @ base) / (base @ base) * base
    return v / np.linalg.norm(v) * math.sqrt(dim)


def _axis_gap(a: Box, b: Box) -> float:
    gx = max(a.x1 - b.x2, b.x1 - a.x2)
    gy = max(a.y1 - b.y2, b.y1 - a.y2)
    return max(gx, gy)


def _layout_ok(boxes: list[Box]) -> bool:
    if len(boxes) < 2:
        return True
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            if _axis_gap(a, b) < MIN_GAP:
                return False
    h = area(hull(boxes))
    if h < HULL_MAX_FACTOR * max(area(b) for b in boxes):
        return False
    return h >= HULL_SUM_FACTOR * sum(area(b) for b in boxes)


def _spread_layout(count: int) -> list[Box]:
    # Deterministic fallback: quadrant anchors always satisfy the layout rules.
    anchors = [(6.0, 6.0), (78.0, 78.0), (78.0, 6.0), (6.0, 78.0)]
    return [Box(x, y, x + 16.0, y + 16.0) for x, y in anchors[:count]]


def _random_box(rng: np.random.Generator, side: tuple[float, float]) -> Box:
    uw, uh, ux, uy = rng.random(4).tolist()
    w = side[0] + (side[1] - side[0]) * uw
    h = side[0] + (side[1] - side[0]) * uh
    x = (CANVAS_SIDE - w) * ux
    y = (CANVAS_SIDE - h) * uy
    return Box(x, y, x + w, y + h)


def _place_instances(rng: np.random.Generator, count: int) -> list[Box]:
    for _ in range(MAX_PLACEMENT_TRIES):
        boxes = [_random_box(rng, INSTANCE_SIDE) for _ in range(count)]
        if _layout_ok(boxes):
            return boxes
    return _spread_layout(count)


def _jittered(rng: np.random.Generator, box: Box) -> Box:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    dx1, dx2, dy1, dy2 = rng.uniform(-JITTER_FRACTION, JITTER_FRACTION, 4).tolist()
    return Box(
        min(max(box.x1 + dx1 * w, 0.0), CANVAS_SIDE - 1.0),
        min(max(box.y1 + dy1 * h, 0.0), CANVAS_SIDE - 1.0),
        max(min(box.x2 + dx2 * w, CANVAS_SIDE), 1.0),
        max(min(box.y2 + dy2 * h, CANVAS_SIDE), 1.0),
    )


def _part_of(rng: np.random.Generator, box: Box) -> Box:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    uf, us, ux, uy = rng.random(4).tolist()
    fraction = PART_AREA_FRACTION[0] + (PART_AREA_FRACTION[1] - PART_AREA_FRACTION[0]) * uf
    stretch = 0.9 + (1.1 - 0.9) * us
    pw = w * math.sqrt(fraction) * stretch
    ph = h * math.sqrt(fraction) / stretch
    x = box.x1 + (w - pw) * ux
    y = box.y1 + (h - ph) * uy
    return Box(x, y, x + pw, y + ph)


def _initial_scores(
    rng: np.random.Generator, classes: list[str], source: str | None, kind: str
) -> dict[str, float]:
    jitters = rng.uniform(-SCORE_JITTER, SCORE_JITTER, len(classes)).tolist()
    scores = {}
    for name, jitter in zip(classes, jitters):
        base = BASE_SCORES[kind] if name == source else OFF_CLASS_SCORE
        scores[name] = min(max(base + jitter, 0.0), 1.0)
    return scores


def generate_world(
    num_images: int,
    class_count: int,
    *,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    seed: int = 0,
) -> list[ImageRecord]:
    """Generate a deterministic synthetic dataset.

    Every image holds one or two positive classes with 1 to 4 ground-truth
    instances each. The same seed always yields the same world, down to the
    last float.
    """
    if num_images < 1:
        raise ValueError(f"num_images must be >= 1, got {num_images}")
    if class_count < 1:
        raise ValueError(f"class_count must be >= 1, got {class_count}")
    if feature_dim < 2:
        raise ValueError(f"feature_dim must be >= 2, got {feature_dim}")
    rng = np.random.default_rng(seed)
    classes = [f"class_{i}" for i in range(class_count)]
    signature = {c: _scaled_unit(rng, feature_dim) for c in classes}
    # Directions for what a hull over several instances and a cropped part of
    # one instance look like; orthogonal to the single-object signature.
    multi_dir = {c: _scaled_orthogonal(rng, feature_dim, signature[c]) for c in classes}
    part_dir = {c: _scaled_orthogonal(rng, feature_dim, signature[c]) for c in classes}

    def noisy(base: np.ndarray) -> np.ndarray:
        return base + rng.normal(0.0, FEATURE_NOISE, feature_dim)

    world = []
    for index in range(num_images):
        record = ImageRecord(image_id=f"img_{index:04d}")
        n_pos = 1 if class_count == 1 else int(rng.integers(1, 3))
        positives = sorted(int(i) for i in rng.choice(class_count, n_pos, replace=False))

        def add(box: Box, feature: np.ndarray, source: str | None, kind: str) -> None:
            record.proposals.append(
                Proposal(
                    region_id=len(record.proposals),
                    box=box,
                    scores=_initial_scores(rng, classes, source, kind),
                    feature=feature,
                    provenance=kind,
                )
            )

        for class_index in positives:
            name = classes[class_index]
            count = int(rng.integers(1, 5))
            instances = _place_instances(rng, count)
            record.gt_boxes[name] = instances
            record.counts[name] = count
            sig = signature[name]
            for instance in instances:
                add(_jittered(rng, instance), noisy(sig), name, "tight")
                part_base = PART_SIGNATURE_WEIGHT * sig + (
                    1.0 - PART_SIGNATURE_WEIGHT
                ) * part_dir[name]
                add(_part_of(rng, instance), noisy(part_base), name, "part")
            if count >= 2:
                merged_box = hull(instances)
                coverage = sum(area(b) for b in instances) / area(merged_box)
                merged_base = coverage * sig + (1.0 - coverage) * multi_dir[name]
                add(merged_box, noisy(merged_base), name, "merged")
        for _ in range(BACKGROUNDS_PER_IMAGE):
            box = _random_box(rng, BACKGROUND_SIDE)
            add(box, rng.normal(0.0, 1.0, feature_dim), None, "background")
        world.append(record)
    return world
