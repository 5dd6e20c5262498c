"""Synthetic world generation: determinism and structural guarantees."""

from __future__ import annotations

import hashlib
import io
import math

import numpy as np
import pytest

from crskit.dataio import dumps_jsonl_line, record_to_dict, save_dataset
from crskit.geometry import Box, area, hull, iou
from crskit.world import (
    BACKGROUND_SIDE,
    BACKGROUNDS_PER_IMAGE,
    BASE_SCORES,
    CANVAS_SIDE,
    HULL_MAX_FACTOR,
    INSTANCE_SIDE,
    JITTER_FRACTION,
    OFF_CLASS_SCORE,
    PART_AREA_FRACTION,
    PROVENANCE_TAGS,
    SCORE_JITTER,
    _initial_scores,
    _jittered,
    _layout_ok,
    _part_of,
    _place_instances,
    _random_box,
    _spread_layout,
    generate_world,
)


def source_class(proposal) -> str:
    # Object proposals carry a clearly higher initial score for their class.
    return max(proposal.scores, key=lambda name: proposal.scores[name])


def test_argument_validation():
    with pytest.raises(ValueError):
        generate_world(0, 4)
    with pytest.raises(ValueError):
        generate_world(10, 0)
    with pytest.raises(ValueError):
        generate_world(10, 1, feature_dim=1)


def test_same_seed_is_bit_identical():
    # Serialized lines, not dicts: -0.0 == 0.0 would let a sign flip through.
    a = generate_world(12, 3, seed=99)
    b = generate_world(12, 3, seed=99)
    assert [dumps_jsonl_line(record_to_dict(r)) for r in a] == [
        dumps_jsonl_line(record_to_dict(r)) for r in b
    ]


# sha256 of save_dataset's bytes, recorded from the one-call-per-value
# generator. A one-ulp drift in any box, score or feature changes the digest.
FROZEN_WORLDS = [
    ((200, 4), {"seed": 7}, "4da610f7c92b58d164dbd9bdb64bc3c9446a61b74471bdd2665424ee52b8216b"),
    ((60, 1), {"seed": 3}, "3fd14c927f67e3dc352ecd79f8d219811d03d1ac756ea9efd71ad5f672a976a0"),
    ((40, 20), {"seed": 11}, "db4126e0f29e10581e83950b8e6c4de9c4b618bc26a2a449bcf11232f2956f4b"),
    (
        (60, 3),
        {"feature_dim": 2, "seed": 5},
        "b1c83ae5a3ebc889ffbfcd677d972c44fa244042ed9097e9f70c5ff1de21b860",
    ),
    (
        (30, 2),
        {"feature_dim": 64, "seed": 13},
        "23186df1601ab32f0422038e06c12938749172750483d13b74c4fbca70528e2e",
    ),
]


@pytest.mark.parametrize(("args", "kwargs", "digest"), FROZEN_WORLDS)
def test_world_bytes_are_frozen(args, kwargs, digest):
    out = io.StringIO()
    save_dataset(generate_world(*args, **kwargs), out)
    actual = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    # NEP 19 lets Generator streams change between numpy releases.
    assert actual == digest, (
        f"generate_world{args} {kwargs} bytes changed under numpy {np.__version__}"
    )


def test_different_seeds_differ():
    a = generate_world(6, 2, seed=1)
    b = generate_world(6, 2, seed=2)
    assert [record_to_dict(r) for r in a] != [record_to_dict(r) for r in b]


def test_structural_invariants():
    world = generate_world(40, 3, seed=11)
    for record in world:
        assert record.positive_classes()
        assert len({p.region_id for p in record.proposals}) == len(record.proposals)
        dims = {len(p.feature) for p in record.proposals}
        assert dims == {16}
        for p in record.proposals:
            assert p.provenance in PROVENANCE_TAGS
            assert all(0.0 <= s <= 1.0 for s in p.scores.values())
        assert (
            sum(1 for p in record.proposals if p.provenance == "background")
            == BACKGROUNDS_PER_IMAGE
        )
        for name in record.positive_classes():
            instances = record.gt_boxes[name]
            count = record.counts[name]
            assert 1 <= count <= 4
            assert len(instances) == count
            tights = [
                p
                for p in record.proposals
                if p.provenance == "tight" and source_class(p) == name
            ]
            parts = [
                p
                for p in record.proposals
                if p.provenance == "part" and source_class(p) == name
            ]
            merged = [
                p
                for p in record.proposals
                if p.provenance == "merged" and source_class(p) == name
            ]
            assert len(tights) == count
            assert len(parts) == count
            # one tight proposal per instance, localizing it
            for tight, instance in zip(tights, instances):
                assert iou(tight.box, instance) >= 0.5
            for part, instance in zip(parts, instances):
                fraction = area(part.box) / area(instance)
                assert PART_AREA_FRACTION[0] * 0.9 <= fraction <= PART_AREA_FRACTION[1]
            if count >= 2:
                assert len(merged) == 1
                enclosure = hull(instances)
                assert iou(merged[0].box, enclosure) >= 0.5
                # hull dwarfs members: suppression cannot remove the tights
                assert area(enclosure) >= HULL_MAX_FACTOR * max(
                    area(b) for b in instances
                )
                for tight in tights:
                    assert iou(merged[0].box, tight.box) < 0.3
            else:
                assert not merged


def test_same_class_instances_stay_disjoint():
    world = generate_world(60, 2, seed=23)
    for record in world:
        for name in record.positive_classes():
            instances = record.gt_boxes[name]
            for i, a in enumerate(instances):
                for b in instances[i + 1 :]:
                    assert iou(a, b) == 0.0


def test_initial_scores_rank_merged_on_top():
    world = generate_world(30, 2, seed=5)
    for record in world:
        for name in record.positive_classes():
            if record.counts[name] < 2:
                continue
            by_kind = {}
            for p in record.proposals:
                if source_class(p) == name and p.provenance != "background":
                    by_kind.setdefault(p.provenance, []).append(p.scores[name])
            assert min(by_kind["merged"]) > max(by_kind["tight"])
            assert min(by_kind["tight"]) > max(by_kind["part"])


def test_spread_layout_fallback_is_valid():
    for count in range(1, 5):
        layout = _spread_layout(count)
        assert len(layout) == count
        assert _layout_ok(layout)


def test_placement_falls_back_to_spread_layout(monkeypatch):
    # With no random tries left, every instance count gets the quadrant layout.
    monkeypatch.setattr("crskit.world.MAX_PLACEMENT_TRIES", 0)
    rng = np.random.default_rng(0)
    for count in range(1, 5):
        assert _place_instances(rng, count) == _spread_layout(count)


# One scalar draw per value: the generator's draws as first written. The
# grouped helpers must return the same floats and leave the stream where these do.
def reference_box(rng, side):
    w = rng.uniform(*side)
    h = rng.uniform(*side)
    x = rng.uniform(0.0, CANVAS_SIDE - w)
    y = rng.uniform(0.0, CANVAS_SIDE - h)
    return Box(x, y, x + w, y + h)


def reference_jittered(rng, box):
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    dx1, dx2 = rng.uniform(-JITTER_FRACTION, JITTER_FRACTION, 2) * w
    dy1, dy2 = rng.uniform(-JITTER_FRACTION, JITTER_FRACTION, 2) * h
    return Box(
        min(max(box.x1 + dx1, 0.0), CANVAS_SIDE - 1.0),
        min(max(box.y1 + dy1, 0.0), CANVAS_SIDE - 1.0),
        max(min(box.x2 + dx2, CANVAS_SIDE), 1.0),
        max(min(box.y2 + dy2, CANVAS_SIDE), 1.0),
    )


def reference_part_of(rng, box):
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    fraction = rng.uniform(*PART_AREA_FRACTION)
    stretch = rng.uniform(0.9, 1.1)
    pw = w * math.sqrt(fraction) * stretch
    ph = h * math.sqrt(fraction) / stretch
    x = box.x1 + rng.uniform(0.0, w - pw)
    y = box.y1 + rng.uniform(0.0, h - ph)
    return Box(x, y, x + pw, y + ph)


def reference_initial_scores(rng, classes, source, kind):
    scores = {}
    for name in classes:
        base = BASE_SCORES[kind] if name == source else OFF_CLASS_SCORE
        jitter = rng.uniform(-SCORE_JITTER, SCORE_JITTER)
        scores[name] = float(min(max(base + jitter, 0.0), 1.0))
    return scores


def box_bits(box):
    return [v.hex() for v in box.as_tuple()]


def score_bits(scores):
    return [(name, v.hex()) for name, v in scores.items()]


# Boxes that reach every clamp of _jittered: at each canvas edge, tiny, whole.
EDGE_BOXES = [
    Box(0.0, 0.0, 10.0, 10.0),
    Box(90.0, 90.0, 100.0, 100.0),
    Box(0.0, 95.0, 1.5, 100.0),
    Box(98.5, 0.0, 100.0, 1.5),
    Box(0.0, 0.0, 100.0, 100.0),
    Box(40.0, 40.0, 40.5, 40.25),
]


@pytest.mark.parametrize("seed", range(0, 400, 8))
def test_grouped_draws_match_one_call_per_value(seed):
    new, ref = np.random.default_rng(seed), np.random.default_rng(seed)

    def same(a, b, what):
        where = f"numpy {np.__version__}, seed {seed}: {what}"
        assert a == b, f"{where} returned other floats"
        assert new.bit_generator.state == ref.bit_generator.state, f"{where} moved the stream"

    boxes = list(EDGE_BOXES)
    for side in (INSTANCE_SIDE, BACKGROUND_SIDE) * 8:
        box = _random_box(new, side)
        same(box_bits(box), box_bits(reference_box(ref, side)), f"_random_box {side}")
        boxes.append(box)
    for box in boxes:
        for helper, reference in ((_jittered, reference_jittered), (_part_of, reference_part_of)):
            same(box_bits(helper(new, box)), box_bits(reference(ref, box)), f"{helper.__name__} {box}")
    for class_count in (1, 2, 4, 20):
        classes = [f"class_{i}" for i in range(class_count)]
        for source in (None, classes[0], classes[-1]):
            for kind in BASE_SCORES:
                same(
                    score_bits(_initial_scores(new, classes, source, kind)),
                    score_bits(reference_initial_scores(ref, classes, source, kind)),
                    f"_initial_scores {class_count} {source} {kind}",
                )
