"""Studies of count guidance on perturbed worlds, where it does not saturate.

On the canonical world count guidance reaches AP and purity 1.000 in every
iteration, so no change to selection or retraining can show there. The studies
here build their worlds with ``study_world``, which crowds instances (a lower
``world.MIN_GAP``) and drops tight proposals, and read the paper's mechanism
through ``pick_mix``: which kinds of proposal each iteration's selection makes
pseudo ground truth.
"""

from __future__ import annotations

import copy
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from crskit import refinement, world as world_module
from crskit.refinement import RefinementConfig, run_adr
from crskit.world import PROVENANCE_TAGS, generate_world

from conftest import CANONICAL_CLASSES, CANONICAL_IMAGES, CANONICAL_SEED

# Crowded instances with a tenth of the tight proposals missing.
STRESS = {"min_gap": -8.0, "drop_tight": 0.1}


@lru_cache(maxsize=None)
def _built(seed, images, min_gap, drop_tight):
    with pytest.MonkeyPatch.context() as patch:
        if min_gap is not None:
            patch.setattr(world_module, "MIN_GAP", min_gap)
        world = generate_world(images, CANONICAL_CLASSES, seed=seed)
    rng = np.random.default_rng(1)
    for record in world:
        record.proposals = [
            p for p in record.proposals if p.provenance != "tight" or rng.random() >= drop_tight
        ]
    return world


def study_world(seed, images, min_gap=None, drop_tight=0.0, count_rule=None):
    """A deep copy of the ``images``-image world of ``seed``, built with
    ``world.MIN_GAP`` set to ``min_gap`` (unchanged for None) and restored after.

    Each ``tight`` proposal is then dropped when its own ``default_rng(1).random()``
    draw, taken in world order, falls below ``drop_tight``; the others keep their
    region ids. ``count_rule``, when given, rewrites every positive count n as
    ``count_rule(n)``, as an annotator's wrong count would; ground truth stays.
    """
    world = copy.deepcopy(_built(seed, images, min_gap, drop_tight))
    if count_rule is not None:
        for record in world:
            record.counts = {c: count_rule(n) if n >= 1 else n for c, n in record.counts.items()}
    return world


def pick_mix(world, config):
    """``run_adr(world, config)`` and each iteration's pseudo-ground-truth mix.

    A mix counts the selected regions of each ``PROVENANCE_TAGS`` kind: the
    provenance of the rows that the run's ``select_pseudo_gt`` call selects.
    """
    provenance = np.array([p.provenance for r in world for p in r.proposals], dtype=object)
    select, mixes = refinement.select_pseudo_gt, []

    def recording(*args):
        pseudo_gt = select(*args)
        kinds = Counter(provenance[np.concatenate(list(pseudo_gt.rows.values()))].tolist())
        mixes.append({tag: kinds[tag] for tag in PROVENANCE_TAGS})
        return pseudo_gt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refinement, "select_pseudo_gt", recording)
        report = run_adr(world, config)
    return report, mixes


def mix(tight, merged, part, background):
    return dict(zip(PROVENANCE_TAGS, (tight, merged, part, background)))


class TestHelpers:
    def test_min_gap_crowds_instances_and_is_restored(self):
        def closest(world):
            return min(
                world_module._axis_gap(a, b)
                for r in world
                for boxes in r.gt_boxes.values()
                for i, a in enumerate(boxes)
                for b in boxes[i + 1 :]
            )

        gap = world_module.MIN_GAP
        crowded = study_world(CANONICAL_SEED, CANONICAL_IMAGES, min_gap=-8.0)
        assert world_module.MIN_GAP == gap
        canonical = study_world(CANONICAL_SEED, CANONICAL_IMAGES)
        assert closest(crowded) < 0.0 < gap <= closest(canonical)

    def test_each_call_returns_a_fresh_copy(self):
        first = study_world(CANONICAL_SEED, 20, **STRESS)
        first[0].proposals.clear()
        first[1].proposals[0].feature[:] = 0.0
        again = study_world(CANONICAL_SEED, 20, **STRESS)
        assert again[0].proposals and again[1].proposals[0].feature.any()

    def test_drops_only_tight_proposals_and_keeps_region_ids(self):
        # At 0.1, 73 of the canonical world's 697 tight proposals go.
        full = generate_world(CANONICAL_IMAGES, CANONICAL_CLASSES, seed=CANONICAL_SEED)
        dropped = study_world(CANONICAL_SEED, CANONICAL_IMAGES, drop_tight=0.1)
        missing = Counter()
        for before, after in zip(full, dropped):
            kept = {p.region_id: p for p in after.proposals}
            for p in before.proposals:
                if p.region_id in kept:
                    assert kept[p.region_id].box == p.box
                else:
                    missing[p.provenance] += 1
        assert missing == {"tight": 73}

    def test_pick_mix_on_the_canonical_world(self, canonical_world):
        # Count guidance picks only tight boxes; top-1 keeps every merged hull and,
        # as retraining drifts, trades tight picks for parts.
        guided = pick_mix(canonical_world, RefinementConfig())[1]
        assert guided == [mix(697, 0, 0, 0)] * 3
        top1 = pick_mix(canonical_world, RefinementConfig(count_guided=False))[1]
        assert top1 == [mix(75, 232, 0, 0), mix(54, 232, 20, 1), mix(42, 232, 31, 2)]


class TestStressWorld:
    @pytest.mark.parametrize("seed", [7, 0, 1])
    def test_neither_selector_saturates(self, seed):
        # Measured on these seeds: count-guided final purity 0.914-0.919 and AP
        # 0.864-0.886, top-1 final purity 0.116-0.184.
        world = study_world(seed, 200, **STRESS)
        guided, guided_mix = pick_mix(world, RefinementConfig())
        top1, top1_mix = pick_mix(world, RefinementConfig(count_guided=False))
        final = guided.iterations[-1].report
        assert 0.91 <= final.purity <= 0.92
        assert 0.86 <= final.mean_ap <= 0.89
        assert 0.11 <= top1.iterations[-1].report.purity <= 0.19
        # With a tight proposal gone, count guidance fills its slot with a part in
        # every iteration, while top-1 keeps the merged hulls.
        assert all(m["part"] >= 40 and m["merged"] <= 3 for m in guided_mix)
        assert all(m["merged"] >= 200 for m in top1_mix)


class TestWrongCounts:
    def test_undercounts_heal_by_the_second_iteration(self, canonical_world):
        # Every positive count one short (1 stays 1): the first selection keeps
        # some merged hulls, and retraining on the tight majority drops them all.
        world = study_world(
            CANONICAL_SEED, CANONICAL_IMAGES, count_rule=lambda n: max(n - 1, 1)
        )
        assert [r.gt_boxes for r in world] == [r.gt_boxes for r in canonical_world]
        guided = pick_mix(world, RefinementConfig())[1]
        assert guided == [mix(471, 74, 0, 0), mix(545, 0, 0, 0), mix(545, 0, 0, 0)]
