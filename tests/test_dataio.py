"""Serialization: canonical bytes, schema validation, run configs."""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crskit import dataio
from crskit.dataio import (
    CONFIG_KEYS,
    DatasetError,
    config_from_dict,
    dumps_json,
    dumps_jsonl_line,
    load_dataset,
    load_detections,
    load_run_config,
    record_from_dict,
    record_to_dict,
    save_dataset,
    save_detections,
)
from crskit.evaluation import Detection
from crskit.geometry import Box
from crskit.refinement import RefinementConfig
from crskit.world import generate_world

from conftest import MERGED_FIXTURE


def minimal_record() -> dict:
    return {
        "format_version": 1,
        "image_id": "img_0",
        "classes": {"cat": {"count": 1, "gt_boxes": [[0, 0, 10, 10]]}},
        "proposals": [
            {"region_id": 0, "box": [0, 0, 10, 10], "scores": {"cat": 0.9}}
        ],
    }


class TestRoundTrip:
    def test_fixture_bytes_survive_reload(self, tmp_path):
        records = load_dataset(MERGED_FIXTURE)
        out = tmp_path / "copy.jsonl"
        save_dataset(records, out)
        assert out.read_bytes() == MERGED_FIXTURE.read_bytes()

    def test_generated_world_bytes_stable(self, tmp_path):
        world = generate_world(6, 2, seed=11)
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        save_dataset(world, first)
        save_dataset(load_dataset(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_record_dict_round_trip(self):
        data = minimal_record()
        assert record_to_dict(record_from_dict(data)) == data

    def test_counts_without_boxes_round_trip(self):
        data = minimal_record()
        data["classes"]["dog"] = {"count": 3, "gt_boxes": []}
        record = record_from_dict(data)
        assert record.counts["dog"] == 3
        assert record_to_dict(record)["classes"]["dog"] == {"count": 3, "gt_boxes": []}

    def test_detections_round_trip(self, tmp_path):
        detections = [
            Detection("img_0", "cat", Box(0, 0, 10, 10), 0.9),
            Detection("img_1", "dog", Box(5, 5, 8, 8), 0.25),
        ]
        path = tmp_path / "dets.jsonl"
        save_detections(detections, path)
        assert load_detections(path) == detections
        copy = tmp_path / "dets2.jsonl"
        save_detections(load_detections(path), copy)
        assert copy.read_bytes() == path.read_bytes()


class TestCanonicalForm:
    def test_jsonl_line_sorts_keys_and_packs(self):
        assert dumps_jsonl_line({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_report_json_is_indented_with_trailing_newline(self):
        text = dumps_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'


class TestRecordValidation:
    def test_rejects_non_object(self):
        with pytest.raises(DatasetError, match=r"record: expected a JSON object"):
            record_from_dict([1, 2])

    def test_rejects_unknown_top_level_key(self):
        data = minimal_record()
        data["extra"] = 1
        with pytest.raises(DatasetError, match=r"unknown keys: \['extra'\]"):
            record_from_dict(data)

    def test_rejects_missing_key(self):
        data = minimal_record()
        del data["proposals"]
        with pytest.raises(DatasetError, match=r"missing keys: \['proposals'\]"):
            record_from_dict(data)

    def test_rejects_wrong_format_version(self):
        data = minimal_record()
        data["format_version"] = 2
        with pytest.raises(DatasetError, match=r"format_version: unsupported version 2"):
            record_from_dict(data)

    def test_rejects_count_out_of_range(self):
        data = minimal_record()
        data["classes"]["cat"]["count"] = 16
        with pytest.raises(
            DatasetError, match=r"classes\.cat\.count: must be in \[0, 15\], got 16"
        ):
            record_from_dict(data, line=4)

    def test_rejects_boolean_count(self):
        data = minimal_record()
        data["classes"]["cat"]["count"] = True
        with pytest.raises(DatasetError, match=r"classes\.cat\.count: expected an integer"):
            record_from_dict(data)

    def test_rejects_degenerate_gt_box_with_field_path(self):
        data = minimal_record()
        data["classes"]["cat"]["gt_boxes"] = [[0, 0, 0, 10]]
        with pytest.raises(DatasetError, match=r"line 3: classes\.cat\.gt_boxes\[0\]"):
            record_from_dict(data, line=3)

    def test_rejects_overflowing_box_with_field_path(self):
        data = minimal_record()
        data["proposals"][0]["box"] = [-1e308, 0, 1e308, 10]
        with pytest.raises(
            DatasetError, match=r"^line 2: proposals\[0\]\.box: box .* has a non-finite extent$"
        ):
            record_from_dict(data, line=2)

    def test_rejects_duplicate_region_id(self):
        data = minimal_record()
        data["proposals"].append(
            {"region_id": 0, "box": [20, 0, 30, 10], "scores": {}}
        )
        with pytest.raises(
            DatasetError, match=r"proposals\[1\]\.region_id: duplicate region_id 0"
        ):
            record_from_dict(data)

    def test_rejects_score_out_of_range(self):
        data = minimal_record()
        data["proposals"][0]["scores"]["cat"] = 1.5
        with pytest.raises(
            DatasetError, match=r"proposals\[0\]\.scores\.cat: must be in \[0, 1\]"
        ):
            record_from_dict(data)

    def test_rejects_non_finite_score(self):
        data = minimal_record()
        data["proposals"][0]["scores"]["cat"] = float("nan")
        with pytest.raises(DatasetError, match=r"expected a finite number"):
            record_from_dict(data)

    def test_rejects_unknown_proposal_key(self):
        data = minimal_record()
        data["proposals"][0]["weight"] = 1.0
        with pytest.raises(
            DatasetError, match=r"proposals\[0\]: unknown keys: \['weight'\]"
        ):
            record_from_dict(data)

    def test_rejects_mixed_feature_dimensions(self):
        data = minimal_record()
        data["proposals"][0]["feature"] = [1.0, 2.0]
        data["proposals"].append(
            {
                "region_id": 1,
                "box": [20, 0, 30, 10],
                "scores": {},
                "feature": [1.0, 2.0, 3.0],
            }
        )
        with pytest.raises(
            DatasetError, match=r"proposals: mixed feature dimensions: \[2, 3\]"
        ):
            record_from_dict(data)

    def test_rejects_empty_feature(self):
        data = minimal_record()
        data["proposals"][0]["feature"] = []
        with pytest.raises(
            DatasetError, match=r"feature: expected a non-empty list of numbers"
        ):
            record_from_dict(data)


class TestLoadDataset:
    def test_malformed_json_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            dumps_jsonl_line(minimal_record()) + "\n" + "{not json\n"
        )
        with pytest.raises(DatasetError, match=r"line 2: malformed JSON"):
            load_dataset(path)

    def test_duplicate_image_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = dumps_jsonl_line(minimal_record())
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(
            DatasetError, match=r"line 2: image_id: duplicate image_id 'img_0'"
        ):
            load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + dumps_jsonl_line(minimal_record()) + "\n\n")
        assert len(load_dataset(path)) == 1

    def test_schema_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = dumps_jsonl_line(minimal_record())
        bad = minimal_record()
        bad["image_id"] = "img_1"
        bad["proposals"][0]["box"] = [0, 0, 10]
        path.write_text(good + "\n" + dumps_jsonl_line(bad) + "\n")
        with pytest.raises(
            DatasetError, match=r"line 2: proposals\[0\]\.box: expected \[x1, y1, x2, y2\]"
        ):
            load_dataset(path)


class TestDetectionsValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            dumps_jsonl_line(
                {
                    "image_id": "a",
                    "class_id": "cat",
                    "box": [0, 0, 1, 1],
                    "confidence": 0.5,
                    "label": "x",
                }
            )
            + "\n"
        )
        with pytest.raises(DatasetError, match=r"line 1: detection: unknown keys"):
            load_detections(path)

    def test_confidence_range_enforced(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text(
            dumps_jsonl_line(
                {"image_id": "a", "class_id": "cat", "box": [0, 0, 1, 1], "confidence": 2.0}
            )
            + "\n"
        )
        with pytest.raises(DatasetError, match=r"confidence: must be in \[0, 1\]"):
            load_detections(path)


HUGE = 10**400  # an integer literal beyond float range


def minimal_detection() -> dict:
    return {"image_id": "img_0", "class_id": "cat", "box": [0, 0, 10, 10], "confidence": 0.9}


def with_value(data: dict, path: tuple, value) -> dict:
    copy = json.loads(json.dumps(data))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


RECORD_FIELDS = [
    ("format_version",),
    ("image_id",),
    ("classes",),
    ("classes", "cat"),
    ("classes", "cat", "count"),
    ("classes", "cat", "gt_boxes"),
    ("classes", "cat", "gt_boxes", 0),
    ("classes", "cat", "gt_boxes", 0, 2),
    ("proposals",),
    ("proposals", 0),
    ("proposals", 0, "region_id"),
    ("proposals", 0, "box"),
    ("proposals", 0, "box", 1),
    ("proposals", 0, "scores"),
    ("proposals", 0, "scores", "cat"),
    ("proposals", 0, "feature"),
    ("proposals", 0, "provenance"),
]
DETECTION_FIELDS = [("image_id",), ("class_id",), ("box",), ("box", 3), ("confidence",)]
# Unbounded integers rarely leave float range, so those get their own branch.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**500)
    | st.floats()
    | st.text(max_size=4)
)


class TestUnparsableInput:
    """Whatever a file holds, loaders fail only with located DatasetErrors."""

    @pytest.mark.parametrize(
        "path, located",
        [
            (("proposals", 0, "box", 2), r"proposals\[0\]\.box\[2\]"),
            (("classes", "cat", "gt_boxes", 0, 3), r"classes\.cat\.gt_boxes\[0\]\[3\]"),
            (("proposals", 0, "scores", "cat"), r"proposals\[0\]\.scores\.cat"),
            (("proposals", 0, "feature"), r"proposals\[0\]\.feature\[0\]"),
        ],
    )
    def test_dataset_integer_beyond_float_range(self, tmp_path, path, located):
        record = minimal_record()
        record["proposals"][0]["feature"] = [0.5, 1.0]
        value = [HUGE, 1.0] if path[-1] == "feature" else HUGE
        file = tmp_path / "big.jsonl"
        file.write_text(json.dumps(with_value(record, path, value)) + "\n")
        with pytest.raises(DatasetError, match=f"^line 1: {located}: expected a finite number"):
            load_dataset(file)

    @pytest.mark.parametrize("key, located", [("confidence", "confidence"), ("box", r"box\[0\]")])
    def test_detection_integer_beyond_float_range(self, tmp_path, key, located):
        detection = minimal_detection()
        detection[key] = [HUGE, 0, 10, 10] if key == "box" else HUGE
        file = tmp_path / "big.jsonl"
        file.write_text(json.dumps(detection) + "\n")
        with pytest.raises(DatasetError, match=f"^line 1: {located}: expected a finite number"):
            load_detections(file)

    def test_config_integer_beyond_float_range(self, tmp_path):
        with pytest.raises(DatasetError, match=r"^config: T: expected a finite number"):
            config_from_dict({"T": HUGE})
        file = tmp_path / "config.json"
        file.write_text(json.dumps({"nms_threshold": HUGE}))
        with pytest.raises(DatasetError, match=r"^config: nms_threshold: expected a finite"):
            load_run_config(file)

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000 + b"]" * 100_000, b'{"image_id": "caf\xe9"}', b"1" * 5000],
        ids=["deep-nesting", "latin-1", "too-many-digits"],
    )
    @pytest.mark.parametrize(
        "loader, located",
        [
            (load_dataset, "line 2: malformed JSON"),
            (load_detections, "line 2: malformed JSON"),
            (load_run_config, "config: malformed JSON"),
        ],
        ids=["dataset", "detections", "config"],
    )
    def test_unparsable_text(self, tmp_path, content, loader, located):
        # The JSON Lines loaders see the bad line after a blank first line.
        file = tmp_path / "bad.json"
        file.write_bytes(b"\n" + content + b"\n")
        with pytest.raises(DatasetError, match=f"^{located}"):
            loader(file)

    @given(
        st.sampled_from(
            [(minimal_record(), load_dataset, path) for path in RECORD_FIELDS]
            + [(minimal_detection(), load_detections, path) for path in DETECTION_FIELDS]
        ),
        JSON_LEAVES
        | st.recursive(
            JSON_LEAVES,
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4),
            max_leaves=12,
        ),
    )
    def test_any_value_in_one_field(self, case, value):
        data, loader, path = case
        with tempfile.TemporaryDirectory() as directory:
            file = Path(directory) / "one.jsonl"
            file.write_text(json.dumps(with_value(data, path, value)) + "\n")
            try:
                loader(file)
            except DatasetError as exc:
                assert str(exc).startswith("line 1: ")


# A wrong value and the message its per-value check gives.
BAD_VALUES = [
    (float("nan"), "expected a finite number, got nan"),
    (float("inf"), "expected a finite number, got inf"),
    (True, "expected a number, got bool"),
    ("x", "expected a number, got str"),
    (HUGE, "expected a finite number, got an integer beyond float range"),
]
# Each list a loader checks whole: where it sits, its located path and a valid value.
FLOAT_LISTS = [
    (minimal_record, ("proposals", 0, "box"), "proposals[0].box", [0.0, 0.0, 10.0, 10.0]),
    (
        minimal_record,
        ("classes", "cat", "gt_boxes", 0),
        "classes.cat.gt_boxes[0]",
        [0.0, 0.0, 10.0, 10.0],
    ),
    (minimal_detection, ("box",), "box", [0.0, 0.0, 10.0, 10.0]),
    (
        minimal_record,
        ("proposals", 0, "feature"),
        "proposals[0].feature",
        [0.5, 1.0, 0.25, 2.0, 0.75],
    ),
]


def load_one(data: dict, make, path) -> Any:
    """Write ``data`` as a one-line file and load it with the loader for ``make``'s kind."""
    path.write_text(json.dumps(data) + "\n")
    return (load_dataset if make is minimal_record else load_detections)(path)


class TestListValidation:
    """A list of numbers passes whole; any other list is checked value by value."""

    @pytest.mark.parametrize("bad, message", BAD_VALUES, ids=["nan", "inf", "bool", "str", "huge"])
    @pytest.mark.parametrize(
        "make, path, located, good", FLOAT_LISTS, ids=["box", "gt-box", "detection-box", "feature"]
    )
    @pytest.mark.parametrize("where", ["first", "middle", "last", "two-bad"])
    def test_names_the_first_bad_index(
        self, tmp_path, bad, message, make, path, located, good, where
    ):
        values = list(good)
        index = {"first": 0, "middle": len(values) // 2, "last": len(values) - 1, "two-bad": 1}
        values[index[where]] = bad
        if where == "two-bad":
            values[-1] = float("nan")  # a later bad value is not the one reported
        with pytest.raises(DatasetError) as caught:
            load_one(with_value(make(), path, values), make, tmp_path / "one.jsonl")
        assert str(caught.value) == f"line 1: {located}[{index[where]}]: {message}"

    def test_integer_spellings_load_as_floats(self, tmp_path):
        loaded = {}
        for spelling, box, feature in [
            ("int", [0, 0, 10, 10], [1, 0]),
            ("float", [0.0, 0.0, 10.0, 10.0], [1.0, 0.0]),
        ]:
            record = minimal_record()
            record["classes"]["cat"]["gt_boxes"] = [box]
            record["proposals"][0].update(box=box, feature=feature)
            detection = dict(minimal_detection(), box=box)
            loaded[spelling] = (
                load_one(record, minimal_record, tmp_path / f"{spelling}.jsonl")[0],
                load_one(detection, minimal_detection, tmp_path / f"{spelling}-det.jsonl"),
            )
        for record, detections in loaded.values():
            boxes = [record.gt_boxes["cat"][0], record.proposals[0].box, detections[0].box]
            assert boxes == [Box(0.0, 0.0, 10.0, 10.0)] * 3
            assert all(type(v) is float for box in boxes for v in box.as_tuple())
            assert record.proposals[0].feature.dtype == np.float64
        ints, floats = loaded["int"][0], loaded["float"][0]
        np.testing.assert_array_equal(ints.proposals[0].feature, floats.proposals[0].feature)
        for name, (record, detections) in loaded.items():
            save_dataset([record], tmp_path / f"{name}-saved.jsonl")
            save_detections(detections, tmp_path / f"{name}-saved-det.jsonl")
        for suffix in ("saved.jsonl", "saved-det.jsonl"):
            assert (tmp_path / f"int-{suffix}").read_bytes() == (
                tmp_path / f"float-{suffix}"
            ).read_bytes()


class TestRunConfig:
    def test_defaults(self):
        config = config_from_dict({})
        assert config == RefinementConfig()
        assert config.threshold == 0.1
        assert config.count_cap == 3
        assert config.nms_threshold == 0.3
        assert config.iterations == 3
        assert config.count_guided
        assert config.corloc_variant == "iou50"
        assert config.ap_mode == "11pt"

    def test_dict_round_trip(self, tmp_path):
        config = RefinementConfig(
            iterations=5,
            threshold=0.4,
            count_cap=2,
            nms_threshold=0.45,
            seed=9,
            count_guided=False,
            corloc_variant="center",
            ap_mode="area",
        )
        data = {key: getattr(config, name) for key, name in CONFIG_KEYS.items()}
        assert sorted(data) == sorted(
            ["T", "k", "nms_threshold", "iterations", "seed", "count_guided",
             "corloc_variant", "ap_mode"]
        )
        assert all(data[key] != getattr(RefinementConfig(), CONFIG_KEYS[key]) for key in data)
        path = tmp_path / "config.json"
        path.write_text(dumps_json(data))
        assert load_run_config(path) == config_from_dict(data) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(DatasetError, match=r"config: unknown keys: \['threshold'\]"):
            config_from_dict({"threshold": 0.2})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"T": 0.0},
            {"T": 1.2},
            {"k": 0},
            {"nms_threshold": 0.0},
            {"iterations": 0},
            {"corloc_variant": "largest"},
            {"ap_mode": "coco"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DatasetError, match="^config: "):
            config_from_dict(kwargs)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(dumps_json({"T": 0.5, "seed": 3}))
        config = load_run_config(path)
        assert config.threshold == 0.5 and config.seed == 3 and config.count_cap == 3

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(DatasetError, match=r"config: malformed JSON"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"count_guided": "false"}, "count_guided: expected a boolean"),
            ({"count_guided": 0}, "count_guided: expected a boolean"),
            ({"k": 2.5}, "k: expected an integer"),
            ({"k": True}, "k: expected an integer"),
            ({"seed": 1.5}, "seed: expected an integer"),
            ({"iterations": 2.5}, "iterations: expected an integer"),
            ({"T": "0.1"}, "T: expected a number"),
            ({"nms_threshold": False}, "nms_threshold: expected a number"),
            ({"ap_mode": 11}, "ap_mode: expected a string"),
        ],
    )
    def test_from_dict_rejects_wrongly_typed_values(self, data, message):
        with pytest.raises(DatasetError, match=f"^config: {message}$"):
            config_from_dict(data)

    def test_from_dict_takes_an_integer_for_a_float_field(self):
        config = config_from_dict({"T": 1, "nms_threshold": 0.5})
        assert config.threshold == 1
        assert type(config.threshold) is float

    def test_out_of_range_value_names_the_refinement_field(self):
        with pytest.raises(DatasetError, match=r"^config: threshold must be in \(0, 1\]"):
            config_from_dict({"T": 0.0})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"iterations": 10**400}, r"iterations must be in \[1, 100\], got 1000"),
            ({"iterations": 101}, r"iterations must be in \[1, 100\], got 101"),
            ({"k": 16}, r"k must be at most 15, got 16"),
            ({"k": 10**400}, r"k must be at most 15, got 1000"),
            ({"seed": -1}, r"seed must be >= 0, got -1"),
        ],
    )
    def test_from_dict_bounds_integer_fields(self, data, message):
        with pytest.raises(DatasetError, match=f"^config: {message}"):
            config_from_dict(data)

    def test_integer_bounds_are_inclusive(self):
        config = config_from_dict({"iterations": 100, "k": 15, "seed": 10**400})
        assert (config.iterations, config.count_cap, config.seed) == (100, 15, 10**400)

    def test_voc_plus_one_is_an_unknown_key(self):
        with pytest.raises(DatasetError, match=r"unknown keys: \['voc_plus_one'\]"):
            config_from_dict({"voc_plus_one": False})


def test_fixture_content_is_the_documented_example():
    # keep the on-disk fixture honest: one merged hull over two gt boxes
    records = load_dataset(MERGED_FIXTURE)
    assert len(records) == 1
    record = records[0]
    assert record.counts == {"class_0": 2}
    by_provenance = {p.provenance: p for p in record.proposals}
    assert set(by_provenance) == {"merged", "tight"} or len(record.proposals) == 3
    hull = next(p for p in record.proposals if p.provenance == "merged")
    assert hull.box == Box(0, 0, 10, 10)
    assert hull.scores["class_0"] == max(
        p.scores["class_0"] for p in record.proposals
    )


# Ids the json encoder escapes: quotes, backslashes, control characters,
# non-ASCII and astral text, lone surrogates.
AWKWARD_IDS = [
    '"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t",
    "caf\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff",
]
# Box corners: integers, signed zeros, subnormals and values near 1e300.
CORNERS = (
    st.integers(-(10**6), 10**6)
    | st.floats(min_value=-1e300, max_value=1e300)
    | st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.5e308])
)
CONFIDENCES = (
    st.floats(min_value=0.0, max_value=1.0)
    | st.integers(0, 1)
    | st.sampled_from([-0.0, 5e-324, np.float32(0.1), np.float32(1.0)])
)
IDS = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(AWKWARD_IDS)
# An empty image_id is refused on save, as on load.
IMAGE_IDS = IDS.filter(lambda name: name != "")
# Equal keys with different JSON, which the loader refuses as ids, and so does the writer.
NON_STRING_IDS = [1, True, 1.0]
ANY_IDS = IDS | st.sampled_from(NON_STRING_IDS)


@st.composite
def detections(draw, image_ids=IMAGE_IDS, class_ids=IDS) -> Detection:
    x1, x2 = sorted(draw(st.lists(CORNERS, min_size=2, max_size=2, unique_by=float)))
    y1, y2 = sorted(draw(st.lists(CORNERS, min_size=2, max_size=2, unique_by=float)))
    width, height = float(x2) - float(x1), float(y2) - float(y1)
    if not np.isfinite(width * height):  # keep the box, give it a finite height
        y1, y2 = 0.0, 1e-300
    return Detection(draw(image_ids), draw(class_ids), Box(x1, y1, x2, y2), draw(CONFIDENCES))


def encoder_lines(dets: list[Detection]) -> str:
    """Each detection's line as the json encoder writes it, the reference for the writer."""
    return "".join(
        dumps_jsonl_line(
            {
                "image_id": det.image_id,
                "class_id": det.class_id,
                "box": list(det.box.as_tuple()),
                "confidence": float(det.confidence),
            }
        )
        + "\n"
        for det in dets
    )


def saved_lines(dets: list[Detection]) -> str:
    with tempfile.TemporaryDirectory() as directory:
        file = Path(directory) / "dets.jsonl"
        save_detections(dets, file)
        return file.read_text(encoding="utf-8")


class TestDetectionWriter:
    """``save_detections`` formats each line itself and writes what the json encoder writes."""

    @given(st.lists(detections(), max_size=8))
    def test_writes_the_encoder_bytes(self, dets):
        assert saved_lines(dets) == encoder_lines(dets)

    def test_edge_values(self):
        box = Box(0, 0, 4, 10)
        dets = [Detection(name, name, box, 0.5) for name in AWKWARD_IDS]
        dets += [Detection("1", "cat", box, 0.5)]
        dets += [
            Detection("img", "cat", Box(-0.0, 5e-324, 1e300, 2e-300), 1),
            Detection("img", "cat", Box(-1e300, -0.0, 1e300, 5e-324), 0),
            Detection("img", "cat", Box(0, 0, 1, 1), np.float32(0.1)),
            Detection("img", "cat", Box(0, 0, 1, 1), -0.0),
        ]
        text = saved_lines(dets)
        assert text == encoder_lines(dets)
        assert '"class_id":"cat","confidence":0.5,"image_id":"1"}\n' in text
        # Equal keys, different JSON: each is refused, with the loader's message.
        for name in NON_STRING_IDS:
            for field in ("image_id", "class_id"):
                bad = replace(Detection("img", "cat", box, 0.5), **{field: name})
                with pytest.raises(DatasetError) as caught:
                    saved_lines(dets + [bad])
                assert str(caught.value) == f"line {len(dets) + 1}: {field}: expected a string"

    @given(st.lists(detections(ANY_IDS, ANY_IDS), max_size=4))
    def test_what_saves_loads_back(self, dets):
        # A file the writer writes loads back equal; a list the loader would
        # refuse fails on save, with the message loading it would give.
        with tempfile.TemporaryDirectory() as directory:
            file = Path(directory) / "dets.jsonl"
            try:
                save_detections(dets, file)
            except DatasetError as refused:
                file.write_text(encoder_lines(dets), encoding="utf-8")
                with pytest.raises(DatasetError) as caught:
                    load_detections(file)
                assert str(caught.value) == str(refused)
            else:
                assert load_detections(file) == dets


# Lines a JSON Lines file may hold; each parses as json.loads parses it.
VALID_LINES = [
    b'{"image_id": "a", "box": [0, 0.5, 1e3, -0.0]}\n',
    b'  \t{"a": 1}  \r\n',
    b'{"a": NaN, "b": [Infinity, -Infinity], "c": 1e400}\r\n',
    b'[1, "caf\\u00e9", "\xc3\xa9", "\\ud83d\\ude00", {"k": null, "k": true}]\n',
    b'"text"\n',
    b"-12\n",
    b"1" * 4300 + b"\n",
    b"[]",
]
# Lines that are not JSON; each must fail with the message json.loads gives it.
INVALID_LINES = {
    "bom": b'\xef\xbb\xbf{"a": 1}\n',
    "two-objects": b"{} {}\n",
    "close-bracket": b"]\n",
    "unterminated-string": b'{"a": "b\n',
    "invalid-utf-8": b'{"image_id": "caf\xe9"}\n',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000 + b"\n",
    "too-many-digits": b"1" * 4301 + b"\n",
    "crlf-extra-data": b"{}x\r\n",
}

LOADERS = [load_dataset, load_detections]


def loads_message(raw: bytes) -> str:
    """The error a line gives when it is decoded and handed to ``json.loads`` whole."""
    try:
        json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("line parsed")


class TestLineParsing:
    """Each non-blank line parses exactly as json.loads parses it, with its message."""

    def test_valid_lines_load_as_json_loads_loads_them(self, tmp_path):
        file = tmp_path / "lines.jsonl"
        file.write_bytes(b"\n".join(line.rstrip(b"\n") for line in VALID_LINES) + b"\n")
        expected = [(n, json.loads(line)) for n, line in enumerate(VALID_LINES, start=1)]
        # repr, so that NaN compares equal to itself.
        assert repr(list(dataio._json_lines(file))) == repr(expected)

    @pytest.mark.parametrize("raw", INVALID_LINES.values(), ids=INVALID_LINES.keys())
    @pytest.mark.parametrize("loader", LOADERS, ids=["dataset", "detections"])
    def test_invalid_lines_fail_with_the_json_loads_message(self, tmp_path, raw, loader):
        file = tmp_path / "bad.jsonl"
        file.write_bytes(b"\n" + raw)
        with pytest.raises(DatasetError) as caught:
            loader(file)
        assert str(caught.value) == f"line 2: malformed JSON: {loads_message(raw)}"

    # str.strip() removes these, but JSON whitespace is only space, tab, CR and LF.
    @pytest.mark.parametrize(
        "char",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"],
        ids=lambda char: f"U+{ord(char):04X}",
    )
    @pytest.mark.parametrize("loader", LOADERS, ids=["dataset", "detections"])
    def test_a_line_of_other_whitespace_is_malformed(self, tmp_path, char, loader):
        file = tmp_path / "space.jsonl"
        file.write_text(" \n" + char + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^line 2: malformed JSON: Expecting value"):
            loader(file)

    def test_a_line_of_json_whitespace_is_blank(self, tmp_path):
        file = tmp_path / "blank.jsonl"
        line = dumps_jsonl_line(minimal_detection()).encode()
        file.write_bytes(b" \t\r\n\r\n" + line + b"\n\t\n")
        assert len(load_detections(file)) == 1


class TestDetectionLines:
    def test_empty_image_id_rejected(self, tmp_path):
        file = tmp_path / "dets.jsonl"
        file.write_text(dumps_jsonl_line(dict(minimal_detection(), image_id="")) + "\n")
        with pytest.raises(DatasetError) as caught:
            load_detections(file)
        assert str(caught.value) == "line 1: image_id: expected a non-empty string"

    def test_empty_image_id_is_refused_on_save_as_on_load(self, tmp_path):
        # No file is saved that the loader would refuse; an empty class_id round-trips.
        box = Box(0, 0, 10, 10)
        kept = [Detection("img_0", "", box, 0.9)]
        file = tmp_path / "dets.jsonl"
        save_detections(kept, file)
        assert load_detections(file) == kept
        with pytest.raises(DatasetError) as caught:
            save_detections(kept + [Detection("", "cat", box, 0.5)], file)
        assert str(caught.value) == "line 2: image_id: expected a non-empty string"

    def test_empty_class_id_loads(self, tmp_path):
        # A dataset class name may be empty, so a detection's class may be too.
        file = tmp_path / "dets.jsonl"
        file.write_text(dumps_jsonl_line(dict(minimal_detection(), class_id="")) + "\n")
        assert load_detections(file)[0].class_id == ""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"image_id": 3}, "image_id: expected a string"),
            ({"class_id": None}, "class_id: expected a string"),
            ({"confidence": 1}, None),
            ({"confidence": 1.5}, "confidence: must be in [0, 1], got 1.5"),
            ({"confidence": -1}, "confidence: must be in [0, 1], got -1.0"),
            ({"confidence": False}, "confidence: expected a number, got bool"),
        ],
    )
    def test_line_messages(self, tmp_path, changes, message):
        file = tmp_path / "dets.jsonl"
        file.write_text(dumps_jsonl_line(dict(minimal_detection(), **changes)) + "\n")
        if message is None:
            assert load_detections(file)[0].confidence == 1.0
            return
        with pytest.raises(DatasetError) as caught:
            load_detections(file)
        assert str(caught.value) == f"line 1: {message}"

    def test_missing_key_is_named(self, tmp_path):
        data = minimal_detection()
        del data["confidence"]
        file = tmp_path / "dets.jsonl"
        file.write_text(dumps_jsonl_line(data) + "\n")
        with pytest.raises(DatasetError) as caught:
            load_detections(file)
        assert str(caught.value) == "line 1: detection: missing keys: ['confidence']"


def plain_record() -> dict:
    """A record that the whole check of a proposal list takes: every number a float."""
    return {
        "format_version": 1,
        "image_id": "img_0",
        "classes": {"cat": {"count": 1, "gt_boxes": [[0.0, 0.0, 10.0, 10.0]]}},
        "proposals": [
            {
                "region_id": 0,
                "box": [0.0, 0.0, 10.0, 10.0],
                "scores": {"cat": 0.9, "dog": 0.1},
                "feature": [0.5, -1.0],
                "provenance": "tight",
            },
            {
                "region_id": 1,
                "box": [2.0, 1.0, 6.5, 9.0],
                "scores": {"cat": 0.4, "dog": 0.7},
                "feature": [0.25, 2.0],
                "provenance": "part",
            },
        ],
    }


def plain_detection() -> dict:
    return dict(minimal_detection(), box=[0.0, 0.0, 10.0, 10.0])


# Faults that the whole checks must leave to the located checks: (record, where, value).
WHOLE_CHECK_FAULTS = {
    "bool-region-id": (plain_record, ("proposals", 1, "region_id"), True),
    "int-provenance": (plain_record, ("proposals", 1, "provenance"), 3),
    "duplicate-region-id": (plain_record, ("proposals", 1, "region_id"), 0),
    "degenerate-box": (plain_record, ("proposals", 1, "box"), [2.0, 1.0, 2.0, 9.0]),
    # After a valid score, so that the smallest and largest scores are valid.
    "nan-score": (plain_record, ("proposals", 1, "scores", "dog"), float("nan")),
    "nan-feature": (plain_record, ("proposals", 1, "feature", 1), float("nan")),
    "empty-feature": (
        plain_record,
        ("proposals",),
        [dict(plain_record()["proposals"][0], feature=[])],
    ),
    "mixed-dimensions": (plain_record, ("proposals", 1, "feature"), [0.5, 1.0, 2.0]),
    "nan-confidence": (plain_detection, ("confidence",), float("nan")),
    "inf-box": (plain_detection, ("box", 2), float("inf")),
    "empty-image-id": (plain_detection, ("image_id",), ""),
}
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


def loaded(make, file: Path) -> Any:
    """What loading ``file`` gives: the error text, or each object's repr with its features."""
    try:
        if make is plain_detection:
            return [(repr(d), []) for d in load_detections(file)]
        return [
            (
                repr((r.image_id, r.gt_boxes, r.counts))
                + repr([(p.region_id, p.box, p.scores, p.provenance) for p in r.proposals]),
                [p.feature for p in r.proposals],
            )
            for r in load_dataset(file)
        ]
    except DatasetError as exc:
        return str(exc)


def assert_located_checks_agree(make, file: Path) -> None:
    """Loading ``file`` gives the same outcome with the whole checks turned off."""
    whole = loaded(make, file)
    with mock.patch.object(dataio, "_plain_proposals", lambda entries: None):
        with mock.patch.object(dataio, "_plain_detection", lambda data: None):
            located = loaded(make, file)
    if isinstance(whole, str) or isinstance(located, str):
        assert whole == located
        return
    # Everything but the features by repr, each feature by dtype and values.
    assert [text for text, _ in whole] == [text for text, _ in located]
    for (_, ours), (_, theirs) in zip(whole, located):
        for a, b in zip(ours, theirs, strict=True):
            assert (a is None) == (b is None)
            assert a is None or (a.dtype == b.dtype and np.array_equal(a, b))


class TestWholeChecks:
    """A proposal list or a detection line checked whole loads as the located checks load it."""

    @given(
        st.tuples(
            st.sampled_from(
                [(plain_record, path) for path in RECORD_FIELDS]
                + [(plain_detection, path) for path in DETECTION_FIELDS]
            ),
            JSON_VALUES,
        )
    )
    def test_located_checks_alone_give_the_same_outcome(self, case):
        (make, path), value = case
        with tempfile.TemporaryDirectory() as directory:
            file = Path(directory) / "one.jsonl"
            file.write_text(json.dumps(with_value(make(), path, value)) + "\n")
            assert_located_checks_agree(make, file)

    @pytest.mark.parametrize(
        "make, path, value", WHOLE_CHECK_FAULTS.values(), ids=WHOLE_CHECK_FAULTS.keys()
    )
    def test_each_fault_fails_as_the_located_checks_fail(self, tmp_path, make, path, value):
        file = tmp_path / "one.jsonl"
        file.write_text(json.dumps(with_value(make(), path, value)) + "\n")
        assert isinstance(loaded(make, file), str)
        assert_located_checks_agree(make, file)

    def test_written_files_are_taken_whole(self, tmp_path):
        world = generate_world(6, 2, seed=11)
        detections = [
            Detection(r.image_id, name, p.box, score)
            for r in world
            for p in r.proposals
            for name, score in p.scores.items()
        ]
        files = {plain_record: tmp_path / "world.jsonl", plain_detection: tmp_path / "dets.jsonl"}
        save_dataset(world, files[plain_record])
        save_detections(detections, files[plain_detection])
        for _, data in dataio._json_lines(files[plain_record]):
            assert dataio._plain_proposals(data["proposals"]) is not None
        for _, data in dataio._json_lines(files[plain_detection]):
            assert dataio._plain_detection(data) is not None
        for make, file in files.items():
            assert_located_checks_agree(make, file)
        # The differential test perturbs these two, so they must take the whole checks.
        assert dataio._plain_proposals(plain_record()["proposals"]) is not None
        assert dataio._plain_detection(plain_detection()) is not None
