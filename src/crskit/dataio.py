"""Dataset, detection, and report serialization.

Datasets are JSON Lines: one image record per line, schema version 1.

    {"format_version": 1,
     "image_id": "img_0000",
     "classes": {"class_0": {"count": 2, "gt_boxes": [[0,0,4,10], [6,0,10,10]]}},
     "proposals": [{"region_id": 0, "box": [0,0,10,10],
                    "scores": {"class_0": 0.9},
                    "feature": [0.1, ...],          # optional
                    "provenance": "merged"}]}       # optional

Detections are JSON Lines of ``{"image_id", "class_id", "box", "confidence"}``.
Serialization is canonical (sorted keys, fixed separators), so writing the
same data twice produces identical bytes.
Loaders check a list of numbers (a box, a feature) whole, and only a list
holding anything but finite floats goes value by value, so that each error
is located at its first bad index.

A run config file is a JSON object keyed by the CLI's flag names that loads as
a ``RefinementConfig``; ``CONFIG_KEYS`` maps its keys to fields for the
loader, the CLI's flag merge and the settings every report records
(``config_to_dict``): all of them in the refinement report's config block.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .evaluation import Detection, EvalReport
from .geometry import Box, GeometryError
from .refinement import RefinementConfig, RefinementReport, abbreviate
from .world import ImageRecord, Proposal

__all__ = [
    "FORMAT_VERSION",
    "COUNT_UI_CAP",
    "DatasetError",
    "CONFIG_KEYS",
    "config_from_dict",
    "config_to_dict",
    "load_dataset",
    "save_dataset",
    "load_detections",
    "save_detections",
    "load_run_config",
    "load_json",
    "record_to_dict",
    "record_from_dict",
    "eval_report_to_dict",
    "refinement_report_to_dict",
    "dumps_json",
    "dumps_jsonl_line",
]

FORMAT_VERSION = 1
# Counting interfaces top out at 15; a dataset count above that is rejected.
COUNT_UI_CAP = 15


class DatasetError(ValueError):
    """A schema or format violation, located by line and field path."""


def _fail(line: int | None, path: str, message: str) -> None:
    prefix = f"line {line}: " if line is not None else ""
    raise DatasetError(f"{prefix}{path}: {message}")


def _require_keys(
    data: Mapping[str, Any],
    allowed: set[str],
    line: int | None,
    path: str,
    required: set[str] | None = None,
) -> None:
    unknown = set(data) - allowed
    if unknown:
        _fail(line, path, f"unknown keys: {sorted(unknown)}")
    missing = (allowed if required is None else required) - set(data)
    if missing:
        _fail(line, path, f"missing keys: {sorted(missing)}")


def _number(value: Any, line: int | None, path: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(line, path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        _fail(line, path, "expected a finite number, got an integer beyond float range")
    if not math.isfinite(number):
        _fail(line, path, f"expected a finite number, got {value}")
    return number


def _numbers(values: list, line: int | None, path: str) -> list[float]:
    # A list of finite floats passes whole; anything else goes value by value,
    # so the error names the first bad index.
    for v in values:
        if type(v) is not float or not math.isfinite(v):
            return [_number(v, line, f"{path}[{i}]") for i, v in enumerate(values)]
    return values


def _json_lines(path: str | Path) -> Iterator[tuple[int, Any]]:
    """Number and parse each non-blank line of a UTF-8 JSON Lines file."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
                if not text.strip():
                    continue
                data = json.loads(text)
            # ValueError covers bad bytes and overlong integers; RecursionError, deep nesting.
            except (ValueError, RecursionError) as exc:
                raise DatasetError(f"line {line_no}: malformed JSON: {exc}") from exc
            yield line_no, data


def load_json(path: str | Path, context: str) -> Any:
    """Parse a UTF-8 JSON file; unparsable input fails as ``<context>: malformed JSON``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"{context}: malformed JSON: {exc}") from exc


def _box(value: Any, line: int | None, path: str) -> Box:
    if not isinstance(value, list) or len(value) != 4:
        _fail(line, path, "expected [x1, y1, x2, y2]")
    try:
        return Box(*_numbers(value, line, path))
    except GeometryError as exc:
        _fail(line, path, str(exc))
    raise AssertionError  # unreachable


def record_from_dict(data: Any, line: int | None = None) -> ImageRecord:
    """Validate one parsed dataset line and build an image record."""
    if not isinstance(data, dict):
        _fail(line, "record", "expected a JSON object")
    _require_keys(data, {"format_version", "image_id", "classes", "proposals"}, line, "record")
    if data["format_version"] != FORMAT_VERSION:
        _fail(line, "format_version", f"unsupported version {data['format_version']!r}")
    if not isinstance(data["image_id"], str) or not data["image_id"]:
        _fail(line, "image_id", "expected a non-empty string")
    record = ImageRecord(image_id=data["image_id"])
    if not isinstance(data["classes"], dict):
        _fail(line, "classes", "expected an object")
    for name, entry in data["classes"].items():
        path = f"classes.{name}"
        if not isinstance(entry, dict):
            _fail(line, path, "expected an object")
        _require_keys(entry, {"count", "gt_boxes"}, line, path)
        count = entry["count"]
        if isinstance(count, bool) or not isinstance(count, int):
            _fail(line, f"{path}.count", "expected an integer")
        if not 0 <= count <= COUNT_UI_CAP:
            _fail(line, f"{path}.count", f"must be in [0, {COUNT_UI_CAP}], got {count}")
        if not isinstance(entry["gt_boxes"], list):
            _fail(line, f"{path}.gt_boxes", "expected a list")
        boxes = [
            _box(b, line, f"{path}.gt_boxes[{i}]")
            for i, b in enumerate(entry["gt_boxes"])
        ]
        record.gt_boxes[name] = boxes
        record.counts[name] = count
    if not isinstance(data["proposals"], list):
        _fail(line, "proposals", "expected a list")
    seen_ids = set()
    dims = set()
    for i, entry in enumerate(data["proposals"]):
        path = f"proposals[{i}]"
        if not isinstance(entry, dict):
            _fail(line, path, "expected an object")
        _require_keys(entry, {"region_id", "box", "scores", "feature", "provenance"}, line, path,
                      required={"region_id", "box", "scores"})
        region_id = entry["region_id"]
        if isinstance(region_id, bool) or not isinstance(region_id, int):
            _fail(line, f"{path}.region_id", "expected an integer")
        if region_id in seen_ids:
            _fail(line, f"{path}.region_id", f"duplicate region_id {region_id}")
        seen_ids.add(region_id)
        box = _box(entry["box"], line, f"{path}.box")
        if not isinstance(entry["scores"], dict):
            _fail(line, f"{path}.scores", "expected an object")
        scores = {}
        for name, value in entry["scores"].items():
            score = _number(value, line, f"{path}.scores.{name}")
            if not 0.0 <= score <= 1.0:
                _fail(line, f"{path}.scores.{name}", f"must be in [0, 1], got {score}")
            scores[name] = score
        feature = None
        if entry.get("feature") is not None:
            raw = entry["feature"]
            if not isinstance(raw, list) or not raw:
                _fail(line, f"{path}.feature", "expected a non-empty list of numbers")
            feature = np.array(_numbers(raw, line, f"{path}.feature"))
            dims.add(len(raw))
        provenance = entry.get("provenance")
        if provenance is not None and not isinstance(provenance, str):
            _fail(line, f"{path}.provenance", "expected a string")
        record.proposals.append(
            Proposal(
                region_id=region_id,
                box=box,
                scores=scores,
                feature=feature,
                provenance=provenance,
            )
        )
    if len(dims) > 1:
        _fail(line, "proposals", f"mixed feature dimensions: {sorted(dims)}")
    return record


def record_to_dict(record: ImageRecord) -> dict[str, Any]:
    classes = {
        name: {
            "count": record.counts.get(name, len(boxes)),
            "gt_boxes": [list(b.as_tuple()) for b in boxes],
        }
        for name, boxes in record.gt_boxes.items()
    }
    for name, count in record.counts.items():
        classes.setdefault(name, {"count": count, "gt_boxes": []})
    proposals = []
    for p in record.proposals:
        entry: dict[str, Any] = {
            "region_id": p.region_id,
            "box": list(p.box.as_tuple()),
            "scores": {k: float(v) for k, v in p.scores.items()},
        }
        if p.feature is not None:
            entry["feature"] = [float(v) for v in p.feature]
        if p.provenance is not None:
            entry["provenance"] = p.provenance
        proposals.append(entry)
    return {
        "format_version": FORMAT_VERSION,
        "image_id": record.image_id,
        "classes": classes,
        "proposals": proposals,
    }


def dumps_json(payload: Any) -> str:
    """Canonical indented JSON for report files."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def dumps_jsonl_line(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_dataset(path: str | Path) -> list[ImageRecord]:
    """Load a JSON Lines dataset, reporting the first violation by line."""
    records = []
    seen = set()
    for line_no, data in _json_lines(path):
        record = record_from_dict(data, line=line_no)
        if record.image_id in seen:
            _fail(line_no, "image_id", f"duplicate image_id {record.image_id!r}")
        seen.add(record.image_id)
        records.append(record)
    return records


def save_dataset(records: Iterable[ImageRecord], target: str | Path | TextIO) -> None:
    """Write each record's JSON line as it is produced to a file path or an open text stream."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            return save_dataset(records, handle)
    for record in records:
        target.write(dumps_jsonl_line(record_to_dict(record)) + "\n")


def load_detections(path: str | Path) -> list[Detection]:
    detections = []
    for line_no, data in _json_lines(path):
        if not isinstance(data, dict):
            _fail(line_no, "detection", "expected a JSON object")
        _require_keys(data, {"image_id", "class_id", "box", "confidence"}, line_no, "detection")
        if not isinstance(data["image_id"], str):
            _fail(line_no, "image_id", "expected a string")
        if not isinstance(data["class_id"], str):
            _fail(line_no, "class_id", "expected a string")
        confidence = _number(data["confidence"], line_no, "confidence")
        if not 0.0 <= confidence <= 1.0:
            _fail(line_no, "confidence", f"must be in [0, 1], got {confidence}")
        detections.append(
            Detection(
                image_id=data["image_id"],
                class_id=data["class_id"],
                box=_box(data["box"], line_no, "box"),
                confidence=confidence,
            )
        )
    return detections


def save_detections(detections: Iterable[Detection], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for det in detections:
            handle.write(
                dumps_jsonl_line(
                    {
                        "image_id": det.image_id,
                        "class_id": det.class_id,
                        "box": list(det.box.as_tuple()),
                        "confidence": float(det.confidence),
                    }
                )
                + "\n"
            )


# A config file's keys, which are also the CLI's flag names, and the
# RefinementConfig fields they set: only T and k differ from their field's name.
_KEY_OF_FIELD = {"threshold": "T", "count_cap": "k"}
CONFIG_KEYS = {_KEY_OF_FIELD.get(f.name, f.name): f.name for f in fields(RefinementConfig)}
# Config values must have their field's JSON type: bool is an int subclass,
# so only bool fields take true/false, and float fields take any number.
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def config_from_dict(data: Any, base: RefinementConfig = RefinementConfig()) -> RefinementConfig:
    """``base`` with the values of a parsed config file (or of CLI flags) set.

    Unknown keys are rejected. Beyond ``RefinementConfig``'s own checks, ``k``
    is at most ``COUNT_UI_CAP``, a dataset's largest count.
    """
    if not isinstance(data, Mapping):
        raise DatasetError("config: expected a JSON object")
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise DatasetError(f"config: unknown keys: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        name = CONFIG_KEYS[key]
        kind = type(getattr(RefinementConfig, name))
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise DatasetError(f"config: {key}: expected {_EXPECTED[kind]}")
        # An integer for a float field becomes the float a flag would give.
        values[name] = _number(value, None, f"config: {key}") if kind is float else value
    try:
        config = replace(base, **values)
    except ValueError as exc:
        raise DatasetError(f"config: {exc}") from exc
    if config.count_cap > COUNT_UI_CAP:
        raise DatasetError(
            f"config: k must be at most {COUNT_UI_CAP}, got {abbreviate(config.count_cap)}"
        )
    return config


def load_run_config(path: str | Path) -> RefinementConfig:
    return config_from_dict(load_json(path, "config"))


def config_to_dict(config: RefinementConfig, keys: Iterable[str]) -> dict[str, Any]:
    """The values of ``config`` under the given config keys, as a report records them."""
    return {key: getattr(config, CONFIG_KEYS[key]) for key in keys}


def eval_report_to_dict(report: EvalReport) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "per_class_ap": {k: float(v) for k, v in report.per_class_ap.items()},
        "per_class_corloc": {k: float(v) for k, v in report.per_class_corloc.items()},
        "mean_ap": None if report.mean_ap is None else float(report.mean_ap),
        "mean_corloc": None if report.mean_corloc is None else float(report.mean_corloc),
        "purity": None if report.purity is None else float(report.purity),
        "absent_classes": list(report.absent_classes),
    }
    if report.buckets is not None:
        payload["buckets"] = {
            name: eval_report_to_dict(sub) for name, sub in report.buckets.items()
        }
    return payload


def refinement_report_to_dict(report: RefinementReport) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(report.config, CONFIG_KEYS),
        "iterations": [
            {"iteration": entry.iteration, **eval_report_to_dict(entry.report)}
            for entry in report.iterations
        ],
    }
    if report.scorer is not None:
        payload["config"]["feature_dim"] = report.scorer.feature_dim
        payload["prototypes"] = {
            name: [float(v) for v in vec]
            for name, vec in report.scorer.prototypes.items()
        }
    return payload
