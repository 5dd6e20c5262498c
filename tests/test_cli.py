"""CLI: subcommand behavior, config precedence, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import logging
import re
import warnings
import weakref

import numpy as np
import pytest

from crskit import dataio, evaluation
from crskit.cli import build_parser, cli_dispatch
from crskit.dataio import (
    CONFIG_KEYS,
    config_from_dict,
    dumps_json,
    load_dataset,
    load_detections,
    refinement_report_to_dict,
    save_dataset,
)
from crskit.refinement import RefinementConfig, run_adr
from crskit.selection import ScoredRegion, SelectionProblem, crs_greedy, nms
from crskit.world import generate_world

from conftest import MERGED_FIXTURE

FIXTURE = str(MERGED_FIXTURE)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "world.jsonl"
        code, _, _ = run(capsys, "gen", "--images", "4", "--classes", "2",
                         "--seed", "5", "--out", str(out))
        assert code == 0
        records = load_dataset(out)
        assert len(records) == 4
        assert all(r.proposals for r in records)

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code, _, _ = run(capsys, "gen", "--images", "3", "--classes", "2",
                             "--seed", "9", "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_when_no_out_flag(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "--images", "1", "--classes", "1")
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["format_version"] == 1
        # stdout gets the bytes --out writes.
        path = tmp_path / "w.jsonl"
        argv = ["gen", "--images", "3", "--classes", "2", "--seed", "4"]
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_rejects_nonpositive_images(self, capsys):
        code, _, err = run(capsys, "gen", "--images", "0")
        assert code == 1
        assert err.startswith("error:")
        # Oversized worlds fail at once instead of running until killed.
        big = "99999999999"
        for flag, value, bounds, echo in [
            ("--images", big, "[1, 10000]", big),
            ("--images", "9" * 30, "[1, 10000]", "9999999999... (30 digits)"),
            ("--classes", big, "[1, 20]", big),
            ("--classes", "20000000", "[1, 20]", "20000000"),
            ("--dim", big, "[2, 64]", big),
            ("--dim", "1000000", "[2, 64]", "1000000"),
            ("--dim", "1", "[2, 64]", "1"),
        ]:
            # A repeated --images takes the last value.
            code, out, err = run(capsys, "gen", "--images", "2", flag, value)
            assert (code, out, err) == (1, "", f"error: {flag} must be in {bounds}, got {echo}\n")
        assert run(capsys, "gen", "--images", "1", "--classes", "20", "--dim", "64")[0] == 0


class TestSelect:
    def test_count_guided_splits_merged_box(self, capsys):
        code, out, _ = run(capsys, "select", "--input", FIXTURE)
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == 0.1 and payload["k"] == 3 and payload["count_guided"]
        entry = payload["images"]["demo_0000"]["class_0"]
        assert entry["selected"] == [1, 2]
        assert entry["boxes"] == [[0.0, 0.0, 4.0, 10.0], [6.0, 0.0, 10.0, 10.0]]
        assert entry["total_score"] == pytest.approx(1.1)
        assert entry["complete"]

    def test_baseline_takes_the_merged_hull(self, capsys):
        code, out, _ = run(capsys, "select", "--input", FIXTURE, "--no-count-guided")
        assert code == 0
        payload = json.loads(out)
        assert not payload["count_guided"]
        entry = payload["images"]["demo_0000"]["class_0"]
        assert entry["selected"] == [0]
        assert entry["total_score"] == pytest.approx(0.9)

    def test_cap_limits_selection_size(self, capsys):
        code, out, _ = run(capsys, "select", "--input", FIXTURE, "--k", "1")
        assert code == 0
        entry = json.loads(out)["images"]["demo_0000"]["class_0"]
        assert entry["selected"] == [0]  # min(count=2, k=1) regions

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "selection.json"
        code, stdout, _ = run(capsys, "select", "--input", FIXTURE, "--out", str(out))
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["images"]


class TestNms:
    def test_merged_hull_suppresses_tights(self, capsys):
        # IoU(hull, tight) = 0.4 >= 0.3, so only the top-scoring hull survives
        code, out, _ = run(capsys, "nms", "--input", FIXTURE)
        assert code == 0
        payload = json.loads(out)
        assert payload["nms_threshold"] == 0.3
        assert payload["images"]["demo_0000"]["class_0"] == [0]

    def test_looser_threshold_keeps_all(self, capsys):
        code, out, _ = run(capsys, "nms", "--input", FIXTURE, "--nms-threshold", "0.5")
        assert code == 0
        assert json.loads(out)["images"]["demo_0000"]["class_0"] == [0, 1, 2]


@pytest.mark.parametrize(
    "flags, T, k, count_guided",
    [([], 0.1, 3, True), (["--no-count-guided", "--k", "2", "--T", "0.3"], 0.3, 2, False)],
)
def test_nms_and_select_match_the_object_api(tmp_path, capsys, flags, T, k, count_guided):
    # nms suppresses the whole score table in one pass and select walks each
    # image's conflict masks; the reference solves one ScoredRegion problem
    # per image and positive class.
    world = generate_world(30, 3, seed=4)
    for record in world:
        # Positions run against region_id order and rounded scores often
        # tie, so the region_id tie-break decides many ranks.
        record.proposals.reverse()
        for p in record.proposals:
            p.scores = {name: round(score, 1) for name, score in p.scores.items()}
    world[7].proposals = []
    path = tmp_path / "world.jsonl"
    save_dataset(world, path)
    world = load_dataset(path)
    expected_nms = {}
    expected_select = {}
    for record in world:
        expected_nms[record.image_id] = {}
        expected_select[record.image_id] = {}
        for name in record.positive_classes():
            regions = tuple(
                ScoredRegion(p.box, p.scores.get(name, 0.0), p.region_id)
                for p in record.proposals
            )
            expected_nms[record.image_id][name] = [r.region_id for r in nms(regions)]
            if not regions:
                entry = {"selected": [], "boxes": [], "total_score": 0.0, "complete": False}
            else:
                target = min(record.counts[name], k) if count_guided else 1
                result = crs_greedy(SelectionProblem(regions, target, T))
                by_id = record.proposal_map()
                entry = {
                    "selected": list(result.selected),
                    "boxes": [list(by_id[i].box.as_tuple()) for i in result.selected],
                    "total_score": result.total_score,
                    "complete": result.complete,
                }
            expected_select[record.image_id][name] = entry
    assert expected_select[world[7].image_id]  # the empty image has a positive class
    # nms reads none of select's settings, so it runs with its defaults.
    code, out, _ = run(capsys, "nms", "--input", str(path))
    assert code == 0
    assert json.loads(out)["images"] == expected_nms
    code, out, _ = run(capsys, "select", "--input", str(path), *flags)
    assert code == 0
    assert json.loads(out)["images"] == expected_select


class TestOracle:
    def test_greedy_never_beats_exact(self, capsys):
        code, out, _ = run(capsys, "oracle", "--instances", "40", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 40
        assert payload["greedy_exceeds_exact"] == 0
        assert payload["max_score_gap"] >= 0.0
        assert 0.0 <= payload["match_rate"] <= 1.0

    def test_rejects_bad_sizes(self, capsys):
        assert run(capsys, "oracle", "--instances", "0")[0] == 1
        assert run(capsys, "oracle", "--max-regions", "1")[0] == 1
        # Above the exhaustive solver's cap, every seed fails the same way.
        for seed in ("0", "1"):
            code, _, err = run(capsys, "oracle", "--instances", "1", "--max-regions", "21",
                               "--seed", seed)
            assert (code, err) == (1, "error: --max-regions must be in [2, 20], got 21\n")
        # A run of this many instances would not finish; numpy cannot draw a
        # count this large, and no problem has more than 20 regions to select.
        code, _, err = run(capsys, "oracle", "--instances", "99999999999999999999")
        assert (code, err) == (
            1, "error: --instances must be in [1, 100000], got 99999999999999999999\n"
        )
        for count in ("21", "99999999999999999999999"):
            code, _, err = run(capsys, "oracle", "--instances", "1", "--max-count", count)
            assert code == 1
            assert err.startswith("error: --max-count must be in [1, 20], got ")
        assert run(capsys, "oracle", "--instances", "1", "--max-count", "20")[0] == 0

    def test_help_gives_the_size_ranges(self, capsys):
        code, out, _ = run(capsys, "oracle", "--help")
        assert code == 0
        text = " ".join(out.split())  # argparse wraps the help column
        for flag, bounds in [
            ("--instances", "[1, 100000]"), ("--max-regions", "[2, 20]"), ("--max-count", "[1, 20]"),
        ]:
            assert re.search(rf"{flag} \S+ in {re.escape(bounds)}", text), flag


@pytest.fixture()
def small_dataset(tmp_path, capsys):
    path = tmp_path / "world.jsonl"
    code = cli_dispatch(["gen", "--images", "10", "--classes", "2", "--dim", "8",
                         "--seed", "3", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


class TestRefineAndEval:
    def test_refine_reports_every_iteration(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        dets_path = tmp_path / "dets.jsonl"
        code, _, _ = run(capsys, "refine", "--input", str(small_dataset),
                         "--iterations", "2", "--seed", "3",
                         "--out", str(report_path),
                         "--detections-out", str(dets_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["config"]["iterations"] == 2
        assert payload["config"]["T"] == 0.1
        assert payload["config"]["feature_dim"] == 8
        assert [e["iteration"] for e in payload["iterations"]] == [0, 1, 2]
        assert payload["iterations"][0]["purity"] is None
        assert payload["prototypes"]
        assert load_detections(dets_path)

    def test_refine_is_deterministic(self, small_dataset, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            report_path = tmp_path / f"report_{tag}.json"
            dets_path = tmp_path / f"dets_{tag}.jsonl"
            code, _, _ = run(capsys, "refine", "--input", str(small_dataset),
                             "--iterations", "2", "--seed", "3",
                             "--out", str(report_path),
                             "--detections-out", str(dets_path))
            assert code == 0
            outputs.append((report_path.read_bytes(), dets_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_detections_against_dataset(self, small_dataset, tmp_path, capsys):
        dets_path = tmp_path / "dets.jsonl"
        run(capsys, "refine", "--input", str(small_dataset), "--iterations", "1",
            "--seed", "3", "--out", str(tmp_path / "r.json"),
            "--detections-out", str(dets_path))
        code, out, _ = run(capsys, "eval", "--detections", str(dets_path),
                           "--dataset", str(small_dataset))
        assert code == 0
        payload = json.loads(out)
        assert set(payload["per_class_ap"]) <= {"class_0", "class_1"}
        assert payload["mean_corloc"] is None or 0.0 <= payload["mean_corloc"] <= 1.0
        assert "buckets" not in payload

    def test_eval_by_count_adds_buckets(self, small_dataset, tmp_path, capsys, monkeypatch):
        dets_path = tmp_path / "dets.jsonl"
        run(capsys, "refine", "--input", str(small_dataset), "--iterations", "1",
            "--seed", "3", "--out", str(tmp_path / "r.json"),
            "--detections-out", str(dets_path))
        built = []
        picks = evaluation._detection_picks

        def counted(*args):
            built.append(args)
            return picks(*args)

        monkeypatch.setattr(evaluation, "_detection_picks", counted)
        code, out, _ = run(capsys, "eval", "--detections", str(dets_path),
                           "--dataset", str(small_dataset), "--by-count")
        assert code == 0
        # One table serves the overall report and every bucket.
        assert len(built) == 1
        payload = json.loads(out)
        assert payload["buckets"]
        assert set(payload["buckets"]) <= {"1", "2", "3", "4+"}
        code, plain, _ = run(capsys, "eval", "--detections", str(dets_path),
                             "--dataset", str(small_dataset))
        assert code == 0
        del payload["buckets"]
        assert payload == json.loads(plain)

    def test_eval_drops_the_records_before_reading_detections(
        self, small_dataset, tmp_path, capsys, monkeypatch
    ):
        dets_path = tmp_path / "dets.jsonl"
        run(capsys, "refine", "--input", str(small_dataset), "--iterations", "1",
            "--seed", "3", "--out", str(tmp_path / "r.json"),
            "--detections-out", str(dets_path))
        records = []
        read_dataset, read_detections = dataio.load_dataset, dataio.load_detections

        def tracked(path):
            world = read_dataset(path)
            records.extend(weakref.ref(record) for record in world)
            return world

        def checked(path):
            # The dataset was read first, and none of its records is alive.
            assert records and all(ref() is None for ref in records)
            return read_detections(path)

        monkeypatch.setattr(dataio, "load_dataset", tracked)
        monkeypatch.setattr(dataio, "load_detections", checked)
        code, _, _ = run(capsys, "eval", "--detections", str(dets_path),
                         "--dataset", str(small_dataset), "--by-count")
        assert code == 0

    def test_equal_detection_ids_are_one_string(self, small_dataset, tmp_path, capsys):
        dets_path = tmp_path / "dets.jsonl"
        run(capsys, "refine", "--input", str(small_dataset), "--iterations", "1",
            "--seed", "3", "--out", str(tmp_path / "r.json"),
            "--detections-out", str(dets_path))
        detections = load_detections(dets_path)
        ids = {}
        for d in detections:
            for value in (d.image_id, d.class_id):
                assert ids.setdefault(value, value) is value
        assert len(ids) < len(detections)

    @pytest.mark.parametrize("from_file", [False, True], ids=["flags", "config"])
    def test_evaluation_settings_reach_the_refinement(self, tmp_path, capsys, from_file):
        # On this world each of the two settings changes the report on its own.
        path = tmp_path / "world.jsonl"
        assert run(capsys, "gen", "--images", "10", "--dim", "16", "--seed", "7",
                   "--out", str(path))[0] == 0
        if from_file:
            config_path = tmp_path / "config.json"
            config_path.write_text(dumps_json({"corloc_variant": "center", "ap_mode": "area"}))
            flags = ["--config", str(config_path)]
        else:
            flags = ["--corloc-variant", "center", "--ap-mode", "area"]
        code, out, _ = run(capsys, "refine", "--input", str(path), *flags)
        assert code == 0
        world = load_dataset(path)
        reports = {
            (variant, mode): dumps_json(refinement_report_to_dict(run_adr(
                world, RefinementConfig(corloc_variant=variant, ap_mode=mode)
            )))
            for variant in ("iou50", "center")
            for mode in ("11pt", "area")
        }
        assert out == reports["center", "area"]
        assert len(set(reports.values())) == 4

    def test_refine_requires_features(self, tmp_path, capsys):
        code, _, err = run(capsys, "refine", "--input", FIXTURE)
        assert code == 1
        assert "features" in err

    def test_refine_locates_mixed_feature_dimensions(self, tmp_path, capsys):
        # The loader checks dimensions within an image, so a mix across images loads.
        path = tmp_path / "world.jsonl"
        assert run(capsys, "gen", "--images", "6", "--classes", "2", "--out", str(path))[0] == 0
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        for entry in record["proposals"]:
            entry["feature"] = entry["feature"][:8]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "refine", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: mixed feature dimensions: img_0000: proposal 0 has 16, "
            "img_0001: proposal 0 has 8\n"
        )  # one located line, no traceback


class TestReport:
    def test_renders_refinement_trajectory(self, small_dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(capsys, "refine", "--input", str(small_dataset), "--iterations", "1",
            "--seed", "3", "--out", str(report_path))
        code, out, _ = run(capsys, "report", "--input", str(report_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "iteration  mean_ap  mean_corloc  purity"
        assert len(lines) == 3
        assert lines[1].endswith("-")  # iteration 0 has no purity

    def test_missing_iteration_renders_as_a_question_mark(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(dumps_json({"iterations": [{"iteration": 2}, {"mean_ap": 0.5}]}))
        code, out, _ = run(capsys, "report", "--input", str(path))
        assert code == 0
        assert out.splitlines()[1:] == [
            "        2        -            -       -",
            "        ?   0.5000            -       -",
        ]

    def test_renders_eval_table(self, small_dataset, tmp_path, capsys):
        dets_path = tmp_path / "dets.jsonl"
        eval_path = tmp_path / "eval.json"
        run(capsys, "refine", "--input", str(small_dataset), "--iterations", "1",
            "--seed", "3", "--out", str(tmp_path / "r.json"),
            "--detections-out", str(dets_path))
        run(capsys, "eval", "--detections", str(dets_path),
            "--dataset", str(small_dataset), "--by-count", "--out", str(eval_path))
        code, out, _ = run(capsys, "report", "--input", str(eval_path))
        assert code == 0
        assert out.startswith("class  ap  corloc")
        assert "mean  " in out
        assert "count " in out

    def test_rejects_unrecognized_structure(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(dumps_json({"x": 1}))
        code, _, err = run(capsys, "report", "--input", str(path))
        assert code == 1
        assert "unrecognized report structure" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"iterations": 5}, "iterations: expected a list"),
            ({"iterations": [1]}, r"iterations\[0\]: expected an object"),
            ({"per_class_ap": [1, 2]}, "per_class_ap: expected an object"),
            ({"per_class_ap": {"cat": "high"}}, "expected a number or null"),
            ({"per_class_ap": {}, "buckets": {"1": 0.5}}, r"buckets\.1: expected an object"),
            # JSON booleans load as Python bools, which are ints to isinstance.
            ({"per_class_ap": {"a": True}, "mean_ap": False}, "a number or null, got True"),
            ({"iterations": [{"iteration": 0, "mean_ap": True}]}, "a number or null, got True"),
            # An iteration label is an integer too, never a bool or a structure.
            (
                {"iterations": [{"iteration": {"x": [1, 2]}}]},
                r"iterations\[0\]\.iteration: expected an integer$",
            ),
            (
                {"iterations": [{"iteration": 0}, {"iteration": True}]},
                r"iterations\[1\]\.iteration: expected an integer$",
            ),
        ],
    )
    def test_rejects_wrongly_shaped_report(self, tmp_path, capsys, payload, message):
        path = tmp_path / "odd.json"
        path.write_text(dumps_json(payload))
        code, out, err = run(capsys, "report", "--input", str(path))
        assert code == 1
        assert out == ""
        assert re.match(f"error: report: .*{message}", err)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"per_class_ap": {"cat": 1%s}}' % (b"0" * 400), "beyond float range"),
            (b"[" * 100_000 + b"]" * 100_000, "malformed JSON"),
            (b'{"per_class_ap": {"caf\xe9": 0.5}}', "malformed JSON"),
            # Python's json module reads NaN and Infinity, which are no metric.
            (b'{"per_class_ap": {"a": NaN}, "mean_ap": Infinity}', "finite number, got nan$"),
            (b'{"iterations": [{"iteration": 1, "purity": -Infinity}]}', "got -inf$"),
        ],
        ids=["huge-integer", "deep-nesting", "latin-1", "nan", "negative-infinity"],
    )
    def test_rejects_unparsable_report(self, tmp_path, capsys, content, message):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "report", "--input", str(path))
        assert (code, out) == (1, "")
        assert re.match(f"error: report: .*{message}", err)


class TestConfigHandling:
    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(dumps_json({"T": 0.5, "k": 2}))
        code, out, _ = run(capsys, "select", "--input", FIXTURE,
                           "--config", str(config_path))
        assert code == 0
        assert json.loads(out)["T"] == 0.5 and json.loads(out)["k"] == 2
        code, out, _ = run(capsys, "select", "--input", FIXTURE,
                           "--config", str(config_path), "--T", "0.25")
        assert code == 0
        assert json.loads(out)["T"] == 0.25 and json.loads(out)["k"] == 2

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(dumps_json({"threshold": 0.5}))
        code, _, err = run(capsys, "select", "--input", FIXTURE,
                           "--config", str(config_path))
        assert code == 1
        assert "unknown keys" in err

    def test_invalid_flag_value_fails(self, capsys):
        code, _, err = run(capsys, "select", "--input", FIXTURE, "--T", "0")
        assert code == 1
        assert err.startswith("error:")

    def test_wrongly_typed_config_value_fails(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(dumps_json({"k": 2.5}))
        code, _, err = run(capsys, "select", "--input", FIXTURE,
                           "--config", str(config_path))
        assert code == 1
        assert err == "error: config: k: expected an integer\n"

    def test_integer_config_values_match_float_flags(self, tmp_path, capsys):
        # {"T": 1} in a file and --T 1 are the same run and write the same bytes.
        config_path = tmp_path / "config.json"
        config_path.write_text(dumps_json({"T": 1, "nms_threshold": 1}))
        for command, flags in (("select", ["--T", "1"]), ("nms", ["--nms-threshold", "1"])):
            code, from_file, _ = run(capsys, command, "--input", FIXTURE,
                                     "--config", str(config_path))
            assert code == 0
            code, from_flags, _ = run(capsys, command, "--input", FIXTURE, *flags)
            assert code == 0
            assert from_file == from_flags

    def test_voc_plus_one_flag_is_a_usage_error(self, capsys):
        assert run(capsys, "select", "--input", FIXTURE, "--voc-plus-one")[0] == 2


# The run settings each command reads, and a value for each setting's flag.
COMMAND_SETTINGS = {
    "gen": {"seed"},
    "nms": {"nms_threshold"},
    "select": {"T", "k", "count_guided"},
    "oracle": {"T", "seed"},
    "refine": set(CONFIG_KEYS),
    "eval": {"corloc_variant", "ap_mode"},
    "report": set(),
}
REQUIRED_ARGS = {
    "gen": ["--images", "1"],
    "oracle": [],
    "eval": ["--detections", "d.jsonl", "--dataset", "w.jsonl"],
}
FLAG_ARGS = {
    "T": (["--T", "0.3"], 0.3),
    "k": (["--k", "2"], 2),
    "nms_threshold": (["--nms-threshold", "0.4"], 0.4),
    "iterations": (["--iterations", "2"], 2),
    "seed": (["--seed", "5"], 5),
    "count_guided": (["--no-count-guided"], False),
    "corloc_variant": (["--corloc-variant", "center"], "center"),
    "ap_mode": (["--ap-mode", "area"], "area"),
}
ALL_KEYS = {"T": 0.2, "k": 2, "nms_threshold": 0.4, "iterations": 2, "seed": 5,
            "count_guided": False, "corloc_variant": "center", "ap_mode": "area"}


class TestCommandSurface:
    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_setting_flag_parses_only_where_read(self, capsys, command, key):
        flags, value = FLAG_ARGS[key]
        argv = [command, *REQUIRED_ARGS.get(command, ["--input", "w.jsonl"]), *flags]
        if key in COMMAND_SETTINGS[command]:
            assert getattr(build_parser().parse_args(argv), key) == value
        else:
            code, _, err = run(capsys, *argv)
            assert code == 2
            # The usage shown is the command's, which lists the flags it takes.
            assert err.startswith(f"usage: crskit {command} ")
            assert f"crskit {command}: error: unrecognized arguments: {flags[0]}" in err

    def test_report_takes_no_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(dumps_json({}))
        code, _, err = run(capsys, "report", "--input", "r.json", "--config", str(config_path))
        assert code == 2
        assert "unrecognized arguments: --config" in err

    def test_one_config_file_serves_every_command(self, tmp_path, capsys):
        config = tmp_path / "all.json"
        config.write_text(dumps_json(ALL_KEYS))
        world, dets = str(tmp_path / "w.jsonl"), str(tmp_path / "d.jsonl")
        for argv in [
            ["gen", "--images", "5", "--classes", "2", "--dim", "8", "--out", world],
            ["nms", "--input", world],
            ["select", "--input", world],
            ["oracle", "--instances", "5"],
            ["refine", "--input", world, "--detections-out", dets],
            ["eval", "--detections", dets, "--dataset", world],
        ]:
            assert run(capsys, *argv, "--config", str(config))[0] == 0, argv

    def test_a_file_sets_only_the_commands_own_settings(self, tmp_path, capsys):
        config = tmp_path / "all.json"
        config.write_text(dumps_json(ALL_KEYS))
        gen = ["gen", "--images", "5", "--classes", "2"]
        assert run(capsys, *gen, "--config", str(config)) == run(capsys, *gen, "--seed", "5")
        nms = ["nms", "--input", FIXTURE]
        from_file = run(capsys, *nms, "--config", str(config))
        assert from_file == run(capsys, *nms, "--nms-threshold", "0.4")
        assert from_file[0] == 0 and json.loads(from_file[1])["nms_threshold"] == 0.4

    @pytest.mark.parametrize("command", sorted(set(COMMAND_SETTINGS) - {"gen", "report"}))
    def test_report_records_the_commands_settings(self, tmp_path, capsys, command):
        # gen writes a dataset, not a report, and report reads no setting.
        config = tmp_path / "all.json"
        config.write_text(dumps_json(ALL_KEYS))
        world, dets = str(tmp_path / "w.jsonl"), str(tmp_path / "d.jsonl")
        assert run(capsys, "gen", "--images", "5", "--classes", "2", "--dim", "8",
                   "--out", world)[0] == 0
        refine = ["refine", "--input", world, "--detections-out", dets]
        assert run(capsys, *refine)[0] == 0
        argv = {
            "nms": ["nms", "--input", world],
            "select": ["select", "--input", world],
            "oracle": ["oracle", "--instances", "5"],
            "refine": refine,
            "eval": ["eval", "--detections", dets, "--dataset", world, "--by-count"],
        }[command]
        code, out, _ = run(capsys, *argv, "--config", str(config))
        assert code == 0
        payload = json.loads(out)
        if command == "refine":
            recorded = {k: v for k, v in payload["config"].items() if k != "feature_dim"}
        else:
            recorded = {k: v for k, v in payload.items() if k in CONFIG_KEYS}
        assert recorded == {k: ALL_KEYS[k] for k in COMMAND_SETTINGS[command]}

    @pytest.mark.parametrize(
        "config",
        [RefinementConfig(), config_from_dict(ALL_KEYS),
         RefinementConfig(corloc_variant="center", ap_mode="area")],
        ids=["default", "all-keys", "center-area"],
    )
    def test_refinement_report_round_trips_its_config(self, config):
        world = generate_world(10, 2, feature_dim=8, seed=3)
        block = refinement_report_to_dict(run_adr(world, config))["config"]
        assert block.pop("feature_dim") == 8
        assert config_from_dict(block) == config

    def test_every_key_of_a_file_is_checked(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(dumps_json({"k": 99}))
        code, _, err = run(capsys, "nms", "--input", FIXTURE, "--config", str(config))
        assert (code, err) == (1, "error: config: k must be at most 15, got 99\n")


# sha256 of every file the command chain below writes, recorded before the
# input-rule refactor of selection, refinement, dataio and world. Each
# command runs once with defaults and, except gen, once with ALL_KEYS.
FROZEN_OUTPUTS = {
    "w.jsonl": "186347770f9b390ae9680fb34d44d2336d71248b0e2055dd216b7cdd74b4f767",
    "n.json": "89210ad77ceab7f6b44ace023567dbcd572b3b88cb71bab0b250d704cd90cfa7",
    "s.json": "a5115d28dc75297de0a03148804abc33f986e466741186aa22bbfe91d2beee6c",
    "r.json": "5c05a90cf5b1e9e208dcf6f3c1569ab13a5ec380da62aee7ed9c75c570356237",
    "d.jsonl": "a3d95a22369f089f3640e2df4e6b06c7598107a3cb909197acb6a22ea88ad8c4",
    "e.json": "f41cf8f5eafbe345158b3a272eaa2a5b12a9281fb65c7c7b3242249a242a9c6c",
    "o.json": "8a9cdc5633bddc68a37b2a8812ad757b0ae8be7ec667005bebc0fba5d6628799",
    "nc.json": "4e302d686ceef26e9aabc417510e7a96533b4eb4b9c0c88f479937788c1c242c",
    "sc.json": "d98c6cf0173b81cf1047427691886015746c0b5d420c73c7893a849627e64641",
    "rc.json": "c52b570e8551c0b7c58fb008dd92a9fb6610d2ac9a0de6523cab84d440974bc7",
    "dc.jsonl": "f74393c1fe51fca32d7bbeb3d7d4be69dc863e0b35460c52514ef86936e24ec6",
    "ec.json": "770ad9cbbc9c1ddec8b3bccb812233b8103337ef77f79c8e19bafa84e3124c75",
    "oc.json": "bfaa67df4906ae935f8d0088c9adbc8a4028858fd40d0f38eaac7217ba766752",
}


def test_every_command_output_is_frozen(tmp_path, capsys):
    config = tmp_path / "all.json"
    config.write_text(dumps_json(ALL_KEYS))
    path = {name: str(tmp_path / name) for name in FROZEN_OUTPUTS}
    assert run(capsys, "gen", "--images", "60", "--seed", "5", "--out", path["w.jsonl"])[0] == 0
    for suffix, extra in (("", []), ("c", ["--config", str(config)])):
        def out(stem, ext="json"):
            return path[f"{stem}{suffix}.{ext}"]

        for argv in [
            ["nms", "--input", path["w.jsonl"], "--out", out("n")],
            ["select", "--input", path["w.jsonl"], "--out", out("s")],
            ["refine", "--input", path["w.jsonl"], "--out", out("r"),
             "--detections-out", out("d", "jsonl")],
            ["eval", "--detections", out("d", "jsonl"), "--dataset", path["w.jsonl"],
             "--by-count", "--out", out("e")],
            ["oracle", "--instances", "50", "--out", out("o")],
        ]:
            assert run(capsys, *argv, *extra)[0] == 0, argv
    actual = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FROZEN_OUTPUTS
    }
    changed = sorted(name for name in FROZEN_OUTPUTS if actual[name] != FROZEN_OUTPUTS[name])
    # NEP 19 lets Generator streams change between numpy releases.
    assert not changed, f"{changed} bytes changed under numpy {np.__version__}"


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        assert run(capsys, "bogus")[0] == 2
        assert run(capsys, "gen")[0] == 2  # missing required --images

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code, _, err = run(capsys, "select", "--input", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["nms", "select", "refine"])
    def test_unparsable_dataset_exits_one(self, tmp_path, capsys, command):
        line = json.loads(MERGED_FIXTURE.read_text().splitlines()[0])
        line["proposals"][0]["box"][2] = 10**400
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps(line) + "\n")
        code, _, err = run(capsys, command, "--input", str(path))
        assert code == 1
        assert err.startswith("error: line 1: proposals[0].box[2]: expected a finite number")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"dataset"}, "error: --dataset: line 1: malformed JSON: "),
            ({"detections"}, "error: --detections: line 2: box: degenerate box "),
            # The dataset is read first, so its error is the one reported.
            ({"dataset", "detections"}, "error: --dataset: line 1: malformed JSON: "),
        ],
    )
    def test_eval_data_errors_name_their_file(self, small_dataset, tmp_path, capsys,
                                              bad, message):
        detection = {"image_id": "img_0000", "class_id": "class_0",
                     "box": [0.0, 0.0, 10.0, 10.0], "confidence": 0.5}
        dets = [detection]
        if "detections" in bad:
            dets.append({**detection, "box": [10.0, 0.0, 0.0, 10.0]})
        dets_path = tmp_path / "dets.jsonl"
        dets_path.write_text("".join(json.dumps(d) + "\n" for d in dets))
        dataset = small_dataset
        if "dataset" in bad:
            dataset = tmp_path / "bad.jsonl"
            dataset.write_text("{not json\n")
        code, out, err = run(capsys, "eval", "--detections", str(dets_path),
                             "--dataset", str(dataset))
        assert (code, out) == (1, "")
        assert err.startswith(message), err
        assert err.count("error:") == 1

    @pytest.mark.parametrize("command", ["nms", "select"])
    def test_overflowing_box_exits_one_without_warnings(self, tmp_path, capsys, command):
        # The box's width is inf, so its overlaps would be NaN.
        line = json.loads(MERGED_FIXTURE.read_text().splitlines()[0])
        line["proposals"][0]["box"] = [-1e308, 0, 1e308, 10]
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, command, "--input", str(path))
        assert code == 1
        assert err.startswith("error: line 1: proposals[0].box: box ")
        assert "non-finite extent" in err
        assert not caught

    def test_feature_too_large_to_score_exits_one_without_warnings(self, tmp_path, capsys):
        # Every value is finite, so the dataset loads, but the squared norm overflows.
        path = tmp_path / "world.jsonl"
        assert run(capsys, "gen", "--images", "20", "--classes", "2", "--out", str(path))[0] == 0
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["proposals"][0]["feature"] = [v * 1e200 for v in record["proposals"][0]["feature"]]
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "refine", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == "error: img_0000: proposal 0 has a feature too large to score\n"
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not caught

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["refine", "--iterations", "9" * 400], "iterations must be in [1, 100], got 999"),
            (["select", "--k", "16"], "k must be at most 15, got 16"),
            (["gen", "--images", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["select", "--k", "9" * 400], "k must be at most 15, got 9999999999... (400 digits)"),
        ],
    )
    def test_unbounded_integer_flag_exits_one(self, capsys, flags, message):
        if flags[0] != "gen":
            flags = [*flags, "--input", FIXTURE]
        code, _, err = run(capsys, *flags)
        assert code == 1
        assert err.startswith(f"error: config: {message}")
        # A value of any length is echoed on a short line.
        assert len(err) < 100


def test_log_env_enables_progress_messages(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRSKIT_LOG", "INFO")
    code = cli_dispatch(["gen", "--images", "2", "--classes", "1",
                         "--out", str(tmp_path / "w.jsonl")])
    assert code == 0
    assert "generated 2 images" in capsys.readouterr().err
    # the handler is removed again after the invocation
    assert not logging.getLogger("crskit").handlers


@pytest.mark.parametrize("name", ["basic_format", "nonsense", "warn"])
def test_log_env_takes_only_level_names(tmp_path, monkeypatch, capsys, name):
    # BASIC_FORMAT is a logging attribute but no level: like an unknown name,
    # it falls back to WARNING instead of failing the command.
    monkeypatch.setenv("CRSKIT_LOG", name)
    code = cli_dispatch(["gen", "--images", "2", "--classes", "1",
                         "--out", str(tmp_path / "w.jsonl")])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert not logging.getLogger("crskit").handlers
    assert logging.getLogger("crskit").level == logging.NOTSET
