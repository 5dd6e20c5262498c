"""Command-line interface.

Subcommands: ``gen`` (synthetic dataset), ``nms`` (suppression survivors),
``select`` (count-constrained selection from stored scores), ``oracle``
(greedy vs exact agreement), ``refine`` (alternating refinement),
``eval`` (detections against ground truth), ``report`` (render a report).

Each command takes ``--config FILE`` and the flags of the run settings it
reads (``SETTING_FLAGS``): ``gen`` the seed, ``nms`` the NMS IoU, ``select``
``T``, ``k`` and count guidance, ``oracle`` ``T`` and the seed, ``eval`` the
CorLoc variant and AP mode, ``refine`` all eight; ``report`` none, and no
``--config``. A config file may set any key, is checked whole, and each
command reads its own settings from it; the command's flags win over it. Each
report records the settings its command read.

Diagnostics go to stderr, data to ``--out`` or stdout. Exit codes: 0 on
success, 1 for validation or data errors, 2 for usage errors. Set the
``CRSKIT_LOG`` environment variable (DEBUG, INFO, ...) for progress logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import dataio
from .dataio import COUNT_UI_CAP, DatasetError
from .evaluation import AP_MODES, CORLOC_VARIANTS, build_report, slice_by_count
from .geometry import Box
from .refinement import (
    MAX_ITERATIONS,
    RefinementConfig,
    abbreviate,
    count_targets,
    detections_from_scores,
    run_adr,
    score_table,
)
from .selection import (
    DEFAULT_ENUMERATION_CAP,
    ScoredRegion,
    SelectionProblem,
    crs_exact,
    crs_greedy,
    suppress_columns,
    survivors_by_image,
    walk_classes,
    world_overlaps,
)
from .world import DEFAULT_FEATURE_DIM, generate_world

logger = logging.getLogger("crskit.cli")

# 500 instances take about a second, so this many is already a long run.
MAX_ORACLE_INSTANCES = 100_000
# gen's size caps: 10x the benchmark's 1000-image world, and PASCAL VOC's 20 classes.
MAX_GEN_IMAGES = 10_000
MAX_GEN_CLASSES = 20
MAX_GEN_DIM = 64

# Each run setting's flag, keyed by its config key (dataio.CONFIG_KEYS). A
# command takes --config and the flags of the settings it reads.
_DEFAULTS = RefinementConfig()
SETTING_FLAGS: dict[str, dict[str, Any]] = {
    "T": dict(type=float, help=f"overlap threshold in (0, 1], default {_DEFAULTS.threshold}"),
    "k": dict(type=int, help=f"count cap in [1, {COUNT_UI_CAP}], default {_DEFAULTS.count_cap}"),
    "nms_threshold": dict(type=float, help=f"NMS IoU in (0, 1], default {_DEFAULTS.nms_threshold}"),
    "iterations": dict(type=int, help=f"in [1, {MAX_ITERATIONS}], default {_DEFAULTS.iterations}"),
    "seed": dict(type=int, help=f"random seed >= 0, default {_DEFAULTS.seed}"),
    "count_guided": dict(
        action=argparse.BooleanOptionalAction, help="min(count, k) regions or the top 1; default on"
    ),
    "corloc_variant": dict(choices=CORLOC_VARIANTS, help=f"default {_DEFAULTS.corloc_variant}"),
    "ap_mode": dict(choices=AP_MODES, help=f"AP interpolation, default {_DEFAULTS.ap_mode}"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crskit", description="Count-guided region selection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, settings, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, settings=settings, parser=p)
        if settings:
            p.add_argument("--config", metavar="FILE", help="run config JSON file (any keys)")
        for key in settings:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **SETTING_FLAGS[key])
        return p

    p = command("gen", cmd_gen, ("seed",), "generate a synthetic dataset")
    p.add_argument("--images", type=int, required=True, help=f"in [1, {MAX_GEN_IMAGES}]")
    p.add_argument("--classes", type=int, default=4, help=f"in [1, {MAX_GEN_CLASSES}]")
    p.add_argument("--dim", type=int, default=DEFAULT_FEATURE_DIM, help=f"in [2, {MAX_GEN_DIM}]")
    p.add_argument("--out", metavar="FILE")

    p = command("nms", cmd_nms, ("nms_threshold",), "run suppression per image and class")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")

    p = command("select", cmd_select, ("T", "k", "count_guided"),
                "count-constrained selection from stored scores")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")

    p = command("oracle", cmd_oracle, ("T", "seed"),
                "compare greedy selection against the exact solver")
    cap = DEFAULT_ENUMERATION_CAP
    p.add_argument("--instances", type=int, default=500, help=f"in [1, {MAX_ORACLE_INSTANCES}]")
    p.add_argument("--max-regions", type=int, default=12, help=f"in [2, {cap}]")
    p.add_argument("--max-count", type=int, default=4, help=f"in [1, {cap}]")
    p.add_argument("--out", metavar="FILE")

    p = command("refine", cmd_refine, tuple(dataio.CONFIG_KEYS), "run the refinement loop")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument(
        "--detections-out",
        metavar="FILE",
        dest="detections_out",
        help="also write final-iteration detections as JSON Lines",
    )

    p = command("eval", cmd_eval, ("corloc_variant", "ap_mode"),
                "evaluate detections against a dataset")
    p.add_argument("--detections", required=True, metavar="FILE")
    p.add_argument("--dataset", required=True, metavar="FILE")
    p.add_argument("--by-count", action="store_true",
                   help="also split by ground-truth count: 1, 2, 3, 4+")
    p.add_argument("--out", metavar="FILE")

    p = command("report", cmd_report, (), "render a report file as text")
    p.add_argument("--input", required=True, metavar="FILE")
    return parser


def _resolve_config(args: argparse.Namespace) -> RefinementConfig:
    base = dataio.load_run_config(args.config) if args.config else RefinementConfig()
    # Only the command's own settings have flags.
    flags = {key: getattr(args, key) for key in args.settings}
    return dataio.config_from_dict({k: v for k, v in flags.items() if v is not None}, base)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _require_in(flag: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise DatasetError(f"{flag} must be in [{low}, {high}], got {abbreviate(value)}")


def cmd_gen(args: argparse.Namespace, config: RefinementConfig) -> int:
    _require_in("--images", args.images, 1, MAX_GEN_IMAGES)
    _require_in("--classes", args.classes, 1, MAX_GEN_CLASSES)
    _require_in("--dim", args.dim, 2, MAX_GEN_DIM)
    world = generate_world(
        args.images, args.classes, feature_dim=args.dim, seed=config.seed
    )
    dataio.save_dataset(world, args.out or sys.stdout)
    logger.info("generated %d images", len(world))
    return 0


def _write_report(args: argparse.Namespace, config: RefinementConfig, payload: dict) -> int:
    """Write ``payload`` beside the settings the command read."""
    settings = dataio.config_to_dict(config, args.settings)
    _emit(dataio.dumps_json({**settings, **payload}), args.out)
    return 0


def cmd_nms(args: argparse.Namespace, config: RefinementConfig) -> int:
    world = dataio.load_dataset(args.input)
    overlaps = world_overlaps(world, config.nms_threshold, config.threshold)
    kept = survivors_by_image(overlaps, suppress_columns(overlaps, score_table(world, None)))
    images = {
        record.image_id: {
            name: [record.proposals[i].region_id for i in kept[name][k]]
            for name in record.positive_classes()
        }
        for k, record in enumerate(world)
    }
    return _write_report(args, config, {"format_version": dataio.FORMAT_VERSION, "images": images})


def cmd_select(args: argparse.Namespace, config: RefinementConfig) -> int:
    world = dataio.load_dataset(args.input)
    overlaps = world_overlaps(world, config.nms_threshold, config.threshold)
    columns = score_table(world, None)
    # With no suppression bit set, every proposal survives, image by image in rank order.
    ranked = suppress_columns(replace(overlaps, suppress=np.zeros_like(overlaps.suppress)), columns)
    walked = walk_classes(overlaps, columns, ranked, count_targets(world, config))
    picked = survivors_by_image(overlaps, {name: rows for name, (_, rows, _, _) in walked.items()})
    images: dict[str, Any] = {record.image_id: {} for record in world}
    for name, (problems, _, complete, totals) in walked.items():
        for k, done, total in zip(problems.tolist(), complete.tolist(), totals.tolist()):
            record = world[k]
            chosen = [record.proposals[i] for i in picked[name][k]]
            images[record.image_id][name] = {
                "selected": [p.region_id for p in chosen],
                "boxes": [list(p.box.as_tuple()) for p in chosen],
                "total_score": total,
                "complete": done,
            }
    return _write_report(args, config, {"format_version": dataio.FORMAT_VERSION, "images": images})


def _random_problem(
    rng: np.random.Generator, max_regions: int, max_count: int, threshold: float
) -> SelectionProblem:
    n = int(rng.integers(2, max_regions + 1))
    regions = []
    for region_id in range(n):
        w = rng.uniform(5.0, 50.0)
        h = rng.uniform(5.0, 50.0)
        x = rng.uniform(0.0, 100.0 - w)
        y = rng.uniform(0.0, 100.0 - h)
        regions.append(
            ScoredRegion(
                box=Box(x, y, x + w, y + h),
                score=float(rng.uniform(0.0, 1.0)),
                region_id=region_id,
            )
        )
    count = int(rng.integers(1, max_count + 1))
    return SelectionProblem(regions=tuple(regions), count=count, threshold=threshold)


def cmd_oracle(args: argparse.Namespace, config: RefinementConfig) -> int:
    cap = DEFAULT_ENUMERATION_CAP
    _require_in("--instances", args.instances, 1, MAX_ORACLE_INSTANCES)
    _require_in("--max-regions", args.max_regions, 2, cap)
    # No problem has more regions than the cap, so a larger count selects the same sets.
    _require_in("--max-count", args.max_count, 1, cap)
    rng = np.random.default_rng(config.seed)
    matches = 0
    exceeds = 0
    gaps = []
    for _ in range(args.instances):
        problem = _random_problem(rng, args.max_regions, args.max_count, config.threshold)
        greedy = crs_greedy(problem)
        exact = crs_exact(problem, constraint_mode="directional")
        gap = exact.total_score - greedy.total_score
        gaps.append(gap)
        if abs(gap) <= 1e-9:
            matches += 1
        elif gap < 0:
            exceeds += 1
    return _write_report(args, config, {
        "format_version": dataio.FORMAT_VERSION,
        "instances": args.instances,
        "max_regions": args.max_regions,
        "max_count": args.max_count,
        "match_rate": matches / args.instances,
        "mean_score_gap": float(np.mean(gaps)),
        "max_score_gap": float(np.max(gaps)),
        "greedy_exceeds_exact": exceeds,
    })


def _require_features(world) -> None:
    if not any(p.feature is not None for record in world for p in record.proposals):
        raise DatasetError("refinement needs proposal features, none found in the dataset")


def cmd_refine(args: argparse.Namespace, config: RefinementConfig) -> int:
    world = dataio.load_dataset(args.input)
    if not world:
        raise DatasetError("dataset is empty")
    _require_features(world)
    report = run_adr(world, config)
    _emit(dataio.dumps_json(dataio.refinement_report_to_dict(report)), args.out)
    if args.detections_out:
        scores = score_table(world, report.scorer)
        detections = detections_from_scores(world, scores, config.nms_threshold)
        dataio.save_detections(detections, args.detections_out)
    return 0


def _load(flag: str, loader: Callable[[str], Any], path: str) -> Any:
    """Run one of ``eval``'s loaders; its data errors name the flag of the file."""
    try:
        return loader(path)
    except DatasetError as exc:
        raise DatasetError(f"{flag}: {exc}") from exc


def cmd_eval(args: argparse.Namespace, config: RefinementConfig) -> int:
    # Only the ground truth outlives the records, so the world is gone before
    # the detections are read.
    gt = {r.image_id: r.gt_boxes for r in _load("--dataset", dataio.load_dataset, args.dataset)}
    detections = _load("--detections", dataio.load_detections, args.detections)
    report = (slice_by_count if args.by_count else build_report)(
        detections, gt, corloc_variant=config.corloc_variant, ap_mode=config.ap_mode
    )
    return _write_report(args, config, dataio.eval_report_to_dict(report))


def _format_metric(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetError(f"report: expected a number or null, got {value!r}")
    # The loaders' check refuses NaN, infinities and integers beyond float range.
    return f"{dataio._number(value, None, 'report'):.4f}"


def _expect(value: Any, kind: type, path: str) -> Any:
    """Return ``value`` if it is a ``kind`` (list or dict), else fail at ``path``."""
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise DatasetError(f"report: {path}: expected {expected}")
    return value


def cmd_report(args: argparse.Namespace) -> int:
    data = dataio.load_json(args.input, "report")
    lines = []
    if isinstance(data, dict) and "iterations" in data:
        lines.append("iteration  mean_ap  mean_corloc  purity")
        for i, entry in enumerate(_expect(data["iterations"], list, "iterations")):
            entry = _expect(entry, dict, f"iterations[{i}]")
            label = entry.get("iteration", "?")
            if "iteration" in entry and (isinstance(label, bool) or not isinstance(label, int)):
                raise DatasetError(f"report: iterations[{i}].iteration: expected an integer")
            lines.append(
                f"{label:>9}"
                f"  {_format_metric(entry.get('mean_ap')):>7}"
                f"  {_format_metric(entry.get('mean_corloc')):>11}"
                f"  {_format_metric(entry.get('purity')):>6}"
            )
    elif isinstance(data, dict) and "per_class_ap" in data:
        per_class_ap = _expect(data["per_class_ap"], dict, "per_class_ap")
        per_class_corloc = _expect(data.get("per_class_corloc", {}), dict, "per_class_corloc")
        lines.append("class  ap  corloc")
        for name in sorted(per_class_ap):
            ap = per_class_ap[name]
            rate = per_class_corloc.get(name)
            lines.append(f"{name}  {_format_metric(ap)}  {_format_metric(rate)}")
        lines.append(
            f"mean  {_format_metric(data.get('mean_ap'))}"
            f"  {_format_metric(data.get('mean_corloc'))}"
        )
        for bucket, sub in sorted(_expect(data.get("buckets", {}), dict, "buckets").items()):
            sub = _expect(sub, dict, f"buckets.{bucket}")
            lines.append(
                f"count {bucket}: mean_ap={_format_metric(sub.get('mean_ap'))}"
                f" mean_corloc={_format_metric(sub.get('mean_corloc'))}"
            )
    else:
        raise DatasetError("report: unrecognized report structure")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cli_dispatch(argv: list[str]) -> int:
    """Parse and run one CLI invocation, returning the exit code."""
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the command's own usage
            args.parser.error("unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    pkg_logger = logging.getLogger("crskit")
    previous_level = pkg_logger.level
    handler = None
    level = os.environ.get("CRSKIT_LOG")
    if level:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        pkg_logger.addHandler(handler)
        # Only a level name maps to a number; BASIC_FORMAT is an attribute, not a level.
        number = logging.getLevelName(level.upper())
        pkg_logger.setLevel(number if isinstance(number, int) else logging.WARNING)
    try:
        if not args.settings:  # report reads no run setting
            return args.func(args)
        return args.func(args, _resolve_config(args))
    # DatasetError, GeometryError, CapacityError and FeatureDimensionError
    # are ValueErrors too.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if handler is not None:
            pkg_logger.removeHandler(handler)
            pkg_logger.setLevel(previous_level)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
