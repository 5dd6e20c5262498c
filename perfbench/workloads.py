"""The benchmark's workloads: set-up, one timed pass, and correctness gates.

Each workload builds its inputs from the workload seed alone and calls the
pipeline through module attributes (``refinement.run_adr``,
``selection.crs_exact``, ``cli.cli_dispatch``) so that the tracer's wrappers
see every call. Why each workload exists is written in README.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from crskit import cli, dataio, refinement, selection, world
from crskit.geometry import Box

SCORE_TOLERANCE = 1e-9
# Final purity of count-guided selection must beat top-1 by more than this;
# the paper's claim, observed at 0.79 or more on the seeds tried.
MIN_PURITY_GAP = 0.10
# Criterion 1's problem shape: thresholds 0.1, 0.2, ..., 1.0.
THRESHOLD_GRID = tuple(round(0.1 * j, 1) for j in range(1, 11))


@dataclass(frozen=True)
class Sizes:
    images: int = 1000
    classes: int = 4
    iterations: int = 3
    random_problems: int = 500


@dataclass
class PassResult:
    """One pass: operations attempted and failed, timing samples, outcome.

    ``outcome`` is what the pass produced, compared across passes by the
    gates; ``samples`` holds the workload's own timings in raw seconds, and
    ``scale`` the host-speed factor the harness measured around the pass.
    """

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    outcome: Any = None
    seconds: float = 0.0
    scale: float = 1.0


class Gates:
    """Named pass/fail checks; any failure withholds the result."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def _operation_failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def check_golden(path: Path, gates: Gates) -> None:
    """Re-run the canonical trajectories and compare them to the frozen file."""
    try:
        golden = json.loads(Path(path).read_text(encoding="utf-8"))
        canonical = world.generate_world(
            golden["images"], golden["classes"], seed=golden["seed"]
        )
        frozen_modes = golden["modes"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        gates.record("golden", False, f"cannot read {path}: {exc}")
        return
    for mode in ("count_guided", "baseline"):
        config = refinement.RefinementConfig(
            count_guided=(mode == "count_guided"), seed=golden["seed"]
        )
        report = refinement.run_adr(canonical, config)
        frozen = frozen_modes.get(mode, [])
        mismatches = [
            f"iteration {entry.iteration} {key}: {actual!r} != {expected.get(key)!r}"
            for entry, expected in zip(report.iterations, frozen)
            for key, actual in (
                ("mean_ap", entry.report.mean_ap),
                ("mean_corloc", entry.report.mean_corloc),
                ("purity", entry.report.purity),
            )
            if not _close(actual, expected.get(key))
        ]
        if len(report.iterations) != len(frozen):
            mismatches.append(f"{len(report.iterations)} iterations, golden has {len(frozen)}")
        gates.record(f"golden.{mode}", not mismatches, "; ".join(mismatches[:3]))


def _close(actual: float | None, expected: float | None) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return abs(actual - expected) <= SCORE_TOLERANCE


def _same_outcomes(name: str, outcomes: list[Any], gates: Gates) -> None:
    differing = sum(1 for o in outcomes[1:] if o != outcomes[0])
    gates.record(
        f"{name}.passes_agree",
        differing == 0,
        f"{differing} of {len(outcomes)} passes differ from the first",
    )


class Refine:
    """``run_adr`` in process, count-guided then top-1, on one world."""

    name = "refine"
    MODES = (("adr_count_guided_s", True), ("adr_top1_s", False))

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict[str, Any]:
        images = world.generate_world(sizes.images, sizes.classes, seed=seed)
        return {"world": images, "seed": seed, "iterations": sizes.iterations}

    def describe(self, state: dict[str, Any]) -> dict[str, Any]:
        return {
            "images": len(state["world"]),
            "proposals": sum(len(r.proposals) for r in state["world"]),
            "iterations": state["iterations"],
        }

    def run_pass(self, state: dict[str, Any]) -> PassResult:
        result = PassResult()
        trajectories = {}
        for metric, count_guided in self.MODES:
            config = refinement.RefinementConfig(
                iterations=state["iterations"],
                count_guided=count_guided,
                seed=state["seed"],
            )
            result.attempted += 1
            start = perf_counter()
            try:
                report = refinement.run_adr(state["world"], config)
            except Exception:
                _operation_failed(f"run_adr count_guided={count_guided}")
                result.failed += 1
                continue
            result.samples[metric] = [perf_counter() - start]
            trajectories[metric] = [
                (e.report.mean_ap, e.report.mean_corloc, e.report.purity)
                for e in report.iterations
            ]
        result.outcome = trajectories
        return result

    def check(self, state: dict[str, Any], outcomes: list[Any], gates: Gates) -> None:
        _same_outcomes(self.name, outcomes, gates)
        for index, outcome in enumerate(outcomes):
            try:
                guided = outcome["adr_count_guided_s"][-1][2]
                top1 = outcome["adr_top1_s"][-1][2]
                ok = guided - top1 > MIN_PURITY_GAP
                detail = f"final purity {guided:.4f} vs top-1 {top1:.4f}"
            except (KeyError, IndexError, TypeError):
                ok, detail = False, "no final purity"
            gates.record(f"refine.purity_gap.pass{index}", ok, detail)


class Cli:
    """``cli_dispatch`` in process: gen, nms, select, eval --by-count."""

    name = "cli"

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict[str, Any]:
        # The detections for ``eval`` come from the initial scores of the
        # same world ``gen`` writes, so they are written here, untimed.
        images = world.generate_world(sizes.images, sizes.classes, seed=seed)
        scores = refinement.score_table(images, None)
        detections = refinement.detections_from_scores(
            images, scores, refinement.RefinementConfig().nms_threshold
        )
        paths = {
            name: str(Path(workdir) / name)
            for name in ("world.jsonl", "detections.jsonl", "nms.json", "select.json", "eval.json")
        }
        dataio.save_detections(detections, paths["detections.jsonl"])
        dataset = paths["world.jsonl"]
        commands = [
            ["gen", "--images", str(sizes.images), "--classes", str(sizes.classes),
             "--seed", str(seed), "--out", dataset],
            ["nms", "--input", dataset, "--out", paths["nms.json"]],
            ["select", "--input", dataset, "--out", paths["select.json"]],
            ["eval", "--detections", paths["detections.jsonl"], "--dataset", dataset,
             "--by-count", "--out", paths["eval.json"]],
        ]
        outputs = [dataset, paths["nms.json"], paths["select.json"], paths["eval.json"]]
        return {
            "commands": commands,
            "outputs": outputs,
            "images": len(images),
            "proposals": sum(len(r.proposals) for r in images),
            "detections": len(detections),
        }

    def describe(self, state: dict[str, Any]) -> dict[str, Any]:
        return {
            key: state[key] for key in ("images", "proposals", "detections")
        } | {"commands": [argv[0] for argv in state["commands"]]}

    def run_pass(self, state: dict[str, Any]) -> PassResult:
        result = PassResult()
        for argv, output in zip(state["commands"], state["outputs"]):
            Path(output).unlink(missing_ok=True)
            result.attempted += 1
            try:
                code = cli.cli_dispatch(argv)
            except Exception:
                _operation_failed(f"crskit {argv[0]}")
                code = None
            if code != 0:
                print(f"operation failed: crskit {argv[0]} exited {code}", file=sys.stderr)
                result.failed += 1
        result.outcome = [_digest(path) for path in state["outputs"]]
        return result

    def check(self, state: dict[str, Any], outcomes: list[Any], gates: Gates) -> None:
        _same_outcomes(self.name, outcomes, gates)
        gates.record(
            "cli.outputs_written",
            all(None not in outcome for outcome in outcomes),
            "every command wrote its --out file",
        )


def _digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def random_problem(rng: np.random.Generator, index: int) -> selection.SelectionProblem:
    """A problem shaped like acceptance criterion 1's.

    The shape (2-12 regions, count 1-4, threshold 0.1-1.0) cycles through
    every combination by ``index`` instead of being drawn, so each seed gets
    the same mix of problem sizes; boxes and scores come from ``rng``. Drawn
    shapes made the exhaustive solver's work vary by 15% between seeds.
    """
    n = 2 + index % 11
    count = 1 + (index // 11) % 4
    threshold = THRESHOLD_GRID[(index // 44) % len(THRESHOLD_GRID)]
    regions = []
    for region_id in range(n):
        w = rng.uniform(5.0, 50.0)
        h = rng.uniform(5.0, 50.0)
        x = rng.uniform(0.0, 100.0 - w)
        y = rng.uniform(0.0, 100.0 - h)
        regions.append(
            selection.ScoredRegion(
                box=Box(x, y, x + w, y + h),
                score=float(rng.uniform(0.0, 1.0)),
                region_id=region_id,
            )
        )
    return selection.SelectionProblem(regions=tuple(regions), count=count, threshold=threshold)


def real_problems(images: list[world.ImageRecord]) -> list[selection.SelectionProblem]:
    """Every post-NMS problem refinement would solve on the initial scores."""
    config = refinement.RefinementConfig()
    problems = []
    for record in images:
        for name in record.positive_classes():
            regions = [
                selection.ScoredRegion(box=p.box, score=p.scores.get(name, 0.0), region_id=p.region_id)
                for p in record.proposals
            ]
            kept = selection.nms(regions, config.nms_threshold)
            problems.append(
                selection.SelectionProblem(
                    regions=tuple(kept),
                    count=min(record.counts[name], config.count_cap),
                    threshold=config.threshold,
                )
            )
    return problems


class Oracle:
    """Greedy, directional exact and symmetric exact on each problem."""

    name = "oracle"

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        randoms = [random_problem(rng, i) for i in range(sizes.random_problems)]
        images = world.generate_world(sizes.images, sizes.classes, seed=seed)
        real = real_problems(images)
        return {"problems": randoms + real, "real_from": len(randoms)}

    def describe(self, state: dict[str, Any]) -> dict[str, Any]:
        problems = state["problems"]
        return {
            "random_problems": state["real_from"],
            "real_problems": len(problems) - state["real_from"],
            "max_regions": max(len(p.regions) for p in problems),
        }

    def run_pass(self, state: dict[str, Any]) -> PassResult:
        result = PassResult()
        latencies: list[float] = []
        totals = []
        for index, problem in enumerate(state["problems"]):
            result.attempted += 1
            try:
                greedy = selection.crs_greedy(problem)
                start = perf_counter()
                directional = selection.crs_exact(problem, "directional")
                middle = perf_counter()
                symmetric = selection.crs_exact(problem, "symmetric")
                end = perf_counter()
            except Exception:
                _operation_failed(f"oracle problem {index}")
                result.failed += 1
                totals.append(None)
                continue
            latencies += [middle - start, end - middle]
            totals.append(
                (greedy.selected, greedy.total_score, directional.total_score, symmetric.total_score)
            )
        result.samples["exact_solve_s"] = latencies
        result.outcome = totals
        return result

    def check(self, state: dict[str, Any], outcomes: list[Any], gates: Gates) -> None:
        _same_outcomes(self.name, outcomes, gates)
        totals = outcomes[0]
        solved = [t for t in totals if t is not None]
        beats = sum(1 for _, g, d, _ in solved if g > d + SCORE_TOLERANCE)
        gates.record(
            "oracle.greedy_never_beats_directional",
            beats == 0 and len(solved) == len(totals),
            f"greedy beat directional exact on {beats} of {len(solved)} problems",
        )
        real = [t for t in totals[state["real_from"]:] if t is not None]
        differ = sum(1 for _, g, _, s in real if abs(g - s) > SCORE_TOLERANCE)
        gates.record(
            "oracle.greedy_equals_symmetric_on_real",
            differ == 0,
            f"greedy differs from symmetric exact on {differ} of {len(real)} real problems",
        )


WORKLOADS = {w.name: w for w in (Refine, Cli, Oracle)}
