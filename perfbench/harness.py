"""Measurement loop, metrics and environment record for one workload run.

An untraced run sets up ``SETUP_REPEATS`` times, then times whole passes
until ``seconds`` have elapsed, and reports medians of host-speed-scaled
times (see calibration.py). A traced run sets up once under the tracer, then
alternates an untraced and a traced pass for the same time; the per-layer
metrics come from the traced set-up plus the traced pass of median wall time,
and the tracing overhead is that pass's wall time minus the median untraced
pass. Traced runs report raw seconds: the calibration samples would land
inside spans. Every gate runs before anything is reported.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from calibration import Calibrator
from tracer import Tracer, child_seconds, span_totals, wrappers_left
from workloads import WORKLOADS, Gates, PassResult, Sizes, check_golden

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_canonical_adr.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# The cli gate compares output bytes across passes, so every run needs two.
MIN_PASSES = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SPAN_LAYERS = (
    "selection.nms",
    "selection.crs_greedy",
    "selection.crs_exact",
    "refinement.score_table",
    "refinement.select_pseudo_gt",
    "refinement.retrain_scorer",
    "refinement.detections_from_scores",
    "refinement.selection_purity",
    "evaluation.build_report",
    "evaluation.match_detections",
    "evaluation.slice_by_count",
)
DATAIO_LAYERS = (
    "dataio.load_dataset",
    "dataio.load_detections",
    "dataio.save_detections",
    "dataio.dumps_json",
)
CLI_COMMANDS = ("gen", "nms", "select", "eval")


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    # name -> (value, unit, sample count)
    metrics: dict[str, tuple[float, str, int]]
    extras: dict[str, tuple[float, str, int]]
    gates: list[tuple[str, bool, str]]
    environment: dict[str, Any]
    spans: dict[str, list[list[Any]]] = field(default_factory=dict)

    def posted(self) -> dict[str, Any]:
        """The result line: exactly correct, attempted, failed and metrics."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.metrics.items()
            },
        }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Sizes = Sizes(),
    golden: Path = GOLDEN,
    out_dir: Path = OUT_DIR,
) -> Result:
    """Gate, set up, measure and report one workload."""
    workload = WORKLOADS[name]()
    gates = Gates()
    gates.record("tracer.pristine_at_start", not wrappers_left(), "no wrappers before the run")
    check_golden(golden, gates)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        with _pinned_to_one_cpu():
            if trace:
                measured = _traced_run(workload, seed, seconds, sizes, workdir, gates)
            else:
                with Calibrator() as calibrator:
                    measured = _untraced_run(
                        workload, seed, seconds, sizes, workdir, gates, calibrator
                    )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, extras, passes, inputs, spans = measured
    attempted = sum(p.attempted for p in passes) + len(gates.results)
    failed = sum(p.failed for p in passes) + gates.failed
    extras["error_rate"] = (failed / attempted, "ratio", attempted)
    return Result(
        workload=name,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        extras=extras,
        gates=gates.results,
        environment=environment(seed, inputs),
        spans=spans,
    )


@contextmanager
def _pinned_to_one_cpu() -> Iterator[None]:
    # One CPU for the benchmark and its calibration child, so the reference
    # loop measures the core the passes ran on.
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
    except OSError:  # not permitted: measure unpinned rather than not at all
        allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def _untraced_run(workload, seed, seconds, sizes, workdir, gates, calibrator):
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        with calibrator.sampling() as sampled:
            state = workload.setup(seed, sizes, workdir)
        setups.append(sampled)
    passes: list[PassResult] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(_untraced_pass(workload, state, gates, calibrator))
    workload.check(state, [p.outcome for p in passes], gates)
    metrics = {
        "setup_s": (statistics.median(s.seconds * s.scale for s in setups), "s", len(setups)),
        "wall_s": (statistics.median(p.seconds * p.scale for p in passes), "s", len(passes)),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    extras = _workload_extras(passes)
    extras["setup_raw_s"] = (statistics.median(s.seconds for s in setups), "s", len(setups))
    extras["wall_raw_s"] = (statistics.median(p.seconds for p in passes), "s", len(passes))
    extras["host_scale"] = (statistics.median(p.scale for p in passes), "ratio", len(passes))
    return metrics, extras, passes, workload.describe(state), {}


def _traced_run(workload, seed, seconds, sizes, workdir, gates):
    setup_tracer = Tracer()
    with setup_tracer.installed(), setup_tracer.span("setup"):
        state = workload.setup(seed, sizes, workdir)
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, Tracer]] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(_untraced_pass(workload, state, gates, None))
        tracer = Tracer()
        gc.collect()
        with tracer.installed(), tracer.span("pass"):
            began = perf_counter()
            result = workload.run_pass(state)
            result.seconds = perf_counter() - began
        traced.append((result, tracer))
    passes = untraced + [result for result, _ in traced]
    workload.check(state, [p.outcome for p in passes], gates)
    # The traced pass of median wall time; the lower one of an even count.
    chosen, chosen_tracer = sorted(traced, key=lambda item: item[0].seconds)[(len(traced) - 1) // 2]
    untraced_wall = statistics.median(p.seconds for p in untraced)
    metrics = layer_metrics([setup_tracer, chosen_tracer])
    setup_spans = setup_tracer.spans
    metrics["trace.setup_s"] = (setup_spans[0][2] - setup_spans[0][1], "s", 1)
    metrics["trace.wall_s"] = (chosen.seconds, "s", 1)
    metrics["trace.overhead_s"] = (chosen.seconds - untraced_wall, "s", len(untraced))
    spans = {"setup": setup_spans, "pass": chosen_tracer.spans}
    return metrics, {}, passes, workload.describe(state), spans


def _untraced_pass(workload, state, gates: Gates, calibrator: Calibrator | None) -> PassResult:
    left = wrappers_left()
    if left:
        gates.record("tracer.untraced_pass_pristine", False, f"still wrapped: {left}")
    gc.collect()
    if calibrator is None:
        start = perf_counter()
        result = workload.run_pass(state)
        result.seconds = perf_counter() - start
        return result
    with calibrator.sampling() as sampled:
        result = workload.run_pass(state)
    result.seconds = sampled.seconds
    result.scale = sampled.scale
    return result


def _peak_rss_mb() -> float:
    # ru_maxrss is in kibibytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(ceil(share * len(ordered)) - 1, 0)]


def _workload_extras(passes: list[PassResult]) -> dict[str, tuple[float, str, int]]:
    """The metrics only one workload has: run_adr calls and exact solves."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, values in p.samples.items():
            samples.setdefault(key, []).extend(v * p.scale for v in values)
    extras = {}
    for key in ("adr_count_guided_s", "adr_top1_s"):
        if samples.get(key):
            extras[key] = (statistics.median(samples[key]), "s", len(samples[key]))
    latencies = samples.get("exact_solve_s")
    if latencies:
        n = len(latencies)
        extras["exact_solve_ms.p50"] = (1000.0 * _nearest_rank(latencies, 0.50), "ms", n)
        extras["exact_solve_ms.p99"] = (1000.0 * _nearest_rank(latencies, 0.99), "ms", n)
    return extras


def _ratio(part: float, whole: float) -> float:
    # A layer that made no calls reads 0.
    return part / whole if whole else 0.0


def layer_metrics(tracers: list[Tracer]) -> dict[str, tuple[float, str, int]]:
    """Per-layer counts, times and ratios summed over the given tracers."""
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    gen_write = 0.0
    for tracer in tracers:
        span_calls, span_total, span_self = span_totals(tracer.spans)
        calls.update(span_calls)
        total.update(span_total)
        self_s.update(span_self)
        counts.update(tracer.counts)
        gen_write += child_seconds(
            tracer.spans, {"dataio.record_to_dict", "dataio.dumps_jsonl_line"}, "cli.gen"
        )
    metrics: dict[str, tuple[float, str, int]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit, 1)

    put("geometry.iou.calls", counts["geometry.iou.calls"], "count")
    put("geometry.asymmetric_overlap.calls", counts["geometry.asymmetric_overlap.calls"], "count")
    for layer in SPAN_LAYERS:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", self_s[layer], "s")
    put(
        "selection.nms.kept_ratio",
        _ratio(counts["selection.nms.regions_kept"], counts["selection.nms.regions_in"]),
        "ratio",
    )
    put(
        "selection.crs_greedy.complete_ratio",
        _ratio(counts["selection.crs_greedy.complete"], calls["selection.crs_greedy"]),
        "ratio",
    )
    put(
        "selection.crs_exact.greedy_match_ratio",
        _ratio(counts["selection.crs_exact.greedy_match"], calls["selection.crs_exact"]),
        "ratio",
    )
    put("refinement.score_proposals.calls", counts["refinement.score_proposals.calls"], "count")
    for layer in DATAIO_LAYERS:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.s", total[layer], "s")
    put("dataio.gen_write.s", gen_write, "s")
    put("dataio.load_dataset.bytes", counts["dataio.load_dataset.bytes"], "B")
    put("dataio.load_detections.bytes", counts["dataio.load_detections.bytes"], "B")
    put("world.generate_world.s", total["world.generate_world"], "s")
    put("world.generate_world.proposals", counts["world.generate_world.proposals"], "count")
    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", total[f"cli.{command}"], "s")
        put(f"cli.{command}.self_s", self_s[f"cli.{command}"], "s")
    return metrics


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(seed: int, inputs: dict[str, Any]) -> dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
        "inputs": inputs,
    }


def save(result: Result, seed: int, trace: bool, out_dir: Path = OUT_DIR) -> Path:
    """Write the full record (and spans, when traced) next to the run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": result.workload,
        "environment": result.environment,
        **result.posted(),
        "samples": {name: n for name, (_, _, n) in result.metrics.items()},
        "extras": {
            name: {"value": value, "unit": unit, "n": n}
            for name, (value, unit, n) in result.extras.items()
        },
        "gates": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.gates],
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if result.spans:
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps({"columns": ["name", "start", "end", "parent"], **result.spans}),
            encoding="utf-8",
        )
    return path
