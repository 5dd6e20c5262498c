"""In-memory span tracer that wraps crskit's module-level functions.

The pipeline looks its callees up as module globals at call time
(``crskit.refinement.nms``, ``crskit.selection.iou``, ``crskit.cli.dataio``
attributes, ...). Installing the tracer rebinds every module-level name in
the ``crskit`` package that refers to a traced function, so every call site
goes through a wrapper; uninstalling puts each original object back and
checks that no wrapper is left anywhere. Nothing in ``src/`` is edited.

Spans are rows ``[name, start, end, parent]`` kept in a list, with ``parent``
the row index of the enclosing span (-1 at the top). A span's self time is its
duration minus the durations of its direct children; in single-threaded code
children nest inside their parent and never overlap, so that is exactly the
part of the interval the children cover.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

WRAPPED_MARK = "__perfbench_original__"

# Per-call hooks that turn a traced call into counters measured at the layer
# boundary: hook(tracer, args, result).


def _nms_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["selection.nms.regions_in"] += len(args[0])
    tracer.counts["selection.nms.regions_kept"] += len(result)


def _greedy_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["selection.crs_greedy.complete"] += int(result.complete)
    tracer.greedy_totals[id(args[0])] = result.total_score


def _exact_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    # Compared with the greedy call the same pass made on the same problem
    # object, so measuring the ratio adds no solver work.
    greedy = tracer.greedy_totals.get(id(args[0]))
    if greedy is not None and abs(greedy - result.total_score) <= 1e-9:
        tracer.counts["selection.crs_exact.greedy_match"] += 1


def _world_hook(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["world.generate_world.proposals"] += sum(len(r.proposals) for r in result)


def _bytes_hook(name: str) -> Callable[["Tracer", tuple, Any], None]:
    def hook(tracer: "Tracer", args: tuple, result: Any) -> None:
        tracer.counts[f"{name}.bytes"] += os.path.getsize(args[0])

    return hook


# (defining module, attribute, layer name, hook). A hook of None with a layer
# name ending in ".calls" counts calls without a span: the geometry kernels
# run about a million times per refinement and a span each would swamp them.
TRACED: tuple[tuple[str, str, str, Any], ...] = (
    ("crskit.geometry", "iou", "geometry.iou.calls", None),
    ("crskit.geometry", "asymmetric_overlap", "geometry.asymmetric_overlap.calls", None),
    ("crskit.refinement", "score_proposals", "refinement.score_proposals.calls", None),
    ("crskit.selection", "nms", "selection.nms", _nms_hook),
    ("crskit.selection", "crs_greedy", "selection.crs_greedy", _greedy_hook),
    ("crskit.selection", "crs_exact", "selection.crs_exact", _exact_hook),
    ("crskit.refinement", "score_table", "refinement.score_table", None),
    ("crskit.refinement", "select_pseudo_gt", "refinement.select_pseudo_gt", None),
    ("crskit.refinement", "retrain_scorer", "refinement.retrain_scorer", None),
    ("crskit.refinement", "detections_from_scores", "refinement.detections_from_scores", None),
    ("crskit.refinement", "selection_purity", "refinement.selection_purity", None),
    ("crskit.evaluation", "build_report", "evaluation.build_report", None),
    ("crskit.evaluation", "match_detections", "evaluation.match_detections", None),
    ("crskit.evaluation", "slice_by_count", "evaluation.slice_by_count", None),
    ("crskit.dataio", "load_dataset", "dataio.load_dataset", _bytes_hook("dataio.load_dataset")),
    ("crskit.dataio", "load_detections", "dataio.load_detections", _bytes_hook("dataio.load_detections")),
    ("crskit.dataio", "save_detections", "dataio.save_detections", None),
    ("crskit.dataio", "dumps_json", "dataio.dumps_json", None),
    ("crskit.dataio", "record_to_dict", "dataio.record_to_dict", None),
    ("crskit.dataio", "dumps_jsonl_line", "dataio.dumps_jsonl_line", None),
    ("crskit.world", "generate_world", "world.generate_world", _world_hook),
    ("crskit.cli", "cmd_gen", "cli.gen", None),
    ("crskit.cli", "cmd_nms", "cli.nms", None),
    ("crskit.cli", "cmd_select", "cli.select", None),
    ("crskit.cli", "cmd_eval", "cli.eval", None),
)


def _crskit_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "crskit" or name.startswith("crskit."))
    ]


def wrappers_left() -> list[str]:
    """Names of crskit module attributes that are still tracer wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in _crskit_modules()
        for attr, value in vars(module).items()
        if hasattr(value, WRAPPED_MARK)
    ]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.greedy_totals: dict[int, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn: Callable[..., Any], hook: Any) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _crskit_modules()
        for module_name, attr, layer, hook in TRACED:
            original = getattr(sys.modules[module_name], attr)
            if hasattr(original, WRAPPED_MARK):
                raise RuntimeError(f"{module_name}.{attr} is already wrapped")
            if layer.endswith(".calls") and hook is None:
                wrapper = self._counted(layer, original)
            else:
                wrapper = self._spanned(layer, original, hook)
            setattr(wrapper, WRAPPED_MARK, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute and check that none stays wrapped."""
        patched, self._patched = self._patched, []
        for module, name, original in reversed(patched):
            setattr(module, name, original)
        left = wrappers_left()
        if left:
            raise RuntimeError(f"tracer left wrapped functions: {left}")

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def span_totals(spans: list[list[Any]]) -> tuple[Counter[str], dict[str, float], dict[str, float]]:
    """Per-name call counts, inclusive seconds and self seconds."""
    calls: Counter[str] = Counter()
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for name, start, end, parent in spans:
        duration = end - start
        calls[name] += 1
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_time[parent_name] = self_time.get(parent_name, 0.0) - duration
    return calls, total, self_time


def child_seconds(spans: list[list[Any]], names: set[str], parent_name: str) -> float:
    """Seconds spent in spans named in ``names`` directly under ``parent_name``."""
    return sum(
        end - start
        for name, start, end, parent in spans
        if name in names and parent >= 0 and spans[parent][0] == parent_name
    )
