"""The public shape of crskit: every name a module lists in ``__all__`` exists
in that module, and the per-region value types keep no instance ``__dict__``."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crskit
from crskit.evaluation import ClassTruth, Detection
from crskit.geometry import Box
from crskit.selection import ScoredRegion, SelectionProblem, SelectionResult
from crskit.world import Proposal

MODULES = sorted(info.name for info in pkgutil.iter_modules(crskit.__path__, "crskit."))


def test_library_modules_are_found():
    assert {"crskit.geometry", "crskit.selection", "crskit.dataio"} <= set(MODULES)


def test_numpy_is_the_only_runtime_dependency():
    # Every absolute import of the library is the standard library, numpy or crskit.
    foreign = []
    for path in sorted(Path(crskit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"numpy", "crskit"}
            ]
    assert not foreign


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads, bar lines marked ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_every_import_is_used():
    # The package's __init__ imports only to re-export.
    paths = sorted(Path(crskit.__file__).parent.glob("*.py"))
    assert not [line for p in paths if p.name != "__init__.py" for line in unused_imports(p)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


BOX = Box(0, 0, 4, 2)
# One instance of each type a world or a selection holds per region, or a run
# per image; a run keeps hundreds of thousands of them, and slots are what
# keep them small.
SLOTTED = [
    BOX,
    ScoredRegion(BOX, 0.5, 0),
    SelectionProblem((ScoredRegion(BOX, 0.5, 0),), 1),
    SelectionResult((0,), 0.5, True),
    Proposal(0, BOX, {"cat": 0.5}),
    Detection("img", "cat", BOX, 0.5),
    ClassTruth(
        hit=np.ones(1, dtype=bool),
        candidates=np.ones(1, dtype=int),
        matches={0: [0]},
        best=np.zeros(1, dtype=int),
    ),
]


@pytest.mark.parametrize("value", SLOTTED, ids=lambda value: type(value).__name__)
def test_value_types_are_slotted(value):
    assert "__slots__" in vars(type(value))
    assert not hasattr(value, "__dict__")


def test_replace_works_on_slotted_types():
    assert replace(BOX, x2=8) == Box(0, 0, 8, 2)
    proposal = replace(Proposal(3, BOX, {"cat": 0.5}), scores={"cat": 0.25})
    assert (proposal.region_id, proposal.box, proposal.scores) == (3, BOX, {"cat": 0.25})
    assert replace(Detection("img", "cat", BOX, 0.5), class_id="") == Detection("img", "", BOX, 0.5)
