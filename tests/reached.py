"""Which statements of ``src/crskit`` the tier-1 tests never run.

Run from anywhere: ``python tests/reached.py``. It runs the tier-1 suite
(``tests/``) in this process under ``sys.settrace`` and counts a statement of
``src/crskit`` as reached when any of its source lines runs. Only simple
statements are counted: every compound statement (``if``, ``for``, ``def``,
...) holds one, which runs only after its header. Docstrings and annotations
without a value inside a function compile to no code and are skipped.

It prints every unreached statement and exits 1 when one of them is not on
``ALLOWED``, when an entry of ``ALLOWED`` names no unreached statement (it was
reached, or its text is gone), or when the suite itself fails. ``ALLOWED`` is kept by text: a module's file name and
the statement's source line, comments included, so a reworded statement
drops off the list instead of staying excused. Pytest does not collect this
file; it uses the standard library, pytest and hypothesis (which the suite
needs anyway) only.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Unreached on purpose. cmd_oracle counts a greedy total above the exact one,
# which would be a solver bug; dataio._box's last line follows a loop that
# always raises.
ALLOWED = {
    ("cli.py", "exceeds += 1"),
    ("dataio.py", "raise AssertionError  # unreachable"),
}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list[tuple[int, int, str]]:
    """``(first line, last line, first line's text)`` of each simple statement of ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def visit(parent: ast.AST, in_function: bool) -> None:
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, ()):
                if isinstance(node, (ast.excepthandler, ast.match_case)):
                    visit(node, in_function)
                elif hasattr(node, "body") or hasattr(node, "cases"):
                    visit(node, in_function or isinstance(node, ast.FunctionDef))
                elif not (
                    _is_docstring(node, parent)
                    or (in_function and isinstance(node, ast.AnnAssign) and node.value is None)
                    or isinstance(node, (ast.Global, ast.Nonlocal))
                ):
                    text = lines[node.lineno - 1].strip()
                    found.append((node.lineno, node.end_lineno, text))

    visit(ast.parse(source), False)
    return found


class Untimed:
    """Tracing slows every hypothesis example; the suite's time limits do not hold under it."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import HealthCheck, settings

        settings.register_profile("untimed", deadline=None, suppress_health_check=list(HealthCheck))
        settings.load_profile("untimed")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # Found without importing it, so its module-level code runs under the tracer.
    package = Path(importlib.util.find_spec("crskit").submodule_search_locations[0])
    prefix = os.path.join(str(package), "")
    ran: set[tuple[str, int]] = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Untimed])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"reached: the tier-1 suite failed (pytest exit {code})")
        return 1

    total, unreached, excused = 0, [], set()
    for path in sorted(package.glob("*.py")):
        filename = str(path)
        for first, last, text in statements(path):
            total += 1
            if any((filename, line) in ran for line in range(first, last + 1)):
                continue
            if (path.name, text) in ALLOWED:
                excused.add((path.name, text))
                print(f"allowed   {path.relative_to(ROOT)}:{first}: {text}")
            else:
                unreached.append(f"unreached {path.relative_to(ROOT)}:{first}: {text}")
    stale = sorted(ALLOWED - excused)
    for name, text in stale:
        print(f"stale allowance (reached or gone): {name}: {text}")
    for line in unreached:
        print(line)
    print(
        f"reached: {total - len(unreached) - len(excused)} of {total} statements,"
        f" {len(excused)} allowed, {len(unreached)} unreached"
    )
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
