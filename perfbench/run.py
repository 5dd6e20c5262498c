"""Run the crskit benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 20 --trace 0

Runs from any directory; it benchmarks the ``src/`` tree of the checkout it
lives in. Human-readable lines come first; the last line of standard output is
one JSON object with exactly the keys ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). When a gate fails, nothing is posted and the exit code is 1.
The full record, with the environment and, when traced, the spans, is written
under ``.perfbench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("refine", "cli", "oracle")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _format(value: float) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def _print_summary(result) -> None:
    env = result.environment
    print(f"== {result.workload}  seed={env['seed']}  inputs={json.dumps(env['inputs'])}")
    print(f"   env: {json.dumps({k: v for k, v in env.items() if k not in ('seed', 'inputs')})}")
    rows = list(result.metrics.items()) + list(result.extras.items())
    for name, (value, unit, n) in rows if result.correct else ():
        print(f"   {name:<42} {_format(value):>14} {unit:<6} n={n}")
    for name, ok, detail in result.gates:
        print(f"   gate {name:<44} {'ok' if ok else 'FAILED'}  {detail}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "crskit" / "__init__.py").is_file():
        print(f"error: no crskit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [
        harness.run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    ]
    code = post(results)
    if code == 0:
        for result in results:
            harness.save(result, args.seed, bool(args.trace))
    return code


def post(results: list) -> int:
    """Print the summaries and, only if every gate passed, the result line."""
    for result in results:
        _print_summary(result)
    refused = [r for r in results if not r.correct]
    for r in refused:
        failing = [name for name, ok, _ in r.gates if not ok]
        print(
            f"error: {r.workload}: {r.failed} of {r.attempted} operations failed"
            f" (gates: {', '.join(failing) or 'none'}); no result posted",
            file=sys.stderr,
        )
    if refused:
        return 1
    if len(results) == 1:
        posted = results[0].posted()
    else:
        posted = {
            "correct": True,
            "attempted": sum(r.attempted for r in results),
            "failed": 0,
            "metrics": {
                f"{r.workload}.{name}": entry
                for r in results
                for name, entry in r.posted()["metrics"].items()
            },
        }
    print(json.dumps(posted), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
