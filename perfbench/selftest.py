"""Self-test of the exploration-service benchmark.

Checks that the benchmark fails when it should: a planted wrong display
and a planted failed operation must each make a run report
``correct: false`` and exit non-zero, a clean run must pass, and a run
from a directory without the program must exit non-zero without a
result.  Also checks that ``BENCHMARK.json`` names exactly the metrics
``run.py`` emits, with the same units, and the ledger's self-time
arithmetic on a hand-made span tree.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from ledger import analyze  # noqa: E402


def bench(*arguments: str, cwd: Path | None = None) -> tuple[int, dict | None]:
    """Run the benchmark from ``cwd`` (default: here) with its own copy."""
    script = (cwd / HERE.name if cwd is not None else HERE) / "run.py"
    completed = subprocess.run(
        [sys.executable, str(script), *arguments],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return completed.returncode, result


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        raise SystemExit(1)


def check_manifest(root: Path) -> None:
    manifest = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for section, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        declared = {entry["name"]: entry["unit"] for entry in manifest[section]}
        check(declared == units, f"BENCHMARK.json {section} matches run.py")
    names = {entry["name"] for entry in manifest["workloads"]}
    check(names == set(run.wl.WORKLOADS), "BENCHMARK.json workloads match")


def check_ledger() -> None:
    # request r1: root 0..10 ms > runtime.click 1..9 > session.click 2..8
    #             > selection.select_k 3..7 (evaluations 42)
    spans = [
        ["service.request", 0.000, 0.010, None, "r1", None],
        ["runtime.click", 0.001, 0.009, 0, "r1", None],
        ["session.click", 0.002, 0.008, 1, "r1", None],
        ["selection.select_k", 0.003, 0.007, 2, "r1", 42],
    ]
    metrics = analyze([spans], {"r1": 12.0}, wall_s=1.0)["metrics"]
    close = lambda a, b: abs(a - b) < 1e-9  # noqa: E731
    check(close(metrics["service.self_ms_p50"], 4.0), "ledger: service = 12 - 8 ms")
    check(close(metrics["runtime.click_self_ms_p50"], 2.0), "ledger: runtime self")
    check(close(metrics["session.click_self_ms_p50"], 2.0), "ledger: session self")
    check(close(metrics["selection.select_ms_p50"], 4.0), "ledger: select_k span")
    check(metrics["selection.evaluations"] == 42, "ledger: evaluations counted")
    check(close(metrics["ledger.unattributed_share"], 0.0), "ledger: fully covered")


def main() -> int:
    root = Path.cwd()
    check_manifest(root)
    check_ledger()
    short = ("--seed", "7", "--seconds", "2", "--trace", "1")
    code, result = bench("--workload", "herd-backtrack", *short)
    check(code == 0 and result and result["correct"], "clean herd-backtrack run passes")
    check(
        set(result["metrics"]) == set(run.PER_LAYER_UNITS),
        "traced run reports every per-layer metric",
    )
    for workload, plant in (
        ("herd-backtrack", "wrong-display"),
        ("mutate-under-read", "wrong-display"),
        ("herd-backtrack", "failed-op"),
    ):
        code, result = bench("--workload", workload, *short, "--plant", plant)
        check(
            code != 0 and result is not None and not result["correct"],
            f"{workload} with a planted {plant} fails",
        )
        if plant == "failed-op":
            check(result["failed"] >= 1, "the planted failed op is counted")
    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", "herd-backtrack", *short, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None, "without the program: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
