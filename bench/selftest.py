"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

Runs every workload at ``--size smoke`` and checks that:
- the untraced and traced runs print exactly the end-to-end and per-layer
  metric names of BENCHMARK.json, with its units, and pass their check;
- ``interactions.json`` covers the same workloads and metrics;
- a planted wrong output makes the run fail its check (ops_ok_share < 1);
- no benchmark file uses a name ROADMAP plans to delete, or a private name;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PLANNED_DELETIONS = {"svd_values", "fft2", "inverse_fft2", "curve_rows", "shuffle_variants", "distance_axis", "as_f32", "require_finite"}
PRIVATE_NAMES = {"_raw_block", "_forward_full", "_ConditionDraws"}


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.1", "--size", "smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))} "
           f"units {[(k, got[k], want[k]) for k in got.keys() & want.keys() if got[k] != want[k]]}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: check failed: {result}")


def used_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads((BENCH / "interactions.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(interactions["workloads"]) == sorted(workloads), "interactions.json workloads differ")
    expect(sorted(interactions["per_layer"]) == sorted(m["name"] for m in spec["per_layer"]), "interactions.json per-layer metrics differ")
    expect(sorted(interactions["end_to_end"]) == sorted(m["name"] for m in spec["end_to_end"]), "interactions.json end-to-end metrics differ")

    for path in sorted(BENCH.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        banned = used_names(path) & (PLANNED_DELETIONS | PRIVATE_NAMES)
        expect(not banned, f"{path.name} uses {sorted(banned)}")
    print("ok: no planned-deletion or private names used")

    for workload in workloads:
        check_metrics(result_of(run(workload, "--trace", "0")), spec["end_to_end"], f"{workload} --trace 0")
        check_metrics(result_of(run(workload, "--trace", "1")), spec["per_layer"], f"{workload} --trace 1")
        planted = result_of(run(workload, "--trace", "0", "--plant-wrong"))
        expect(not planted["correct"] and planted["failed"] >= 1 and planted["metrics"]["ops_ok_share"]["value"] < 1.0,
               f"{workload}: planted wrong output went unnoticed: {planted}")
        print(f"ok: {workload}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(workloads[0], "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
