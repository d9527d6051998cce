#!/usr/bin/env python3
"""Self-test of the benchmark against BENCHMARK.json.

    python3 perfbench/selftest.py [--seed N]

1. Runs every workload end to end for a couple of seconds, printing each
   end-to-end metric with its unit plus fail_ratio, and asserts that every
   op passed its oracle and every metric named in BENCHMARK.json is there.
2. Runs the traced run twice with one seed and asserts that every
   per-layer metric is present and measured, that every count repeats
   exactly, and that self times cover at least 95% of each workload's
   traced wall time.
3. Runs the benchmark from a directory holding only BENCHMARK.json and
   the benchmark's own files, and asserts that it fails without a result.
"""

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_COVERAGE = 0.95


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def check_end_to_end(seed: int) -> None:
    names = {m["name"] for m in SPEC["end_to_end"]}
    for wl in SPEC["workloads"]:
        done = bench("--workload", wl["name"], "--seed", str(seed), "--seconds", "2", "--trace", "0")
        res = result_of(done)
        print(f"--- {wl['name']}")
        print("\n".join(done.stdout.splitlines()[:-1]))
        assert res["correct"] and res["failed"] == 0, res
        assert set(res["metrics"]) == names, set(res["metrics"]) ^ names
        assert all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"]


def check_traced(seed: int) -> None:
    names = {m["name"] for m in SPEC["per_layer"]}
    args = ("--workload", SPEC["workloads"][0]["name"], "--seed", str(seed),
            "--seconds", "1", "--trace", "1")
    first, second = (result_of(bench(*args)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0, res
        assert set(res["metrics"]) == names, set(res["metrics"]) ^ names
        missing = [k for k, m in res["metrics"].items() if m["value"] == -1]
        assert not missing, f"missing layers: {missing}"
    counts = [k for k, m in first["metrics"].items() if m["unit"] == "count"]
    differ = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
    assert not differ, f"counts differ between two runs of seed {seed}: {differ}"
    for key, m in first["metrics"].items():
        if key.endswith(".trace.coverage"):
            assert m["value"] >= MIN_COVERAGE, (key, m)
    print(f"traced run: {len(names)} per-layer metrics, {len(counts)} counts repeat exactly")


def check_bare_directory(seed: int) -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", str(seed),
                     "--seconds", "1", "--trace", "0", cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), done
        print(f"bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # a benchmark run may still use it
            bare.parent.rmdir()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    check_end_to_end(seed)
    check_traced(seed)
    check_bare_directory(seed)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
