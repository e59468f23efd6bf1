"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
* input generation is deterministic: the same seed gives the same digest of
  the generated inputs and a different seed a different one;
* a short traced run of every workload passes its correctness check, which
  includes byte-identical output of traced and untraced passes;
* every per-layer metric records calls on the workloads that drive it
  (tracer.LAYERS), and every workload emits exactly the metric names that
  BENCHMARK.json lists, traced and untraced.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _digest(name: str, seed: int, workdir: Path) -> str:
    workdir.mkdir()
    return workloads.digest(workloads.build(name, seed, workdir, Path.cwd()), workdir)


def _run(name: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
            "--seconds", "0.1", "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(argv)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text("utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    workroot = Path(".perfbench_work") / f"selftest-{os.getpid()}"
    workroot.mkdir(parents=True)
    try:
        for name in workloads.WORKLOADS:
            first, again, other = (
                _digest(name, seed, workroot / f"{name}-{i}") for i, seed in enumerate((0, 0, 1)))
            assert first == again, f"{name}: seed 0 generated different inputs twice"
            assert first != other, f"{name}: seeds 0 and 1 generated the same inputs"
            print(f"ok   {name}: inputs deterministic per seed ({first[:12]})")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    for name in workloads.WORKLOADS:
        plain = _run(name, 0)
        assert plain["correct"] and plain["failed"] == 0, f"{name}: untraced run failed"
        assert set(plain["metrics"]) == end_to_end, f"{name}: end-to-end metric names differ"
        traced = _run(name, 1)
        assert traced["correct"] and traced["failed"] == 0, (
            f"{name}: traced run failed or its output differs from the untraced pass")
        assert set(traced["metrics"]) == per_layer, f"{name}: per-layer metric names differ"
        assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
        for layer, *_, driving in tracer.LAYERS:
            if name in driving:
                calls = traced["metrics"][f"{layer}.calls"]["value"]
                assert calls > 0, f"{name}: layer {layer} recorded no calls"
        print(f"ok   {name}: correct traced and untraced, driven layers all recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
