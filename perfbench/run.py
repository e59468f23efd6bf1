"""Benchmark of the linksig command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the package under ``src/``.
Workloads (see workloads.py for why each exists): scan_grid, exact_forms,
query_mix.  Inputs are generated from ``--seed`` into ``.perfbench_work/``,
which is removed again at the end.  A fresh child process (child.py) runs
the workload's commands through ``linksig.cli.main`` in passes for ``S``
seconds, one command at a time, with BLAS pinned to one thread.  Every
output is checked against an independent reference (reference.py).

``--trace 0`` reports the end-to-end metrics:

    setup_s        median over SETUP_STARTS fresh interpreters of the time
                   from process start until ``import linksig`` and the first
                   ``catalog.self_check()`` are done; half of them start
                   before the workload and half after it, each next to a
                   "broad" speed calibration in this process
    wall_s         time of one pass over the workload's commands, as the sum
                   over its commands of their group's median time
    samples_per_s  torus points evaluated (scan rows, sig and twobridge
                   points) per pass, over wall_s
    cmds_per_s     commands per pass, over wall_s
    cmd_p50_ms     median command latency
    cmd_tail_ms    command latency at the highest percentile of TAIL that
                   still has at least 10 commands beyond it, in windows of
                   whole passes, median over the windows (percentile, window
                   and count printed); not rescaled above the median
    peak_rss_mb    the child's ru_maxrss

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics per traced pass (tracer.py), plus ``trace.overhead_ratio``, the
median traced pass time over the median untraced one.  Failed commands
(non-zero exit, output that differs between passes or from the reference)
are counted in ``failed``; their ratio to ``attempted`` is printed.  The
last line of output is the result object.

Command times are rescaled to a nominal machine speed (speed.py) before
any statistic is taken, and every time is a median over many short units
spread over the run; the raw pass time and median are printed as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 21
TAIL = (50, 75, 90, 95, 99, 99.9, 99.99)
BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_seconds(env: dict, root: Path) -> tuple[float, float]:
    """(start, seconds) from spawning a fresh interpreter until linksig is ready."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--setup"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        _fail("set-up probe failed")
    return start, elapsed


def _setup_probes(env: dict, root: Path, count: int, calibrations: list) -> list:
    probes = []
    for _ in range(count):
        calibrations.append((perf_counter(), speed.calibrate("broad")))
        probes.append(_setup_seconds(env, root))
    calibrations.append((perf_counter(), speed.calibrate("broad")))
    return probes


def _nearest_rank(ordered: list[float], percentile: float) -> tuple[float, int]:
    """(value at percentile, number of samples beyond it)."""
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _tail(times: list[float], raw: list[float], per_pass: int) -> tuple[float, dict]:
    """Median over windows of whole passes (at least 20 commands each, one
    starting at every pass) of the latency at the highest percentile in TAIL
    with at least 10 commands of the window beyond it.  A burst of
    interference moves a few windows only.  Above the median the raw times
    are used: there the latency is set by pauses that do not follow the
    machine's speed, and rescaling them tripled the run-to-run spread."""
    window = per_pass * math.ceil(20 / per_pass)
    percentile = max(p for p in TAIL if _nearest_rank([0.0] * window, p)[1] >= 10)
    if percentile > 50:
        times = raw
    starts = range(0, len(times) - window + 1, per_pass)
    windows = [times[i:i + window] for i in starts] or [times]
    value = statistics.median(_nearest_rank(sorted(w), percentile)[0] for w in windows)
    info = {"tail_percentile": percentile, "tail_window": window, "tail_windows": len(windows),
            "tail_beyond": _nearest_rank(windows[0], percentile)[1]}
    return value, info


def _verify(commands, result, workdir) -> tuple[int, int, int]:
    """(attempted, failed, ambiguous) over every execution of every pass."""
    reference_ok, ambiguous = [], 0
    for command, stdout, written in zip(commands, result["stdout"], result["files"]):
        ok, skipped = reference.check(command, stdout, written, workdir)
        reference_ok.append(ok)
        ambiguous += skipped
    attempted = failed = 0
    for run in result["passes"]:
        for ok, code, same in zip(reference_ok, run["codes"], run["same"]):
            attempted += 1
            failed += not (ok and code == 0 and same)
    for index, ok in enumerate(reference_ok):
        if not ok:
            print(f"mismatch: {commands[index]['argv']}: {result['stdout'][index]!r} "
                  f"{result['stderr'][index][-500:]!r}", file=sys.stderr)
    return attempted, failed, ambiguous


def _pass_seconds(commands, passes, times) -> float:
    groups = {}
    for command, seconds in zip(commands * len(passes), times):
        groups.setdefault(command["group"], []).append(seconds)
    return sum(statistics.median(groups[c["group"]]) for c in commands)


def _end_to_end(commands, passes, calibrations, kernel, setup_s, maxrss_kb):
    raw = [t for run in passes for t in run["times"]]
    starts = [t for run in passes for t in run["starts"]]
    times = speed.rescale(raw, starts, calibrations, kernel)
    wall = _pass_seconds(commands, passes, times)
    tail, info = _tail(times, raw, len(commands))
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "samples_per_s": (sum(c["samples"] for c in commands) / wall, "1/s"),
        "cmds_per_s": (len(commands) / wall, "1/s"),
        "cmd_p50_ms": (1000 * statistics.median(times), "ms"),
        "cmd_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }
    info = {**info, "commands": len(times),
            "raw_wall_s": _pass_seconds(commands, passes, raw),
            "raw_cmd_p50_ms": 1000 * statistics.median(raw),
            "calibration_median_s": statistics.median(k for _, k in calibrations)}
    return values, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "linksig" / "__init__.py").is_file():
        _fail(f"no linksig package under {root / 'src'}; run from the root of a checkout")
    env = {**os.environ, **BLAS, "PYTHONPATH": str(root / "src")}
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        commands = workloads.build(args.workload, args.seed, workdir, root)
        inputs = workloads.digest(commands, workdir)
        plan = {
            "commands": [{"argv": c["argv"], "out": c["out"]} for c in commands],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "kernel": workloads.KERNEL[args.workload],
        }
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

        setup, setup_calibrations = [], []
        if not args.trace:
            _setup_seconds(env, root)  # compiles bytecode; not counted
            setup = _setup_probes(env, root, SETUP_STARTS // 2, setup_calibrations)

        try:
            child = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "plan.json"],
                cwd=workdir, env=env, capture_output=True, text=True,
                timeout=args.seconds + 120,
            )
        except subprocess.TimeoutExpired:
            _fail("workload child timed out")
        if child.returncode != 0:
            _fail(f"workload child exited with {child.returncode}:\n{child.stderr[-2000:]}")
        result = json.loads((workdir / "result.json").read_text("utf-8"))
        if not args.trace:
            setup += _setup_probes(env, root, SETUP_STARTS - len(setup), setup_calibrations)
        if not Path(result["linksig"]).resolve().is_relative_to((root / "src").resolve()):
            _fail(f"child imported linksig from {result['linksig']}, not from {root / 'src'}")

        attempted, failed, ambiguous = _verify(commands, result, workdir)
        untraced = [run for run in result["passes"] if not run["traced"]]
        traced = [run for run in result["passes"] if run["traced"]]
        if args.trace:
            values = tracer.summarize(workdir / "spans.npz", len(traced))
            overhead = statistics.median(sum(r["times"]) for r in traced) / statistics.median(
                sum(r["times"]) for r in untraced)
            values["trace.overhead_ratio"] = (overhead, "ratio")
            info = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
        else:
            setup_s = statistics.median(speed.rescale(
                [s for _, s in setup], [t for t, _ in setup], setup_calibrations, "broad"))
            values, info = _end_to_end(commands, untraced, result["calibrations"],
                                       plan["kernel"], setup_s, result["maxrss_kb"])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS,
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "inputs_sha256": inputs,
        "commands_per_pass": len(commands),
        "samples_per_pass": sum(c["samples"] for c in commands),
        "passes": len(result["passes"]),
        "loop": "closed, 1 client, 1 process",
    }
    print("env " + json.dumps(env_record))
    check = {"attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
             "ambiguous_points": ambiguous, **info}
    print("check " + json.dumps(check))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
