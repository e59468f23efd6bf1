"""Child process of the benchmark: one fresh interpreter per run.

    python3 child.py --setup      import linksig, run the first catalog
                                  self-check, print "ready"
    python3 child.py PLAN         run the commands of PLAN (a JSON file
                                  written by run.py) in passes, from the
                                  directory that holds PLAN

Every command goes through ``linksig.cli.main(argv)`` in this process, one
after the other, with a speed calibration (speed.py) between commands at
least every ``speed.EVERY`` seconds.  Passes repeat until the plan's time is
used up.  In a traced run untraced and traced passes alternate, so the same
run gives the tracing overhead and shows that tracing leaves the output
byte-identical.  Each execution is compared with the first pass; run.py
checks the first pass's output against the reference.
"""

from __future__ import annotations

import sys


def setup():
    import linksig
    from linksig import catalog

    catalog.self_check()
    return linksig


def run(plan_path: str) -> None:
    import contextlib
    import gc
    import hashlib
    import io
    import json
    import resource
    import traceback
    from pathlib import Path
    from time import perf_counter

    linksig = setup()
    from linksig import cli
    from speed import EVERY, calibrate
    from tracer import Tracer

    plan = json.loads(Path(plan_path).read_text("utf-8"))
    commands = plan["commands"]
    tracer = Tracer() if plan["trace"] else None
    kernel = plan["kernel"]

    first = []  # (digest, stdout, stderr, output file) of each command in pass 0
    passes = []
    calibrations = [(perf_counter(), calibrate(kernel))]
    began = perf_counter()
    while not passes or perf_counter() - began < plan["seconds"] or (
        tracer is not None and len(passes) < 2
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        gc.collect()
        times, starts, codes, same = [], [], [], []
        for index, command in enumerate(commands):
            if perf_counter() - calibrations[-1][0] >= EVERY:
                calibrations.append((perf_counter(), calibrate(kernel)))
            out, err = io.StringIO(), io.StringIO()
            if command["out"] is not None:
                Path(command["out"]).unlink(missing_ok=True)
            if traced:
                tracer.command_id += 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                starts.append(start)
                try:
                    code = cli.main(command["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback is a failed command, not a dead run
                    traceback.print_exc()
                    code = -1
                times.append(perf_counter() - start)
            written = b""
            if command["out"] is not None and Path(command["out"]).exists():
                written = Path(command["out"]).read_bytes()
            digest = hashlib.sha256(out.getvalue().encode() + b"\0" + written).hexdigest()
            if not passes:
                first.append((digest, out.getvalue(), err.getvalue(), written.decode()))
            codes.append(code)
            same.append(digest == first[index][0])
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "times": times, "starts": starts, "codes": codes,
                       "same": same})
    calibrations.append((perf_counter(), calibrate(kernel)))

    result = {
        "linksig": linksig.__file__,
        "passes": passes,
        "stdout": [entry[1] for entry in first],
        "stderr": [entry[2] for entry in first],
        "files": [entry[3] for entry in first],
        "calibrations": calibrations,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.save("spans.npz")
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup"]:
        setup()
        print("ready", flush=True)
    else:
        run(sys.argv[1])
