"""Set up one workload and run it repeatedly, in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N --scale full
           --trace 0|1 --budget SECONDS --workdir DIR
           [--expected FILE] [--setup-only]

Set-up (import, input generation, file writing, warm-up) is timed apart
from the workload.  The workload runs through ``eigm.cli.main(argv)`` only,
repeatedly until ``--budget`` seconds have passed (at least MIN_REPS
times).  With ``--trace 1`` repetitions alternate between untraced and
traced, so both see the same machine state.  Each repetition's outputs
are checked.  The last stdout line is a JSON report.  A fresh process per
call keeps peak RSS free of anything another workload allocated.

Set-up and every CLI call are also reported rescaled to the reference
machine speed (``setup_norm_s``, ``wall_norm_s``; see calibration.py).
The calibration runs between the timed steps, not inside them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# One CPU for the whole worker, set before numpy loads so that OpenBLAS
# sizes its thread pool to it.  On a few shared vCPUs, a process spread
# over two of them runs at the pace of the busier one, which a
# calibration loop on the other cannot see.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import eigm.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import calibrate, normalize  # noqa: E402

MIN_REPS = 2
# a repetition does not start after this many seconds of the process
HARD_LIMIT_S = 140.0


def call_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = eigm.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a dead run
            traceback.print_exc()
            rc = 1
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def warm_up(workdir: Path) -> None:
    """A tiny bound check: touches BLAS, the sampler and the CLI path."""
    res = call_cli([
        "verify", "--theorem", "tri", "--n", "12", "--trials", "2",
        "--output", str(workdir / "warmup.csv"),
    ])
    if res["rc"] != 0:
        raise RuntimeError(f"warm-up failed: {res['stderr'].strip()}")


def run_once(wl, commands, expected, traced: bool, cal: list) -> tuple[dict, list]:
    """One repetition.  ``wall_s`` sums the CLI calls' times; ``cal`` holds
    the calibration chunks of the latest gap and is extended after each
    call."""
    wl.clean()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    cmd_s = []
    wall_norm_s = 0.0
    try:
        for argv in commands:
            t0 = time.perf_counter()
            if tracer is None:
                results.append(call_cli(argv))
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    results.append(call_cli(argv))
            dt = time.perf_counter() - t0
            after = calibrate()
            cmd_s.append(dt)
            wall_norm_s += normalize(dt, cal[-len(after):] + after)
            cal.extend(after)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = wl.check(results, expected)
    rep = {
        "traced": traced, "wall_s": sum(cmd_s), "wall_norm_s": wall_norm_s, "cmd_s": cmd_s,
        "ops": ops, "digests": wl.digests(),
    }
    if tracer is not None:
        rep["trace"] = tracer.metrics(rep["wall_s"])
        rep["absent"] = tracer.absent
        rep["hook_errors"] = tracer.hook_errors
        if rep["trace"]["modelzoo.build_calls"]:
            violations = tracer.counters.violations
            ops.append({
                "name": "model volumes", "ok": not violations, "why": "; ".join(violations),
            })
    return rep, results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of repetitions after set-up")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--expected", default=None,
                    help="JSON of expected records; omitted: invariants only")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](
        workloads.SCALES[args.scale], args.seed, workdir / "run"
    )
    wl.prepare()
    commands = wl.commands()
    warm_up(workdir)
    setup_s = time.perf_counter() - T_START
    cal = calibrate()
    setup = {"setup_s": setup_s, "setup_norm_s": normalize(setup_s, cal)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    expected = None
    if args.expected:
        expected = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    reps, spent = [], []
    loop_start = time.perf_counter()
    results = []
    while True:
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(spent) if spent else 0.0
        if len(reps) >= MIN_REPS * (1 + args.trace) and elapsed + typical > args.budget:
            break
        if time.perf_counter() - T_START + typical > HARD_LIMIT_S:
            break
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep, results = run_once(wl, commands, expected, traced, cal)
        reps.append(rep)
        spent.append(time.perf_counter() - t0)

    print(json.dumps({
        **setup,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cal_s": cal,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": wl.facts,
        "reps": reps,
        "records": wl.records(results),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
