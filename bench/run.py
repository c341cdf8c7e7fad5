"""eigm benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_clustered --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Worker processes (``bench/worker.py``) set up, run the workload repeatedly
through ``eigm.cli.main`` and check every repetition's outputs.  With
``--trace 0`` the last stdout line carries the end-to-end metrics (medians
over repetitions of times rescaled to a reference machine speed, see
calibration.py); with ``--trace 1`` one worker alternates untraced and
traced repetitions and the line carries the per-layer metrics.  Full
reports, with the environment, go to ``.bench_work/results/``.  See
NOTES.md.

``--record-expected`` rewrites ``bench/expected/<workload>.json`` from a
default-seed run; the correctness gate compares later default-seed runs
against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected"
sys.path.insert(0, str(BENCH))

from calibration import CAL_REF_S  # noqa: E402
from tracing import METRICS  # noqa: E402

WORKLOAD_NAMES = ("sweep_clustered", "sweep_powerlaw", "cli_pipeline", "audit")
DEFAULT_SEED = 0
# Peak RSS in a sweep depends on which grid points the thread pool runs
# side by side, and one worker in a few meets a rare, larger overlap; the
# median over three workers ignores it.
MAIN_WORKERS = 3
SETUP_PROBE_SHARE = 0.15  # of the run, spent on set-up-only processes
# A run must end within 180 s.  Workers stop starting repetitions after
# 140 s of their own; no worker starts after HARD_LIMIT_S of the run.
HARD_LIMIT_S = 100.0
CHILD_TIMEOUT_S = 160.0

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# the same samples as measured, printed and kept in the report
AS_MEASURED = {"wall_norm_s": "wall_s", "setup_s": "setup_s"}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas_name = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    threads = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "git_commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


def run_child(
    args, trace: int, workdir: Path, expected: Path | None,
    budget: float = 0.0, setup_only: bool = False,
) -> tuple[dict | None, str]:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--trace", str(trace), "--workdir", str(workdir),
        "--budget", repr(max(0.0, budget)),
    ]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return None, f"worker exit {proc.returncode}: {err[-1] if err else 'no output'}"
    return json.loads(lines[-1]), ""


def measure(args) -> dict:
    """Run worker processes for ``args.seconds`` and gather their reports.

    Without tracing, MAIN_WORKERS processes each repeat the workload for
    their share of the run, and set-up-only processes fill the time after
    each: the import that dominates set-up varies by tens of percent from
    one process to the next, so set-up needs more samples than workers.
    With tracing, one process alternates untraced and traced repetitions.
    """
    expected = None
    if args.seed == DEFAULT_SEED and args.scale == "full" and not args.record_expected:
        expected = EXPECTED / f"{args.workload}.json"
        if not expected.exists():
            raise SystemExit(f"missing expected values {expected}")
    base = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workers, errors, setups = [], [], []
    start = time.perf_counter()
    setup_guess = 1.0
    n_main = 1 if args.trace else MAIN_WORKERS
    share = 1.0 if args.trace else 1.0 - SETUP_PROBE_SHARE
    k = 0
    for i in range(n_main):
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        budget = args.seconds * share / n_main - setup_guess
        report, err = run_child(args, args.trace, base / f"w{k}", expected, budget)
        k += 1
        if report is None:
            errors.append(err)
            break  # the program does not run; do not keep retrying
        workers.append(report)
        setups.append(report)
        setup_guess = report["setup_s"] + 0.5  # start-up and calibration
        if args.trace:
            continue
        stop = args.seconds * (i + 1) / n_main
        while time.perf_counter() - start + setup_guess < stop:
            probe, err = run_child(args, 0, base / f"w{k}", None, setup_only=True)
            k += 1
            if probe is None:
                errors.append(err)
                break
            setups.append(probe)
    shutil.rmtree(base, ignore_errors=True)
    reps = [r for w in workers for r in w["reps"]]
    return {
        "workers": workers,
        "cal_s": [c for w in workers for c in w["cal_s"]],
        "untraced": [r for r in reps if not r["traced"]],
        "traced": [r for r in reps if r["traced"]],
        "errors": errors,
        "setups": setups,
    }


def gate(run: dict) -> tuple[int, int, list[str]]:
    """attempted, failed, reasons over every repetition of the run."""
    attempted = failed = 0
    reasons = []
    reps = run["untraced"] + run["traced"]
    ops_per_rep = max((len(r["ops"]) for r in reps), default=1)
    for err in run["errors"]:
        attempted += ops_per_rep
        failed += ops_per_rep
        reasons.append(err)
    for r in reps:
        for op in r["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                reasons.append(f"{op['name']}: {op['why']}")
    # every repetition ran the same inputs, so every output must be identical,
    # traced or not
    if reps:
        ref = reps[0]["digests"]
        for r in reps[1:]:
            attempted += 1
            if r["digests"] != ref:
                failed += 1
                diff = sorted(k for k in set(ref) | set(r["digests"])
                              if ref.get(k) != r["digests"].get(k))
                reasons.append(f"outputs differ between repetitions: {diff}")
    return attempted, failed, reasons


def summarize(run: dict, trace: int) -> tuple[dict, dict]:
    """(metrics, the samples each median was taken over)."""
    if trace:
        samples = {
            name: [r["trace"][name] for r in run["traced"] if name in r["trace"]]
            for name in METRICS
        }
        if run["traced"] and run["untraced"]:
            t = statistics.median(r["wall_norm_s"] for r in run["traced"])
            u = statistics.median(r["wall_norm_s"] for r in run["untraced"])
            samples["trace.overhead_frac"] = [(t - u) / u]
        units = {name: unit for name, (unit, _) in METRICS.items()}
    else:
        samples = {
            "wall_norm_s": [r["wall_norm_s"] for r in run["untraced"]],
            "setup_s": [s["setup_norm_s"] for s in run["setups"]],
            "peak_rss_mib": [w["peak_rss_mib"] for w in run["workers"]],
        }
        units = END_TO_END
    metrics = {
        name: {"value": statistics.median(vals), "unit": units[name]}
        for name, vals in samples.items() if vals
    }
    return metrics, samples


def run_one(args) -> int:
    run = measure(args)
    reps = run["untraced"] + run["traced"]
    attempted, failed, reasons = gate(run)
    metrics, samples = summarize(run, args.trace)
    complete = set(metrics) == (set(METRICS) if args.trace else set(END_TO_END))
    first = run["workers"][0] if run["workers"] else {}
    traced = run["traced"][0] if run["traced"] else {}
    env = environment(args.seed)
    env["worker_cpus"] = first.get("cpus")  # each worker pins itself to one
    report = {
        "workload": args.workload,
        "environment": env,
        "input": first.get("facts", {}),
        "seconds": args.seconds,
        "samples": samples,
        "as_measured": {
            "wall_s": [r["wall_s"] for r in run["untraced"]],
            "setup_s": [s["setup_s"] for s in run["setups"]],
            # per worker: its calibration chunks (three after set-up and
            # three after each CLI call) and each repetition's CLI call times
            "workers": [
                {"cal_s": w["cal_s"], "cmd_s": [r["cmd_s"] for r in w["reps"]]}
                for w in run["workers"]
            ],
        },
        "csv_sha256": reps[0]["digests"] if reps else {},
        "absent_wrappers": traced.get("absent", []),
        "hook_errors": traced.get("hook_errors", []),
        "failures": reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")

    if args.record_expected:
        if failed or not reps:
            print("\n".join(reasons), file=sys.stderr)
            return 1
        EXPECTED.mkdir(exist_ok=True)
        path = EXPECTED / f"{args.workload}.json"
        path.write_text(json.dumps(first["records"], indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")

    print("environment " + json.dumps(env))
    print("input " + json.dumps(report["input"]))
    print("csv_sha256 " + json.dumps(report["csv_sha256"]))
    if report["absent_wrappers"]:
        print("absent wrappers " + " ".join(report["absent_wrappers"]))
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, m in metrics.items():
        line = f"{args.workload} {name} = {m['value']:.6g} {m['unit']} (median of {len(samples[name])}"
        raw = report["as_measured"].get(AS_MEASURED.get(name, ""))
        if raw:
            line += f"; as measured {statistics.median(raw):.6g} s"
        print(line + ")")
    if not args.trace and run["cal_s"]:
        print(f"{args.workload} calibration chunk = {statistics.median(run['cal_s']):.6g} s "
              f"(median of {len(run['cal_s'])}; reference {CAL_REF_S} s)")
    frac = failed / attempted if attempted else 1.0
    print(f"{args.workload} failed_frac = {frac:.6g} ({failed} of {attempted} operations)")
    if not reps or not complete:
        print("no complete measurement: " + "; ".join(run["errors"][:3]), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own run.py process, one table at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            rc = 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(f"{'workload':16} {'metric':36} {'value':>12} unit")
    for key, m in combined["metrics"].items():
        name, metric = key.split(".", 1)
        print(f"{name:16} {metric:36} {m['value']:12.6g} {m['unit']}")
    if rc == 0:
        print(json.dumps(combined))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: seconds-long inputs for the smoke tests")
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite bench/expected/<workload>.json (default seed only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "eigm" / "__init__.py").is_file():
        print(f"error: no eigm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected and (args.seed != DEFAULT_SEED or args.scale != "full"):
        ap.error("--record-expected needs the default seed and full scale")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
