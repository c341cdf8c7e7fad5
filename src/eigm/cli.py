"""Command-line interface.

Subcommands: ingest, fit, sample, stats, sweep, verify, cell-verify.
Exit codes: 0 on success, 1 on operational failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# One BLAS thread, so that a sweep's bytes do not depend on the CPU count:
# OpenBLAS's threaded kernels split sums by thread, and the sweep already runs
# one grid point per CPU. OpenBLAS reads this once, when numpy loads it, so it
# must be set before the first numpy import; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .bounds import check_cc_tightness, check_kcycle_bound, check_triangle_bound
from .cell import EMBED_NODE_CAP, vandermonde_embedding, verify_embedding
from .graphs import (
    degrees,
    largest_connected_component,
    load_edge_list,
    serialize_edge_list,
)
from .modelzoo import KNOB_KEYS
from .oddsproduct import fit_odds_product
from .probmatrix import load_probmatrix, sample, save_probmatrix
from .rng import derive_seed
from .stats import STAT_COLUMNS, compare, triangle_counts
from .svgplot import render_sweep_svg
from .sweep import (
    GLOBAL_KEYS,
    ExperimentConfig,
    grid_specs,
    parse_config,
    reference_record,
    run_sweep,
)
from .synth import random_bounded_degree_graph, random_probmatrix


def _load_preprocessed(path):
    """Load an edge list and reduce it to its largest connected component."""
    g, ids = load_edge_list(path)
    lcc, kept = largest_connected_component(g)
    return lcc, tuple(ids[i] for i in kept)


def _in_range(convert, accepts, expected: str):
    """argparse type of a number read by ``convert`` (int or float) that is
    refused as a usage error unless ``accepts`` holds for it."""

    def parse(text: str):
        value = convert(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_positive_int = _in_range(int, lambda v: v >= 1, "at least 1")


def _csv(header, rows) -> str:
    """Every table eigm writes, as CSV text with a newline after each line.
    A float is ``repr(float(v))``, so it reads back bit for bit (``nan`` if
    undefined); an integer is written in full; a bool is True or False."""

    def cell(v) -> str:
        if isinstance(v, str):  # RFC 4180: quote a cell holding , " or a line break
            return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v
        if isinstance(v, (bool, np.bool_)):  # before int: a bool is an int
            return str(bool(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    return "".join(",".join(map(cell, row)) + "\n" for row in (header, *rows))


def _write_or_print(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def cmd_ingest(args) -> int:
    g, id_map = _load_preprocessed(args.input)
    _, total = triangle_counts(g)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    (out_dir / f"{stem}_normalized.edges").write_text(
        serialize_edge_list(g), encoding="utf-8"
    )
    (out_dir / f"{stem}_idmap.csv").write_text(
        _csv(("dense_index", "original_id"), enumerate(id_map)), encoding="utf-8"
    )
    def plural(k: int, word: str) -> str:
        return f"{k} {word}" + ("" if k == 1 else "s")

    print(
        f"{plural(g.n, 'node')}, {plural(g.m, 'edge')}, {plural(total, 'triangle')}"
    )
    return 0


def cmd_fit(args) -> int:
    g, _ = load_edge_list(args.input)
    _, p, report = fit_odds_product(degrees(g))
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    save_probmatrix(p, out_dir / f"{stem}.pmat")
    trace = _csv(("iteration", "residual"), enumerate(report.residual_history))
    (out_dir / f"{stem}_fit.csv").write_text(trace, encoding="utf-8")
    print(
        f"converged in {report.iterations} iterations, "
        f"max degree error {report.final_max_abs_error:.3e}"
    )
    return 0


def cmd_sample(args) -> int:
    p = load_probmatrix(args.input)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    for t in range(args.samples):
        g = sample(p, derive_seed(args.seed, "cli-sample", t))
        path = out_dir / f"{stem}_sample{t}.edges"
        path.write_text(serialize_edge_list(g), encoding="utf-8")
        print(f"wrote {path} ({g.m} edges)")
    return 0


def cmd_stats(args) -> int:
    ref, _ = load_edge_list(args.reference)
    gen, _ = load_edge_list(args.sample)
    record = compare(ref, gen)
    _write_or_print(_csv(STAT_COLUMNS, [record.as_tuple()]), args.output)
    return 0


def cmd_sweep(args) -> int:
    for key in dict.fromkeys(KNOB_KEYS.values()):  # omega, h, rank
        if getattr(args, key) is not None and key != KNOB_KEYS.get(args.model):
            kinds = " or ".join(k for k, v in KNOB_KEYS.items() if v == key)
            args.usage_error(f"argument --{key}: applies only with --model {kinds}")
    if args.model:
        knob_flag = KNOB_KEYS[args.model]
        if getattr(args, knob_flag) is None:
            args.usage_error(f"--model {args.model} needs --{knob_flag}")
        try:
            specs = grid_specs(args.model, getattr(args, knob_flag))
        except ValueError as exc:  # a number the model cannot use fails its row later
            args.usage_error(f"argument --{knob_flag}: {exc}")
        config = ExperimentConfig(specs)
    elif args.config:
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        args.usage_error("one of --config or --model is required")
    flags = {key: getattr(args, key) for key in GLOBAL_KEYS}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    if not config.input:
        raise ValueError("no input edge list given (flag --input or config key)")

    reference, _ = _load_preprocessed(config.input)
    rows = run_sweep(reference, config.specs, config.samples, config.seed)
    ok = [r for r in rows if r.status == "ok"]
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    stat_cols = [f"{c}_{s}" for c in STAT_COLUMNS for s in ("mean", "std")]
    header = ("model", "knob", "overlap_expected", "overlap_empirical", *stat_cols, "status")
    table = [(r.model, r.knob, r.overlap_expected, r.overlap_empirical,
              *(d[c] for c in STAT_COLUMNS for d in (r.means, r.stds)), r.status)
             for r in rows]
    csv_path.write_text(_csv(header, table), encoding="utf-8")
    print(f"wrote {csv_path} ({len(ok)}/{len(rows)} points ok)")
    if config.plot:
        svg_path = out_dir / "sweep.svg"
        svg_path.write_text(
            render_sweep_svg(rows, reference_record(reference)), encoding="utf-8"
        )
        print(f"wrote {svg_path}")
    if not ok:
        print("all grid points failed", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    for flag, theorem, default in (("gamma", "cc", 0.1), ("k", "kcycle", 4)):
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.theorem != theorem:
            args.usage_error(f"argument --{flag}: applies only with --theorem {theorem}")
    # cc takes its mean and standard error over the trials at n itself; the
    # other theorems draw each trial's size from [n_min, n]
    n_min = 4 if args.theorem == "kcycle" else 2
    for flag, low in (("n", n_min), ("trials", 3 if args.theorem == "cc" else 1)):
        if getattr(args, flag) < low:
            args.usage_error(f"argument --{flag}: must be at least {low} "
                             f"with --theorem {args.theorem}, got {getattr(args, flag)}")
    if args.theorem == "cc":
        reports = [
            check_cc_tightness(args.n, args.gamma, samples=args.trials, seed=args.seed)
        ]
    else:
        reports = []
        for t in range(args.trials):
            n = n_min + derive_seed(args.seed, "verify-n", t) % (args.n - n_min + 1)
            scale = 1.0 if t % 2 == 0 else 0.1
            p = random_probmatrix(n, derive_seed(args.seed, "verify-P", t), scale)
            if args.theorem == "tri":
                reports.append(check_triangle_bound(p))
            else:
                reports.append(check_kcycle_bound(p, args.k))
    header = ("theorem", "mode", "lhs", "rhs", "ratio", "holds", "std_err")
    table = [(r.theorem, r.mode, r.lhs, r.rhs, r.ratio, r.holds, r.std_err) for r in reports]
    held = sum(r.holds for r in reports)
    _write_or_print(_csv(header, table), args.output)
    print(f"{held}/{len(reports)} hold")
    return 0 if held == len(reports) else 1


def cmd_cell_verify(args) -> int:
    if args.max_degree == 1 and args.n % 2:
        args.usage_error(f"argument --max-degree: 1 needs an even --n "
                         f"(a perfect matching), got --n {args.n}")
    table = []
    for t in range(args.trials):
        g = random_bounded_degree_graph(
            args.n, args.max_degree, derive_seed(args.seed, "cell-verify", t)
        )
        w = vandermonde_embedding(g, scale=args.scale)
        max_error, numerical_rank = verify_embedding(g, w)
        dmax = int(degrees(g).max())
        table.append((g.n, dmax, 2 * dmax + 1, numerical_rank, max_error))
    header = ("n", "max_degree", "rank_bound", "numerical_rank", "max_error")
    _write_or_print(_csv(header, table), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eigm",
        description=(
            "Edge-independent graph models: preprocessing, degree fits, "
            "overlap-tunable baselines, statistics, and bound verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="preprocess an edge list (binarize, symmetrize, LCC)")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit the degree-matching odds-product model")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample graphs from a stored probability matrix")
    p.add_argument("--input", required=True, help="probability matrix in triplet format")
    p.add_argument("--output-dir", default=".")
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="score one sample edge list against a reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="run the overlap sweep over model grids")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--input", default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--plot", action="store_true", default=None, help="also emit sweep.svg")
    source.add_argument("--model", choices=KNOB_KEYS,
                        default=None, help="single-model mode instead of a config file")
    p.add_argument("--omega", default=None,
                   help="omega value or comma list (linear, ccop)")
    p.add_argument("--h", default=None, help="pinned-node count(s) (hdop)")
    p.add_argument("--rank", default=None, help="rank value(s) (tsvd)")
    p.set_defaults(func=cmd_sweep, usage_error=p.error)

    p = sub.add_parser("verify", help="check the subgraph-density bounds")
    p.add_argument("--theorem", required=True, choices=("tri", "kcycle", "cc"))
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--gamma", type=_in_range(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                   help="cc only (default 0.1)")
    p.add_argument("--k", type=int, choices=range(3, 7), help="kcycle only (default 4)")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_verify, usage_error=p.error)

    p = sub.add_parser("cell-verify", help="check the low-rank softmax embedding")
    p.add_argument("--n", default=12, type=_in_range(
        int, lambda v: 2 <= v <= EMBED_NODE_CAP, f"from 2 to {EMBED_NODE_CAP}"))
    p.add_argument("--max-degree", type=_positive_int, default=3)
    p.add_argument("--scale", type=_in_range(float, lambda v: 2.0 < v < np.inf,
                                             "finite and above 2"), default=1e4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_cell_verify, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError is a ValueError; OverflowError is an ArithmeticError
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError() carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
