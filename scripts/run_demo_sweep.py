#!/usr/bin/env python3
"""Overlap sweep demo: write a triangle-rich synthetic edge list (chained
7-cliques with sparse bridges) and a four-model config under --output-dir,
then run ``eigm sweep`` on them, which writes sweep.csv and sweep.svg there.
"""

import argparse
from pathlib import Path

from eigm.cli import main as eigm_main
from eigm.graphs import serialize_edge_list
from eigm.synth import clustered_graph


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cliques", type=int, default=12, help="synthetic clique count")
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", default="sweep_out")
    args = parser.parse_args()
    # uniform random graphs are too triangle-poor to show the overlap trade-off
    g = clustered_graph(args.cliques, 7, 0.01, args.seed)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges, config = out / "clustered.edges", out / "demo.cfg"
    edges.write_text(serialize_edge_list(g))
    n, omegas = g.n, "0, 0.2, 0.4, 0.6, 0.8, 1"
    config.write_text(
        f"input = {edges}\nsamples = {args.samples}\nseed = {args.seed}\n"
        f"output_dir = {out}\n[linear]\nomega = {omegas}\n[ccop]\nomega = {omegas}\n"
        f"[hdop]\nh = 0, {n // 8}, {n // 4}, {n // 2}, {n}\n"
        f"[tsvd]\nrank = 1, 2, 4, 8, {max(9, n // 2)}\n"
    )
    return eigm_main(["sweep", "--config", str(config), "--plot"])


if __name__ == "__main__":
    raise SystemExit(main())
