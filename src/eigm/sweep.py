"""Overlap-sweep experiment driver.

For each (model, knob) grid point: build the edge-probability matrix on a
preprocessed reference graph, record its closed-form overlap, draw a fixed
number of samples, score each sample against the reference, and aggregate
mean/std per statistic.  Rows are deterministic functions of (config,
seed): per-sample seeds are derived by hashing (model, knob, index), so
grid points are independent and may be evaluated concurrently.
"""

from __future__ import annotations

import configparser
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import Graph
from .modelzoo import KNOB_KEYS, ModelSpec, build_model
from .probmatrix import overlap, sample, volume
from .rng import derive_seed
from .stats import STAT_COLUMNS, StatsRecord, compare

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "parse_config",
    "run_sweep",
    "sweep_csv_header",
    "reference_record",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep configuration; CLI flags override file values."""

    input_path: str
    specs: tuple[ModelSpec, ...]
    samples: int = 5
    seed: int = 0
    output_dir: str = "."
    plot: bool = False
    workers: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.specs:
            raise ValueError("no model grid points configured")


@dataclass(frozen=True)
class SweepRow:
    """One grid point: model id, knob, overlaps, per-statistic mean/std."""

    model: str
    knob: float
    overlap_expected: float
    overlap_empirical: float
    means: dict[str, float] = field(repr=False)
    stds: dict[str, float] = field(repr=False)
    status: str = "ok"

    def csv_row(self) -> str:
        nan = float("nan")
        values = [self.knob, self.overlap_expected, self.overlap_empirical]
        for c in STAT_COLUMNS:
            values += [self.means.get(c, nan), self.stds.get(c, nan)]
        return ",".join([self.model, *(repr(float(v)) for v in values), self.status])


def sweep_csv_header() -> str:
    cols = ["model", "knob", "overlap_expected", "overlap_empirical"]
    for c in STAT_COLUMNS:
        cols.append(f"{c}_mean")
        cols.append(f"{c}_std")
    cols.append("status")
    return ",".join(cols)


def _parse_grid(raw: str, kind: str) -> list[float]:
    vals = [float(tok) for tok in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError(f"empty knob grid for {kind}")
    return vals


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key = value sweep config.

    Global keys (input, samples, seed, output_dir, plot, workers) live
    before the first section; each model gets a section whose knob key is
    ``omega`` (linear, ccop), ``h`` (hdop), or ``rank`` (tsvd), holding a
    comma- or space-separated grid.  Sections may also set eps/max_iter.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string("[__global__]\n" + text)
    g = cp["__global__"]
    specs: list[ModelSpec] = []
    for kind in cp.sections():
        if kind == "__global__":
            continue
        if kind not in KNOB_KEYS:
            raise ValueError(f"unknown model section [{kind}]")
        section = cp[kind]
        knob_key = KNOB_KEYS[kind]
        if knob_key not in section:
            raise ValueError(f"section [{kind}] missing knob key '{knob_key}'")
        eps = float(section.get("eps", "1e-6"))
        max_iter = int(section.get("max_iter", "100"))
        for knob in _parse_grid(section[knob_key], kind):
            specs.append(ModelSpec(kind=kind, knob=knob, eps=eps, max_iter=max_iter))
    return ExperimentConfig(
        input_path=g.get("input", ""),
        specs=tuple(specs),
        samples=int(g.get("samples", "5")),
        seed=int(g.get("seed", "0")),
        output_dir=g.get("output_dir", "."),
        plot=g.getboolean("plot", fallback=False),
        workers=int(g["workers"]) if "workers" in g else None,
    )


def _pairwise_empirical_overlap(samples: list[Graph], vol: float) -> float:
    """Mean shared-edge fraction over all pairs of already-drawn samples."""
    if len(samples) < 2 or vol <= 0:
        return float("nan")
    keys = [g.edge_keys() for g in samples]
    acc, cnt = 0.0, 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            acc += len(np.intersect1d(keys[i], keys[j], assume_unique=True)) / vol
            cnt += 1
    return acc / cnt


def _nan_row(spec: ModelSpec, status: str) -> SweepRow:
    nan = float("nan")
    return SweepRow(
        model=spec.kind,
        knob=spec.knob,
        overlap_expected=nan,
        overlap_empirical=nan,
        means={c: nan for c in STAT_COLUMNS},
        stds={c: nan for c in STAT_COLUMNS},
        status=status,
    )


def evaluate_point(
    reference: Graph, spec: ModelSpec, samples: int, seed: int
) -> SweepRow:
    """Build, sample, and score one grid point; failures become marked rows."""
    try:
        p = build_model(reference, spec)
        ov = overlap(p)
        drawn = [
            sample(p, derive_seed(seed, spec.kind, spec.knob, t))
            for t in range(samples)
        ]
        records = [compare(reference, g) for g in drawn]
    except Exception as exc:  # a failure at any stage poisons one row, not the sweep
        return _nan_row(spec, f"error: {exc}")
    table = np.array([r.as_tuple() for r in records], dtype=np.float64)
    means = {c: float(table[:, k].mean()) for k, c in enumerate(STAT_COLUMNS)}
    if samples > 1:
        stds = {c: float(table[:, k].std(ddof=1)) for k, c in enumerate(STAT_COLUMNS)}
    else:
        stds = {c: float("nan") for c in STAT_COLUMNS}
    return SweepRow(
        model=spec.kind,
        knob=spec.knob,
        overlap_expected=ov,
        overlap_empirical=_pairwise_empirical_overlap(drawn, volume(p)),
        means=means,
        stds=stds,
    )


def run_sweep(
    reference: Graph,
    specs,
    samples: int,
    seed: int,
    workers: int | None = None,
) -> list[SweepRow]:
    """Evaluate all grid points (concurrently) and return rows sorted by (model, knob)."""
    if workers is None:
        workers = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(
            pool.map(lambda s: evaluate_point(reference, s, samples, seed), specs)
        )
    rows.sort(key=lambda r: (r.model, r.knob))
    return rows


def reference_record(reference: Graph) -> StatsRecord:
    """The reference graph scored against itself.

    Both correlations are pinned to 1: ``compare`` reports NaN for a
    constant sequence, as on a regular or triangle-free reference.
    """
    record = compare(reference, reference)
    return replace(record, degree_pearson=1.0, triangle_pearson=1.0)
