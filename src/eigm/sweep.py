"""Overlap-sweep experiment driver.

For each (model, knob) grid point: build the edge-probability matrix on a
preprocessed reference graph, record its closed-form overlap, draw a fixed
number of samples, score each sample against the reference, and aggregate
mean/std per statistic.  Rows are deterministic functions of (config,
seed): per-sample seeds are derived by hashing (model, knob, index), so
grid points are independent and run concurrently on a thread pool sized
from the CPUs the process may use, without changing any row.
"""

from __future__ import annotations

import configparser
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import Graph
from .modelzoo import KNOB_KEYS, ModelSpec, build_model
from .probmatrix import empirical_overlap, overlap, sample
from .rng import derive_seed
from .stats import STAT_COLUMNS, StatsRecord, compare


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed sweep configuration; CLI flags override file values."""

    specs: tuple[ModelSpec, ...]
    input: str = ""
    samples: int = 5
    seed: int = 0
    output_dir: str = "."
    plot: bool = False

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


def _parse_grid(raw: str, kind: str) -> list[float]:
    vals = [float(tok) for tok in raw.replace(",", " ").split()]
    if not vals:
        raise ValueError(f"empty knob grid for {kind}")
    return vals


# The global config keys, each also an ExperimentConfig field and a sweep
# flag, with the name of the configparser getter that reads it.
GLOBAL_KEYS = {
    "input": "get",
    "samples": "getint",
    "seed": "getint",
    "output_dir": "get",
    "plot": "getboolean",
}


def _check_keys(section, known, where: str) -> None:
    for key, value in section.items():
        if key not in known:
            raise ValueError(f"unknown key '{key}' {where}")
        if "\n" in value:  # an indented line continues the value above it
            raise ValueError(f"value of '{key}' {where} spans two lines")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key = value sweep config.

    Global keys (input, samples, seed, output_dir, plot) live before the
    first section; each model gets a section whose one key is its knob,
    ``omega`` (linear, ccop), ``h`` (hdop), or ``rank`` (tsvd), holding a
    comma- or space-separated grid.  Any other key, a repeated section or
    key, and a line that is neither a section header nor ``key = value``
    raise ValueError.
    """
    cp = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        interpolation=None,
    )
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string("[__global__]\n" + text, source="config")
    except configparser.Error as exc:
        # one line, with line numbers counted in ``text``, not the header added above
        msg = re.sub(r"\[line\s+(\d+)\]", lambda m: f"[line {int(m[1]) - 1}]", str(exc))
        raise ValueError(" ".join(msg.split())) from None
    if cp.defaults():  # configparser would copy these keys into every section
        raise ValueError("unknown model section [DEFAULT]")
    g = cp["__global__"]
    _check_keys(g, GLOBAL_KEYS, "in the global section")
    values = {key: getattr(g, GLOBAL_KEYS[key])(key) for key in g}
    specs: list[ModelSpec] = []
    for kind in cp.sections()[1:]:  # [__global__] is the first section
        if kind not in KNOB_KEYS:
            raise ValueError(f"unknown model section [{kind}]")
        section = cp[kind]
        knob_key = KNOB_KEYS[kind]
        if knob_key not in section:
            raise ValueError(f"section [{kind}] missing knob key '{knob_key}'")
        _check_keys(section, (knob_key,), f"in section [{kind}]")
        for knob in _parse_grid(section[knob_key], kind):
            specs.append(ModelSpec(kind=kind, knob=knob))
    return ExperimentConfig(tuple(specs), **values)


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
    """Build, sample, and score one grid point; a failure becomes a row
    whose status names the stage, ``error[build|overlap|sample|compare]: ...``."""
    stage = "build"
    try:
        p = build_model(reference, spec)
        stage = "overlap"
        ov = overlap(p)
        stage = "sample"
        drawn = [
            sample(p, derive_seed(seed, spec.kind, spec.knob, t))
            for t in range(samples)
        ]
        stage = "overlap"
        ov_empirical = empirical_overlap(p, drawn)
        stage = "compare"
        records = [compare(reference, g) for g in drawn]
    except Exception as exc:  # a failure at any stage poisons one row, not the sweep
        return _nan_row(spec, f"error[{stage}]: {exc}")
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
        overlap_empirical=ov_empirical,
        means=means,
        stds=stds,
    )


def run_sweep(reference: Graph, specs, samples: int, seed: int) -> list[SweepRow]:
    """Evaluate all grid points and return rows sorted by (model, knob).

    The points run on a thread pool with one thread per CPU this process
    may run on (its affinity mask, where the OS has one); the rows do not
    depend on the pool size.
    """
    if hasattr(os, "sched_getaffinity"):
        threads = len(os.sched_getaffinity(0))
    else:
        threads = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=threads) as pool:
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
