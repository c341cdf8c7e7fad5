import csv
import io
import math
import os
import re
import threading

import numpy as np
import pytest

from eigm.modelzoo import ModelSpec
from eigm.graphs import Graph
from eigm.stats import STAT_COLUMNS, compare, global_clustering
from eigm.svgplot import render_sweep_svg
from eigm.sweep import (
    ExperimentConfig,
    SweepRow,
    evaluate_point,
    parse_config,
    reference_record,
    run_sweep,
    sweep_csv_header,
)
from eigm.synth import clustered_graph

from conftest import random_connected_graph

CONFIG_TEXT = """\
# demo sweep
input = graph.edges
samples = 4
seed = 11
output_dir = out
plot = true

[linear]
omega = 0, 0.5, 1.0

[tsvd]
rank = 1, 2
"""


def test_parse_config_round_trip():
    config = parse_config(CONFIG_TEXT)
    assert config.input == "graph.edges"
    assert config.samples == 4
    assert config.seed == 11
    assert config.plot is True
    kinds = [(s.kind, s.knob) for s in config.specs]
    assert ("linear", 0.0) in kinds and ("tsvd", 2.0) in kinds
    assert len(config.specs) == 5


def test_parse_config_takes_percent_signs_literally():
    config = parse_config("input = data/50%.edges\n[linear]\nomega = 1\n")
    assert config.input == "data/50%.edges"


def test_parse_config_rejects_unknown_section():
    with pytest.raises(ValueError):
        parse_config("[nope]\nomega = 1\n")
    with pytest.raises(ValueError):
        parse_config("[linear]\nrank = 1\n")
    with pytest.raises(ValueError, match=r"^unknown model section \[DEFAULT\]$"):
        parse_config("[DEFAULT]\nomega = 1\n[linear]\n")


@pytest.mark.parametrize("text, key, where", [
    ("sampels = 3\n[linear]\nomega = 1\n", "sampels", "the global section"),
    ("workers = 2\n[linear]\nomega = 1\n", "workers", "the global section"),
    ("[tsvd]\nrank = 1\nepss = 1e-9\n", "epss", "section [tsvd]"),
    ("[ccop]\nomega = 1\neps = 1e-6\n", "eps", "section [ccop]"),
])
def test_parse_config_rejects_unknown_keys(text, key, where):
    with pytest.raises(ValueError, match=rf"^unknown key '{key}' in {re.escape(where)}$"):
        parse_config(text)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(specs=(), input="x", samples=5)
    with pytest.raises(ValueError):
        ExperimentConfig(
            specs=(ModelSpec("linear", 0.5),), input="x", samples=0
        )


@pytest.fixture(scope="module")
def reference():
    return random_connected_graph(30, 0.1, seed=21)


def test_run_sweep_rows_sorted_and_deterministic(reference, monkeypatch):
    import eigm.sweep

    threads, pool_sizes = set(), []
    point = eigm.sweep.evaluate_point

    def recording_point(*args):
        threads.add(threading.get_ident())
        return point(*args)

    class RecordingPool(eigm.sweep.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(eigm.sweep, "evaluate_point", recording_point)
    monkeypatch.setattr(eigm.sweep, "ThreadPoolExecutor", RecordingPool)
    specs = [ModelSpec("linear", w) for w in (1.0, 0.0, 0.5)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rows1 = run_sweep(reference, specs, samples=3, seed=5)
    assert pool_sizes == [1] and len(threads) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    rows4 = run_sweep(reference, specs, samples=3, seed=5)
    assert pool_sizes == [1, 4]
    assert [r.knob for r in rows1] == [0.0, 0.5, 1.0]
    assert [r.csv_row() for r in rows1] == [r.csv_row() for r in rows4]


def test_sweep_memorization_limit(reference):
    row = evaluate_point(reference, ModelSpec("ccop", 1.0), samples=3, seed=2)
    ref = reference_record(reference)
    assert row.overlap_expected == pytest.approx(1.0)
    assert row.overlap_empirical == pytest.approx(1.0)
    assert row.means["triangle_count"] == pytest.approx(ref.triangle_count)
    assert row.stds["triangle_count"] == 0.0
    assert ref.clustering_coeff == global_clustering(reference)


def test_sweep_overlap_monotone_for_linear(reference):
    specs = [ModelSpec("linear", w) for w in np.linspace(0, 1, 5)]
    rows = run_sweep(reference, specs, samples=2, seed=7)
    ovs = [r.overlap_expected for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(ovs, ovs[1:]))


def test_sweep_empirical_overlap_consistency(reference):
    specs = [ModelSpec("linear", w) for w in (0.2, 0.8)]
    rows = run_sweep(reference, specs, samples=5, seed=3)
    for r in rows:
        # crude 3-sigma band from the pairwise estimator spread
        assert abs(r.overlap_empirical - r.overlap_expected) < 0.1


def test_sweep_failure_row_marked(reference):
    # rank 0 is invalid for tsvd: the row is marked, not raised
    row = evaluate_point(reference, ModelSpec("tsvd", 0), samples=2, seed=0)
    assert row.status.startswith("error[build]: rank must be in [1, n]")
    assert math.isnan(row.overlap_expected)
    assert math.isnan(row.means["triangle_count"])


@pytest.mark.parametrize("name, stage", [
    ("build_model", "build"), ("overlap", "overlap"), ("sample", "sample"),
    ("empirical_overlap", "overlap"), ("compare", "compare"),
])
def test_failure_row_names_the_stage(reference, monkeypatch, name, stage):
    def fail(*args):
        raise ValueError("boom")

    monkeypatch.setattr(f"eigm.sweep.{name}", fail)
    row = evaluate_point(reference, ModelSpec("linear", 0.5), samples=2, seed=0)
    assert row.status == f"error[{stage}]: boom"


@pytest.mark.parametrize("kind, knob, key", [("hdop", 1.7, "h"), ("tsvd", 2.5, "rank")])
def test_fractional_integer_knob_is_an_error_row(reference, kind, knob, key):
    row = evaluate_point(reference, ModelSpec(kind, knob), samples=2, seed=0)
    assert row.status == f"error[build]: {key} must be an integer, got {knob}"


def test_integer_and_float_knobs_give_the_same_row():
    # sample seeds hash the knob, so 4 and 4.0 must reach the hash alike
    g = clustered_graph(4, 7, 0.01, seed=0)
    rows = [evaluate_point(g, ModelSpec("tsvd", k), 2, 0) for k in (4, 4.0)]
    assert rows[0].status == "ok"
    assert rows[0].csv_row() == rows[1].csv_row()


def test_csv_header_and_row_shape(reference):
    header = sweep_csv_header()
    cols = header.split(",")
    assert cols[0] == "model" and cols[-1] == "status"
    assert len(cols) == 4 + 2 * len(STAT_COLUMNS) + 1
    row = evaluate_point(reference, ModelSpec("linear", 0.5), samples=2, seed=0)
    assert len(row.csv_row().split(",")) == len(cols)


def test_csv_row_quotes_a_status_with_commas_or_quotes():
    nan = float("nan")
    status = 'error: bad "x", then\nmore'
    row = SweepRow("linear", 0.5, nan, nan, {}, {}, status)
    fields = next(csv.reader(io.StringIO(row.csv_row() + "\n")))
    assert len(fields) == len(sweep_csv_header().split(",")) and fields[-1] == status
    assert SweepRow("linear", 0.5, nan, nan, {}, {}).csv_row().endswith(",ok")


def test_single_sample_std_is_nan(reference):
    row = evaluate_point(reference, ModelSpec("linear", 0.5), samples=1, seed=0)
    assert math.isnan(row.stds["triangle_count"])
    assert math.isnan(row.overlap_empirical)


def test_triangle_trend_on_clustered_reference():
    # triangle-rich reference: every model recovers more triangles (and a
    # higher clustering coefficient) as its overlap knob rises
    from scipy.stats import spearmanr

    from eigm.synth import clustered_graph

    g = clustered_graph(8, 6, 0.01, seed=4)
    n = g.n
    specs = (
        [ModelSpec("linear", w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
        + [ModelSpec("ccop", w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
        + [ModelSpec("hdop", h) for h in (0, n // 6, n // 3, 2 * n // 3, n)]
        + [ModelSpec("tsvd", k) for k in (2, 4, 8, 16, 32)]
    )
    rows = run_sweep(g, specs, samples=5, seed=9)
    for kind in ("linear", "ccop", "hdop", "tsvd"):
        pts = [r for r in rows if r.model == kind and r.status == "ok"]
        assert len(pts) == 5
        xs = [r.overlap_expected for r in pts]
        tri = spearmanr(xs, [r.means["triangle_count"] for r in pts]).statistic
        cc = spearmanr(xs, [r.means["clustering_coeff"] for r in pts]).statistic
        assert tri > 0.8, (kind, tri)
        assert cc > 0.8, (kind, cc)


def test_render_sweep_svg(reference):
    specs = [ModelSpec("linear", w) for w in (0.0, 0.5, 1.0)] + [
        ModelSpec("ccop", 0.5)
    ]
    rows = run_sweep(reference, specs, samples=2, seed=9)
    svg = render_sweep_svg(rows, reference_record(reference))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<text") > 8
    for stat in STAT_COLUMNS:
        assert stat in svg
    assert "polyline" in svg
    # deterministic output
    assert svg == render_sweep_svg(rows, reference_record(reference))


@pytest.mark.parametrize(
    "graph, nan_fields",
    [
        # every node lies in 15 triangles; bridges make the degrees vary
        (clustered_graph(100, 7, 5e-4, seed=2), {"triangle_pearson"}),
        # regular and triangle-free
        (
            Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]),
            {"degree_pearson", "triangle_pearson"},
        ),
    ],
)
def test_reference_record_is_compare_with_correlations_pinned(graph, nan_fields):
    ref = reference_record(graph)
    self_record = compare(graph, graph)
    assert ref.degree_pearson == ref.triangle_pearson == 1.0
    assert all(math.isnan(getattr(self_record, c)) for c in nan_fields)
    for c in STAT_COLUMNS:
        if c not in ("degree_pearson", "triangle_pearson"):
            # repr: exact equality that also matches NaN with NaN
            assert repr(getattr(ref, c)) == repr(getattr(self_record, c)), c
