import csv
import hashlib
import io
import math
import os
import re
import threading

import numpy as np
import pytest

from eigm.cli import main
from eigm.modelzoo import ModelSpec
from eigm.graphs import Graph
from eigm.stats import STAT_COLUMNS, StatsRecord, compare, global_clustering
from eigm.svgplot import render_sweep_svg
from eigm.sweep import (
    ExperimentConfig,
    SweepRow,
    _nan_row,
    evaluate_point,
    grid_specs,
    parse_config,
    reference_record,
    run_sweep,
)
from eigm.rng import derive_seed
from eigm.synth import clustered_graph

from conftest import random_connected_graph


def sweep_csv(rows, tmp_path, monkeypatch) -> str:
    """The sweep.csv text that ``eigm sweep`` writes for ``rows``."""
    edges = tmp_path / "any.edges"
    edges.write_text("0 1\n", encoding="utf-8")
    monkeypatch.setattr("eigm.cli.run_sweep", lambda *args: rows)
    main(["sweep", "--model", "linear", "--omega", "0", "--input", str(edges),
          "--output-dir", str(tmp_path)])
    return (tmp_path / "sweep.csv").read_bytes().decode("utf-8")  # keeps a quoted \r

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


def test_config_sections_and_knob_flags_share_one_grid_parser():
    specs = grid_specs("tsvd", "4 8")
    assert specs == (ModelSpec("tsvd", 4), ModelSpec("tsvd", 8))
    assert parse_config("[tsvd]\nrank = 4, 8\n").specs == specs
    with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
        grid_specs("linear", "0.5, x")
    with pytest.raises(ValueError, match="^empty knob grid for linear$"):
        grid_specs("linear", " , ")


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
    ("Samples = 3\n[linear]\nomega = 1\n", "Samples", "the global section"),
    ("[linear]\nomega = 1\nOMEGA = 0.5\n", "OMEGA", "section [linear]"),
])
def test_parse_config_rejects_unknown_keys(text, key, where):
    with pytest.raises(ValueError, match=rf"^unknown key '{key}' in {re.escape(where)}$"):
        parse_config(text)


@pytest.mark.parametrize("text, message", [
    ("samples: 3\n[linear]\nomega = 1\n", "[line 1]: 'samples: 3\\n'"),
    ("; comment\n[linear]\nomega = 1\n", "[line 1]: '; comment\\n'"),
    ("[linear]\nOMEGA = 0.5\n", "section [linear] missing knob key 'omega'"),
    ("[linear]\nomega = 0.5\n   0.75\n", "value of 'omega' in section [linear] spans two lines"),
    ("samples = 3\n  4\n[linear]\nomega = 1\n",
     "value of 'samples' in the global section spans two lines"),
])
def test_parse_config_rejects_lines_outside_the_format(text, message):
    with pytest.raises(ValueError, match=rf"{re.escape(message)}$") as info:
        parse_config(text)
    assert "\n" not in str(info.value)


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


def test_run_sweep_rows_sorted_and_deterministic(reference, monkeypatch, tmp_path):
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
    assert sweep_csv(rows1, tmp_path, monkeypatch) == sweep_csv(rows4, tmp_path, monkeypatch)


def test_run_sweep_counts_the_reference_once(reference, monkeypatch):
    import eigm.stats
    import eigm.sweep

    count, counted = eigm.stats.triangle_counts, []

    def counting(g):
        counted.append(g is reference)
        return count(g)

    for module in (eigm.stats, eigm.sweep):
        monkeypatch.setattr(module, "triangle_counts", counting)
    run_sweep(reference, [ModelSpec("linear", w) for w in (0.0, 1.0)], samples=3, seed=5)
    # the reference once, then each of the 2 x 3 samples
    assert counted.count(True) == 1 and len(counted) == 7


def test_sweep_above_the_dense_cap_fails_before_any_point(tmp_path, capsys):
    edges = tmp_path / "path.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(10000)), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["sweep", "--model", "linear", "--omega", "0.5", "--input", str(edges),
               "--output-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: n=10001 exceeds dense-matrix cap 10000\n"
    assert not out.exists()


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


def test_integer_and_float_knobs_give_the_same_row(tmp_path, monkeypatch):
    # sample seeds hash the knob, so 4 and 4.0 must reach the hash alike
    g = clustered_graph(4, 7, 0.01, seed=0)
    rows = [evaluate_point(g, ModelSpec("tsvd", k), 2, 0) for k in (4, 4.0)]
    assert rows[0].status == "ok"
    assert sweep_csv(rows[:1], tmp_path, monkeypatch) == sweep_csv(
        rows[1:], tmp_path, monkeypatch
    )


def test_negative_zero_knob_gives_the_row_of_zero(tmp_path, monkeypatch):
    # -0.0 == 0.0, but repr(-0.0) would reach the sample-seed hash as "-0.0"
    g = clustered_graph(4, 7, 0.01, seed=0)
    specs = [ModelSpec("linear", k) for k in (-0.0, 0.0)]
    assert repr(specs[0].knob) == "0.0"
    seeds = [derive_seed(0, s.kind, s.knob, 1) for s in specs]
    assert seeds[0] == seeds[1]
    rows = [evaluate_point(g, s, 2, 0) for s in specs]
    assert rows[0].status == "ok"
    assert sweep_csv(rows[:1], tmp_path, monkeypatch) == sweep_csv(
        rows[1:], tmp_path, monkeypatch
    )


def test_csv_header_and_row_shape(reference, tmp_path, monkeypatch):
    row = evaluate_point(reference, ModelSpec("linear", 0.5), samples=2, seed=0)
    header, line = sweep_csv([row], tmp_path, monkeypatch).splitlines()
    cols = header.split(",")
    assert cols[0] == "model" and cols[-1] == "status"
    assert len(cols) == 4 + 2 * len(STAT_COLUMNS) + 1
    assert len(line.split(",")) == len(cols)


def test_csv_row_quotes_a_status_with_commas_or_quotes(tmp_path, monkeypatch):
    status = 'error: bad "x", then\nmore'
    rows = [_nan_row(ModelSpec("linear", 0.5), status), _nan_row(ModelSpec("linear", 0.5), "ok")]
    text = sweep_csv(rows, tmp_path, monkeypatch)
    header, fields, _ = csv.reader(io.StringIO(text, newline=""))
    assert len(fields) == len(header) and fields[-1] == status
    assert text.endswith(",ok\n")


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


def test_render_sweep_svg_bytes_are_pinned():
    # NaN and +-inf means, a NaN overlap, an error row, a panel with no finite
    # point and a one-point model: only finite points of ok rows are drawn
    nan, inf = float("nan"), float("inf")

    def row(model, x, status="ok", **over):
        means = {c: 0.1 * (i + 1) + x for i, c in enumerate(STAT_COLUMNS)}
        means["clustering_coeff"] = nan
        means.update(over)
        return SweepRow(model, x, x, x, means, {c: 0.0 for c in STAT_COLUMNS}, status)

    rows = [
        row("linear", 0.1, degree_pearson=nan, max_degree=inf),
        row("linear", 0.4, max_degree=-inf, assortativity=nan),
        row("linear", 0.7),
        row("linear", 0.9, status="error: sample: boom", triangle_count=99.0),
        row("ccop", nan),
        row("ccop", 0.3, char_path_length=inf),
        row("ccop", 0.8, char_path_length=inf),
        row("tsvd", 0.55),
    ]
    ref = StatsRecord(0.9, 5, nan, -0.2, 1.0, 12, nan, 2.5)
    svg = render_sweep_svg(rows, ref).encode()
    assert hashlib.sha256(svg).hexdigest() == (
        "a2a2f130714c7d2895e5fa50c118856e03010c4298d626c0e9267ce1a78a0329"
    )


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
