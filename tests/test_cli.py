import csv
import io
import math
import os
import shlex
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eigm.cli
from eigm.bounds import BoundReport
from eigm.cli import _csv, build_parser, main
from eigm.graphs import parse_edge_list, serialize_edge_list
from eigm.probmatrix import load_probmatrix
from eigm.stats import STAT_COLUMNS, StatsRecord
from eigm.sweep import SweepRow
from eigm.synth import clustered_graph


@pytest.fixture
def triangle_plus_edge(tmp_path):
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n1 2\n2 0\n7 9\n", encoding="utf-8")
    return path


def test_ingest(tmp_path, triangle_plus_edge, capsys):
    out = tmp_path / "out"
    rc = main(["ingest", "--input", str(triangle_plus_edge), "--output-dir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3 nodes, 3 edges, 1 triangle"
    normalized = (out / "tri_normalized.edges").read_text()
    g, _ = parse_edge_list(normalized)
    assert g.n == 3 and g.m == 3
    idmap = (out / "tri_idmap.csv").read_text().splitlines()
    assert idmap[0] == "dense_index,original_id"
    assert idmap[1] == "0,0"


def test_ingest_above_the_dense_cap_is_one_line_error(tmp_path, capsys):
    edges = tmp_path / "path.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(10000)), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["ingest", "--input", str(edges), "--output-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: n=10001 exceeds dense-matrix cap 10000\n"
    assert not out.exists()


def test_ingest_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 x\n", encoding="utf-8")
    rc = main(["ingest", "--input", str(bad)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing --input
    assert exc.value.code == 2


def test_fit_five_cycle(tmp_path, capsys):
    edges = tmp_path / "c5.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    rc = main(["fit", "--input", str(edges), "--output-dir", str(tmp_path)])
    assert rc == 0
    p = load_probmatrix(tmp_path / "c5.pmat")
    off = p.mat[~np.eye(5, dtype=bool)]
    assert off == pytest.approx(0.5)
    trace = (tmp_path / "c5_fit.csv").read_text().splitlines()
    assert trace[0] == "iteration,residual"


def test_fit_above_the_dense_cap_is_one_line_error(tmp_path, capsys):
    edges = tmp_path / "path.edges"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(10000)), encoding="utf-8")
    rc = main(["fit", "--input", str(edges), "--output-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: n=10001 exceeds dense-matrix cap 10000\n"
    assert not (tmp_path / "path.pmat").exists()


def test_fit_failing_write_is_one_line_error_and_leaves_no_pmat(tmp_path, capsys,
                                                              failing_pmat_write):
    edges = tmp_path / "c5.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["fit", "--input", str(edges), "--output-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(out.iterdir()) == []


def test_sample_deterministic_bytes(tmp_path, capsys):
    pmat = tmp_path / "p.pmat"
    pmat.write_text("n=4\n0 1 0.7\n1 2 0.4\n2 3 0.9\n", encoding="utf-8")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main([
            "sample", "--input", str(pmat), "--samples", "3",
            "--seed", "99", "--output-dir", str(out),
        ])
        assert rc == 0
    for k in range(3):
        b1 = (out1 / f"p_sample{k}.edges").read_bytes()
        b2 = (out2 / f"p_sample{k}.edges").read_bytes()
        assert b1 == b2


def test_file_commands_make_their_output_dir_and_name_files_by_input_stem(tmp_path, capsys):
    edges = tmp_path / "c5.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    runs = [
        (["ingest", "--input", str(edges)], {"c5_normalized.edges", "c5_idmap.csv"}),
        (["fit", "--input", str(edges)], {"c5.pmat", "c5_fit.csv"}),
        (["sample", "--input", str(tmp_path / "fit" / "nested" / "c5.pmat"), "--samples", "2"],
         {"c5_sample0.edges", "c5_sample1.edges"}),
    ]
    for argv, names in runs:
        out = tmp_path / argv[0] / "nested"
        assert not out.parent.exists()
        assert main([*argv, "--output-dir", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == names


def test_sample_oversized_header_is_one_line_error(tmp_path, capsys):
    pmat = tmp_path / "huge.pmat"
    pmat.write_text("n=100000000\n0 1 0.5\n", encoding="utf-8")
    rc = main(["sample", "--input", str(pmat), "--output-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds dense-matrix cap" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("body", ["0 1\n", "0 x 0.5\n", "2 1 0.5\n", "0 1 nan\n"])
def test_sample_malformed_pmat_is_one_line_error(tmp_path, capsys, body):
    pmat = tmp_path / "bad.pmat"
    pmat.write_text("n=3\n" + body, encoding="utf-8")
    rc = main(["sample", "--input", str(pmat), "--output-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "tri", "--trials", "0"],
    ["cell-verify", "--trials", "-1"],
    ["sample", "--input", "p.pmat", "--samples", "-2"],
    ["sweep", "--samples", "0"],
])
def test_count_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"eigm {argv[0]}: error: ")
    assert err[0].endswith(f"must be at least 1, got {argv[-1]}")


@pytest.mark.parametrize("argv, prog", [
    (["fit"], "eigm fit"),
    (["verify", "--theorem", "quad"], "eigm verify"),
    (["sweep", "--workers", "2"], "eigm"),
    (["nope"], "eigm"),
    (["fit", "--input", "g.edges", "--eps", "1e-6"], "eigm"),
    (["fit", "--input", "g.edges", "--max-iter", "100"], "eigm"),
    (["fit", "--input", "g.edges", "--no-damping"], "eigm"),
    (["verify", "--theorem", "kcycle", "--k", "7"], "eigm verify"),
    (["verify", "--theorem", "kcycle", "--k", "2"], "eigm verify"),
])
def test_usage_error_is_one_stderr_line(argv, prog, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv, message", [
    (["--config", "c.cfg", "--model", "linear", "--omega", "0.5"],
     "argument --model: not allowed with argument --config"),
    (["--config", "c.cfg", "--omega", "0.7"],
     "argument --omega: applies only with --model linear or ccop"),
    (["--model", "linear", "--omega", "0.5", "--rank", "3"],
     "argument --rank: applies only with --model tsvd"),
    (["--h", "4", "--input", "g.edges"], "argument --h: applies only with --model hdop"),
])
def test_sweep_flag_that_would_be_ignored_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"eigm sweep: error: {message}\n"


def test_sweep_without_a_model_source_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--input", "g.edges"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "eigm sweep: error: one of --config or --model is required\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["--theorem", "tri", "--gamma", "0.2"], "argument --gamma: applies only with --theorem cc"),
    (["--theorem", "kcycle", "--gamma", "0.2"],
     "argument --gamma: applies only with --theorem cc"),
    (["--theorem", "cc", "--k", "5"], "argument --k: applies only with --theorem kcycle"),
    (["--theorem", "tri", "--k", "4"], "argument --k: applies only with --theorem kcycle"),
])
def test_verify_flag_that_would_be_ignored_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"eigm verify: error: {message}\n"


@pytest.mark.parametrize("theorem, n, n_min", [
    ("tri", "-5", 2), ("tri", "1", 2), ("kcycle", "0", 4), ("kcycle", "3", 4), ("cc", "1", 2),
])
def test_verify_n_below_the_theorem_minimum_is_a_usage_error(theorem, n, n_min, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", theorem, "--n", n, "--trials", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"eigm verify: error: argument --n: must be at least {n_min} "
        f"with --theorem {theorem}, got {n}\n"
    )


def test_verify_runs_at_the_theorem_minimum(capsys):
    for theorem, n_min in (("tri", 2), ("kcycle", 4)):
        assert main(["verify", "--theorem", theorem, "--n", str(n_min), "--trials", "3"]) == 0
        assert capsys.readouterr().out.endswith("3/3 hold\n")


def test_verify_defaults_apply_when_the_flags_are_omitted(tmp_path):
    for theorem, flag, default in (("cc", "--gamma", "0.1"), ("kcycle", "--k", "4")):
        common = ["verify", "--theorem", theorem, "--n", "60", "--trials", "3"]
        outs = [tmp_path / f"{theorem}{i}.csv" for i in range(2)]
        assert main([*common, "--output", str(outs[0])]) == 0
        assert main([*common, flag, default, "--output", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_readme_cli_lines_parse():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [
        line for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("eigm ") and "$" not in line
    ]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_count_defaults():
    parser = build_parser()
    assert parser.parse_args(["verify", "--theorem", "tri"]).trials == 100
    assert parser.parse_args(["cell-verify"]).trials == 5
    assert parser.parse_args(["sample", "--input", "p.pmat"]).samples == 1
    assert parser.parse_args(["sweep"]).samples is None


def test_stats_row(tmp_path, capsys):
    ref = tmp_path / "ref.edges"
    ref.write_text("0 1\n1 2\n2 0\n0 3\n", encoding="utf-8")
    rc = main(["stats", "--reference", str(ref), "--sample", str(ref)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("degree_pearson,")
    fields = out[1].split(",")
    assert fields[0] == "1.0"  # degree pearson of identical graphs


def test_stats_on_a_one_node_graph_warns_nothing(tmp_path, capsys):
    one = tmp_path / "one.edges"
    one.write_text("0 0\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stats", "--reference", str(one), "--sample", str(one)]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[0] == fields[3] == fields[4] == "nan"  # both correlations, assortativity


def test_verify_tri_summary(capsys, tmp_path):
    out_csv = tmp_path / "bounds.csv"
    rc = main([
        "verify", "--theorem", "tri", "--n", "12", "--trials", "25",
        "--seed", "4", "--output", str(out_csv),
    ])
    assert rc == 0
    assert "25/25 hold" in capsys.readouterr().out
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("theorem,mode")
    assert len(lines) == 26


def test_memory_error_is_one_line_error(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("eigm.cli.random_probmatrix", out_of_memory)
    assert main(["verify", "--theorem", "tri", "--trials", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and err[0][len("error: "):].strip()


def test_verify_kcycle(capsys):
    rc = main(["verify", "--theorem", "kcycle", "--n", "8", "--k", "4",
               "--trials", "10", "--seed", "2"])
    assert rc == 0
    assert "10/10 hold" in capsys.readouterr().out


def test_verify_cc(capsys):
    rc = main(["verify", "--theorem", "cc", "--n", "200", "--gamma", "0.3",
               "--trials", "4", "--seed", "0"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "1/1 hold" in captured


def test_cell_verify_rows(capsys):
    rc = main(["cell-verify", "--n", "10", "--max-degree", "3",
               "--trials", "3", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,max_degree,rank_bound,numerical_rank,max_error"
    assert len(lines) == 4
    for line in lines[1:]:
        n, dmax, bound, rank, err = line.split(",")
        assert int(rank) <= int(bound) == 2 * int(dmax) + 1
        assert float(err) <= 1e-3


def test_cell_verify_degree_cap_above_n_minus_one_acts_as_n_minus_one(tmp_path):
    outputs = []
    for cap in ("1000000000", "11"):
        out = tmp_path / f"cell{cap}.csv"
        start = time.perf_counter()
        rc = main(["cell-verify", "--n", "12", "--max-degree", cap, "--trials", "1",
                   "--output", str(out)])
        assert rc == 0 and time.perf_counter() - start < 1.0
        outputs.append(out.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]


def test_cell_verify_refuses_n_above_the_cap_before_drawing(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("graph drawn before the node cap was checked")

    monkeypatch.setattr(eigm.cli, "random_bounded_degree_graph", fail)
    with pytest.raises(SystemExit) as exc:
        main(["cell-verify", "--n", "25"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "eigm cell-verify: error: argument --n: must be from 2 to 20, got 25\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["cell-verify", "--n", "1"], "argument --n: must be from 2 to 20, got 1"),
    (["cell-verify", "--n", "30"], "argument --n: must be from 2 to 20, got 30"),
    (["cell-verify", "--n", "100000000"], "argument --n: must be from 2 to 20, got 100000000"),
    (["cell-verify", "--max-degree", "0"], "argument --max-degree: must be at least 1, got 0"),
    (["cell-verify", "--n", "3", "--max-degree", "1"],
     "argument --max-degree: 1 needs an even --n (a perfect matching), got --n 3"),
    (["cell-verify", "--scale", "nan"], "argument --scale: must be finite and above 2, got nan"),
    (["cell-verify", "--scale", "2"], "argument --scale: must be finite and above 2, got 2.0"),
    (["verify", "--theorem", "cc", "--trials", "2"],
     "argument --trials: must be at least 3 with --theorem cc, got 2"),
    (["verify", "--theorem", "cc", "--gamma", "nan"],
     "argument --gamma: must be in (0, 1], got nan"),
    (["verify", "--theorem", "cc", "--gamma", "1.5"],
     "argument --gamma: must be in (0, 1], got 1.5"),
    (["verify", "--theorem", "cc", "--gamma", "0"],
     "argument --gamma: must be in (0, 1], got 0.0"),
    (["sweep", "--model", "linear", "--omega", "abc"],
     "argument --omega: could not convert string to float: 'abc'"),
    (["sweep", "--model", "tsvd", "--rank", "4,x"],
     "argument --rank: could not convert string to float: 'x'"),
])
def test_malformed_argument_is_a_usage_error(argv, message, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("random_bounded_degree_graph", "check_cc_tightness", "run_sweep"):
        monkeypatch.setattr(eigm.cli, name, fail)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"eigm {argv[0]}: error: {message}\n"


def test_cell_verify_overflow_is_one_line_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails
        rc = main(["cell-verify", "--scale", "1e200"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "overflowed" in err[0]


def test_sweep_end_to_end(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    rows = ["%d %d" % (i, i + 1) for i in range(14)]
    rows += ["0 5", "2 9", "3 11", "1 7", "4 13", "0 9"]
    edges.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "sweep.cfg"
    config.write_text(
        f"input = {edges}\nsamples = 3\nseed = 5\n"
        f"output_dir = {tmp_path / 'out'}\n\n"
        "[linear]\nomega = 0, 0.5, 1.0\n\n[tsvd]\nrank = 2, 5\n",
        encoding="utf-8",
    )
    rc = main(["sweep", "--config", str(config), "--plot"])
    assert rc == 0
    csv_lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 6
    assert csv_lines[0].startswith("model,knob,overlap_expected")
    svg = (tmp_path / "out" / "sweep.svg").read_text()
    assert svg.startswith("<svg")
    # byte-identical on re-run with the same config
    rc = main(["sweep", "--config", str(config), "--plot"])
    assert rc == 0
    assert (tmp_path / "out" / "sweep.csv").read_text().splitlines() == csv_lines


def test_full_pipeline_chain(tmp_path, capsys):
    # ingest -> fit -> sample -> stats on one input
    raw = tmp_path / "raw.edges"
    lines = ["%d %d" % (i, (i + 1) % 12) for i in range(12)]
    lines += ["0 4", "2 6", "8 11", "1 5", "40 41"]  # extra component dropped by LCC
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"

    assert main(["ingest", "--input", str(raw), "--output-dir", str(out)]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("12 nodes")

    normalized = out / "raw_normalized.edges"
    assert main(["fit", "--input", str(normalized), "--output-dir", str(out)]) == 0
    capsys.readouterr()

    pmat = out / "raw_normalized.pmat"
    assert main([
        "sample", "--input", str(pmat), "--samples", "2", "--seed", "3",
        "--output-dir", str(out),
    ]) == 0
    capsys.readouterr()

    sample0 = out / "raw_normalized_sample0.edges"
    assert main([
        "stats", "--reference", str(normalized), "--sample", str(sample0),
        "--output", str(out / "row.csv"),
    ]) == 0
    row = (out / "row.csv").read_text().splitlines()
    assert row[0].split(",")[0] == "degree_pearson"
    assert len(row[1].split(",")) == 8


def test_sweep_without_an_input_is_one_line_error(capsys):
    assert main(["sweep", "--model", "linear", "--omega", "0.5"]) == 1
    assert capsys.readouterr().err == (
        "error: no input edge list given (flag --input or config key)\n"
    )


def test_sweep_single_model_flags(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n0 3\n3 4\n", encoding="utf-8")
    rc = main([
        "sweep", "--model", "tsvd", "--rank", "1,3,5", "--input", str(edges),
        "--samples", "2", "--seed", "0", "--output-dir", str(tmp_path / "o"),
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("tsvd,") for line in lines[1:])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "hdop", "--input", str(edges)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "eigm sweep: error: --model hdop needs --h\n"


def test_sweep_knob_flag_writes_the_bytes_of_the_config_grid(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text(serialize_edge_list(clustered_graph(3, 4, 0.1, seed=0)), encoding="utf-8")
    config = tmp_path / "s.cfg"
    config.write_text("[tsvd]\nrank = 4, 8\n", encoding="utf-8")
    common = ["--input", str(edges), "--samples", "2", "--seed", "0", "--output-dir"]
    flag, cfg = tmp_path / "flag", tmp_path / "cfg"
    assert main(["sweep", "--model", "tsvd", "--rank", "4,8", *common, str(flag)]) == 0
    assert main(["sweep", "--config", str(config), *common, str(cfg)]) == 0
    assert "(2/2 points ok)" in capsys.readouterr().out
    assert (flag / "sweep.csv").read_bytes() == (cfg / "sweep.csv").read_bytes()


def test_sweep_empty_knob_flag_fails_like_empty_config_grid(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    config = tmp_path / "s.cfg"
    config.write_text("[linear]\nomega =\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--input", str(edges)]) == 1
    assert capsys.readouterr().err == "error: empty knob grid for linear\n"
    # the same grid given as a flag is a malformed argument, not a failed run
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "linear", "--omega", "", "--input", str(edges)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "eigm sweep: error: argument --omega: empty knob grid for linear\n"
    )


def test_sweep_failure_at_any_stage_is_a_marked_row(tmp_path, capsys):
    # the LCC of a lone self-loop is one node: ccop builds a zero-volume
    # model there and fails in overlap, linear fails to build
    edges = tmp_path / "loop.edges"
    edges.write_text("0 0\n", encoding="utf-8")
    config = tmp_path / "s.cfg"
    grid = "0, 0.25, 0.5, 0.75, 1"
    config.write_text(
        f"[linear]\nomega = {grid}\n[ccop]\nomega = {grid}\n", encoding="utf-8"
    )
    rc = main(["sweep", "--config", str(config), "--input", str(edges),
               "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "all grid points failed\n"
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert sum(",error[build]: " in row for row in rows) == 5
    assert sum(row.endswith("error[overlap]: overlap undefined: volume is zero") for row in rows) == 5


def test_sweep_tsvd_on_a_one_node_graph_is_an_error_row(tmp_path, capsys):
    edges = tmp_path / "loop.edges"
    edges.write_text("5 5\n", encoding="utf-8")
    rc = main(["sweep", "--model", "tsvd", "--rank", "1", "--input", str(edges),
               "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "all grid points failed\n"
    with open(tmp_path / "o" / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 1
    assert rows[0][-1] == "error[build]: tsvd model undefined for an empty graph"


def test_sweep_error_rows_keep_the_header_width(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n0 3\n3 4\n", encoding="utf-8")
    rc = main([
        "sweep", "--model", "linear", "--omega", "0.5,1.5", "--input", str(edges),
        "--samples", "2", "--output-dir", str(tmp_path / "o"),
    ])
    assert rc == 0
    with open(tmp_path / "o" / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [21, 21, 21]
    assert rows[1][-1] == "ok"
    assert rows[2][-1] == "error[build]: omega must be in [0, 1], got 1.5"


@pytest.mark.parametrize("text, message", [
    ("[linear]\nomega = 1\n[linear]\nomega = 2\n", "[line 3]: section 'linear' already exists"),
    ("[linear]\nomega = 1\nomega = 2\n", "[line 3]: option 'omega' in section 'linear' already exists"),
    ("seed = 1\nno equals sign\n[linear]\nomega = 1\n", "[line 2]: 'no equals sign\\n'"),
    ("sampels = 3\n[linear]\nomega = 1\n", "unknown key 'sampels' in the global section"),
    ("samples = 0\n[linear]\nomega = 1\n", "samples must be >= 1"),
])
def test_sweep_bad_config_is_one_line_error(tmp_path, capsys, text, message):
    config = tmp_path / "s.cfg"
    config.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--input", "g.edges"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)


def test_sweep_cli_overrides(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n0 3\n3 4\n", encoding="utf-8")
    config = tmp_path / "s.cfg"
    config.write_text("[linear]\nomega = 1.0\n", encoding="utf-8")
    rc = main([
        "sweep", "--config", str(config), "--input", str(edges),
        "--samples", "2", "--seed", "1", "--output-dir", str(tmp_path / "o"),
    ])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "linear" and float(row[2]) == 1.0


def test_ingest_idmap_maps_lcc_to_original_ids(tmp_path):
    # non-contiguous ids; the component {3, 11} is dropped by the LCC
    path = tmp_path / "gappy.edges"
    path.write_text("40 7\n7 25\n25 40\n40 90\n3 11\n", encoding="utf-8")
    assert main(["ingest", "--input", str(path), "--output-dir", str(tmp_path)]) == 0
    idmap = (tmp_path / "gappy_idmap.csv").read_text().splitlines()
    assert idmap == ["dense_index,original_id", "0,7", "1,25", "2,40", "3,90"]
    g, _ = parse_edge_list((tmp_path / "gappy_normalized.edges").read_text())
    assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]


def test_csv_tables_are_pinned(tmp_path, monkeypatch, capsys):
    # hand-built records, so no cell depends on the platform's BLAS
    nan, inf = float("nan"), float("inf")
    edges = tmp_path / "big.edges"
    edges.write_text(f"{2**64 + 1} 5\n5 {2**63}\n", encoding="utf-8")
    assert main(["ingest", "--input", str(edges), "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "big_idmap.csv").read_text(encoding="utf-8") == (
        "dense_index,original_id\n0,5\n1,9223372036854775808\n2,18446744073709551617\n"
    )

    record = StatsRecord(-0.0, np.int64(7), 5e-324, nan, 1.0, 2**64, np.float64(0.1), inf)
    monkeypatch.setattr(eigm.cli, "compare", lambda ref, gen: record)
    capsys.readouterr()
    assert main(["stats", "--reference", str(edges), "--sample", str(edges)]) == 0
    assert capsys.readouterr().out == (
        "degree_pearson,max_degree,powerlaw_alpha,assortativity,triangle_pearson,"
        "triangle_count,clustering_coeff,char_path_length\n"
        "-0.0,7,5e-324,nan,1.0,18446744073709551616,0.1,inf\n"
    )

    reports = iter([
        BoundReport("triangles", "exact-trace", 0.25, 2.0, np.bool_(True)),
        BoundReport("cc", "monte-carlo", 1e-320, inf, False, 5e-324),
    ])
    monkeypatch.setattr(eigm.cli, "check_triangle_bound", lambda p: next(reports))
    out = tmp_path / "tri.csv"
    assert main(["verify", "--theorem", "tri", "--n", "4", "--trials", "2",
                 "--output", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == (
        "theorem,mode,lhs,rhs,ratio,holds,std_err\n"
        "triangles,exact-trace,0.25,2.0,0.125,True,nan\n"
        "cc,monte-carlo,1e-320,inf,0.0,False,5e-324\n"
    )

    means = {**dict.fromkeys(STAT_COLUMNS, 0.5), "degree_pearson": nan,
             "max_degree": inf, "assortativity": -inf, "triangle_count": 5e-324}
    rows = [
        SweepRow("linear", -0.0, 0.1, nan, means, dict.fromkeys(STAT_COLUMNS, -0.0),
                 'error[sample]: a, "b"\r\nc'),
        SweepRow("tsvd", 4.0, 1.0, 1 / 3, dict.fromkeys(STAT_COLUMNS, 2.0),
                 dict.fromkeys(STAT_COLUMNS, nan)),
    ]
    monkeypatch.setattr(eigm.cli, "run_sweep", lambda *args: rows)
    assert main(["sweep", "--model", "linear", "--omega", "0", "--input", str(edges),
                 "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"model,knob,overlap_expected,overlap_empirical,"
        b"degree_pearson_mean,degree_pearson_std,max_degree_mean,max_degree_std,"
        b"powerlaw_alpha_mean,powerlaw_alpha_std,assortativity_mean,assortativity_std,"
        b"triangle_pearson_mean,triangle_pearson_std,triangle_count_mean,"
        b"triangle_count_std,clustering_coeff_mean,clustering_coeff_std,"
        b"char_path_length_mean,char_path_length_std,status\n"
        b"linear,-0.0,0.1,nan,nan,-0.0,inf,-0.0,0.5,-0.0,-inf,-0.0,0.5,-0.0,"
        b'5e-324,-0.0,0.5,-0.0,0.5,-0.0,"error[sample]: a, ""b""\r\nc"\n'
        b"tsvd,4.0,1.0,0.3333333333333333,2.0,nan,2.0,nan,2.0,nan,2.0,nan,2.0,nan,"
        b"2.0,nan,2.0,nan,2.0,nan,ok\n"
    )

    cells = (np.bool_(False), np.int64(-3), np.float64(-0.0), np.uint64(2**64 - 1))
    assert _csv(("a", "b", "c", "d"), [cells]) == "a,b,c,d\nFalse,-3,-0.0,18446744073709551615\n"


# csv.reader rejects NUL before Python 3.11; surrogates cannot be written as UTF-8
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
_CELL = st.one_of(
    _TEXT, st.booleans(), st.booleans().map(np.bool_), st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats(), st.floats().map(np.float64),
)


# At least two columns: a one-column row holding "" is an empty line, which
# csv.reader reads as no fields; every table eigm writes has two or more.
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.lists(_TEXT, min_size=k, max_size=k),
    st.lists(st.lists(_CELL, min_size=k, max_size=k), max_size=4),
)))
def test_csv_reads_back_exactly(table):
    header, rows = table
    text = _csv(header, rows)
    assert text.endswith("\n")
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed[0] == header and len(parsed) == len(rows) + 1
    for row, fields in zip(rows, parsed[1:]):
        assert len(fields) == len(header)
        for v, field in zip(row, fields):
            if isinstance(v, str):
                assert field == v
            elif isinstance(v, (bool, np.bool_)):
                assert field == str(bool(v))
            elif isinstance(v, (int, np.integer)):
                assert int(field) == v
            elif math.isnan(v):
                assert math.isnan(float(field))
            else:  # bit for bit, so -0.0 stays -0.0
                assert struct.pack("<d", float(field)) == struct.pack("<d", v)


def test_sweep_negative_zero_knob_writes_the_bytes_of_zero(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n0 5\n", encoding="utf-8")
    written = []
    for omega in ("-0", "0"):
        out = tmp_path / f"out{omega}"
        assert main(["sweep", "--model", "linear", "--omega", omega, "--samples", "3",
                     "--input", str(edges), "--output-dir", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]


def _python(code, **env):
    """Run ``python -c code`` on this checkout's eigm and return its stdout;
    an ``env`` value of None removes that variable."""
    env = {**os.environ, "PYTHONPATH": str(Path(eigm.cli.__file__).parents[1]), **env}
    env = {k: v for k, v in env.items() if v is not None}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


_SCIPY_MODULES = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def test_importing_the_cli_leaves_scipy_unloaded():
    # every eigm command pays for the modules `import eigm.cli` loads, and
    # scipy is imported only by the functions that call it
    assert _python(f"import sys, eigm.cli; print({_SCIPY_MODULES})") == "[]"


def test_verify_cell_verify_and_sample_run_without_scipy(tmp_path):
    # the bound checks, the CELL check and the sampler call no scipy function
    pmat = tmp_path / "p.pmat"
    pmat.write_text("n=4\n0 1 0.5\n1 2 0.25\n2 3 1\n", encoding="utf-8")
    csv_out = str(tmp_path / "out.csv")
    runs = [["verify", "--theorem", t, "--n", "60", "--trials", "3", "--output", csv_out]
            for t in ("tri", "kcycle", "cc")]
    runs += [["cell-verify", "--n", "8", "--trials", "2", "--output", csv_out],
             ["sample", "--input", str(pmat), "--output-dir", str(tmp_path)]]
    code = (f"import sys, eigm.cli\nfor argv in {runs!r}:\n    assert eigm.cli.main(argv) == 0\n"
            f"print({_SCIPY_MODULES})")
    assert _python(code).splitlines()[-1] == "[]"
    assert (tmp_path / "p_sample0.edges").exists()


def test_ingest_runs_without_scipy(tmp_path, triangle_plus_edge):
    # the largest component comes from a numpy kernel, not scipy.sparse.csgraph
    argv = ["ingest", "--input", str(triangle_plus_edge), "--output-dir", str(tmp_path)]
    code = f"import sys, eigm.cli\nassert eigm.cli.main({argv!r}) == 0\nprint({_SCIPY_MODULES})"
    assert _python(code).splitlines()[-1] == "[]"


def test_stats_and_linear_and_ccop_sweeps_run_without_scipy_sparse(tmp_path, triangle_plus_edge):
    # stats and these model builds load scipy.special at most
    out = str(tmp_path / "out")
    runs = [["stats", "--reference", str(triangle_plus_edge), "--sample", str(triangle_plus_edge),
             "--output", str(tmp_path / "stats.csv")]]
    runs += [["sweep", "--model", model, "--omega", "0.5", "--samples", "2",
              "--input", str(triangle_plus_edge), "--output-dir", out] for model in ("linear", "ccop")]
    code = (f"import sys, eigm.cli\nfor argv in {runs!r}:\n    assert eigm.cli.main(argv) == 0\n"
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    assert _python(code).splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_hdop_builds_without_scipy_sparse():
    # hdop counts each node's pinned neighbours with np.bincount, not a CSR product
    code = ("import sys\nfrom eigm.modelzoo import hdop\nfrom eigm.synth import clustered_graph\n"
            "hdop(clustered_graph(6, 4, 0.05, seed=0), 3)\nprint('scipy.sparse' in sys.modules)")
    assert _python(code) == "False"


def test_importing_synth_loads_neither_bounds_nor_stats():
    # the clustered references draw their bridges without bounds.er_construction
    code = "import sys, eigm.synth; print([m for m in sys.modules if m in ('eigm.bounds', 'eigm.stats')])"
    assert _python(code) == "[]"


def test_importing_eigm_loads_no_numpy_and_serves_only_four_graph_names():
    # eigm.cli can set the BLAS thread count only if numpy is not yet loaded
    assert _python("import sys, eigm; print('numpy' in sys.modules)") == "False"
    for name in ("Graph", "degrees", "largest_connected_component", "serialize_edge_list"):
        assert getattr(eigm, name) is getattr(eigm.graphs, name)
    with pytest.raises(AttributeError, match="'sample'"):
        eigm.sample


def _sweep_on_one_cpu_and_on_all(tmp_path, argv):
    """``sweep.csv`` bytes of ``eigm sweep argv`` (plus --input and
    --output-dir) on the n=210 clustered reference, run in a fresh child
    pinned to one CPU and in one on the whole affinity mask."""
    ref = tmp_path / "ref.edges"
    ref.write_text(serialize_edge_list(clustered_graph(30, 7, 5e-4, seed=0)), encoding="utf-8")
    written = []
    for cpus in ({min(os.sched_getaffinity(0))}, os.sched_getaffinity(0)):
        out = tmp_path / f"out{len(cpus)}"
        full = [*argv, "--input", str(ref), "--output-dir", str(out)]
        # the mask is set before numpy loads, as OpenBLAS sizes its pool then
        code = (f"import os; os.sched_setaffinity(0, {cpus!r}); import eigm.cli; "
                f"raise SystemExit(eigm.cli.main({full!r}))")
        # OpenBLAS reads its thread count from the first of these it finds
        _python(code, OPENBLAS_NUM_THREADS=None, GOTO_NUM_THREADS=None, OMP_NUM_THREADS=None)
        written.append((out / "sweep.csv").read_bytes())
    return written


_NEEDS_TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs: a sweep on all of them, with two pool threads, "
    "is compared with a sweep pinned to one",
)


@_NEEDS_TWO_CPUS
def test_sweep_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # tsvd 64 on this n=210 clique chain runs the dense eigh, whose last digits
    # differed between one and two OpenBLAS threads before eigm.cli set one
    pinned, unpinned = _sweep_on_one_cpu_and_on_all(
        tmp_path, ["sweep", "--model", "tsvd", "--rank", "64", "--samples", "1"]
    )
    assert pinned == unpinned


@_NEEDS_TWO_CPUS
def test_two_pool_threads_importing_scipy_first_write_the_pinned_bytes(tmp_path):
    # on all CPUs the pool runs both ccop points at once, and each is the
    # first call in the process to import scipy.special (in the fit)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("samples = 1\n[ccop]\nomega = 0, 0.5\n[linear]\nomega = 0.5\n", encoding="utf-8")
    pinned, unpinned = _sweep_on_one_cpu_and_on_all(tmp_path, ["sweep", "--config", str(cfg)])
    assert pinned == unpinned
    rows = pinned.decode().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",ok") for row in rows)


# A drawn flag value is an edge value or, as often, a small valid one.
# Counts never take 2**63, which is a valid count of requested work, so
# every valid count stays at most 3; sizes add ones that a cap refuses
# before any work (25 for the embedding, 10**8 for the dense cap).
_EDGE = ["-1", "0", str(2**63), "1e308", "nan", "inf", "-inf", "0.5", "", "x"]
_INPUTS = {
    "tri.edges": "0 1\n1 2\n2 0\n2 3\n",
    "empty.edges": "",
    "word.edges": "0 x\n",
    "wide.edges": "0 1 2 3\n",
    "negative.edges": "-1 2\n",
    "loop.edges": "0 0\n",
    "hugeid.edges": f"0 {2**63}\n1 0\n",
    "ok.pmat": "n=4\n0 1 0.5\n1 2 0.25\n2 3 1\n",
    "zero.pmat": "n=3\n",
    "capped.pmat": "n=100000000\n0 1 0.5\n",
    "word.pmat": "n=3\n0 x 0.5\n",
    "nan.pmat": "n=3\n0 1 nan\n",
    "headless.pmat": "0 1 0.5\n",
    "badheader.pmat": "n=x\n",
    "ok.cfg": "input = tri.edges\nsamples = 2\n[linear]\nomega = 0.5\n[tsvd]\nrank = 2\n",
    "nan.cfg": "[ccop]\nomega = nan, inf\n[hdop]\nh = -1 1e308\n",
    "section.cfg": "[nope]\nomega = 1\n",
    "samples.cfg": "samples = x\n[linear]\nomega = 0.5\n",
    "zero.cfg": "samples = 0\n[linear]\nomega = 0.5\n",
    "emptygrid.cfg": "[linear]\nomega =\n",
    "junk.cfg": "junk line\n",
    "missing.cfg": "input = missing.edges\n[hdop]\nh = 2\n",
}


def _value(*valid, edge=_EDGE):
    return st.one_of(st.sampled_from(valid), st.sampled_from(edge))


_COUNT = _value("1", "2", "3", edge=[v for v in _EDGE if v != str(2**63)])
_SIZE = _value("3", "12", "25", str(10**8))
_SEED = _value("0", "7")


def _flag(name, values):
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _path(suffix):
    """An input file of that kind, or as often a wrong, missing or directory path."""
    return _value(*(k for k in _INPUTS if k.endswith(suffix)), edge=["missing", ".", "ok.cfg"])


@st.composite
def _cli_argv(draw):
    """argv for one subcommand; paths are relative to the working directory."""
    out = ["--output-dir", "out"]
    command = draw(st.sampled_from(
        ["ingest", "fit", "sample", "stats", "sweep", "verify", "cell-verify"]
    ))
    if command in ("ingest", "fit"):
        return [command, "--input", draw(_path(".edges")), *out]
    if command == "sample":
        return ["sample", "--input", draw(_path(".pmat")), *out,
                *draw(_flag("--samples", _COUNT)), *draw(_flag("--seed", _SEED))]
    if command == "stats":
        ref = draw(_path(".edges"))
        return ["stats", "--reference", ref, "--sample", draw(_value(ref, edge=list(_INPUTS))),
                *draw(_flag("--output", st.just("out.csv")))]
    if command == "sweep":
        if draw(st.booleans()):
            source = ["--config", draw(_path(".cfg"))]
        else:
            kind, knob = draw(st.sampled_from(
                [("linear", "--omega"), ("ccop", "--omega"), ("hdop", "--h"), ("tsvd", "--rank")]
            ))
            source = ["--model", kind, knob, draw(_value("0.25", "1, 2")),
                      "--input", draw(_path(".edges"))]
        return ["sweep", *source, *out, "--samples", draw(_COUNT),
                *draw(_flag("--seed", _SEED)), *draw(st.sampled_from([[], ["--plot"]]))]
    if command == "verify":
        knob = st.one_of(  # either knob may come with any theorem
            st.just([]),
            _value("0.1", "1").map(lambda v: ["--gamma", v]),
            _value("3", "6", edge=_EDGE + ["2", "7"]).map(lambda v: ["--k", v]),
        )
        return ["verify", "--theorem", draw(_value("tri", "kcycle", "cc")),
                "--trials", draw(_COUNT), *draw(_flag("--n", _SIZE)), *draw(knob),
                *draw(_flag("--seed", _SEED)), *draw(_flag("--output", st.just("out.csv")))]
    return ["cell-verify", "--trials", draw(_COUNT), *draw(_flag("--n", _SIZE)),
            *draw(_flag("--max-degree", _value("2", "3", str(2**63)))),
            *draw(_flag("--scale", _value("1e4", "10"))), *draw(_flag("--seed", _SEED))]


@given(argv=_cli_argv())
@settings(max_examples=300, deadline=1000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_contract_holds_on_drawn_argv(argv, tmp_path, monkeypatch, capsys):
    # every outcome is an exit code of 0, 1 or 2; a failure is one stderr
    # line; nothing but SystemExit (argparse's usage error) leaves main
    monkeypatch.chdir(tmp_path)
    for name, text in _INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    if code != 0:
        assert len(err.splitlines()) == 1, (argv, err)
