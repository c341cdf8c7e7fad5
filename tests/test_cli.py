import csv
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from eigm.cli import build_parser, main
from eigm.graphs import parse_edge_list
from eigm.probmatrix import load_probmatrix


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
    rc = main(["sweep", "--model", "hdop", "--input", str(edges)])
    assert rc == 1  # missing --h


def test_sweep_empty_knob_flag_fails_like_empty_config_grid(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    config = tmp_path / "s.cfg"
    config.write_text("[linear]\nomega =\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--input", str(edges)]) == 1
    from_config = capsys.readouterr().err
    assert main(["sweep", "--model", "linear", "--omega", "", "--input", str(edges)]) == 1
    from_flag = capsys.readouterr().err
    assert from_flag == from_config == "error: empty knob grid for linear\n"


def test_sweep_failure_at_any_stage_is_a_marked_row(tmp_path, capsys):
    # the LCC of a lone self-loop is one node: ccop builds a zero-volume
    # model there and fails in overlap, linear fails to build
    edges = tmp_path / "loop.edges"
    edges.write_text("0 0\n", encoding="utf-8")
    rc = main(["sweep", "--input", str(edges), "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "all grid points failed\n"
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert sum(",error[build]: " in row for row in rows) == 5
    assert sum(row.endswith("error[overlap]: overlap undefined: volume is zero") for row in rows) == 5


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
