import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from eigm.bounds import (
    check_cc_tightness,
    check_kcycle_bound,
    check_triangle_bound,
    er_construction,
)
from eigm.cli import main
from eigm.graphs import Graph
from eigm.probmatrix import (
    CapacityError,
    ProbMatrix,
    ZeroVolumeError,
    expected_kcycles_exact,
    expected_triangles,
    overlap,
    to_dense,
    volume,
)
from eigm.synth import random_probmatrix

from conftest import er_triangle_tightness_ratio, prob_matrices


def test_er_construction_properties():
    p = er_construction(10, 0.3)
    assert volume(p) == pytest.approx(13.5)
    assert overlap(p) == pytest.approx(0.3)
    assert np.all(np.diagonal(p.mat) == 0.0)
    ones = er_construction(4, 1.0)
    assert np.array_equal(ones.mat, np.ones((4, 4)) - np.eye(4))
    with pytest.raises(ValueError):
        er_construction(5, 0.0)
    with pytest.raises(ValueError):
        er_construction(5, 1.5)


def test_er_expected_triangles_closed_form():
    for n, gamma in ((6, 0.25), (12, 0.7)):
        p = er_construction(n, gamma)
        assert expected_triangles(p) == pytest.approx(gamma**3 * math.comb(n, 3))


def test_triangle_bound_on_binary_triangle(triangle):
    report = check_triangle_bound(to_dense(triangle))
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx((math.sqrt(2) / 3) * 3**1.5)
    assert report.holds
    assert report.mode == "exact-trace"


def test_triangle_bound_is_the_3cycle_bound():
    p = random_probmatrix(20, seed=3)
    tri, cyc = check_triangle_bound(p), check_kcycle_bound(p, 3)
    assert tri.rhs == cyc.rhs
    assert tri.lhs == cyc.lhs
    assert (tri.theorem, cyc.theorem) == ("triangles", "3-cycles")


def test_triangle_bound_er_ratio():
    report = check_triangle_bound(er_construction(100, 0.5))
    assert report.ratio == pytest.approx(0.9849, abs=1e-3)


def test_triangle_bound_zero_volume():
    with pytest.raises(ZeroVolumeError):
        check_triangle_bound(ProbMatrix.from_array(np.zeros((4, 4))))


@given(prob_matrices(max_n=12))
@settings(max_examples=60, deadline=None)
def test_triangle_bound_never_violated_dense(p):
    assert check_triangle_bound(p).holds


@given(prob_matrices(max_n=12, sparse=True))
@settings(max_examples=40, deadline=None)
def test_triangle_bound_never_violated_sparse(p):
    assert check_triangle_bound(p).holds


def test_kcycle_bound_c4():
    c4 = to_dense(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    report = check_kcycle_bound(c4, 4)
    assert report.mode == "brute-force"
    assert report.lhs == pytest.approx(1.0)
    assert report.rhs == pytest.approx((4 / 8) * 16)
    assert report.holds


def test_kcycle_bound_er_closed_form():
    p = er_construction(6, 0.5)
    report = check_kcycle_bound(p, 4)
    assert report.lhs == pytest.approx(45 * 0.5**4)
    assert report.holds


def test_kcycle_bound_trace_mode_for_larger_n():
    p = er_construction(20, 0.3)
    report = check_kcycle_bound(p, 4)
    assert report.mode == "exact-trace"
    assert report.holds
    with pytest.raises(ValueError):
        check_kcycle_bound(p, 7)


@given(prob_matrices(max_n=10))
@settings(max_examples=30, deadline=None)
def test_kcycle_bound_exact_mode_property(p):
    for k in (4, 5):
        report = check_kcycle_bound(p, k)
        assert report.mode == "brute-force"
        assert report.holds


def test_cc_tightness_bands():
    low = check_cc_tightness(500, 0.1, samples=5, seed=0)
    assert low.mode == "monte-carlo"
    assert abs(low.lhs - 0.1) <= 0.02
    assert low.holds
    assert math.isfinite(low.std_err)
    mid = check_cc_tightness(200, 0.5, samples=5, seed=1)
    assert abs(mid.lhs - 0.5) <= 0.03
    assert mid.holds


def test_cc_tightness_complete():
    report = check_cc_tightness(60, 1.0, samples=3, seed=2)
    assert report.lhs == pytest.approx(1.0)
    assert report.holds


def test_cc_tightness_hypothesis_guard():
    with pytest.raises(ValueError):
        check_cc_tightness(500, 0.001, samples=3, seed=0)
    with pytest.raises(ValueError):
        check_cc_tightness(500, 0.1, samples=2, seed=0)


@pytest.mark.parametrize("gamma", [0.0, 1.5])
def test_cc_tightness_refuses_gamma_outside_unit_interval(gamma):
    with pytest.raises(ValueError, match=rf"^gamma must be in \(0, 1\], got {gamma}$"):
        check_cc_tightness(500, gamma, samples=3, seed=0)
    with pytest.raises(ValueError, match="^gamma"):  # gamma is checked before the cap
        check_cc_tightness(10001, gamma, samples=3, seed=0)


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_cc_tightness_refuses_fewer_than_two_nodes(n, capsys):
    with pytest.raises(ValueError, match=f"^need n >= 2 nodes, got n={n}$"):
        check_cc_tightness(n, 0.5, samples=3, seed=0)
    # the CLI refuses the same n as a usage error, before the library call
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "cc", "--n", str(n)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", f"eigm verify: error: argument --n: must be at least 2 with --theorem cc, got {n}\n"
    )


def test_cc_tightness_refuses_n_above_the_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^n=10001 exceeds dense-matrix cap 10000$"):
            check_cc_tightness(10001, 0.1, samples=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cc_tightness_peaks_under_eight_mib():
    # samples are drawn in row blocks with no n x n uniform matrix, which
    # alone would take 17.2 MiB here
    check_cc_tightness(60, 0.5, samples=3, seed=0)
    tracemalloc.start()
    try:
        check_cc_tightness(1500, 0.05, samples=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_er_ratio_increases_toward_one():
    r100 = er_triangle_tightness_ratio(100)
    r1000 = er_triangle_tightness_ratio(1000)
    assert r100 == pytest.approx(0.9849, abs=1e-3)
    assert r1000 == pytest.approx(0.9985, abs=1e-3)
    assert r100 < r1000 < 1.0


def test_kcycle_tightness_theta_in_n():
    """The ER expectation tracks gamma^{k/2} V^{k/2} / k! with an
    n-independent constant (2^{k/2} k! / 2k in the large-n limit)."""
    gamma = 0.5
    for k in (3, 4, 5):
        ratios = []
        for n in (10, 12, 14):
            p = er_construction(n, gamma)
            claimed = gamma ** (k / 2) * volume(p) ** (k / 2) / math.factorial(k)
            ratios.append(expected_kcycles_exact(p, k) / claimed)
        # Theta in n: ratio stable across n for fixed k
        assert max(ratios) / min(ratios) < 1.5
        limit_const = 2 ** (k / 2) * math.factorial(k) / (2 * k)
        for r in ratios:
            assert limit_const / 4 <= r <= limit_const * 4


def test_bound_report_csv(tmp_path, monkeypatch, capsys):
    report = check_triangle_bound(er_construction(8, 0.4))
    # the row `eigm verify` writes for this report
    monkeypatch.setattr("eigm.cli.check_triangle_bound", lambda p: report)
    out = tmp_path / "tri.csv"
    assert main(["verify", "--theorem", "tri", "--trials", "1", "--output", str(out)]) == 0
    header, row = out.read_text(encoding="utf-8").splitlines()
    fields = row.split(",")
    assert len(fields) == len(header.split(","))
    assert fields[0] == "triangles"
    assert fields[1] == "exact-trace"
    assert fields[5] == "True"
    assert fields[6] == "nan"


def test_random_probmatrix_regimes():
    dense = random_probmatrix(12, seed=5)
    sparse = random_probmatrix(12, seed=5, scale=0.1)
    assert dense.mat.max() > 0.5
    assert sparse.mat.max() <= 0.1
    assert np.array_equal(dense.mat, dense.mat.T)
