"""The four benchmark workloads: inputs, CLI argv, output extraction, checks.

Every workload is driven only through ``eigm.cli.main(argv)`` on files the
benchmark writes; nothing here passes ``--workers`` or calls a private
helper.  Inputs come from ``eigm.synth`` keyed by the benchmark seed.

Each workload is scaled down from the paper-scale run described in
NOTES.md so that several repetitions fit in one benchmark run, while the
layer that dominates its time stays the same.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import shutil
from pathlib import Path

import numpy as np

import eigm
from eigm import synth

# Relative tolerance for floats compared against the committed expected
# values of the default seed.  Loose enough for BLAS summation-order
# differences between machines, tight enough to catch a changed statistic.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12

# The brute-force k-cycle oracle draws each trial's node count from its
# own --seed, and its cost grows like n^6, so a seed-dependent draw would
# swing the audit's wall time by tens of percent.  It therefore always
# runs on this fixed verify seed; every other command takes the benchmark
# seed.
KCYCLE_ORACLE_SEED = 0

# The trace k-cycle battery falls back to the same brute-force oracle for
# any trial whose drawn n is at most 14, so two or three such draws
# triple its time, and nearly every seed has some.  Its verify seed is
# therefore the first of seed, seed + 2^32, seed + 2 * 2^32, ... whose
# trial sizes all exceed KCYCLE_ORACLE_MAX_N.  The oracle stays covered by
# its own command.
KCYCLE_ORACLE_MAX_N = 14


def _kcycle_trial_n(seed: int, trial: int, n_max: int) -> int:
    """The node count ``eigm verify --theorem kcycle`` draws for a trial
    (the CLI's derive_seed, repeated here so that the benchmark does not
    import a helper of the program)."""
    h = hashlib.blake2b(digest_size=8)
    for part in ("verify-n", trial):
        h.update(repr(part).encode())
        h.update(b"\x1f")
    draw = (int(seed) ^ int.from_bytes(h.digest(), "big")) & (2**64 - 1)
    return 4 + draw % max(1, n_max - 3)


def kcycle_trace_seed(seed: int, n_max: int, trials: int) -> int:
    for j in range(100_000):
        cand = seed + (j << 32)
        if all(_kcycle_trial_n(cand, t, n_max) > KCYCLE_ORACLE_MAX_N for t in range(trials)):
            return cand
    raise RuntimeError(f"no trace-only k-cycle seed found for seed {seed}")


SCALES = {
    "full": {
        "clustered_cliques": 100,
        "clustered_samples": 2,
        "powerlaw_draw_n": 1500,
        "powerlaw_n": 1000,
        "powerlaw_samples": 2,
        "powerlaw_ranks": (16, 128),
        "pipeline_cliques": 120,
        "pipeline_samples": 3,
        "tri_n": 400,
        "tri_trials": 40,
        "kcycle_oracle_n": 14,
        "kcycle_oracle_trials": 3,
        "kcycle_trace_n": 400,
        "kcycle_trace_trials": 100,
        "cc_n": 1500,
        "cc_trials": 3,
        "cell_n": 16,
        "cell_trials": 5,
    },
    "tiny": {
        "clustered_cliques": 8,
        "clustered_samples": 2,
        "powerlaw_draw_n": 200,
        "powerlaw_n": 100,
        "powerlaw_samples": 2,
        "powerlaw_ranks": (4, 8),
        "pipeline_cliques": 8,
        "pipeline_samples": 2,
        "tri_n": 20,
        "tri_trials": 4,
        "kcycle_oracle_n": 8,
        "kcycle_oracle_trials": 2,
        "kcycle_trace_n": 20,
        "kcycle_trace_trials": 4,
        "cc_n": 120,
        "cc_trials": 3,
        "cell_n": 8,
        "cell_trials": 2,
    },
}

OMEGAS = (0.0, 0.5, 1.0)


def input_facts(g) -> dict:
    d = eigm.degrees(g)
    return {"n": int(g.n), "m": int(g.m), "distinct_degrees": int(len(np.unique(d)))}


class Workload:
    """One workload: ``prepare`` writes inputs, ``commands`` lists CLI argv,
    ``check`` turns the outputs into operations with an ok flag."""

    name = ""

    def __init__(self, scale: dict, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.dir = workdir
        self.facts: dict = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def output_files(self) -> list[Path]:
        """CSV outputs whose sha256 is reported (information only) and
        compared between traced and untraced runs."""
        raise NotImplementedError

    def records(self, results) -> dict:
        """Machine-comparable view of the outputs (see ``compare_records``)."""
        raise NotImplementedError

    def check(self, results, expected: dict | None) -> list[dict]:
        """Operations with ok flags: the seed-independent invariants, plus a
        match against ``expected`` when it is given."""
        raise NotImplementedError

    @property
    def out(self) -> Path:
        return self.dir / "out"

    def clean(self) -> None:
        """Remove the previous repetition's outputs."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def digests(self) -> dict:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in self.output_files() if p.exists()
        }


# ---------------------------------------------------------------- sweeps


def _read_sweep_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# sweep.csv columns holding means of integer statistics: the mean of
# integers over a fixed sample count is exact, so these compare exactly.
_EXACT_SWEEP_COLUMNS = ("max_degree_mean", "triangle_count_mean")


def _sweep_row_record(row: dict) -> dict:
    values = {
        k: float(v) for k, v in row.items() if k not in ("model", "status")
    }
    return {"model": row["model"], "status": row["status"], "values": values}


class _SweepWorkload(Workload):
    plot = False

    def grid(self) -> list[tuple[str, float]]:
        raise NotImplementedError

    def samples(self) -> int:
        raise NotImplementedError

    def graph(self):
        raise NotImplementedError

    def prepare(self) -> None:
        g = self.graph()
        self.facts = input_facts(g)
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "reference.edges").write_text(eigm.serialize_edge_list(g), encoding="utf-8")
        sections = {}
        for kind, knob in self.grid():
            sections.setdefault(kind, []).append(knob)
        knob_key = {"linear": "omega", "ccop": "omega", "hdop": "h", "tsvd": "rank"}
        lines = [
            f"input = {self.dir / 'reference.edges'}",
            f"samples = {self.samples()}",
            f"seed = {self.seed}",
            f"output_dir = {self.out}",
        ]
        for kind, knobs in sections.items():
            lines.append(f"[{kind}]")
            lines.append(f"{knob_key[kind]} = " + ", ".join(repr(k) for k in knobs))
        (self.dir / "sweep.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def commands(self) -> list[list[str]]:
        argv = ["sweep", "--config", str(self.dir / "sweep.cfg")]
        return [argv + ["--plot"] if self.plot else argv]

    def output_files(self) -> list[Path]:
        return [self.out / "sweep.csv"]

    def records(self, results) -> dict:
        path = self.out / "sweep.csv"
        rows = _read_sweep_csv(path) if path.exists() else []
        return {"rows": [_sweep_row_record(r) for r in rows]}

    def check(self, results, expected):
        grid = self.grid()
        rc = results[0]["rc"]
        rows = self.records(results)["rows"]
        by_point = {(r["model"], r["values"]["knob"]): r for r in rows}
        exp_rows = {}
        if expected is not None:
            exp_rows = {(r["model"], r["values"]["knob"]): r for r in expected["rows"]}
        ops = []
        for kind, knob in grid:
            name = f"sweep {kind}[{knob:g}]"
            row = by_point.get((kind, float(knob)))
            if rc != 0 or row is None:
                ops.append(_op(name, False, f"exit {rc}, row missing"))
                continue
            why = self._row_invariants(kind, knob, row)
            if not why and expected is not None:
                why = compare_records(
                    exp_rows.get((kind, float(knob))), row, exact=_EXACT_SWEEP_COLUMNS
                )
            ops.append(_op(name, not why, why))
        if self.plot:
            svg = self.out / "sweep.svg"
            ok = svg.exists() and svg.read_text(encoding="utf-8").startswith("<svg")
            ops.append(_op("sweep plot", ok, "" if ok else "sweep.svg missing"))
        return ops

    def _row_invariants(self, kind, knob, row) -> str:
        if row["status"] != "ok":
            return f"status {row['status']!r}"
        vals = row["values"]
        if kind in ("linear", "ccop") and knob == 1.0:
            for col in ("overlap_expected", "overlap_empirical"):
                if math.isnan(vals[col]) or abs(vals[col] - 1.0) > 1e-12:
                    return f"{col}={vals[col]!r} at omega=1, expected 1"
        return ""


class SweepClustered(_SweepWorkload):
    name = "sweep_clustered"
    plot = True

    def graph(self):
        return synth.clustered_graph(self.scale["clustered_cliques"], 7, 5e-4, seed=self.seed)

    def grid(self):
        return [(kind, w) for kind in ("linear", "ccop") for w in OMEGAS]

    def samples(self):
        return self.scale["clustered_samples"]


def powerlaw_reference(draw_n: int, target_n: int, seed: int):
    """Connected heavy-tailed graph with exactly ``target_n`` nodes.

    The LCC of a power-law configuration graph varies in size by several
    percent between seeds, and the dense model builds cost n^3, so the
    benchmark trims the LCC to a fixed node count by deleting surplus
    leaves (degree-1 nodes), which keeps it connected.  A draw whose LCC
    is already too small is replaced by the next derived draw.
    """
    rng = np.random.default_rng([seed % 2**32, 1])
    for attempt in range(100):
        g0 = synth.powerlaw_configuration_graph(draw_n, 2.2, seed=seed + 1 + attempt * 7919)
        g, _ = eigm.largest_connected_component(g0)
        leaves = np.flatnonzero(eigm.degrees(g) == 1)
        surplus = g.n - target_n
        if 0 <= surplus <= len(leaves):
            break
    else:
        raise RuntimeError("no power-law draw large enough for the target size")
    drop = np.zeros(g.n, dtype=bool)
    drop[rng.choice(leaves, size=surplus, replace=False)] = True
    new_index = np.cumsum(~drop) - 1
    e = g.edge_array()
    keep = ~drop[e[:, 0]] & ~drop[e[:, 1]]
    e = new_index[e[keep]]
    return eigm.Graph.from_pairs(target_n, e[:, 0], e[:, 1])


class SweepPowerlaw(_SweepWorkload):
    name = "sweep_powerlaw"

    def graph(self):
        return powerlaw_reference(
            self.scale["powerlaw_draw_n"], self.scale["powerlaw_n"], self.seed
        )

    def grid(self):
        n = self.scale["powerlaw_n"]
        return [("hdop", 0.0), ("hdop", float(n // 8))] + [
            ("tsvd", float(k)) for k in self.scale["powerlaw_ranks"]
        ]

    def samples(self):
        return self.scale["powerlaw_samples"]


# ---------------------------------------------------------- cli pipeline


class CliPipeline(Workload):
    """ingest -> fit -> sample -> stats on a messy edge-list file."""

    name = "cli_pipeline"

    def prepare(self) -> None:
        g = synth.clustered_graph(self.scale["pipeline_cliques"], 7, 5e-4, seed=self.seed)
        self.facts = input_facts(g)
        rng = np.random.default_rng([self.seed % 2**32, 2])
        ids = rng.choice(10**9, size=g.n, replace=False)
        e = g.edge_array()
        rows = [(ids[u], ids[v]) for u, v in e]
        # reversed duplicates of a third of the edges
        rows += [(ids[v], ids[u]) for u, v in e[rng.random(len(e)) < 1 / 3]]
        order = rng.permutation(len(rows))
        weights = rng.random(len(rows))
        lines = ["# messy edge list: original ids, weights, reversed duplicates"]
        for k, i in enumerate(order):
            if k % 500 == 0:
                lines.append(f"% block {k // 500}")
                lines.append("")
            u, v = rows[i]
            lines.append(f"{u}\t{v} {weights[k]:.4f}")
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "messy.edges").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def commands(self):
        out = str(self.out)
        norm = str(self.out / "messy_normalized.edges")
        return [
            ["ingest", "--input", str(self.dir / "messy.edges"), "--output-dir", out],
            ["fit", "--input", norm, "--output-dir", out],
            [
                "sample", "--input", str(self.out / "messy_normalized.pmat"),
                "--samples", str(self.scale["pipeline_samples"]),
                "--seed", str(self.seed), "--output-dir", out,
            ],
            [
                "stats", "--reference", norm,
                "--sample", str(self.out / "messy_normalized_sample0.edges"),
                "--output", str(self.out / "stats.csv"),
            ],
        ]

    def output_files(self):
        return [
            self.out / "messy_idmap.csv",
            self.out / "messy_normalized_fit.csv",
            self.out / "stats.csv",
        ]

    def records(self, results) -> dict:
        rec: dict = {}
        m = re.match(r"(\d+) nodes?, (\d+) edges?, (\d+) triangles?", results[0]["stdout"])
        if m:
            rec["ingest"] = {"nodes": int(m[1]), "edges": int(m[2]), "triangles": int(m[3])}
        m = re.search(r"converged in (\d+) iterations", results[1]["stdout"])
        if m:
            rec["fit"] = {"iterations": int(m[1])}
        rec["sample"] = {
            "edges": [int(x) for x in re.findall(r"\((\d+) edges\)", results[2]["stdout"])]
        }
        stats = self.out / "stats.csv"
        if stats.exists():
            with open(stats, newline="", encoding="utf-8") as fh:
                row = next(csv.DictReader(fh), None)
            if row is not None:
                rec["stats"] = {"values": {k: float(v) for k, v in row.items()}}
        return rec

    def _pmat_volume(self) -> float:
        tokens = (self.out / "messy_normalized.pmat").read_text(encoding="utf-8").split()
        return float(np.asarray(tokens[3::3], dtype=np.float64).sum())

    def check(self, results, expected):
        rec = self.records(results)
        exp = expected or {}
        ops = []

        why = _exit_why(results[0])
        if not why:
            got = rec.get("ingest")
            if got is None:
                why = "no summary line"
            elif (got["nodes"], got["edges"]) != (self.facts["n"], self.facts["m"]):
                why = f"ingest {got}, expected {self.facts}"
            elif expected is not None:
                why = compare_records(exp.get("ingest"), got)
        ops.append(_op("ingest", not why, why))

        why = _exit_why(results[1])
        if not why:
            if "fit" not in rec:
                why = "fit did not report convergence"
            else:
                vol = self._pmat_volume()
                m = self.facts["m"]
                if abs(vol - m) > 1e-6 * m:
                    why = f"model volume {vol!r} != m={m}"
        ops.append(_op("fit", not why, why))

        why = _exit_why(results[2])
        if not why:
            got = rec["sample"]
            if len(got["edges"]) != self.scale["pipeline_samples"]:
                why = f"{len(got['edges'])} samples written"
            elif expected is not None:
                why = compare_records(exp.get("sample"), got)
        ops.append(_op("sample", not why, why))

        why = _exit_why(results[3])
        if not why:
            if "stats" not in rec:
                why = "stats.csv missing"
            elif expected is not None:
                why = compare_records(
                    exp.get("stats"), rec["stats"],
                    exact=("max_degree", "triangle_count"),
                )
        ops.append(_op("stats", not why, why))
        return ops


# ----------------------------------------------------------------- audit


class Audit(Workload):
    """A battery of ``eigm verify`` bound checks plus ``cell-verify``."""

    name = "audit"

    def prepare(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        s = self.scale
        self.trace_seed = kcycle_trace_seed(
            self.seed, s["kcycle_trace_n"], s["kcycle_trace_trials"]
        )
        self.facts = {"kcycle_trace_verify_seed": self.trace_seed}

    def _verify(self, tag, *args, seed=None):
        seed = self.seed if seed is None else seed
        return ["verify", *args, "--seed", str(seed), "--output", str(self.out / f"{tag}.csv")]

    def commands(self):
        s = self.scale
        return [
            self._verify("tri", "--theorem", "tri", "--n", str(s["tri_n"]),
                         "--trials", str(s["tri_trials"])),
            self._verify("kcycle_oracle", "--theorem", "kcycle", "--k", "6",
                         "--n", str(s["kcycle_oracle_n"]),
                         "--trials", str(s["kcycle_oracle_trials"]), seed=KCYCLE_ORACLE_SEED),
            self._verify("kcycle_trace", "--theorem", "kcycle", "--k", "6",
                         "--n", str(s["kcycle_trace_n"]),
                         "--trials", str(s["kcycle_trace_trials"]), seed=self.trace_seed),
            self._verify("cc", "--theorem", "cc", "--n", str(s["cc_n"]), "--gamma", "0.05",
                         "--trials", str(s["cc_trials"])),
            ["cell-verify", "--n", str(s["cell_n"]), "--max-degree", "3",
             "--trials", str(s["cell_trials"]), "--seed", str(self.seed),
             "--output", str(self.out / "cell.csv")],
        ]

    _TAGS = ("tri", "kcycle_oracle", "kcycle_trace", "cc", "cell")

    def output_files(self):
        return [self.out / f"{t}.csv" for t in self._TAGS]

    def records(self, results) -> dict:
        rec = {}
        for tag in self._TAGS:
            path = self.out / f"{tag}.csv"
            if not path.exists():
                continue
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            rec[tag] = [
                {
                    "status": r.get("holds", ""),
                    "mode": r.get("mode", ""),
                    "values": {
                        k: float(v) for k, v in r.items()
                        if k not in ("theorem", "mode", "holds")
                    },
                }
                for r in rows
            ]
        return rec

    def check(self, results, expected):
        rec = self.records(results)
        ops = []
        for tag, res in zip(self._TAGS, results):
            rows = rec.get(tag, [])
            trials = self._expected_rows(tag)
            exit_why = _exit_why(res)
            exp_rows = (expected or {}).get(tag, [])
            for k in range(trials):
                name = f"{tag} check {k}"
                row = rows[k] if k < len(rows) else None
                if exit_why or row is None:
                    ops.append(_op(name, False, exit_why or "row missing"))
                    continue
                if tag == "cell":
                    v = row["values"]
                    why = ""
                    if v["numerical_rank"] > v["rank_bound"]:
                        why = f"rank {v['numerical_rank']} > bound {v['rank_bound']}"
                    elif not v["max_error"] <= 1e-3:
                        why = f"softmax error {v['max_error']!r} > 1e-3"
                else:
                    why = "" if row["status"] == "True" else "bound check does not hold"
                if not why and expected is not None:
                    why = compare_records(
                        exp_rows[k] if k < len(exp_rows) else None, row,
                        exact=("n", "max_degree", "rank_bound", "numerical_rank"),
                    )
                ops.append(_op(name, not why, why))
        return ops

    def _expected_rows(self, tag) -> int:
        s = self.scale
        return {
            "tri": s["tri_trials"],
            "kcycle_oracle": s["kcycle_oracle_trials"],
            "kcycle_trace": s["kcycle_trace_trials"],
            "cc": 1,
            "cell": s["cell_trials"],
        }[tag]


WORKLOADS = {w.name: w for w in (SweepClustered, SweepPowerlaw, CliPipeline, Audit)}


# ---------------------------------------------------------------- checks


def _op(name: str, ok: bool, why: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "why": why}


def _exit_why(result) -> str:
    if result["rc"] != 0:
        err = result["stderr"].strip().splitlines()
        return f"exit {result['rc']}" + (f": {err[-1]}" if err else "")
    return ""


def _same_float(a: float, b: float, exact: bool) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def compare_records(expected, got, exact=()) -> str:
    """'' when ``got`` matches ``expected``, else the first mismatch.

    Records are nested dicts/lists.  Leaves under a ``values`` dict are
    floats: NaN positions and the columns named in ``exact`` must match
    exactly, the rest within FLOAT_RTOL.  Every other leaf (counts,
    statuses, names) must be equal.
    """
    if expected is None:
        return "no expected value recorded"
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return f"fields differ: expected {sorted(expected)}, got {sorted(got or {})}"
        for k, v in expected.items():
            if k == "values":
                for col, ev in v.items():
                    gv = got[k].get(col)
                    if gv is None or not _same_float(ev, gv, col in exact):
                        return f"{col}: expected {ev!r}, got {gv!r}"
                if set(v) != set(got[k]):
                    return f"columns differ: {sorted(set(v) ^ set(got[k]))}"
                continue
            why = compare_records(v, got[k], exact)
            if why:
                return f"{k}: {why}"
        return ""
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return f"expected {len(expected)} items, got {len(got) if isinstance(got, list) else got!r}"
        for k, (e, g) in enumerate(zip(expected, got)):
            why = compare_records(e, g, exact)
            if why:
                return f"[{k}] {why}"
        return ""
    return "" if expected == got else f"expected {expected!r}, got {got!r}"
