"""Tests of the benchmark's own generator and output checks.

    python3 -m pytest perfbench/tests -q

They use the stored reference outputs and never start the CLI.
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent.parent


def golden(workload, name, delimiter="\t"):
    path = run.GOLDEN / workload / f"{name}.txt"
    return check.parse_rows(path.read_text(encoding="utf-8"), delimiter)


def plan(workload, tmp_path):
    return workloads.build(workload, run.PINNED_SEED, ROOT, tmp_path)


def call_named(p, name):
    return next(c for c in p.calls if c.name == name)


def test_generator_is_byte_deterministic():
    a = gen.table_text(200, 1e-4, 7)
    assert a == gen.table_text(200, 1e-4, 7)
    assert a != gen.table_text(200, 1e-4, 8)


def test_generator_respects_threshold(tmp_path):
    path = tmp_path / "t.tsv"
    gen.write_table(path, 500, 1e-4, 3)
    rows = check.parse_rows(path.read_text(encoding="utf-8"), "\t")
    assert len(rows) == 500 and len({r["id"] for r in rows}) == 500
    assert all(0.0 < float(r["p1"]) <= 1e-4 for r in rows)
    assert all(0.0 < float(r["p2"]) <= 1.0 for r in rows)


def test_generator_draws_are_stratified():
    import numpy as np

    u = gen.stratified(np.random.default_rng(5), 400)
    assert sorted(np.floor(u * 400).astype(int).tolist()) == list(range(400))
    rows = check.parse_rows(gen.table_text(1000, 1e-4, 9), "\t")
    # the 350 strong signals, and 65 +- 1 of the 650 stratified nulls
    assert 414 <= sum(float(r["p2"]) <= 0.1 for r in rows) <= 416


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reference_outputs_pass_every_check(workload, tmp_path):
    p = plan(workload, tmp_path)
    rows = {c.name: golden(workload, c.name, c.delimiter) for c in p.calls}
    for c in p.calls:
        assert c.check(rows[c.name]) == [], c.name
        assert check.check_same(rows[c.name], rows[c.name], c.key,
                                "self") == []
    for low, high in p.ordered:
        assert check.check_not_above(rows[low], rows[high], high) == []


def test_flipped_replicated_cell_is_rejected(tmp_path):
    c = call_named(plan("published-simulate", tmp_path), "iga-fdr-l00-0.8")
    rows = golden("published-simulate", c.name)
    assert rows[0]["replicated"] == "yes"
    rows[0]["replicated"] = "no"
    assert c.check(rows)


def test_ambiguous_rvalue_passes_either_way():
    for flag in ("yes", "no"):
        rows = [{"id": "a", "r_value": "0.0500", "replicated": flag}]
        assert check.check_rvalues(rows, 0.05) == []
    rows = [{"id": "a", "r_value": "0.0000", "replicated": "yes"}]
    assert check.check_rvalues(rows, 0.05) == []
    rows = [{"id": "a", "r_value": "1.0001", "replicated": "no"}]
    assert check.check_rvalues(rows, 0.05)


@pytest.mark.parametrize("name, row", [
    ("iga-fdr-l00-0.0", 0), ("iga-fdr-l00-0.8", 6), ("iga-refine", 1),
    ("t2d-fdr", 0), ("t2d-fdr", 3), ("tpp-bonferroni", 0)])
def test_published_rvalue_off_by_1e3_is_rejected(name, row, tmp_path):
    c = call_named(plan("published-simulate", tmp_path), name)
    rows = golden("published-simulate", name)
    for delta in (1e-3, -1e-3):
        bad = copy.deepcopy(rows)
        value = float(bad[row]["r_value"]) + delta
        if not 0.0 <= value <= 1.0:
            continue
        bad[row]["r_value"] = f"{value:.4f}"
        # keep the replicated flag consistent, so only the value is wrong
        bad[row]["replicated"] = "yes" if value < workloads.Q else "no"
        assert c.check(bad), (name, row, delta)


def test_iga_non_headline_row_must_be_one(tmp_path):
    c = call_named(plan("published-simulate", tmp_path), "iga-fdr-l00-0.8")
    rows = golden("published-simulate", c.name)
    rows[-1]["r_value"] = "0.9000"
    assert c.check(rows)


def test_fdr_hat_above_bound_is_rejected(tmp_path):
    c = call_named(plan("published-simulate", tmp_path), "simulate")
    rows = golden("published-simulate", c.name, ",")
    se = float(rows[2]["se_fdr"])
    rows[2]["fdr_hat"] = f"{workloads.Q + 3 * se + 1e-4:.6f}"
    assert c.check(rows)


def test_fdr_above_other_method_is_rejected():
    low = golden("rvalues-synth", "fdr")
    high = golden("rvalues-synth", "bonferroni")
    i = next(i for i, r in enumerate(low) if 0.02 < float(r["r_value"]) < 0.5)
    high[i]["r_value"] = f"{float(low[i]['r_value']) - 0.01:.4f}"
    assert check.check_not_above(low, high, "bonferroni")


def test_reference_comparison_allows_new_columns_and_digits():
    ref = golden("published-simulate", "iga-fdr-l00-0.8")
    rows = copy.deepcopy(ref)
    for row in rows:
        row["r_value"] = row["r_value"] + "1"      # one more digit
        row["explain"] = "primary"                 # a later column
    assert check.check_same(rows, ref, "id", "reference") == []
    rows[0]["r_value"] = "0.0084"
    assert check.check_same(rows, ref, "id", "reference")
    assert check.check_same(rows[1:], ref, "id", "reference")


def test_half_unit():
    assert check.half_unit("0.0500") == pytest.approx(5e-5)
    assert check.half_unit("1") == pytest.approx(0.5)
    assert check.half_unit("3.32732e-19") == pytest.approx(5e-25)
    assert check.half_unit_sig(0.149, 3) == pytest.approx(5e-4)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_self_time_subtracts_direct_children():
    import tracing

    spans = [
        {"id": 0, "name": "cli.main", "parent": None,
         "start": 0.0, "end": 10.0},
        {"id": 1, "name": "selection.refine_for_replicability", "parent": 0,
         "start": 1.0, "end": 9.0},
        {"id": 2, "name": "selection.bh_reject", "parent": 1,
         "start": 2.0, "end": 5.0},
    ]
    summary = tracing.summarize(spans)
    assert summary["cli.main"] == {"calls": 1, "incl": 10.0, "self": 2.0}
    assert summary["selection.refine_for_replicability"]["self"] == 5.0
    assert summary["selection.bh_reject"]["self"] == 3.0


def test_traced_pass_covers_every_layer_and_restores_the_package(tmp_path):
    import tracing

    sys.path.insert(0, str(ROOT / "src"))
    from repval import cli, simulate

    before = (cli.fdr_rvalues_all, simulate.normal_sf)
    p = plan("published-simulate", tmp_path)
    tracer = tracing.Tracer("published-simulate", "test")
    with tracing.instrumented(tracer):
        outputs = tracing.replay(tracer, p.calls, tmp_path)
        tracing.cover(tracer, p.table, 1, workloads.Q, workloads.L00)
    assert (cli.fdr_rvalues_all, simulate.normal_sf) == before
    assert all(code == 0 for code, _ in outputs.values())
    given = {name: 1.0 for name in tracing.PER_LAYER
             if name.startswith(("import.", "normal.normal_"))
             or name == "dependence.c1_tilde.us"}
    values, missing = tracing.layer_metrics(tracer.spans, given, {})
    assert missing == []
    by_id = {s["id"]: s for s in tracer.spans}
    mains = [s for s in tracer.spans if s["name"] == "cli.main"]
    assert len(mains) == len(p.calls)
    assert all(s["parent"] is None or s["parent"] in by_id
               for s in tracer.spans)
    assert values["selection.kept_frac"] == pytest.approx(14 / 61)
