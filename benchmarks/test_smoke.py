"""Smoke tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest -q benchmarks/test_smoke.py

They run every workload for a short length (about 90 s in all, most of
it one round of the kernel workload).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Every per-layer metric named when the benchmark was defined.
PER_LAYER = """
network.born_table_s tensor.apply_raw_batch_s tensor.batch_flops network.settings_rows
network.probabilities network.rows_read network.rows_read_ratio network.save_table_s
network.load_table_s network.table_bytes network.expectation_calls network.expectation_s
network.signed_sum_calls bell.evaluate_calls bell.evaluate_s decomp.delta_set_calls
decomp.f_coeffs_s certify.stats_s certify.check_rows certify.failed_rows certify.full_s
extract.extract_all_calls extract.extract_all_s extract.branch_of_calls extract.effective_s
extract.unitary_s network.validate_calls bell.seesaw_s bell.seesaw_iters bell.classical_bound_s
adversary.apply_s cli.simulate_s cli.certify_s
""".split()


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def result(lines):
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def test_contract_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(spans.per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(PER_LAYER) <= {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_untraced(workload):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    p50 = [ln for ln in lines if ln.strip().startswith("job_s_p50")]
    assert len(p50) == 1 and " s (n=" in p50[0]
    p90 = [ln for ln in lines if ln.strip().startswith("job_s_p90")]
    assert len(p90) == 1 and ("absent:" in p90[0] or "samples above" in p90[0])
    record = json.loads((BENCH_DIR / "results" / f"{workload}-seed3-trace0.json").read_text())
    for key in ("numpy", "blas", "blas_threads", "nproc", "python", "commit", "loadavg_at_start"):
        assert key in record["environment"]


@pytest.mark.parametrize("workload", ["verify", "bounds"])
def test_traced_run_reports_every_layer_metric(workload):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = result(lines)
    assert res["correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(PER_LAYER) <= set(res["metrics"])
    record = json.loads((BENCH_DIR / "results" / f"{workload}-seed3-trace1.json").read_text())
    if workload == "bounds":
        assert "network.rows_read_ratio" in record["absent"]
        assert res["metrics"]["bell.seesaw_iters"]["value"] > 0
    else:
        assert res["metrics"]["network.expectation_calls"]["value"] > 0


def test_traced_counts_must_repeat(tmp_path):
    seed = "424242"
    digest = run.code_digest()
    counts = BENCH_DIR / "results" / f"counts-bounds-seed{seed}-{digest}.json"
    counts.unlink(missing_ok=True)
    try:
        args = ("--workload", "bounds", "--seed", seed, "--seconds", "0.1", "--trace", "1")
        first, _ = bench(*args)
        second, _ = bench(*args)
        assert first.returncode == 0 and second.returncode == 0, second.stderr
        planted = json.loads(counts.read_text())
        planted["bell.seesaw_iters"] += 1
        counts.write_text(json.dumps(planted))
        third, lines = bench(*args)
        assert third.returncode == 3
        assert "bell.seesaw_iters" in third.stderr
        assert not lines or not lines[-1].startswith("{")
    finally:
        counts.unlink(missing_ok=True)


def test_planted_wrong_expectation_is_a_failed_job(tmp_path, monkeypatch):
    jobs, _ = workloads.build("verify", 3, str(tmp_path))
    perturbed = [j for j in jobs if j.name.endswith("-perturb")][:1]
    assert run.measure(perturbed, 1e-9)["failures"] == []
    monkeypatch.setitem(workloads.STATS_VERDICT, "perturb", "certified")
    outcome = run.measure(perturbed, 1e-9)
    assert outcome["attempted"] == 1 and len(outcome["failures"]) == 1
    assert "verdict 'not-certified', expected 'certified'" in outcome["failures"][0]


def test_a_job_that_raises_is_a_failed_job():
    def boom():
        raise ValueError("planted")

    outcome = run.measure([workloads.Job("boom", boom, lambda out: None)], 1e-9)
    assert outcome["attempted"] == 1 and "planted" in outcome["failures"][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc, lines = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)
    assert not (tmp_path / "benchmarks" / "results").exists()


def test_tracer_restores_every_name_it_wrapped():
    def snapshot():
        names = {n: dict(vars(m)) for n, m in sys.modules.items() if n == "gatecert" or n.startswith("gatecert.")}
        table = workloads.network.ProbabilityTable
        return names, (table.signed_sum, table.array)

    before = snapshot()
    with spans.Tracer().installed():
        assert workloads.network.born_table is not before[0]["gatecert.network"]["born_table"]
        assert workloads.cli.born_table is workloads.network.born_table
        assert sys.modules["gatecert"].certify is workloads.certify.certify
    assert snapshot() == before
