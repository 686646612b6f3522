"""Tests of the benchmark itself, on its quick (tiny-ladder) mode.

Run:  python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import sgfem1d  # noqa: E402

# too coarse to align: recorded as unresolved, not failed
KNOWN_UNRESOLVED = "eigen/case2/FEM/p1/N10/lambda8"


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _quick(workload, trace, seed=0):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_runner():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.PER_LAYER]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_plain_run_emits_end_to_end_metrics(workload):
    info, result = _quick(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["wrong"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["failed_ops"] == {} and result["failed"] == 0
    # the under-resolved case2 FEM p=1 N=10 eigenpair 8 fails alignment
    expected = {KNOWN_UNRESOLVED} if workload == "eigen_ladder" else set()
    assert set(info["unresolved_ops"]) == expected
    assert info["wall_s"] > 0
    assert info["env"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_per_layer_metrics(workload):
    info, result = _quick(workload, trace=1)
    assert result["correct"], info["wrong"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert all(m["value"] is not None for m in metrics.values())
    for _, _, span in spans.SITES[workload]:
        assert metrics[f"{span}.self_s"]["value"] > 0


def test_missing_call_site_is_unmeasured(monkeypatch):
    sites = tuple(("sgfem1d", "no_such_solver", span) if span == "densela.solve_spd"
                  else (m, a, span) for m, a, span in spans.SITES["large_cell"])
    monkeypatch.setitem(spans.SITES, "large_cell", sites)
    tracer = spans.Tracer("large_cell")
    assert tracer.missing == ["sgfem1d.no_such_solver"]
    inputs = workloads.make_inputs(0, quick=True)
    tracer.install()
    try:
        workloads.run_large_cell(inputs, workloads.PassClock())
    finally:
        tracer.uninstall()
    assert sgfem1d.solve_spd.__module__ == "sgfem1d.densela"  # restored
    metrics, unmeasured = tracer.metrics(0.0)
    assert unmeasured == ["densela.solve_spd"]
    for name in ("densela.solve_spd.self_s", "densela.solve_spd.flops_computed",
                 "densela.solve_spd.rel_residual_max"):
        assert metrics[name]["value"] is None
    assert metrics["densela.generalized_eigs.self_s"]["value"] > 0


def test_counter_that_no_longer_fits_is_unmeasured(monkeypatch):
    def changed(system):
        raise AttributeError("no K_FF")

    monkeypatch.setattr(spans, "_half_bandwidth", changed)
    tracer = spans.Tracer("large_cell")
    tracer.install()
    try:
        ops, _ = workloads.run_large_cell(workloads.make_inputs(0, quick=True),
                                          workloads.PassClock())
    finally:
        tracer.uninstall()
    assert all(isinstance(r, dict) for r in ops.values())
    metrics, unmeasured = tracer.metrics(0.0)
    assert unmeasured == ["assembly.assemble counters"]
    assert metrics["assembly.half_bandwidth_max"]["value"] is None
    assert metrics["assembly.ndof_total"]["value"] is None
    assert metrics["assembly.assemble.self_s"]["value"] > 0


def test_seed_zero_is_the_paper_cases_and_other_seeds_are_non_fitting():
    c2, c3 = workloads.make_cases(0, (1, 4, 8))
    assert (c2.gamma, c2.eta, c2.with_functions) == (1 / 3, 4.0, True)
    assert (c3.gamma, c3.eta, c3.with_functions) == (
        sgfem1d.sweep.CASES["case3"]["gamma"], sgfem1d.sweep.CASES["case3"]["eta"],
        False)
    for seed in (1, 2, 3):
        cases = workloads.make_cases(seed, (1, 4, 8))
        assert cases == workloads.make_cases(seed, (1, 4, 8))
        for case in cases:
            for N in workloads.CHECKED_NS:
                assert not sgfem1d.build_uniform_mesh(N, case.gamma).fitting
    assert workloads.make_cases(1, (1, 4, 8)) != workloads.make_cases(2, (1, 4, 8))


def test_fingerprint_and_invariant_checks():
    recorded = {"rel_lambda": 1e-3, "h1": 0.5, "l2": 0.01}
    good = {"rel_lambda": 1e-3, "h1": 0.5, "l2": 0.01, "lambda_h": 10.01,
            "lambda": 10.0, "residual": 1e-12, "m_orth": 1e-15}
    assert checks.check_op(good, recorded) == (False, None)
    assert checks.check_op(dict(good, h1=0.5 * (1 + 1e-4)), recorded)[0]
    assert checks.check_op(dict(good, lambda_h=9.99), None)[0]
    assert checks.check_op(dict(good, l2=0.2), None)[0]
    failure = workloads.Failure.of(ZeroDivisionError("x"))
    assert checks.check_op(failure, recorded) == (True, None)
    # an unresolved entry passes only where the fingerprint has it too
    coarse = {"rel_lambda": 1e-3, "lambda_h": 10.01, "lambda": 10.0,
              "unresolved": "DegenerateAlignmentError", "dofs_per_halfwave": 1.25}
    assert checks.check_op(coarse, {"rel_lambda": 1e-3,
                                    "unresolved": "DegenerateAlignmentError"}) == (
        False, None)
    assert checks.check_op(coarse, recorded)[0]
    assert checks.check_op(good, {"rel_lambda": 1e-3,
                                  "unresolved": "DegenerateAlignmentError"})[0]
    assert checks.check_op(coarse, None) == (False, None)
    assert checks.check_op(dict(coarse, dofs_per_halfwave=2.5), None)[0]
    assert checks.check_rates({"a": (2, 3.9), "b": (2, 2.0), "c": (2, 4.1)}) == []
    assert checks.check_rates({"a": (3, 2.0)})


def test_fingerprint_covers_every_full_seed_zero_operation():
    data = json.loads(checks.FINGERPRINT.read_text())
    assert sorted(data) == sorted(run.WORKLOAD_NAMES)
    assert len(data["source_ladder"]) == 30
    assert len(data["eigen_ladder"]) == 180
    assert len(data["large_cell"]) == 10
    assert data["eigen_ladder"][KNOWN_UNRESOLVED]["unresolved"] == (
        "DegenerateAlignmentError")


def test_pass_cost_is_the_sum_of_median_step_ratios():
    clocks = []
    for steps in ([("a", 2.0, 1.0), ("b", 9.0, 3.0)],
                  [("a", 3.0, 1.0), ("b", 4.0, 2.0)],
                  [("a", 8.0, 2.0), ("b", 3.0, 1.0)]):
        clock = workloads.PassClock()
        clock.steps = steps
        clocks.append(clock)
    assert run.pass_cost(clocks) == 3.0 + 3.0


def test_steps_are_bracketed_by_their_reference_kernel():
    clock = workloads.PassClock()
    with clock.step("work", "lapack"):
        with clock.unclocked():
            sum(range(100000))
    (name, elapsed, ref), = clock.steps
    assert name == "work" and 0.0 <= elapsed < ref
    assert sorted(reference.KERNELS) == ["interp", "lapack"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".out-*"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "source_ladder", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
