"""Tests of the benchmark's own checks, tracing and entry point."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WARMUP_CONFIG, WORKLOADS, add_noise, warmup_cloud  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_analytic_distance_vanishes_on_clean_fixture(name, seed):
    clean, distance = WORKLOADS[name].clean(seed)
    assert np.max(distance(clean)) <= 1e-9


@pytest.fixture(scope="module")
def sphere_case():
    clean, distance = WORKLOADS["sphere-onepass"].clean(3)
    return clean, add_noise(clean, 3), distance


def test_checks_pass_an_output_closer_to_the_surface(sphere_case):
    clean, noisy, distance = sphere_case
    ratio, problems = checks.check_output(noisy, 0.5 * (clean + noisy), distance)
    assert problems == []
    assert ratio == pytest.approx(0.5, abs=0.02)


def test_checks_reject_the_noisy_input_as_output(sphere_case):
    _, noisy, distance = sphere_case
    ratio, problems = checks.check_output(noisy, noisy.copy(), distance)
    assert ratio == 1.0
    assert len(problems) == 1 and "surface_rms_ratio" in problems[0]


def test_checks_reject_a_dropped_point(sphere_case):
    clean, noisy, distance = sphere_case
    _, problems = checks.check_output(noisy, clean[:-1], distance)
    assert problems and "shape" in problems[0]


def test_checks_reject_a_nan(sphere_case):
    clean, noisy, distance = sphere_case
    out = clean.copy()
    out[17, 1] = np.nan
    _, problems = checks.check_output(noisy, out, distance)
    assert problems == ["output has non-finite values"]


def test_convergence_check_flags_a_pass_above_tolerance(tmp_path):
    diag = tmp_path / "run.diag"
    diag.write_text(
        "# denoise diagnostics\npoints: 9\n[iterations]\n"
        "pass,iteration,primal_residual,objective,gtv,seconds\n"
        "outer1:red,1,0.5,1,1,0.1\nouter1:red,2,5e-05,1,1,0.2\n"
        "outer1:blue,1,3e-04,1,1,0.3\n",
        encoding="utf-8",
    )
    assert checks.check_converged(str(diag), 1e-4) == [
        "pass outer1:blue ended at residual 3.000e-04 > admm_tol 0.0001"
    ]
    assert checks.check_converged(str(diag), 1e-3) == []


def _traced_warmup(tmp_path, targets):
    from gtvdenoise import cli

    noisy = tmp_path / "noisy.xyz"
    np.savetxt(noisy, warmup_cloud(), fmt="%.17g")
    out = tmp_path / "out.xyz"
    tracer = tracing.Tracer(targets)
    with tracer, tracer.span(tracing.COMMAND_SPAN):
        code = cli.main(["-q", "denoise", str(noisy), str(out),
                         "--config", str(WARMUP_CONFIG)])
    assert code == 0
    return tracer, tracing.span_metrics(tracer.spans, tracer.installed)


def test_traced_run_reports_every_span_metric(tmp_path):
    _, metrics = _traced_warmup(tmp_path, tracing.TARGETS)
    span_names = set(tracing.LAYER_UNITS) - {
        "solver.admm_iterations", "solver.passes", "solver.passes_at_cap",
        "solver.windows", "solver.window_redundancy"}
    assert set(metrics) == span_names
    assert metrics["bipartite.nodes"] == warmup_cloud().shape[0]
    assert metrics["cli.s"] >= metrics["cli.self_s"] > 0


def test_traced_run_survives_a_missing_name(tmp_path):
    from gtvdenoise import solver

    original = solver.p_update
    targets = [t if t[1] != "p_update" else (t[0], "p_update_renamed", *t[2:])
               for t in tracing.TARGETS]
    tracer, metrics = _traced_warmup(tmp_path, targets)
    assert tracer.missing == ["gtvdenoise.solver.p_update_renamed"]
    for absent in ("solver.p_update_s", "solver.p_update_calls", "solver.cg_iterations"):
        assert absent not in metrics
    assert metrics["solver.assemble_s"] > 0
    assert solver.p_update is original


def test_speed_factor_ignores_an_interrupted_sample():
    reference = speed.SpeedReference()
    at_reference = [speed.REFERENCE_SAMPLE_S] * 4
    assert reference.speed_factor(at_reference + [100.0]) == pytest.approx(1.0)
    assert reference.speed_factor([2 * x for x in at_reference]) == pytest.approx(2.0)


def test_speed_samples_are_taken_during_a_block_and_the_timer_restored():
    import signal
    import time

    reference = speed.SpeedReference()
    previous = signal.getsignal(signal.SIGALRM)
    end = time.perf_counter() + 5 * speed.INTERVAL_S
    with reference.during() as taken:
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(taken) >= 2
    assert taken == reference.samples
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "box-windowed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
