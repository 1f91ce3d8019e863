"""Tests of the benchmark itself (run with ``python3 -m pytest bench``).

Each workload runs at its tiny size; every metric named in BENCHMARK.json
must come out with its unit, the tracer must reach every binding of every
layer entry point, and a perturbed reference must show up as failures.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from susystep import PotentialSpec, cli, oracle, potentials, scattering, solutions, specfun, verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_matches_the_emitted_metrics():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["tables", "wavefield", "verify-full"]
    assert _units("end_to_end") == dict(run.END_TO_END)
    assert _units("per_layer") == dict(tracing.PER_LAYER)
    assert len(tracing.PER_LAYER) == len(dict(tracing.PER_LAYER))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name):
    result, report = run.run_workload(name, seed=3, seconds=0, trace=False, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert report["record"]["src_lines"] > 0 and report["record"]["seed"] == 3


@pytest.mark.parametrize("name, entry", [("tables", "cli.bytes_written"), ("verify-full", "verify.run_checks.self_s"),
                                         ("wavefield", "solutions.sample_wavefield.points")])
def test_tiny_traced_run_emits_every_per_layer_metric(name, entry):
    result, _ = run.run_workload(name, seed=3, seconds=0, trace=True, tiny=True)
    # correct also requires the traced outputs to equal the untraced ones
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"][entry]["value"] > 0  # the workload's entry point was traced
    # uninstalled: no span wrapper is left in the package
    assert not [(m.__name__, k) for m in tracing._package_modules() for k, v in vars(m).items() if hasattr(v, "__wrapped__")]


def test_inputs_follow_the_seed(tmp_path):
    def calls(seed):
        return workloads.Wavefield(seed, False, tmp_path).calls, [j[0] for j in workloads.Tables(seed, False, tmp_path).jobs]

    assert calls(5) == calls(5)
    assert calls(5) != calls(6)


def test_perturbed_reference_counts_as_failed(monkeypatch):
    exact = reference.partner_r2_t2
    monkeypatch.setattr(reference, "partner_r2_t2", lambda w, m: (exact(w, m)[0] * (1 + 1e-6), exact(w, m)[1]))
    result, report = run.run_workload("tables", seed=3, seconds=0, trace=False, tiny=True)
    assert result["failed"] > 0 and report["failed_frac"] > 0
    assert result["correct"]  # a 1e-6 miss is inaccuracy, not a wrong value

    monkeypatch.setattr(reference, "partner_r2_t2", lambda w, m: (exact(w, m)[0] * 1.5, exact(w, m)[1]))
    result, _ = run.run_workload("tables", seed=3, seconds=0, trace=False, tiny=True)
    assert not result["correct"]


def test_wavefield_shows_the_large_omega_gauss_series_loss():
    result, report = run.run_workload("wavefield", seed=3, seconds=0, trace=False, tiny=True)
    assert report["max_rel_err"] >= 1e-4 and result["failed"] > 0
    assert result["correct"]


def test_tracer_wraps_every_binding():
    import susystep

    tracer = tracing.Tracer().install()
    try:
        assert tracer.unwrapped_bindings() == []
        for module, attr in ((cli, "v_plus"), (cli, "run_checks"), (scattering, "gamma_ratio"),
                             (scattering, "make_exponents"), (oracle, "potential"), (verify, "potential"),
                             (susystep, "lngamma"), (specfun, "_gauss_series")):
            assert hasattr(getattr(module, attr), "__wrapped__"), (module.__name__, attr)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.v_plus, "__wrapped__") and cli.v_plus is potentials.v_plus


def test_oracle_spans_reach_the_potential_binding_in_oracle():
    tracer = tracing.Tracer().install()
    try:
        oracle.numerical_rt(PotentialSpec.plus(1.0), 2.0)
    finally:
        tracer.uninstall()
    m = tracer.metrics(1)
    assert m["oracle.integrate.calls"] == 1 and m["oracle.extract_rt.calls"] == 1
    assert m["oracle.integrate.steps"] == 60_000
    assert m["potentials.potential.calls"] == 1 and m["potentials.potential.points"] == 120_001
    assert 0 < m["oracle.integrate.self_s"] and m["oracle.steps_per_s"] > 0


def test_hyp2f1_spans_are_named_by_route():
    tracer = tracing.Tracer().install()
    try:
        solutions.exact_solution("I", 1, 2.0, 1.0, -1.0)  # z < 1/2: Gauss series, one per component
        gauss = tracer.layers["specfun.hyp2f1.gauss"].calls
        solutions.exact_solution("I", 1, 2.0, 1.0, 1.0)  # z > 1/2: connection formula
    finally:
        tracer.uninstall()
    assert gauss == 2
    # the series the connection formula sums in 1 - z are part of its span
    assert tracer.layers["specfun.hyp2f1.gauss"].calls == 2
    assert tracer.layers["specfun.hyp2f1.connection"].calls == 2
    assert tracer.layers["specfun.gamma_ratio"].calls == 4  # two per component, four per point
    assert tracer.layers["solutions.exact_solution"].calls == 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_references_are_converged_at_their_precision(monkeypatch):
    # the hardest reference: branch I at omega = 30 at z = 1/2
    hard = reference.wavefunction("I", 1, 30.0, 2.0, x=0.0)
    monkeypatch.setattr(reference, "DPS", 50)
    assert abs(reference.wavefunction("I", 1, 30.0, 2.0, x=0.0) - hard) <= 1e-15 * abs(hard)
