"""Command-line interface tests: CSV shape and values, determinism,
manifests, exit codes, and the verification subcommand."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import susystep
from susystep import oracle, scattering, solutions, specfun, verify
from susystep.cli import main
from susystep.errors import DomainError
from susystep.potentials import PotentialKind
from susystep.verify import FULL, run_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _cell_text(columns):
    """The CSV cells of library columns: 17 digits with negative zero made
    positive, or empty cells for a ``None`` column."""
    n = len(next(column for column in columns if column is not None))
    return [["" if column is None else "%.17g" % (column[i] + 0.0) for column in columns] for i in range(n)]


# ----------------------------------------------------------------- potential

def test_potential_row_count_and_header(capsys):
    code, out, _ = run_cli(capsys, "potential", "--m", "1", "--x-min", "-10",
                           "--x-max", "10", "--n-points", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "V_plus", "V_minus", "W"]
    assert len(rows) == 5


def test_potential_origin_row_value(capsys):
    code, out, _ = run_cli(capsys, "potential", "--m", "1", "--x-min", "-2",
                           "--x-max", "2", "--n-points", "5")
    header, rows = parse_csv(out)
    mid = rows[2]
    assert float(mid[0]) == 0.0
    assert math.isclose(float(mid[1]), 0.5 - 2.0**-2.5, rel_tol=1e-15)
    assert math.isclose(float(mid[2]), 0.5 + 2.0**-2.5, rel_tol=1e-15)


def test_superpotential_mirror_under_coupling_sign(capsys):
    _, out_pos, _ = run_cli(capsys, "potential", "--m", "1", "--n-points", "11")
    _, out_neg, _ = run_cli(capsys, "potential", "--m", "-1", "--n-points", "11")
    _, rows_pos = parse_csv(out_pos)
    _, rows_neg = parse_csv(out_neg)
    for rp, rn in zip(rows_pos, rows_neg):
        assert float(rp[3]) == -float(rn[3])  # W flips sign with m
        assert float(rp[1]) == float(rn[2])  # V+ <-> V- swap (shape invariance)


def test_potential_with_step_column(capsys):
    code, out, _ = run_cli(capsys, "potential", "--m", "1", "--with-step",
                           "--x-min", "-5", "--x-max", "5", "--n-points", "3")
    header, rows = parse_csv(out)
    assert header[-1] == "V_step"
    assert math.isclose(float(rows[1][4]), 0.5, rel_tol=1e-15)  # x = 0, V0 = m^2


def test_potential_usage_errors(capsys):
    code, _, err = run_cli(capsys, "potential", "--m", "0")
    assert code == 2
    assert "nonzero" in err
    code, _, _ = run_cli(capsys, "potential", "--n-points", "1")
    assert code == 2


# ------------------------------------------------------------------- scatter

def test_scatter_columns_and_flux(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--kind", "plus", "--m", "1",
                           "--omega-min", "1.1", "--omega-max", "3", "--n-points", "20")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["omega", "R2", "T2", "flux", "R2_minus_step"]
    assert len(rows) == 20
    omegas = [float(r[0]) for r in rows]
    assert omegas[0] == 1.1 and omegas[-1] == 3.0
    r2s = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(r2s, r2s[1:]))  # monotone decrease
    for r in rows:
        assert abs(float(r[3]) - 1.0) < 1e-9


def test_scatter_step_kind(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--kind", "step", "--m", "1",
                           "--omega-min", "1.5", "--omega-max", "2.5", "--n-points", "3")
    header, rows = parse_csv(out)
    assert header == ["omega", "R2", "T2", "flux"]
    for r in rows:
        assert abs(float(r[3]) - 1.0) < 1e-9


def test_scatter_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "scatter", "--kind", "plus", "--m", "1",
                           "--omega-min", "1.5", "--omega-max", "2.0",
                           "--n-points", "2", "--with-oracle")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-2:] == ["R2_num", "T2_num"]
    for r in rows:
        assert abs(float(r[1]) - float(r[5])) < 1e-10


@pytest.mark.parametrize("kind", ["plus", "minus", "step"])
def test_scatter_oracle_columns_are_the_column_call(capsys, kind):
    from susystep.oracle import numerical_rt
    from susystep.potentials import PotentialSpec

    code, out, _ = run_cli(capsys, "scatter", "--kind", kind, "--m", "0.7",
                           "--omega-min", "0.8", "--omega-max", "2.5", "--n-points", "3", "--with-oracle")
    assert code == 0
    _, rows = parse_csv(out)
    spec = {"plus": PotentialSpec.plus(0.7), "minus": PotentialSpec.minus(0.7),
            "step": PotentialSpec.step(0.7 * 0.7, 1.0)}[kind]
    num = numerical_rt(spec, np.linspace(0.8, 2.5, 3))
    assert [[float(v) for v in row[-2:]] for row in rows] == np.column_stack([num.R2, num.T2]).tolist()


@pytest.mark.parametrize("kind", ["plus", "minus", "step"])
def test_scatter_rows_are_the_array_form(capsys, kind):
    from susystep.scattering import (closed_form_columns, coefficients_closed_form, step_reflection_closed_form,
                                     transmitted_wavenumber)

    code, out, _ = run_cli(capsys, "scatter", "--kind", kind, "--m", "0.7",
                           "--omega-min", "0.71", "--omega-max", "30", "--n-points", "57")
    assert code == 0
    _, rows = parse_csv(out)
    omega = np.linspace(0.71, 30.0, 57)
    step = kind == "step"
    r2, t2 = closed_form_columns(PotentialKind.STEP, omega, 0.7)[:2] if step else coefficients_closed_form(omega, 0.7)
    flux = r2 + (transmitted_wavenumber(omega, 0.7) / omega) * t2
    columns = [omega, r2, t2, flux] + ([] if kind == "step" else [r2 - step_reflection_closed_form(omega, 0.7)])
    assert rows == _cell_text(columns)


@pytest.mark.parametrize("kind", ["plus", "minus", "step"])
def test_scatter_checks_its_omega_column_once(capsys, monkeypatch, kind):
    # one (omega, m) check per table (three for a partner table when the flux
    # read transmitted_wavenumber and R2_minus_step step_reflection_closed_form)
    # and one closed-form evaluation per kind: the step's |R|^2 beside the
    # partners' pair, without the step's |T|^2 that was computed and dropped
    import susystep.scattering as scattering_mod

    checks, scales = [], []
    check, parts = scattering_mod._check_scattering_regime, scattering_mod._closed_form_parts
    monkeypatch.setattr(scattering_mod, "_check_scattering_regime", lambda *args: checks.append(args) or check(*args))
    monkeypatch.setattr(scattering_mod, "_closed_form_parts", lambda *args: scales.append(args[-1]) or parts(*args))
    monkeypatch.setattr(scattering_mod, "transmitted_wavenumber", lambda *args: pytest.fail("a second omega check"))
    code, out, _ = run_cli(capsys, "scatter", "--kind", kind, "--m", "0.7",
                           "--omega-min", "0.71", "--omega-max", "30", "--n-points", "57")
    assert code == 0 and len(parse_csv(out)[1]) == 57
    assert len(checks) == 1 and scales == [math.pi] + [2.0 * math.pi] * (kind != "step")


@pytest.mark.parametrize("kind", ["plus", "minus", "step"])
def test_scatter_evaluates_no_gamma_function(capsys, monkeypatch, kind):
    import susystep.scattering as scattering_mod

    def refuse(*args):
        raise AssertionError("scatter evaluated a Gamma function")

    for module, name in ((specfun, "gamma_ratio"), (specfun, "lngamma"), (specfun, "_lngamma_array"),
                         (scattering_mod, "gamma_ratio")):
        monkeypatch.setattr(module, name, refuse)
    code, out, _ = run_cli(capsys, "scatter", "--kind", kind, "--m", "0.7",
                           "--omega-min", "0.71", "--omega-max", "30", "--n-points", "57")
    assert code == 0 and len(parse_csv(out)[1]) == 57


def test_scatter_takes_omega_past_1e4(capsys):
    # the Gamma products stop at omega = 1e4; the closed forms hold at any omega
    for kind in ("plus", "minus", "step"):
        code, out, _ = run_cli(capsys, "scatter", "--kind", kind, "--m", "1",
                               "--omega-min", "1.5", "--omega-max", "2e4", "--n-points", "5")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][0]) == 2e4 and float(rows[-1][1]) == 0.0
        assert all(abs(float(row[3]) - 1.0) <= 1e-15 for row in rows)


def test_potential_rows_are_the_array_form(capsys):
    from susystep.potentials import superpotential, v_minus, v_plus, v_step

    code, out, _ = run_cli(capsys, "potential", "--m", "-1.3", "--with-step", "--v0", "2", "--alpha", "0.5",
                           "--x-min", "-800", "--x-max", "800", "--n-points", "201")
    assert code == 0
    _, rows = parse_csv(out)
    x = np.linspace(-800.0, 800.0, 201)
    assert rows == _cell_text([x, v_plus(x, -1.3), v_minus(x, -1.3), superpotential(x, -1.3), v_step(x, 2.0, 0.5)])


@pytest.mark.parametrize("kind", ["plus", "step"])
def test_qnm_rows_are_the_library_values(capsys, kind):
    from susystep.potentials import PotentialKind
    from susystep.scattering import qnm, qnm_pole_check

    code, out, _ = run_cli(capsys, "qnm", "--kind", kind, "--m", "1", "--n-max", "12")
    assert code == 0
    _, rows = parse_csv(out)
    kind = PotentialKind(kind)
    omegas = [qnm(kind, n, 1.0) for n in range(13)]
    residuals = None if kind is PotentialKind.STEP else [qnm_pole_check(kind, n, 1.0) for n in range(13)]
    assert rows == _cell_text([range(13), [w.real for w in omegas], [w.imag for w in omegas], residuals])


@pytest.mark.parametrize("kind", ["plus", "minus", "step"])
def test_qnm_takes_its_residuals_from_one_column_call(capsys, monkeypatch, kind):
    # one |1/T| call over the 11 frequencies (none for the step), no per-row pole check
    calls = []
    exact = scattering.inverse_transmission_magnitude
    monkeypatch.setattr(scattering, "inverse_transmission_magnitude", lambda *args: calls.append(args) or exact(*args))
    monkeypatch.setattr(scattering, "qnm_pole_check", lambda *args: pytest.fail("a one-omega pole check"))
    code, out, _ = run_cli(capsys, "qnm", "--kind", kind, "--m", "1.7")
    assert code == 0 and len(parse_csv(out)[1]) == 11
    assert [omega.shape for _, omega, _ in calls] == ([] if kind == "step" else [(11,)])


def test_potential_evaluates_each_column_once(capsys, monkeypatch):
    import susystep.cli as cli_mod

    sizes = []
    for name in ("v_plus", "v_minus", "superpotential", "v_step"):
        fn = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name, lambda x, *args, fn=fn: sizes.append(np.size(x)) or fn(x, *args))
    code, out, _ = run_cli(capsys, "potential", "--m", "1.7", "--n-points", "64", "--with-step")
    assert code == 0 and sizes == [64] * 4
    _, rows = parse_csv(out)
    assert len(rows) == 64


@pytest.mark.parametrize("argv, message", [
    (["--m", "nan"], "m = nan"),
    (["--m", "inf"], "m = inf"),
    (["--x-max", "inf"], "x-min and x-max must be finite"),
    (["--v0", "nan", "--with-step"], "v0 = nan"),
    (["--v0", "nan"], "v0 = nan"),  # recorded in the manifest without a step column too
    (["--alpha", "nan"], "alpha = nan"),
    (["--m", "1e200"], "m = 1e+200"),  # m^2 overflows
    (["--m=-1e200", "--v0", "1"], "m = 1e+200"),
    (["--alpha", "0", "--with-step"], "alpha > 0"),
    (["--alpha", "-1", "--with-step"], "alpha > 0"),
    (["--alpha", "1e-320", "--with-step"], "1/alpha finite"),  # the step column read nan at x = 10
])
def test_potential_non_finite_parameters_are_domain_errors(capsys, tmp_path, argv, message):
    code, out, err = run_cli(capsys, "potential", "--n-points", "3", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("susystep potential: ") and message in err
    target = tmp_path / "pot.csv"
    code, out, _ = run_cli(capsys, "potential", "--n-points", "3", *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert list(tmp_path.iterdir()) == []  # neither the CSV nor its manifest


def test_scatter_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "scatter", "--kind", "plus", "--m", "1",
                           "--omega-min", "0.5", "--omega-max", "2")
    assert code == 2
    assert "omega-min" in err


@pytest.mark.parametrize("argv, message", [
    (["scatter", "--omega-min", "2", "--omega-max", "1.5"], "susystep scatter: omega-max must be >= omega-min"),
    (["scatter", "--omega-min", "2", "--omega-max", "3", "--n-points", "0"], "susystep scatter: n-points must be at least 1"),
    (["qnm", "--n-max", "-1"], "susystep qnm: n-max must be >= 0"),
], ids=["omega-max below omega-min", "no scatter points", "negative n-max"])
def test_a_bad_table_range_is_a_domain_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message + "\n")


# ----------------------------------------------------------------------- qnm

def test_qnm_step_rows(capsys):
    code, out, _ = run_cli(capsys, "qnm", "--kind", "step", "--m", "1", "--n-max", "4")
    header, rows = parse_csv(out)
    assert header == ["n", "re_omega", "im_omega", "pole_residual"]
    assert len(rows) == 5
    assert rows[0] == ["0", "0", "0", ""]  # n=0 frequency vanishes for m=1


def test_qnm_partner_rows(capsys):
    code, out, _ = run_cli(capsys, "qnm", "--kind", "plus", "--m", "1", "--n-max", "5")
    header, rows = parse_csv(out)
    assert len(rows) == 6
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == 0.75
    for r in rows:
        assert float(r[3]) < 1e-6


# ------------------------------------------------------------ output/manifest

def test_output_file_and_manifest(tmp_path, capsys):
    target = tmp_path / "pot.csv"
    code, out, _ = run_cli(capsys, "potential", "--m", "1", "--n-points", "3",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("x,V_plus,V_minus,W\n")
    assert text.endswith("\n") and "\r" not in text
    manifest = json.loads((tmp_path / "pot.csv.manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "potential"
    assert manifest["output_path"] == str(target)
    assert manifest["parameters"]["n_points"] == 3


def test_every_manifest_is_strict_json(tmp_path, capsys):
    def refuse(constant):
        raise AssertionError(f"{constant} in a manifest")

    for i, argv in enumerate((["potential", "--n-points", "3"], ["potential", "--with-step", "--n-points", "3"],
                              ["scatter", "--omega-min", "1.5", "--omega-max", "2e4", "--n-points", "2"],
                              ["qnm", "--n-max", "2"])):
        target = tmp_path / f"{i}.csv"
        assert run_cli(capsys, *argv, "--output", str(target))[0] == 0
        json.loads((tmp_path / f"{i}.csv.manifest.json").read_text(), parse_constant=refuse)


def test_a_non_finite_manifest_value_writes_nothing(tmp_path):
    import argparse

    import susystep.cli as cli_mod

    args = argparse.Namespace(command="potential", output=str(tmp_path / "p.csv"), m=1.0)
    with pytest.raises(ValueError):
        cli_mod._emit({"x": np.zeros(2)}, args, v0=float("nan"))
    assert list(tmp_path.iterdir()) == []


def test_output_full_precision_roundtrip(tmp_path, capsys):
    target = tmp_path / "s.csv"
    run_cli(capsys, "scatter", "--kind", "plus", "--m", "1", "--omega-min", "1.3",
            "--omega-max", "1.3", "--n-points", "1", "--output", str(target))
    _, rows = parse_csv(target.read_text())
    from susystep.scattering import coefficients_closed_form
    exact = coefficients_closed_form(np.array([1.3]), 1.0)[0][0]
    assert float(rows[0][1]) == exact  # 17 significant digits survive


def test_determinism(capsys):
    _, first, _ = run_cli(capsys, "potential", "--m", "1.7", "--n-points", "64")
    _, second, _ = run_cli(capsys, "potential", "--m", "1.7", "--n-points", "64")
    assert first == second


# -------------------------------------------------------------------- verify

def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "all" in out and "passed" in out


def test_verify_failure_injection(capsys, monkeypatch):
    # negative control: Wronskian values off their constant by 1e-3 fail the run
    exact = solutions.solution_checks
    monkeypatch.setattr(solutions, "solution_checks", lambda *args: (lambda w, r: (w + 1e-3, r))(*exact(*args)))
    code, out, err = run_cli(capsys, "verify", "--level", "quick")
    assert code == 3
    assert [line.split("  ")[0] for line in out.splitlines() if "FAIL" in line] == ["Wronskian value and constancy"]
    assert err == "1 of 8 checks failed\n"


def test_verify_has_no_failure_injection_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--inject-failure"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --inject-failure" in capsys.readouterr().err


_PARTNER_CHECKS = {"Wronskian value and constancy": "_wronskian_constancy",
                   "wave-equation residual in z": "_wave_equation_residual"}


def test_partner_checks_share_each_r_tilde_column(monkeypatch):
    # both checks read one solution_checks call per run, timed in the
    # Wronskian row: one 2F1 call per component for all (omega, m) cases,
    # both branches, both signs, derivative orders 0-2 and the union of the
    # rows' z grids (2 + 2 calls when each check made its own)
    calls, made, evaluated = [], {}, []
    hyp2f1, exact = specfun.hyp2f1, solutions.solution_checks
    monkeypatch.setattr(specfun, "hyp2f1", lambda *args: calls.append(args) or hyp2f1(*args))
    monkeypatch.setattr(solutions, "solution_checks", lambda *args: evaluated.append(args) or exact(*args))

    def counted(name, check):
        def run(*args):
            before = len(calls)
            worst = check(*args)
            made[name] = len(calls) - before
            return worst
        return run

    for name in _PARTNER_CHECKS.values():
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for run in (1, 2):
        assert all(r.passed for r in run_checks(FULL))
        assert made == {"_wronskian_constancy": 2, "_wave_equation_residual": 0}
        assert len(evaluated) == run
    sign, omega, m, z = evaluated[0]
    assert (sign.tolist(), omega.tolist(), m.tolist()) == ([1, -1], [2.0, 1.5, 3.0], [1.0, 1.0, 2.0])
    assert z.size == 21 and specfun.Z_SWITCH in z.tolist()
    assert {0.2, 0.8} | set(np.linspace(0.05, 0.95, 19).tolist()) <= set(z.tolist())
    # (case, branch, order) parameter sets at the 21 z, one call per component and run
    assert [(args[0].size, np.shape(args[3])) for args in calls] == [(3 * 2 * 3, (21,))] * 2 * 2


def _scale_sign_row(monkeypatch, row):
    """Scale row ``row`` (0 for V+, 1 for V-) of every two-sign column by
    1 + 1e-6, so that partner is no longer a solution."""
    checked, scale = solutions._signs, np.ones((2, 1))
    scale[row] += 1e-6

    def row_scaled(sign, many=False):
        column = checked(sign, many)
        return column * scale if np.shape(sign) == (2,) else column

    monkeypatch.setattr(solutions, "_signs", row_scaled)


def test_partner_checks_judge_the_minus_row(monkeypatch):
    # negative control: each check that evaluates both partners fails
    _scale_sign_row(monkeypatch, 1)
    failed = {r.name for r in run_checks() if not r.passed}
    assert failed == set(_PARTNER_CHECKS)


def test_partner_checks_judge_the_plus_row(monkeypatch):
    # the wave-equation check reads 9.1e-8 here (1.06e-7 for the minus row)
    # against its 1e-10, where it reads 6.2e-15 unfaulted
    _scale_sign_row(monkeypatch, 0)
    failed = {r.name for r in run_checks() if not r.passed}
    assert failed == set(_PARTNER_CHECKS)


def _scaled_constant(field):
    """A fault on ``make_exponents``' record: the constant ``field`` times 1 + 1e-6."""
    return lambda p, *_: dataclasses.replace(p, **{field: getattr(p, field) * (1 + 1e-6)})


_WRONSKIAN, _WAVE = _PARTNER_CHECKS
_AMPLITUDE_CHECKS = {"closed-form equivalence (Gamma vs sinh)", "flux conservation"}
# fault -> ((module, name, fault(value, *args)) for every binding its callers
# read, the checks that fail).  A factor that F, F' and F'' share at one z
# scales Z, Z' and Z'' alike, so the wave equation stays blind to the 2F1
# faults, and only the Wronskian's known constant sees them.
_FAULTS = {
    "hyp2f1 x (1 + 1e-6)": ([(specfun, "hyp2f1", lambda f, *_: f * (1 + 1e-6))], {_WRONSKIAN}),
    "Gauss series x (1 + 1e-7 z)": ([(specfun, "_gauss_series", lambda f, a, b, c, z, counts: f * (1 + 1e-7 * z))],
                                    {_WRONSKIAN}),
    "gamma_ratio x (1 + 1e-9)": ([(module, "gamma_ratio", lambda r, *_: r * (1 + 1e-9)) for module in (specfun, scattering)],
                                 {_WRONSKIAN} | _AMPLITUDE_CHECKS),
    "G2 x (1 + 1e-6)": ([(solutions, "make_exponents", _scaled_constant("G2"))], {_WRONSKIAN, _WAVE}),
    "H2 x (1 + 1e-6)": ([(solutions, "make_exponents", _scaled_constant("H2"))], {_WRONSKIAN, _WAVE}),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_each_solution_layer_fault_fails_its_checks(monkeypatch, fault):
    patches, expected = _FAULTS[fault]
    for module, name, scale in patches:
        exact = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, exact=exact, scale=scale: scale(exact(*args), *args))
    assert {r.name for r in run_checks() if not r.passed} == expected


def test_susy_check_judges_the_t_relation(monkeypatch):
    # negative control: R- is -R+ by construction, so the check can fail
    # only through T; a T- off by 1e-9 in the run's one (V+, V-) call reads
    # 1.55e-9 against 1e-11 (the flux row, reading the same T-, fails too)
    exact, kinds = scattering.reflection_transmission, []

    def t_minus_scaled(kind, omega, m):
        kinds.append(kind)
        results = exact(kind, omega, m)
        scaled = tuple(dataclasses.replace(r, T=r.T * (1.0 + 1e-9)) if r.kind is PotentialKind.MINUS else r
                       for r in (results if isinstance(kind, tuple) else (results,)))
        return scaled if isinstance(kind, tuple) else scaled[0]

    monkeypatch.setattr(scattering, "reflection_transmission", t_minus_scaled)
    results = run_checks()
    (check,) = [r for r in results if r.name == "SUSY amplitude relations"]
    assert not check.passed and 1e-9 < check.max_residual < 2e-9
    assert {r.name for r in results if not r.passed} == {"flux conservation", check.name}
    assert kinds == [(PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP)]  # the run's one amplitude call


def _amplitude_cases():
    """The per-m omega grids the amplitude checks once looped over, m-major, as (omega, m) lists."""
    cases = [(m * (1.0 + 5.0 * i / 50), m) for m in (0.5, 1.0, 2.0) for i in range(1, 51)]
    return [w for w, _ in cases], [m for _, m in cases]


def test_verify_evaluates_each_amplitude_column_once(monkeypatch):
    # the closed-form and flux checks read one (V+, V-, step) call per run
    # over the 150 (omega, m) cases of the former per-m grids (50 omegas at
    # each of three m); no run reuses another's
    calls = []
    for name in ("reflection_transmission", "step_amplitudes"):
        exact = getattr(scattering, name)
        monkeypatch.setattr(scattering, name, lambda *args, _exact=exact: calls.append(args) or _exact(*args))
    omega, m = _amplitude_cases()
    for run in (1, 2):
        assert all(r.passed for r in run_checks())
        columns = [args for args in calls if np.size(args[-2]) == 150]
        assert [args[0] for args in columns] == [(PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP)] * run
        assert all(args[-2].tolist() == omega and args[-1].tolist() == m for args in columns)


def test_verify_judges_susy_on_one_call_over_its_cases(monkeypatch):
    # the SUSY check makes one call on the (V+, V-) results of the run's one
    # amplitude call, for (V+, V-, step), over its 150 (omega, m) cases
    calls, kinds, results = [], [], []
    exact_check, exact_amplitudes = scattering.susy_relation_check, scattering.reflection_transmission
    monkeypatch.setattr(scattering, "susy_relation_check", lambda *args: calls.append(args) or exact_check(*args))
    monkeypatch.setattr(scattering, "reflection_transmission", lambda kind, *args: kinds.append(kind)
                        or results.append(exact_amplitudes(kind, *args)) or results[-1])
    assert all(r.passed for r in run_checks())
    omega, m = _amplitude_cases()
    assert kinds == [(PotentialKind.PLUS, PotentialKind.MINUS, PotentialKind.STEP)]
    assert len(calls) == len(results) == 1 and all(a is b for a, b in zip(calls[0], results[0][:2], strict=True))
    assert [(r.kind, r.omega.tolist(), r.m.tolist()) for r in calls[0]] == [
        (PotentialKind.PLUS, omega, m), (PotentialKind.MINUS, omega, m)]


def test_full_verify_makes_few_gamma_passes_and_scans(monkeypatch):
    # structure guard: a full run makes 6 gamma_ratio calls (32 when each
    # (kind, m) and each oracle spec had its own, 17 when each perturbed
    # frequency of the qnm check had its own, 12 when the SUSY check made its
    # own amplitude call, 11 when the Wronskian and wave-equation checks each
    # made their own 2F1 calls, 7 when the step had its own amplitude call):
    # one (V+, V-, step) amplitude call, one |1/T| call (a Gamma pass at the 6 perturbed frequencies, none at the 6
    # poles) and 4 from the 2F1 connection formula, two per R-tilde component
    # of the one solution evaluation; and one Magnus
    # scan of the 12 (spec, omega) oracle rows (3 when each spec had its own,
    # 12 when each omega had its own)
    ratios, scans = [], []
    for module in (specfun, scattering):
        exact = module.gamma_ratio
        monkeypatch.setattr(module, "gamma_ratio", lambda *args, _exact=exact, _module=module:
                            ratios.append(_module) or _exact(*args))
    march = oracle._march
    monkeypatch.setattr(oracle, "_march", lambda *args: scans.append(args) or march(*args))
    assert all(r.passed for r in run_checks(FULL))
    assert len(scans[0][4]) == 12
    assert (ratios.count(scattering), ratios.count(specfun), len(scans)) == (1 + 1, 4, 1)


def test_full_verify_leaves_numpy_random_unloaded():
    # numpy 2 imports numpy.random (about 5 MB of a run's peak memory) on first
    # use; verify's potential identities take fixed grids, so a fresh
    # interpreter's full run never loads it
    script = ("import contextlib, io, sys\nfrom susystep import cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(['verify', '--level', 'full'])\nprint(code, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(susystep.__file__).parents[1]),
                                                                     os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300, check=True)
    assert proc.stdout.split() == ["0", "False"]


def test_verify_takes_the_qnm_check_from_one_omega_column(monkeypatch):
    # one |1/T| call at the 6 quasinormal frequencies of V+ (m = 1) and the
    # same frequencies + 0.1; no one-omega call
    calls = []
    exact = scattering.inverse_transmission_magnitude
    monkeypatch.setattr(scattering, "inverse_transmission_magnitude",
                        lambda *args: calls.append(args) or exact(*args))
    monkeypatch.setattr(scattering, "qnm_pole_check", lambda *args: pytest.fail("a one-omega pole check"))
    assert all(r.passed for r in run_checks())
    poles = [scattering.qnm(PotentialKind.PLUS, n, 1.0) for n in range(6)]
    assert [(kind, omega.tolist(), m) for kind, omega, m in calls] == [
        (PotentialKind.PLUS, poles + [w + 0.1 for w in poles], 1.0)]


def test_full_verify_makes_one_potential_identity_call_per_function(monkeypatch):
    # one call per function for the 8 couplings: the shape-invariance check
    # on their m column, and the potential, hyperbolic-form and antiderivative
    # calls on the 16 partner specs, the antiderivative at x + h and x - h
    # together (56 calls when each coupling and partner had its own, 88 when
    # each side had its own and the potential was evaluated twice)
    calls = dict.fromkeys(("shape_invariance_check", "potential", "potential_hyperbolic", "potential_antiderivative"))
    for name in calls:
        exact = getattr(verify, name)
        calls[name] = []
        monkeypatch.setattr(verify, name, lambda *args, _calls=calls[name], _exact=exact:
                            _calls.append(args) or _exact(*args))
    assert all(r.passed for r in run_checks(FULL))
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 1)
    (ms, xs), = calls["shape_invariance_check"]
    assert ms.shape == (8,) and xs.shape == (64,)
    for name in ("potential", "potential_hyperbolic", "potential_antiderivative"):
        (specs, x), = calls[name]
        assert [(s.kind, s.m) for s in specs] == [(kind, m) for m in ms.tolist()
                                                   for kind in (PotentialKind.PLUS, PotentialKind.MINUS)]
        assert x.shape == ((2, 64) if name == "potential_antiderivative" else (64,))


def test_verify_unknown_level_is_a_domain_error():
    with pytest.raises(DomainError):
        run_checks("thorough")


# --------------------------------------------------------------------- usage

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--kind", "bogus", "--omega-min", "1.5", "--omega-max", "2"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# ------------------------------------------------------------ shared parser

def test_calls_build_no_parser(capsys, monkeypatch):
    import susystep.cli as cli_mod

    built = []
    init = cli_mod._Parser.__init__
    monkeypatch.setattr(cli_mod._Parser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli_mod._build_parser()
    assert len(built) == 5  # the counter sees a build: the root and four subcommands
    built.clear()
    assert run_cli(capsys, "qnm", "--n-max", "2")[0] == 0
    assert run_cli(capsys, "potential", "--n-points", "3")[0] == 0
    assert built == []


def test_no_option_carries_over_to_the_next_call(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "potential", "--n-points", "3", "--with-step", "--v0", "2", "--alpha", "0.5")
    assert parse_csv(out)[0][-1] == "V_step"
    code, out, _ = run_cli(capsys, "potential", "--n-points", "3")
    assert code == 0 and parse_csv(out)[0] == ["x", "V_plus", "V_minus", "W"]

    target = tmp_path / "q.csv"
    assert run_cli(capsys, "qnm", "--n-max", "2", "--output", str(target)) == (0, "", "")
    code, out, _ = run_cli(capsys, "qnm", "--n-max", "2")
    assert code == 0 and out == target.read_text()
    target = tmp_path / "p.csv"
    run_cli(capsys, "potential", "--m", "2", "--n-points", "3", "--output", str(target))
    parameters = json.loads((tmp_path / "p.csv.manifest.json").read_text())["parameters"]
    assert parameters == {"m": 2.0, "x_min": -10.0, "x_max": 10.0, "n_points": 3, "with_step": False,
                          "v0": 4.0, "alpha": 1.0}


def test_usage_error_after_a_successful_call(capsys):
    assert run_cli(capsys, "qnm", "--n-max", "2")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["qnm", "--n-max", "two"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: susystep qnm ")
    assert "susystep qnm: error: argument --n-max: invalid int value: 'two'" in captured.err


def test_concurrent_calls_write_what_sequential_calls_write(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    jobs = [["scatter", "--kind", kind, "--m", "0.7", "--omega-min", "0.8", "--omega-max", "30", "--n-points", "400"]
            for kind in ("plus", "minus", "step")]
    jobs += [["qnm", "--kind", "plus", "--n-max", "40"], ["potential", "--with-step", "--n-points", "2001"]]
    jobs = jobs * 4

    def run(name):
        # each caller writes its own directory; manifests name it
        outdir = tmp_path / name
        outdir.mkdir()
        outputs = []
        for i, argv in enumerate(jobs):
            assert main(argv + ["--output", str(outdir / f"{i}.csv")]) == 0
            manifest = (outdir / f"{i}.csv.manifest.json").read_bytes().replace(str(outdir).encode(), b"DIR")
            outputs.append(((outdir / f"{i}.csv").read_bytes(), manifest))
        return outputs

    sequential = run("sequential")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-parse included
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run, ["thread0", "thread1", "thread2", "thread3"], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [sequential] * 4
