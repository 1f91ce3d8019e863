"""Command-line interface tests: CSV shape and values, determinism,
manifests, exit codes, and the verification subcommand."""

import json
import math

import numpy as np
import pytest

from susystep.cli import main
from susystep.errors import DomainError
from susystep.verify import run_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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
        assert abs(float(r[1]) - float(r[5])) < 1e-5


@pytest.mark.parametrize("kind", ["plus", "minus", "step"])
def test_scatter_rows_are_the_array_form(capsys, kind):
    from susystep.potentials import PotentialKind
    from susystep.scattering import reflection_transmission, step_amplitudes, step_reflection_closed_form

    code, out, _ = run_cli(capsys, "scatter", "--kind", kind, "--m", "0.7",
                           "--omega-min", "0.71", "--omega-max", "30", "--n-points", "57")
    assert code == 0
    _, rows = parse_csv(out)
    omega = np.linspace(0.71, 30.0, 57)
    if kind == "step":
        res = step_amplitudes(omega, 0.7)
        columns = [omega, res.R2, res.T2, res.flux]
    else:
        res = reflection_transmission(PotentialKind(kind), omega, 0.7)
        columns = [omega, res.R2, res.T2, res.flux, res.R2 - step_reflection_closed_form(omega, 0.7)]
    assert [[float(cell) for cell in row] for row in rows] == np.column_stack(columns).tolist()


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


def test_scatter_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "scatter", "--kind", "plus", "--m", "1",
                           "--omega-min", "0.5", "--omega-max", "2")
    assert code == 2
    assert "omega-min" in err


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


def test_output_full_precision_roundtrip(tmp_path, capsys):
    target = tmp_path / "s.csv"
    run_cli(capsys, "scatter", "--kind", "plus", "--m", "1", "--omega-min", "1.3",
            "--omega-max", "1.3", "--n-points", "1", "--output", str(target))
    _, rows = parse_csv(target.read_text())
    from susystep.scattering import reflection_transmission
    from susystep.potentials import PotentialKind
    exact = reflection_transmission(PotentialKind.PLUS, np.array([1.3]), 1.0).R2[0]
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


def test_verify_failure_injection(capsys):
    code, out, err = run_cli(capsys, "verify", "--level", "quick", "--inject-failure")
    assert code == 3
    assert "FAIL" in out


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
