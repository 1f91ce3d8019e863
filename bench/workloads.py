"""The benchmark's workloads.

Each workload builds its inputs from the seed alone as ``ops``, the
operations of one *pass* -- the unit that is timed and repeated -- each a
call into susystep's public entry points.  Outside the timed region it
turns a pass's outputs into a comparable ``snapshot`` and ``judge``s a
snapshot against mpmath.

Why these three:

* ``tables`` -- ``cli.main`` over dense omega grids (``scatter``, all three
  kinds) plus ``qnm`` and ``potential`` at their defaults, CSV into files.
  Nearly all of its time is ``lngamma``'s Stirling branch reached through
  ``gamma_ratio``, plus the CLI's per-row loop and CSV formatting; it never
  reaches the 2F1 layer or the oracle.
* ``wavefield`` -- ``solutions.sample_wavefield`` on a 1001-point x grid:
  the 2F1 layer, Gauss series for x <= 0 and connection formula (with its
  x-independent Gamma ratios) for x > 0.  Never reaches the oracle.
* ``verify-full`` -- ``cli.main(["verify", "--level", "full"])``: the RK4
  oracle's march and fit, plus quick checks that call the scalar
  per-point solution API (one point at a time, where ``wavefield`` asks for
  a whole grid).
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np

import reference as ref
from susystep import PotentialKind, cli, scattering, solutions

# Accuracy each output is documented to meet (normalized error, see
# ``reference.Tally``), with where the library states it.
AMPLITUDE_TOL = 1e-10  # |R|^2, |T|^2: verify's closed-form contract and the amplitude tests
FLUX_TOL = 1e-9  # |R|^2 + (k'/w)|T|^2 - 1: verify's flux contract
WAVE_TOL = 1e-11  # wavefunctions: hyp2f1's "~1e-11 or better" relative accuracy
POTENTIAL_TOL = 1e-12  # V+/-, W: the potential tests' tightest relative bound on a grid
QNM_TOL = 1e-14  # closed-form quasinormal frequencies
POLE_RESIDUAL_TOL = 1e-6  # |1/T| at a quasinormal frequency: verify's pole contract
GRID_TOL = 1e-13  # grid columns echoed from linspace

# lngamma moves from its Lanczos to its Stirling branch at |z| = 10; the
# wavefield arguments reach that at omega ~ 5, where the per-point cost
# rises about five-fold.  Sampling one omega on each side keeps the cost of
# a pass the same from seed to seed.
_STIRLING_OMEGA = 5.0
# Top of the wavefield omega range; every pass evaluates branch I there,
# where the Gauss series route loses most digits.
_OMEGA_TOP = 30.0


def _guarded(fn, *args):
    """One operation of a pass: returns ``fn(*args)``, or the repr of what
    it raised, which ``judge`` counts as failed outputs."""
    def op():
        try:
            return fn(*args)
        except Exception as err:
            return repr(err)
    return op


def _seeded(seed, stream):
    return np.random.default_rng([seed, stream])


def _pick(rng, n, k, always=()):
    """Sorted sample of k distinct indices below n, plus ``always``."""
    chosen = set(always) | set(rng.choice(n, size=min(k, n), replace=False).tolist())
    return sorted(chosen)


class Tables:
    """``scatter`` for each kind at three couplings, from just above m to
    about 40 m, plus ``qnm`` and ``potential`` at the CLI's defaults."""

    name = "tables"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = _seeded(seed, 0)
        self.seed = seed
        n = 4 if tiny else 200
        self.jobs = []  # (argv, expected data rows, parameters for the judge)
        for kind in ("plus", "minus", "step"):
            for base in (0.5, 1.0, 2.0):
                m = base * rng.uniform(0.9, 1.1)
                lo = m * (1.0 + rng.uniform(0.002, 0.02))
                hi = m * rng.uniform(36.0, 44.0)
                argv = ["scatter", "--kind", kind, "--m", repr(m), "--omega-min", repr(lo),
                        "--omega-max", repr(hi), "--n-points", str(n)]
                self.jobs.append((argv, n, (kind, m, lo, hi, n)))
        # The CLI defaults, spelled out so the judge knows the inputs.
        n_max, n_x = (2, 5) if tiny else (10, 401)
        qnm_argv = ["qnm", "--kind", "plus", "--m", "1", "--n-max", str(n_max)]
        pot_argv = ["potential", "--m", "1", "--x-min", "-10", "--x-max", "10", "--n-points", str(n_x)]
        self.jobs.append((qnm_argv, n_max + 1, ("qnm",)))
        self.jobs.append((pot_argv, n_x, ("potential", n_x)))
        self.paths = [workdir / f"table{i}.csv" for i in range(len(self.jobs))]
        for (argv, _, _), path in zip(self.jobs, self.paths):
            argv += ["--output", str(path)]
        self.items = sum(rows for _, rows, _ in self.jobs)  # CSV data rows per pass
        self.ops = [_guarded(self._cli, argv) for argv, _, _ in self.jobs]

    def _cli(self, argv):
        return cli.main(argv)  # looked up per call, so a tracer sees it

    def snapshot(self, codes):
        return tuple((code, p.read_text() if code == 0 else None) for code, p in zip(codes, self.paths))

    def judge(self, snap, tally):
        rng = _seeded(self.seed, 1)
        structure_ok = True
        for (argv, n_rows, meta), (code, text) in zip(self.jobs, snap):
            if code != 0:
                tally.raised(n_rows, f"{' '.join(argv[:3])}: exit {code}")
                continue
            header, *rows = [line.split(",") for line in text.rstrip("\n").split("\n")]
            if len(rows) != n_rows:
                structure_ok = False
                continue
            if meta[0] == "qnm":
                for i, row in enumerate(rows):
                    structure_ok &= header == ["n", "re_omega", "im_omega", "pole_residual"] and float(row[0]) == i
                    omega = complex(float(row[1]), float(row[2]))
                    tally.item([(omega, complex(0.0, ref.qnm_partner(i, 1.0)), 1.0, QNM_TOL),
                                (float(row[3]), 0.0, 1.0, POLE_RESIDUAL_TOL)])
            elif meta[0] == "potential":
                n_x = meta[1]
                structure_ok &= header == ["x", "V_plus", "V_minus", "W"]
                for i in _pick(rng, n_x, 40, always=(0, n_x // 2, n_x - 1)):
                    x, vp, vm, w = map(float, rows[i])
                    x_ref = -10.0 + 20.0 * i / (n_x - 1)
                    vp_ref, vm_ref, w_ref, scale = ref.partner_potentials(x_ref, 1.0)
                    tally.item([(x, x_ref, 10.0, GRID_TOL), (vp, vp_ref, scale, POTENTIAL_TOL),
                                (vm, vm_ref, scale, POTENTIAL_TOL), (w, w_ref, ref.TINY, POTENTIAL_TOL)])
            else:
                kind, m, lo, hi, n = meta
                partner = kind != "step"
                expected = ["omega", "R2", "T2", "flux"] + (["R2_minus_step"] if partner else [])
                structure_ok &= header == expected
                for i in _pick(rng, n, 24, always=(0, n - 1)):
                    cells = [float(c) for c in rows[i]]
                    omega = lo + (hi - lo) * i / (n - 1) if n > 1 else lo
                    step_r2, step_t2 = ref.step_r2_t2(cells[0], m)
                    r2, t2 = ref.partner_r2_t2(cells[0], m) if partner else (step_r2, step_t2)
                    values = [(cells[0], omega, omega, GRID_TOL), (cells[1], r2, ref.TINY, AMPLITUDE_TOL),
                              (cells[2], t2, ref.TINY, AMPLITUDE_TOL), (cells[3], 1.0, 1.0, FLUX_TOL)]
                    if partner:
                        values.append((cells[4], r2 - step_r2, max(r2, step_r2, ref.TINY), AMPLITUDE_TOL))
                    tally.item(values)
        return structure_ok


class Wavefield:
    """Exact wavefunctions on x in [-20, 20]: for each m in {0.5, 1, 2}, one
    seeded omega below and one above the Stirling switch (random branch and
    sign), and branch I at the top of the range, omega = 30."""

    name = "wavefield"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = _seeded(seed, 0)
        self.seed = seed
        self.grid = np.linspace(-20.0, 20.0, 21 if tiny else 1001)
        self.calls = []  # (branch, sign, omega, m)
        for m in (0.5, 1.0, 2.0):
            for omega in (rng.uniform(1.01 * m, _STIRLING_OMEGA), rng.uniform(_STIRLING_OMEGA, _OMEGA_TOP)):
                self.calls.append((("I", "II")[rng.integers(2)], (1, -1)[rng.integers(2)], omega, m))
            self.calls.append(("I", 1, _OMEGA_TOP, m))
        self.items = len(self.calls) * self.grid.size  # wavefunction values per pass
        self.ops = [_guarded(self._sample, *call) for call in self.calls]

    def _sample(self, branch, sign, omega, m):
        return solutions.sample_wavefield(branch, sign, omega, m, self.grid).values

    def snapshot(self, values):
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def judge(self, snap, tally):
        rng = _seeded(self.seed, 1)
        n = self.grid.size
        # Always judge both ends and x = 0 (z = 1/2), the largest argument the
        # Gauss series route takes.
        always = (0, int(np.argmin(np.abs(self.grid))), n - 1)
        for (branch, sign, omega, m), raw in zip(self.calls, snap):
            if isinstance(raw, str):
                tally.raised(n, f"sample_wavefield({branch}, {sign}, {omega}, {m}): {raw}")
                continue
            values = np.frombuffer(raw, dtype=complex)
            for i in _pick(rng, n, 20, always):
                expected = ref.wavefunction(branch, sign, omega, m, x=float(self.grid[i]))
                tally.item([(complex(values[i]), expected, ref.TINY, WAVE_TOL)])
        return True


# One row of the verify table, after ``snapshot`` has blanked its timing.
_CHECK_LINE = re.compile(r"^.+?\s+\S+\s+\S+\s+(?P<status>pass|FAIL) \(s\)$")


class VerifyFull:
    """``verify --level full``.  Its work is fixed, and so is what is judged
    against mpmath besides the checks' own verdicts: the amplitudes and
    wavefunction values its checks evaluate.  The seed is not used."""

    name = "verify-full"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.argv = ["verify", "--level", "quick" if tiny else "full"]
        self.n_checks = 8 if tiny else 10
        self.items = self.n_checks  # checks per pass
        self.ops = [_guarded(self._verify)]

    def _verify(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def snapshot(self, outputs):
        result = outputs[0]
        if isinstance(result, str):
            return result, ""
        code, text = result
        # Check timings are the one part of the output that may differ.
        return code, re.sub(r"\(\d+\.\d+s\)", "(s)", text)

    def judge(self, snap, tally):
        code, text = snap
        if code not in (0, 3):
            tally.raised(self.n_checks, f"verify: exit {code}")
            structure_ok = True
        else:
            statuses = [m.group("status") for m in map(_CHECK_LINE.match, text.splitlines()) if m]
            for i, status in enumerate(statuses):
                tally.flag(status == "pass", f"verify check {i} failed")
            structure_ok = len(statuses) == self.n_checks and (code == 3) == ("FAIL" in statuses)
        # Every amplitude on the omega grids of the closed-form, flux and SUSY
        # checks, and every point of the wave-equation check.
        for m in (0.5, 1.0, 2.0):
            for i in range(1, 51):
                omega = m * (1.0 + 5.0 * i / 50)
                r2, t2 = ref.partner_r2_t2(omega, m)
                s_r2, s_t2 = ref.step_r2_t2(omega, m)
                plus = scattering.reflection_transmission(PotentialKind.PLUS, omega, m)
                minus = scattering.reflection_transmission(PotentialKind.MINUS, omega, m)
                step = scattering.step_amplitudes(omega, m)
                tally.item([(plus.R2, r2, ref.TINY, AMPLITUDE_TOL), (plus.T2, t2, ref.TINY, AMPLITUDE_TOL),
                            (minus.R2, r2, ref.TINY, AMPLITUDE_TOL), (minus.T2, t2, ref.TINY, AMPLITUDE_TOL),
                            (step.R2, s_r2, ref.TINY, AMPLITUDE_TOL), (step.T2, s_t2, ref.TINY, AMPLITUDE_TOL)])
        for omega, m in ((2.0, 1.0), (1.5, 1.0)):
            for z in np.linspace(0.05, 0.95, 19):
                for branch in ("I", "II"):
                    for sign in (1, -1):
                        got = solutions.exact_solution_at_z(branch, sign, omega, m, z)
                        expected = ref.wavefunction(branch, sign, omega, m, z=float(z))
                        tally.item([(got, expected, ref.TINY, WAVE_TOL)])
        return structure_ok


WORKLOADS = {w.name: w for w in (Tables, Wavefield, VerifyFull)}
