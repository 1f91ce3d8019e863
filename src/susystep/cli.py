"""Command-line front end.

Subcommands emit CSV (header row, LF endings, 17 significant digits so
values survive a round-trip) either to stdout or to ``--output``; writing
to a file also drops a small JSON run manifest next to it.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import oracle, scattering, verify
from .errors import SusystepError
from .potentials import PotentialKind, PotentialSpec, superpotential, v_minus, v_plus, v_step
from .verify import run_checks

__all__ = ["main", "RunManifest"]

SCHEMA_VERSION = 1

_KINDS = {"plus": PotentialKind.PLUS, "minus": PotentialKind.MINUS, "step": PotentialKind.STEP}


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written alongside file output."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str = "-"
    schema_version: int = SCHEMA_VERSION


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for domain errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value: float) -> str:
    return f"{value + 0.0:.17g}"  # + 0.0 normalizes negative zero


def _rows(columns):
    """The rows, as lists of floats, of equal-length array columns."""
    return [list(row) for row in zip(*(column.tolist() for column in columns))]


def _emit(rows, header, args, parameters):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
        manifest = RunManifest(command=args.command, parameters=parameters, output_path=args.output)
        with open(args.output + ".manifest.json", "w") as fh:
            json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _cmd_potential(args):
    if args.m == 0:
        raise SusystepError("m must be nonzero")
    if args.n_points < 2:
        raise SusystepError("n-points must be at least 2")
    xs = np.linspace(args.x_min, args.x_max, args.n_points)
    header = ["x", "V_plus", "V_minus", "W"]
    v0 = args.v0 if args.v0 is not None else args.m * args.m
    if args.with_step:
        header.append("V_step")
    # the closed forms are valid for either sign of m; m < 0 swaps the
    # partners, which is exactly the shape-invariance identity
    columns = [xs, v_plus(xs, args.m), v_minus(xs, args.m), superpotential(xs, args.m)]
    if args.with_step:
        columns.append(v_step(xs, v0, args.alpha))
    _emit(_rows(columns), header, args, {
        "m": args.m, "x_min": args.x_min, "x_max": args.x_max,
        "n_points": args.n_points, "with_step": args.with_step,
        "v0": v0, "alpha": args.alpha,
    })
    return 0


def _cmd_scatter(args):
    kind = _KINDS[args.kind]
    if not args.omega_min > args.m:
        raise SusystepError(f"omega-min must exceed m = {args.m}")
    if not args.omega_max >= args.omega_min:
        raise SusystepError("omega-max must be >= omega-min")
    if args.n_points < 1:
        raise SusystepError("n-points must be at least 1")
    omegas = np.linspace(args.omega_min, args.omega_max, args.n_points)
    header = ["omega", "R2", "T2", "flux"]
    partner = kind in (PotentialKind.PLUS, PotentialKind.MINUS)
    if partner:
        header.append("R2_minus_step")
    if args.with_oracle:
        header += ["R2_num", "T2_num"]
    if partner:
        spec = PotentialSpec.plus(args.m) if kind is PotentialKind.PLUS else PotentialSpec.minus(args.m)
        res = scattering.reflection_transmission(kind, omegas, args.m)
        diff = [res.R2 - scattering.step_reflection_closed_form(omegas, args.m)]
    else:
        spec = PotentialSpec.step(args.m * args.m, 1.0)
        res = scattering.step_amplitudes(omegas, args.m)
        diff = []
    columns = [omegas, res.R2, res.T2, res.flux] + diff
    if args.with_oracle:
        num = oracle.numerical_rt(spec, omegas)
        columns += [num.R2, num.T2]
    _emit(_rows(columns), header, args, {
        "kind": args.kind, "m": args.m, "omega_min": args.omega_min,
        "omega_max": args.omega_max, "n_points": args.n_points,
        "with_oracle": args.with_oracle,
    })
    return 0


def _cmd_qnm(args):
    kind = _KINDS[args.kind]
    if args.n_max < 0:
        raise SusystepError("n-max must be >= 0")
    header = ["n", "re_omega", "im_omega", "pole_residual"]
    rows = []
    for n in range(args.n_max + 1):
        omega = scattering.qnm(kind, n, args.m)
        if kind is PotentialKind.STEP:
            residual = ""
        else:
            residual = scattering.qnm_pole_check(kind, n, args.m)
        rows.append([float(n), omega.real, omega.imag, residual])
    _emit(rows, header, args, {"kind": args.kind, "m": args.m, "n_max": args.n_max})
    return 0


def _cmd_verify(args):
    results = run_checks(args.level, inject_failure=args.inject_failure)
    name_width = max(len(r.name) for r in results)
    print(f"{'check':<{name_width}}  {'max residual':>13}  {'tolerance':>10}  status")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{name_width}}  {r.max_residual:13.3e}  {r.tolerance:10.0e}  {status} ({r.seconds:.2f}s)")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="susystep",
                     description="Step-like SUSY partner potentials: exact scattering data and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("potential", description="Tabulate V+, V-, W (and optionally the smooth step) on an x grid")
    p.add_argument("--m", type=float, default=1.0, help="coupling; negative values swap the partners")
    p.add_argument("--x-min", type=float, default=-10.0)
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--n-points", type=int, default=401)
    p.add_argument("--with-step", action="store_true", help="append a smooth-step column")
    p.add_argument("--v0", type=float, default=None, help="step height (default m^2)")
    p.add_argument("--alpha", type=float, default=1.0, help="step width")
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_potential)

    s = sub.add_parser("scatter", description="Tabulate |R|^2, |T|^2, flux over an omega grid")
    s.add_argument("--kind", choices=sorted(_KINDS), default="plus")
    s.add_argument("--m", type=float, default=1.0)
    s.add_argument("--omega-min", type=float, required=True)
    s.add_argument("--omega-max", type=float, required=True)
    s.add_argument("--n-points", type=int, default=100)
    s.add_argument("--with-oracle", action="store_true",
                   help="add numerically integrated |R|^2, |T|^2 columns (slow)")
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_scatter)

    q = sub.add_parser("qnm", description="Tabulate quasinormal frequencies and pole residuals")
    q.add_argument("--kind", choices=sorted(_KINDS), default="plus")
    q.add_argument("--m", type=float, default=1.0)
    q.add_argument("--n-max", type=int, default=10)
    q.add_argument("--output", default=None)
    q.set_defaults(func=_cmd_qnm)

    v = sub.add_parser("verify", description="Run the self-verification suite")
    v.add_argument("--level", choices=[verify.QUICK, verify.FULL], default=verify.QUICK)
    v.add_argument("--inject-failure", action="store_true",
                   help="add a deliberately failing check (negative control)")
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SusystepError as err:
        print(f"susystep {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
