"""Command-line front end.

Subcommands emit CSV (header row, LF endings, 17 significant digits so values survive a round-trip) either to
stdout or to ``--output``.  Each builds its table as one dict from header name to column: an equal-length float
array, range or list, or ``None`` for a column of empty cells.  Writing to a file also drops a JSON run manifest next
to it, with the keys ``command``, ``parameters`` (every option of the subcommand, as resolved), ``output_path`` and
``schema_version``.  ``scatter`` tabulates the sinh closed forms (any omega > m, no Gamma function), checking its
omega column once.  The parser is built once, at import, and only read afterwards: each ``main`` call parses into a
fresh namespace, so ``main`` is safe to call concurrently.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle, scattering, verify
from .errors import SusystepError
from .potentials import PotentialKind, PotentialSpec, superpotential, v_minus, v_plus, v_step
from .verify import run_checks

__all__ = ["main"]

SCHEMA_VERSION = 1

_KINDS = {"plus": PotentialKind.PLUS, "minus": PotentialKind.MINUS, "step": PotentialKind.STEP}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract
    # reserves 2 for domain errors and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(table, args, **resolved):
    row = ",".join("" if column is None else "%.17g" for column in table.values())
    # + 0.0 normalizes negative zero
    columns = [np.add(column, 0.0).tolist() for column in table.values() if column is not None]
    text = "\n".join([",".join(table)] + [row % cells for cells in zip(*columns)]) + "\n"
    if args.output:
        parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "output")} | resolved
        # strict JSON, formed before either file is written: a NaN or inf parameter raises here
        manifest = json.dumps({"command": args.command, "parameters": parameters, "output_path": args.output,
                               "schema_version": SCHEMA_VERSION}, indent=2, sort_keys=True, allow_nan=False)
        Path(args.output).write_text(text, newline="")
        Path(args.output + ".manifest.json").write_text(manifest + "\n")
    else:
        sys.stdout.write(text)


def _cmd_potential(args):
    if args.m == 0:
        raise SusystepError("m must be nonzero")
    if args.n_points < 2:
        raise SusystepError("n-points must be at least 2")
    if not np.isfinite([args.x_min, args.x_max]).all():
        raise SusystepError("x-min and x-max must be finite")
    PotentialSpec.plus(abs(args.m))  # m and m^2 finite
    v0 = args.v0 if args.v0 is not None else args.m * args.m
    # v0 and alpha finite whether or not they make a column (the manifest records them), alpha > 0 if they do
    PotentialSpec(PotentialKind.STEP if args.with_step else PotentialKind.PLUS, 1.0, v0, args.alpha)
    xs = np.linspace(args.x_min, args.x_max, args.n_points)
    # the closed forms are valid for either sign of m; m < 0 swaps the
    # partners, which is exactly the shape-invariance identity
    table = {"x": xs, "V_plus": v_plus(xs, args.m), "V_minus": v_minus(xs, args.m), "W": superpotential(xs, args.m)}
    if args.with_step:
        table["V_step"] = v_step(xs, v0, args.alpha)
    _emit(table, args, v0=v0)
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
    r2, t2, flux, excess = scattering.closed_form_columns(kind, omegas, args.m)
    table = {"omega": omegas, "R2": r2, "T2": t2, "flux": flux} | ({} if excess is None else {"R2_minus_step": excess})
    if args.with_oracle:
        spec = PotentialSpec.step(args.m * args.m) if kind is PotentialKind.STEP else PotentialSpec(kind, args.m)
        num = oracle.numerical_rt(spec, omegas)
        table.update(R2_num=num.R2, T2_num=num.T2)
    _emit(table, args)
    return 0


def _cmd_qnm(args):
    kind = _KINDS[args.kind]
    if args.n_max < 0:
        raise SusystepError("n-max must be >= 0")
    ns = range(args.n_max + 1)
    omegas = np.array([scattering.qnm(kind, n, args.m) for n in ns])
    residuals = None if kind is PotentialKind.STEP else scattering.inverse_transmission_magnitude(kind, omegas, args.m)
    _emit({"n": ns, "re_omega": omegas.real, "im_omega": omegas.imag, "pole_residual": residuals}, args)
    return 0


def _cmd_verify(args):
    results = run_checks(args.level)
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
    v.set_defaults(func=_cmd_verify)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except SusystepError as err:
        print(f"susystep {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
