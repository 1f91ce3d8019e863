"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public entry points of each susystep module from the
outside -- nothing in ``src/`` knows about it -- and replaces *every*
module binding of each entry point, not only the defining module's: the
package re-exports names and several modules import layer functions by
name (``scattering`` imports ``gamma_ratio``, ``oracle`` and ``verify``
import ``potential``, ``cli`` imports ``run_checks`` and ``v_plus``).

Each call of a wrapped function is a span.  Spans nest through a stack and
are aggregated in memory per layer name into a call count and a self time
(the span's duration minus the time its child spans cover).  A call that
re-enters the layer already innermost on the stack -- ``lngamma``'s
reflection step, ``potential`` dispatching to ``v_plus``, ``qnm_pole_check``
calling ``qnm`` -- is part of that span, not a new one, so ``calls`` counts
crossings into a layer.

The two 2F1 routes are named by route, not by function: the Gauss series
at z is ``specfun.hyp2f1.gauss`` and the connection formula toward z = 1
is ``specfun.hyp2f1.connection``.  The Gauss series that the connection
formula sums in 1 - z belongs to the connection span.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

from susystep import cli, oracle, potentials, scattering, solutions, specfun, verify
from susystep.errors import PoleError

# Stable names of the ten verification checks, keyed by the name
# ``verify.run_checks`` reports.
CHECK_NAMES = {
    "closed-form equivalence (Gamma vs sinh)": "closed_form_equivalence",
    "flux conservation": "flux_conservation",
    "SUSY amplitude relations": "susy_relations",
    "Wronskian value and constancy": "wronskian",
    "wave-equation residual in z": "wave_equation_residual",
    "quasinormal transmission poles": "qnm_poles",
    "potential identities": "potential_identities",
    "reflection-difference window": "reflection_difference_window",
    "oracle amplitude agreement": "oracle_agreement",
    "oracle flux conservation": "oracle_flux",
}

_GAUSS = "specfun.hyp2f1.gauss"
_CONNECTION = "specfun.hyp2f1.connection"


def _note_lngamma(layer, args, result):
    z = complex(args[0])
    if z.real < 0.5:  # the reflection step hands 1 - z to the series
        z = 1.0 - z
    layer.stirling += abs(z) >= 10.0


def _note_points(position):
    def note(layer, args, result):
        layer.points += np.size(args[position])
    return note


def _note_steps(layer, args, result):
    layer.steps += result.values.size - 1


def _note_checks(layer, args, result):
    layer.checks.append([(r.name, r.max_residual, r.seconds) for r in result])


def _note_bytes(layer, args, result):
    argv = list(args[0]) if args and args[0] else []
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        for name in (path, path + ".manifest.json"):
            if os.path.exists(name):
                layer.bytes += os.path.getsize(name)


# (layer name, module, attributes, note) -- the note runs after a
# successful call and records the layer's work counts.
_TARGETS = (
    ("specfun.lngamma", specfun, ("lngamma",), _note_lngamma),
    ("specfun.gamma_ratio", specfun, ("gamma_ratio",), None),
    (_GAUSS, specfun, ("_gauss_series",), None),
    (_CONNECTION, specfun, ("_hyp2f1_complement",), None),
    ("solutions.make_exponents", solutions, ("make_exponents",), None),
    ("solutions.exact_solution", solutions, ("exact_solution", "exact_solution_at_z"), None),
    ("solutions.sample_wavefield", solutions, ("sample_wavefield",), _note_points(4)),
    ("scattering.amplitudes", scattering, ("reflection_transmission", "step_amplitudes"), None),
    ("scattering.closed_form", scattering, ("coefficients_closed_form", "step_reflection_closed_form"), None),
    ("scattering.qnm", scattering, ("qnm", "qnm_pole_check", "inverse_transmission_magnitude"), None),
    ("potentials.potential", potentials, ("potential",), _note_points(1)),
    ("potentials.potential", potentials, ("v_plus", "v_minus", "v_step", "superpotential"), _note_points(0)),
    ("oracle.integrate", oracle, ("integrate_wavefunction",), _note_steps),
    ("oracle.extract_rt", oracle, ("extract_rt",), None),
    ("verify.run_checks", verify, ("run_checks",), _note_checks),
    ("cli.main", cli, ("main",), _note_bytes),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in _TARGETS))

# Per-layer metric names and units, in report order.
PER_LAYER = (
    [
        ("specfun.lngamma.calls", "count"),
        ("specfun.lngamma.self_s", "s"),
        ("specfun.lngamma.stirling_frac", "fraction"),
        ("specfun.gamma_ratio.calls", "count"),
        ("specfun.gamma_ratio.self_s", "s"),
        (_GAUSS + ".calls", "count"),
        (_GAUSS + ".self_s", "s"),
        (_CONNECTION + ".calls", "count"),
        (_CONNECTION + ".self_s", "s"),
        ("specfun.pole_errors", "count"),
        ("solutions.make_exponents.calls", "count"),
        ("solutions.make_exponents.self_s", "s"),
        ("solutions.exact_solution.calls", "count"),
        ("solutions.exact_solution.self_s", "s"),
        ("solutions.sample_wavefield.calls", "count"),
        ("solutions.sample_wavefield.self_s", "s"),
        ("solutions.sample_wavefield.points", "count"),
        ("scattering.amplitudes.calls", "count"),
        ("scattering.amplitudes.self_s", "s"),
        ("scattering.closed_form.calls", "count"),
        ("scattering.closed_form.self_s", "s"),
        ("scattering.qnm.calls", "count"),
        ("scattering.qnm.self_s", "s"),
        ("potentials.potential.calls", "count"),
        ("potentials.potential.self_s", "s"),
        ("potentials.potential.points", "count"),
        ("oracle.integrate.calls", "count"),
        ("oracle.integrate.self_s", "s"),
        ("oracle.integrate.steps", "count"),
        ("oracle.steps_per_s", "1/s"),
        ("oracle.extract_rt.calls", "count"),
        ("oracle.extract_rt.self_s", "s"),
        ("verify.run_checks.self_s", "s"),
    ]
    + [(f"verify.{short}.{kind}", unit) for short in CHECK_NAMES.values() for kind, unit in (("s", "s"), ("residual", "1"))]
    + [
        ("cli.main.self_s", "s"),
        ("cli.bytes_written", "bytes"),
        ("trace.overhead_frac", "fraction"),
        ("trace.unattributed_frac", "fraction"),
    ]
)


class Layer:
    """Aggregated spans of one layer."""

    __slots__ = ("calls", "self_s", "stirling", "points", "steps", "bytes", "checks")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.stirling = 0
        self.points = 0
        self.steps = 0
        self.bytes = 0
        self.checks = []  # (name, residual, seconds) of each check, per run_checks call


class Tracer:
    """Installs span wrappers on every susystep binding of the layer entry
    points; ``uninstall`` restores the originals.  Single-threaded."""

    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self.top_s = 0.0  # time covered by outermost spans
        self.pole_errors = 0
        self._stack = []  # open spans: [layer name, seconds covered by children]
        self._patches = []  # (module, attribute, original)
        self._originals = {}

    def install(self):
        for name, module, attrs, note in _TARGETS:
            for attr in attrs:
                original = getattr(module, attr)
                self._originals[original] = self._wrap(name, original, note)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._originals.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def unwrapped_bindings(self):
        """Bindings in the package that still refer to an unwrapped entry
        point; empty while installed."""
        return [
            f"{module.__name__}.{attr}"
            for module in _package_modules()
            for attr, value in vars(module).items()
            if callable(value) and value in self._originals
        ]

    def _wrap(self, name, fn, note):
        stack = self._stack
        layer = self.layers[name]
        absorbed_by = {name, _CONNECTION} if name == _GAUSS else {name}
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] in absorbed_by:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except PoleError as err:
                if not getattr(err, "_bench_counted", False):
                    err._bench_counted = True
                    self.pole_errors += 1
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                layer.calls += 1
                layer.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if note is not None:
                note(layer, args, result)
            return result

        return span

    def metrics(self, passes):
        """Per-pass layer metrics over ``passes`` traced passes, without the
        two ``trace.*`` ratios, which need the pass timings."""
        L = self.layers
        out = {}
        for name, layer in L.items():
            out[name + ".calls"] = layer.calls / passes
            out[name + ".self_s"] = layer.self_s / passes
        lg = L["specfun.lngamma"]
        out["specfun.lngamma.stirling_frac"] = lg.stirling / lg.calls if lg.calls else 0.0
        out["specfun.pole_errors"] = self.pole_errors / passes
        out["solutions.sample_wavefield.points"] = L["solutions.sample_wavefield"].points / passes
        out["potentials.potential.points"] = L["potentials.potential"].points / passes
        integ = L["oracle.integrate"]
        out["oracle.integrate.steps"] = integ.steps / passes
        out["oracle.steps_per_s"] = integ.steps / integ.self_s if integ.self_s else 0.0
        out["cli.bytes_written"] = L["cli.main"].bytes / passes
        for short in CHECK_NAMES.values():
            out[f"verify.{short}.s"] = 0.0
            out[f"verify.{short}.residual"] = 0.0
        runs = L["verify.run_checks"].checks
        for results in runs:
            for check, residual, seconds in results:
                short = CHECK_NAMES.get(check)
                if short is not None:
                    out[f"verify.{short}.s"] += seconds / len(runs)
                    out[f"verify.{short}.residual"] = residual
        return out


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "susystep" or n.startswith("susystep."))]
