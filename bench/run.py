"""susystep benchmark.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one report

Run from the repository root.  One run builds the workload's inputs from
``--seed``, measures the import-and-first-call set-up time in fresh
interpreters, runs one untimed warm-up pass, then repeats timed passes for
``--seconds`` seconds, single process and single thread.  Afterwards,
outside the timed region, it judges a seeded sample of the outputs against
mpmath (see ``reference.py``).

``--trace 0`` reports the end-to-end metrics (medians over passes).  Times
are scaled to a reference machine speed by a calibration loop run between
operations (see ``calibration_s``); the raw times are in the report.
``--trace 1`` spends half the time on untraced passes and half on passes
with every layer entry point wrapped (see ``tracing.py``), and reports the
per-layer metrics; its outputs must equal the untraced ones bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the judged outputs -- CSV rows, wavefunction values, verification
checks -- and ``failed`` those that raised or missed the accuracy the
library documents for them.  ``correct`` is false if an output is grossly
wrong (``reference.GROSS_TOL``), malformed, differs between passes, or
differs between the traced and untraced runs.  The lines before it are a
human-readable report and the run record.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"  # temporary CSV output, removed after each run

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_digits", "digits"),
)

SETUP_SAMPLES = 11

# Times are reported at a reference machine speed: each operation is scaled by
# CALIBRATION_REF_S over the duration of a fixed calibration loop run next
# to it, because the speed of a shared host drifts by tens of percent over
# seconds to minutes.  CALIBRATION_REF_S is about the loop's duration on the
# 2.1 GHz x86-64 host the benchmark was written on, under CPython 3.11.
_CALIBRATION_STEPS = 20_000
CALIBRATION_REF_S = 0.0125
# After each operation the calibration runs for at least this share of the
# operation's time, so long operations get a steadier speed estimate.
_CALIBRATION_SHARE = 0.1
# Timed in a fresh interpreter: import, then one amplitude and one
# wavefunction, so lazy initialization on either path counts as set-up.
_SETUP_CODE = """
import time
start = time.perf_counter()
import susystep
susystep.reflection_transmission(susystep.PotentialKind.PLUS, 2.0, 1.0)
susystep.exact_solution("I", 1, 2.0, 1.0, 0.3)
print(repr(time.perf_counter() - start))
"""


def measure_setup(samples=SETUP_SAMPLES):
    """Import-and-first-call time in ``samples`` fresh interpreters, after
    one discarded run that may compile bytecode; returns (median raw time,
    that median scaled to the reference speed by the median of the
    calibrations run between the interpreters)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, cals = [], []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        cals.append(calibration_s())
        if i:
            raw.append(float(proc.stdout))
    median = statistics.median(raw)
    return median, median * CALIBRATION_REF_S / statistics.median(cals)


def _calibration_term(w):
    return cmath.log(w) * (w - 0.5) - w


def calibration_s(min_seconds=0.0):
    """Seconds per repetition of a fixed calibration loop, run with the
    collector paused for at least one repetition and ``min_seconds``: a
    probe of the machine's current speed.  The loop mixes the two
    instruction mixes of susystep's hot paths: scalar complex arithmetic
    with Python calls (``lngamma``, the series) and numpy-scalar updates
    (the oracle's RK4 march)."""
    import numpy as np

    q = np.linspace(0.1, 1.0, 64)
    gc.disable()
    try:
        start = time.perf_counter()
        reps = 0
        while True:
            acc, z = 0j, 0.5 + 3j
            for k in range(_CALIBRATION_STEPS):
                acc = 0.5 * acc + _calibration_term(z + k)
            zc, dz = 1.0 + 0j, 0.5j
            for k in range(_CALIBRATION_STEPS // 3):
                k1 = q[k & 63] * zc
                zc = zc + 1e-3 * (dz + 5e-4 * k1)
                dz = dz + 1e-3 * k1
            reps += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                return elapsed / reps
    finally:
        gc.enable()


def timed_passes(workload, seconds, expected, min_passes=3):
    """Repeat passes until ``seconds`` have elapsed (at least
    ``min_passes``), with a calibration loop before the first operation and
    after each one.  Returns the raw pass times, the pass times with each
    operation scaled to the reference speed by the mean of the two
    calibrations around it, and whether every pass reproduced ``expected``."""
    walls, scaled = [], []
    same = True
    before = calibration_s()
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        outputs = []
        wall = norm = 0.0
        for op in workload.ops:
            t0 = time.perf_counter()
            outputs.append(op())
            elapsed = time.perf_counter() - t0
            after = calibration_s(_CALIBRATION_SHARE * elapsed)
            wall += elapsed
            norm += elapsed * CALIBRATION_REF_S / (0.5 * (before + after))
            before = after
        walls.append(wall)
        scaled.append(norm)
        same &= workload.snapshot(outputs) == expected
    return walls, scaled, same


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit():
    """HEAD of the checkout's git repository, read from ``.git`` directly;
    ``unknown`` outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(seed):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines(),
    }


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result, report) where ``result`` is the
    contract's JSON object and ``report`` holds the human-readable extras."""
    import reference
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        workload = WORKLOADS[name](seed, tiny, workdir)
        setup = None if trace else measure_setup(1 if tiny else SETUP_SAMPLES)
        expected = workload.snapshot([op() for op in workload.ops])  # warm-up; these outputs are judged
        raw, untraced, same = timed_passes(workload, seconds / 2 if trace else seconds, expected)
        if trace:
            tracer = Tracer().install()
            try:
                raw_traced, traced, traced_same = timed_passes(workload, seconds / 2, expected)
            finally:
                tracer.uninstall()
            same &= traced_same
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally = reference.Tally()
        structure_ok = workload.judge(expected, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only if no concurrent run still uses it

    wall = statistics.median(untraced)
    if trace:
        layer = tracer.metrics(len(traced))
        layer["trace.overhead_frac"] = statistics.median(traced) / wall - 1.0
        layer["trace.unattributed_frac"] = 1.0 - tracer.top_s / sum(raw_traced)
        metrics = {key: {"value": layer[key], "unit": unit} for key, unit in PER_LAYER}
    else:
        values = {
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "setup_s": setup[1],
            "peak_rss_mb": peak_rss_mb,
            # correct digits of the worst judged output, within [0, 17]
            "accuracy_digits": min(17.0, max(0.0, -math.log10(tally.max_err))) if tally.max_err else 17.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    result = {
        "correct": bool(structure_ok and same and tally.gross == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "passes": len(untraced),
        "wall_s_quartiles": _quartiles(untraced),
        "raw_wall_s_quartiles": _quartiles(raw),
        "raw_items_per_s": workload.items / statistics.median(raw),
        "raw_setup_s": setup and setup[0],
        "max_rel_err": tally.max_err,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "passes_identical": same,
        "structure_ok": structure_ok,
        "gross_errors": tally.gross,
        "notes": tally.notes[:10],
        "record": run_record(seed),
    }
    return result, report


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _print_report(result, report):
    print(f"# {report['workload']}: {report['passes']} untraced passes; wall_s quartiles "
          f"{', '.join(f'{q:.4g}' for q in report['wall_s_quartiles'])} (raw "
          f"{', '.join(f'{q:.4g}' for q in report['raw_wall_s_quartiles'])})")
    rows = [(key, metric["value"], metric["unit"]) for key, metric in result["metrics"].items()]
    rows += [("raw_items_per_s", report["raw_items_per_s"], "1/s"), ("raw_setup_s", report["raw_setup_s"], "s"),
             ("max_rel_err", report["max_rel_err"], ""), ("failed_frac", report["failed_frac"], "fraction")]
    for key, value, unit in rows:
        if value is not None:
            print(f"#   {key:<44} {value:<14.6g} {unit}")
    print(f"#   ({result['failed']} of {result['attempted']} judged outputs failed)")
    for note in report["notes"]:
        print(f"#   note: {note}")
    print("# report " + json.dumps(report))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["tables", "wavefield", "verify-full", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "susystep" / "__init__.py").is_file():
        print(f"bench: no susystep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Single thread: keep numpy's BLAS pool, here and in the set-up
    # interpreters, to the one thread the workloads run on.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    names = ["tables", "wavefield", "verify-full"] if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(result, report)
        results[name] = result
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
