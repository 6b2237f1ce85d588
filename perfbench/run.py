"""Benchmark of catentropy's exact growth pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: dense-spectral, quasi-unipotent-oracle, quiver-coxeter,
cli-subcommands (see README.md).  A run repeats whole rounds over the
workload's seeded input set until ``--seconds`` have passed (at least two
rounds untraced), then checks every output against references computed
apart from the program (``checks.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the time runs untraced and half traced, and the metrics
are the per-layer ones plus the tracing overhead.

At most one child process runs at a time (setup probes, CLI invocations,
``-X importtime``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = (
    "dense-spectral",
    "quasi-unipotent-oracle",
    "quiver-coxeter",
    "cli-subcommands",
)
#: Fresh processes timed from spawn to the end of set-up; setup_s is their median.
SETUP_PROBES = 3
IMPORTTIME_RUNS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layer -> which of its figures are reported.
LAYER_FIGURES = [
    ("exact_linalg.growth_signature", ("calls", "self_s")),
    ("exact_linalg.min_poly", ("calls", "self_s")),
    ("exact_linalg.char_poly", ("self_s",)),
    ("exact_linalg.squarefree_decomposition", ("self_s",)),
    ("exact_linalg.quasi_unipotent_order", ("calls", "self_s", "hit_ratio")),
    ("exact_linalg.nilpotency_index", ("self_s",)),
    ("exact_linalg.matmul", ("calls", "self_s")),
    ("exact_linalg.entry_abs_sum", ("self_s",)),
    ("exact_linalg.matvec", ("calls", "self_s")),
    ("exact_linalg.inverse", ("self_s",)),
    ("growth_estimator.pairing_values", ("calls", "self_s")),
    ("growth_estimator.fit_growth", ("calls", "self_s")),
    ("quiver_hereditary.hereditary_report", ("self_s",)),
    ("quiver_hereditary.coxeter_matrix", ("self_s",)),
    ("quiver_hereditary.check_isometry", ("self_s",)),
    ("sl2z_dynamics.crosscheck_with_lattice", ("self_s",)),
    ("variety_dynamics.degree_table", ("self_s",)),
    ("variety_dynamics.kuenneth_self_product", ("self_s",)),
    ("variety_dynamics.line_bundle_report", ("self_s",)),
    ("twist_zoo.recurrence_series", ("self_s",)),
    ("jsonio.canonical_json", ("self_s",)),
    ("jsonio.parse", ("self_s",)),
]
#: ratio metric -> (numerator layer, denominator layer), both by calls.
CALL_RATIOS = {
    "exact_linalg.min_poly.calls_per_signature": (
        "exact_linalg.min_poly",
        "exact_linalg.growth_signature",
    ),
    "growth_estimator.pairing_values.calls_per_report": (
        "growth_estimator.pairing_values",
        "quiver_hereditary.hereditary_report",
    ),
}
IMPORT_FIGURES = ("total_s", "numpy_s", "mpmath_s", "catentropy_s")
FIGURE_UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, figures in LAYER_FIGURES:
        for fig in figures:
            units["%s.%s" % (layer, fig)] = FIGURE_UNITS[fig]
    units.update({name: "ratio" for name in CALL_RATIOS})
    units.update({"cli.import.%s" % fig: "s" for fig in IMPORT_FIGURES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# Set-up and timed rounds
# ---------------------------------------------------------------------------


def setup(name: str, seed: int):
    """Imports, input generation and one warm-up operation: everything a
    run does before its first timed operation."""
    import workloads

    wl = workloads.WORKLOADS[name]
    cases = wl.build(seed)
    wl.run(cases[0])
    return wl, cases


def probe_setup(name: str, seed: int) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - t0


@dataclass
class Timing:
    latencies: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    #: label -> why the operation failed (first occurrence)
    errors: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    failed: int = 0


def measure(cases, run, failure, seconds: float, min_rounds: int,
            timing: Timing | None = None) -> Timing:
    """Whole rounds over ``cases`` until ``seconds`` have passed.  A round's
    wall time is the sum of its operations' latencies.  An operation fails
    when it raises or when ``failure(output)`` names a reason.  Outputs of
    the first round are kept for checking; later rounds must repeat them."""
    timing = timing or Timing()
    clock = time.perf_counter
    rounds = 0
    start = clock()
    while rounds < min_rounds or clock() - start < seconds:
        wall = 0.0
        for idx, case in enumerate(cases):
            t0 = clock()
            try:
                out = run(case)
                reason = None
            except Exception:  # a failed operation is counted, not fatal
                out, reason = None, traceback.format_exc(limit=3)
            dt = clock() - t0
            timing.latencies.append(dt)
            wall += dt
            if reason is None and failure:
                reason = failure(out)
            if reason:
                timing.failed += 1
                timing.errors.setdefault(case.label, reason)
            if len(timing.outputs) < len(cases):
                timing.outputs.append(out)
            elif out != timing.outputs[idx]:
                timing.mismatches.append("%s: output changed between rounds" % case.label)
        timing.walls.append(wall)
        rounds += 1
    return timing


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_cli_run(stats: dict, absent: set):
    """The CLI operation run through ``cli_child.py``; the children's
    per-layer stats are summed into ``stats``."""
    import workloads
    from cli_child import MARKER

    prefix = [sys.executable, str(HERE / "cli_child.py")]

    def run(case):
        code, out, err = workloads.run_cli(case, prefix)
        kept = []
        for line in err.splitlines(keepends=True):
            if line.startswith(MARKER):
                doc = json.loads(line[len(MARKER):])
                absent.update(doc["absent"])
                for layer, vals in doc["stats"].items():
                    acc = stats.setdefault(layer, [0, 0.0, 0])
                    for k in range(3):
                        acc[k] += vals[k]
            else:
                kept.append(line)
        return code, out, "".join(kept)

    return run


def import_figures() -> dict[str, float]:
    """Import breakdown of ``catentropy.cli`` from ``python -X importtime``:
    all top-level imports, numpy and mpmath (cumulative), and the self time
    of catentropy's own modules."""
    import workloads

    runs = {fig: [] for fig in IMPORT_FIGURES}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import catentropy.cli"],
            capture_output=True, text=True, env=workloads.cli_env(), cwd=ROOT,
            check=True, timeout=120,
        )
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), self_us, cum_us))
        top = min(depth for depth, *_ in rows)
        cumulative = {name: cum for _, name, _, cum in rows}
        runs["total_s"].append(sum(cum for depth, _, _, cum in rows if depth == top) / 1e6)
        runs["numpy_s"].append(cumulative.get("numpy", 0) / 1e6)
        runs["mpmath_s"].append(cumulative.get("mpmath", 0) / 1e6)
        runs["catentropy_s"].append(
            sum(s for _, name, s, _ in rows if name.split(".")[0] == "catentropy") / 1e6
        )
    return {"cli.import.%s" % fig: statistics.median(v) for fig, v in runs.items()}


def layer_metrics(stats: dict, rounds: int) -> dict[str, float]:
    """Per-round figures of each layer; a layer never called reads 0."""
    def get(layer, k):
        return stats.get(layer, [0, 0.0, 0])[k] / rounds

    out = {}
    for layer, figures in LAYER_FIGURES:
        calls = get(layer, 0)
        for fig in figures:
            if fig == "calls":
                out[layer + ".calls"] = calls
            elif fig == "self_s":
                out[layer + ".self_s"] = get(layer, 1)
            else:
                out[layer + ".hit_ratio"] = get(layer, 2) / calls if calls else 0.0
    for name, (num, den) in CALL_RATIOS.items():
        out[name] = get(num, 0) / get(den, 0) if get(den, 0) else 0.0
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


@dataclass
class Result:
    name: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list


def verify(name, wl, cases, timing: Timing) -> list[str]:
    """Check every first-round output against the independent references;
    later rounds were compared with the first while timing."""
    import checks

    check = checks.CHECKS[name]
    problems = list(timing.mismatches)
    for case, out in zip(cases, timing.outputs):
        if case.label in timing.errors:
            continue  # counted in failed
        try:
            aux = wl.aux(case) if wl.aux else None
            problems += ["%s: %s" % (case.label, msg) for msg in check(case, out, aux)]
        except Exception as exc:  # a crashing check is a failed check
            problems.append("%s: check raised %r" % (case.label, exc))
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> Result:
    wl, cases = setup(name, seed)
    is_cli = name == "cli-subcommands"
    notes: list[str] = []
    problems: list[str] = []
    if not trace:
        timing = measure(cases, wl.run, wl.failure, seconds, min_rounds=2)
        rss = peak_rss_mb(children=is_cli)
        walls = timing.walls
        lat = timing.latencies
        metrics = {
            "setup_s": statistics.median(probe_setup(name, seed) for _ in range(SETUP_PROBES)),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    else:
        from tracer import Tracer

        timing = measure(cases, wl.run, wl.failure, seconds / 2, min_rounds=1)
        untraced_rounds = len(timing.walls)
        tracer = Tracer()
        absent: set = set()
        if is_cli:
            run = traced_cli_run(tracer.stats, absent)
        else:
            tracer.install()
            absent.update(tracer.absent)
            run = wl.run
        try:
            measure(cases, run, wl.failure, seconds / 2, min_rounds=1, timing=timing)
        finally:
            tracer.uninstall()
        plain, traced = timing.walls[:untraced_rounds], timing.walls[untraced_rounds:]
        metrics = layer_metrics(tracer.stats, len(traced))
        metrics.update(import_figures())
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        self_times = [v[1] for v in tracer.stats.values()]
        if min(self_times, default=0.0) < 0 or sum(self_times) > sum(traced):
            problems.append("self times are negative or exceed the traced wall time")
        if absent:
            notes.append("absent (reported as 0): %s" % ", ".join(sorted(absent)))
        units = per_layer_units()
    problems += verify(name, wl, cases, timing)
    return Result(
        name=name,
        correct=not problems,
        attempted=len(timing.latencies),
        failed=timing.failed,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        notes=notes + problems
        + ["failed %s: %s" % (label, why.strip()) for label, why in timing.errors.items()],
    )


def report(res: Result) -> None:
    print("workload %s: attempted %d, failed %d, correct %s"
          % (res.name, res.attempted, res.failed, str(res.correct).lower()))
    for key, m in res.metrics.items():
        print("  %-50s %14.6f %s" % (key, m["value"], m["unit"]))
    for note in res.notes:
        print("  note: %s" % note.rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "catentropy" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no catentropy sources at %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")  # TiedModuli and friends; results are checked instead

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.setup_only:
        for name in names:
            setup(name, args.seed)
        return 0
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {"%s/%s" % (r.name, k): v for r in results for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
