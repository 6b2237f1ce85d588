"""Tests of the benchmark itself: negative controls for the checker, the
tracer, and agreement between BENCHMARK.json and what run.py prints.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from catentropy import exact_linalg as xl  # noqa: E402
from tracer import Tracer  # noqa: E402


def _dense_case(label):
    return next(c for c in workloads.build_dense_spectral(7) if c.label == label)


def test_clean_dense_outputs_pass():
    for label in ("int-1-6", "jordan-6", "tie-a2-p1"):
        case = _dense_case(label)
        out = workloads.run_dense_spectral(case)
        assert checks.check_dense_spectral(case, out, workloads.dense_spectral_aux(case)) == []


def test_perturbed_outputs_are_flagged():
    case = _dense_case("jordan-6")
    cp, sig = workloads.run_dense_spectral(case)
    spec = checks.Spectrum(case.facts["rows"])
    assert checks.check_signature(spec, dataclasses.replace(sig, s=sig.s + 1))
    bumped = dataclasses.replace(sig, rho_float=sig.rho_float * (1 + 1e-6))
    assert checks.check_signature(spec, bumped)
    coeffs = list(cp.coefficients)
    coeffs[1] += 1
    assert checks.check_char_poly(spec, xl.ExactPoly.from_coefficients(coeffs))


def test_perturbed_oracle_and_cli_outputs_are_flagged():
    case = workloads.build_quasi_unipotent(3)[2]
    sig, est, last = workloads.run_quasi_unipotent(case)
    assert checks.check_quasi_unipotent(case, (sig, est, last), None) == []
    assert checks.check_quasi_unipotent(case, (sig, est, last + 1), None)

    case = next(c for c in workloads.build_cli_subcommands(3) if c.label == "twist")
    code, stdout, stderr = workloads.run_cli(case)
    assert checks.check_cli(case, (code, stdout, stderr), None) == []
    env = json.loads(stdout)
    env["results"]["recurrence_at_n"] *= 1 + 1e-6
    assert checks.check_cli(case, (code, json.dumps(env), stderr), None)


def test_tracer_counts_nested_calls_and_uninstalls():
    original = xl.growth_signature
    tracer = Tracer()
    tracer.install()
    try:
        xl.growth_signature(xl.ExactMatrix.from_rows([[2, 1], [1, 1]]))
    finally:
        tracer.uninstall()
    assert xl.growth_signature is original
    assert tracer.absent == []
    stats = tracer.stats
    assert stats["exact_linalg.growth_signature"][0] == 1
    # min poly once directly and once inside quasi_unipotent_order
    assert stats["exact_linalg.min_poly"][0] == 2
    assert all(v[1] >= 0 for v in stats.values())


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    import tracer

    targets = tracer.TARGETS + [("exact_linalg.gone", "exact_linalg", "no_such_function")]
    monkeypatch.setattr(tracer, "TARGETS", targets)
    t = Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["exact_linalg.no_such_function"]
    assert run.layer_metrics(t.stats, 1)["exact_linalg.growth_signature.calls"] == 0


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
