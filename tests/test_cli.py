from __future__ import annotations

import importlib.util
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from catentropy import exact_linalg
from catentropy.cli import _tolerance, main
from catentropy.exact_linalg import ExactMatrix
from catentropy.jsonio import canonical_json, format_float


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "catentropy", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc


def run_inproc(args):
    buf = io.StringIO()
    code = main(args, stdout=buf)
    return code, buf.getvalue()


#: Prints the catentropy, numpy, mpmath and _hashlib entries of
#: ``sys.modules`` after running the CLI on the arguments that follow.
LOADED_MODULES = """
import io, sys
from catentropy.cli import main
code = main(sys.argv[1:], stdout=io.StringIO())
print(code, *sorted(m for m in sys.modules if m.split(".")[0]
                    in ("catentropy", "numpy", "mpmath", "_hashlib")))
"""

#: Whether the build has CPython's builtin SHA-256, so that the envelope's
#: digest loads no ``_hashlib`` (OpenSSL's libcrypto).
BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))

#: Loaded by every subcommand: the package, the parser and the envelope.
CLI_BASE = {"catentropy", "catentropy.cli", "catentropy.errors", "catentropy.jsonio"}

ENDO_DIM_2 = '{"dim": 2, "actions": {"0": [[1]], "1": [[2, 1], [1, 1]], "2": [[1]]}}'

#: Subcommand -> (arguments, standard input, the domain modules it loads).
SUBCOMMAND_RUNS = {
    "growth": (["growth", "-"], '{"rows": [[2, 1], [1, 1]]}', ["exact_linalg"]),
    "classify": (
        ["classify", "--context", "a2cy3", "T1", "T2^-1"],
        None,
        ["exact_linalg", "sl2z_dynamics"],
    ),
    "endo": (
        ["endo", "--kuenneth", "-"],
        ENDO_DIM_2,
        ["exact_linalg", "growth_estimator", "twist_zoo", "variety_dynamics"],
    ),
    "linebundle": (
        ["linebundle", "-"],
        '{"dim": 1, "c1_action": [[0, 0], [1, 0]], "nef": "nef"}',
        ["exact_linalg", "growth_estimator", "twist_zoo", "variety_dynamics"],
    ),
    "twist": (
        ["twist", "--kind", "spherical", "--d", "2", "--t", "0.5",
         "--A", "1", "--B", "1", "--n", "10"],
        None,
        ["twist_zoo"],
    ),
    "quiver": (
        ["quiver", "-"],
        '{"vertices": 2, "arrows": [[1, 2], [1, 2], [1, 2]]}',
        ["exact_linalg", "growth_estimator", "quiver_hereditary"],
    ),
    "estimate": (
        ["estimate", "-"],
        json.dumps({"values": [2**n for n in range(1, 21)]}),
        ["growth_estimator"],
    ),
}


@pytest.mark.parametrize("name", SUBCOMMAND_RUNS)
def test_subcommand_loads_only_its_modules(name):
    # A subcommand's process compiles and runs only the modules it uses;
    # numpy and mpmath are test-only oracles, selftest's corpus is for the
    # selftest subcommand, and the digest needs no libcrypto.
    command, stdin_text, modules = SUBCOMMAND_RUNS[name]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, "--json", *command],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    loaded = set(loaded)
    if not BUILTIN_SHA256:
        loaded.discard("_hashlib")
    assert loaded == CLI_BASE | {"catentropy." + m for m in modules}


def test_package_import_loads_no_domain_module():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, catentropy; "
         "print(*sorted(m for m in sys.modules if m.startswith('catentropy')))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "catentropy\n"


def test_parser_copies_match_their_sources():
    from catentropy import cli
    from catentropy.sl2z_dynamics import Context
    from catentropy.twist_zoo import TwistKind

    assert cli.CONTEXTS == tuple(c.value for c in Context)
    assert cli.TWIST_KINDS == tuple(k.value for k in TwistKind)
    assert cli.MAX_BITS == exact_linalg.MAX_BITS
    assert cli.MAX_PRECISION_BITS == exact_linalg.MAX_PRECISION_BITS


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["classify", "--context", "k3", "T1"],
            "argument --context: invalid choice: 'k3' "
            "(choose from 'a2cy3', 'elliptic')",
        ),
        (
            ["twist", "--kind", "flop", "--d", "2", "--t", "0",
             "--A", "1", "--B", "1", "--n", "10"],
            "argument --kind: invalid choice: 'flop' "
            "(choose from 'spherical', 'ptwist')",
        ),
    ],
)
def test_invalid_choice_is_parse_error(capsys, args, message):
    code, out = run_inproc(["--json", *args])
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


def test_growth_command_parabolic(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1, 1], [0, 1]]}')
    code, out = run_inproc(["--json", "growth", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["rho"] == 1
    assert doc["results"]["s"] == 1
    assert doc["results"]["quasi_unipotent_order"] == 1


def test_growth_command_identity(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1, 0], [0, 1]]}')
    code, out = run_inproc(["--json", "growth", str(path)])
    doc = json.loads(out)
    assert doc["results"]["rho"] == 1 and doc["results"]["s"] == 0


def test_growth_command_hyperbolic_12_digits(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[2, 1], [1, 1]]}')
    code, out = run_inproc(["--json", "growth", str(path)])
    doc = json.loads(out)
    assert abs(doc["results"]["rho"] - (3 + math.sqrt(5)) / 2) < 1e-11
    # floats are serialized with 12 significant digits
    assert '"rho":2.61803398875' in out


def test_rho_interval_below_float_resolution_stays_certified(tmp_path):
    # At --tol 1e-20 the float nearest rho is 5.5e-17 away, outside the
    # tolerance: the interval is not widened to take it in.
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[2, 1], [1, 1]]}')
    code, out = run_inproc(["--json", "--tol", "1e-20", "growth", str(path)])
    assert code == 0
    assert json.loads(out)["results"]["rho_interval"] == [
        "40906781074217107/15625000000000000",
        "2618033988749894849/1000000000000000000",
    ]


def test_growth_accepts_rational_strings(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [["1/3", "0.25"], [0, "1/3"]]}')
    code, out = run_inproc(["--json", "growth", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["s"] == 1  # 2x2 Jordan block at 1/3


def test_growth_internal_inconsistency_exits_4(tmp_path, monkeypatch, capsys):
    # Force the M^k - I cross-check to disagree with the min poly.
    monkeypatch.setattr(exact_linalg, "nilpotency_index", lambda m: 3)
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1, 1], [0, 1]]}')
    code, out = run_inproc(["--json", "growth", str(path)])
    assert code == 4
    assert out == ""
    assert "internal inconsistency" in capsys.readouterr().err


def test_precision_flags_do_not_outlive_the_call(tmp_path):
    # The interval of the exact modulus sqrt(2) is as wide as the tolerance.
    m = ExactMatrix.from_rows([[0, 2], [1, 0]])
    before = exact_linalg.growth_signature(m)
    assert exact_linalg.growth_signature(m, tolerance=Fraction(1, 1000)) != before
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[0, 2], [1, 0]]}')
    code, _ = run_inproc(
        ["--tol", "1e-3", "--precision", "128", "--json", "growth", str(path)]
    )
    assert code == 0
    assert exact_linalg.growth_signature(m) == before


def _spy_modulus_classes(monkeypatch) -> list:
    """Record (width, max_bits) of every root-modulus separation."""
    calls = []
    separate = exact_linalg._modulus_classes

    def spy(exact_boxes, numeric_parts, width, start_bits=exact_linalg.START_BITS,
            max_bits=exact_linalg.MAX_BITS):
        calls.append((width, max_bits))
        return separate(exact_boxes, numeric_parts, width, start_bits, max_bits)

    monkeypatch.setattr(exact_linalg, "_modulus_classes", spy)
    return calls


@pytest.mark.parametrize(
    "command, stdin_text",
    [
        (["growth", "-"], '{"rows": [[0, 2], [1, 0]]}'),
        (["classify", "--context", "a2cy3", "T1", "T2^-1"], None),
        (["endo", "--kuenneth", "-"], ENDO_DIM_2),
        (["quiver", "-"], '{"vertices": 2, "arrows": [[1, 2], [1, 2], [1, 2]]}'),
    ],
)
def test_precision_flags_reach_every_signature(monkeypatch, command, stdin_text):
    calls = _spy_modulus_classes(monkeypatch)
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code, _ = run_inproc(["--tol", "1e-3", "--precision", "128", "--json", *command])
    assert code == 0
    assert set(calls) == {(_tolerance("1e-3"), 128)}


@pytest.mark.parametrize("flags, count", [([], 4), (["--kuenneth"], 9)])
def test_endo_computes_each_signature_once(monkeypatch, flags, count):
    # Three codimensions and the joint action; the self-product adds its
    # five codimensions.
    calls = _spy_modulus_classes(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(ENDO_DIM_2))
    code, _ = run_inproc(["--json", "endo", *flags, "-"])
    assert code == 0
    assert len(calls) == count


@pytest.mark.parametrize(
    "flag",
    [
        "--tol=nan", "--tol=inf", "--tol=0", "--tol=-1e-3",
        "--precision=0", "--precision=-64", "--precision=4097",
    ],
)
def test_invalid_precision_setting_is_parse_error(tmp_path, capsys, flag):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[2, 1], [1, 1]]}')
    code, out = run_inproc([flag, "--json", "growth", str(path)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "argument %s:" % flag.split("=")[0] in err
    assert "Traceback" not in err


def test_precision_below_64_bits_reads_as_64(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[2, 1], [1, 1]]}')
    assert run_inproc(["--precision", "1", "--json", "growth", str(path)]) == run_inproc(
        ["--precision", "64", "--json", "growth", str(path)]
    )


def test_growth_rejects_ragged_rows(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[1, 2], [3]]}')
    assert run_cli(["growth", str(path)]).returncode == 2


def test_growth_rejects_json_floats(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[0.25]]}')
    assert run_cli(["growth", str(path)]).returncode == 2


def test_growth_nilpotent_is_domain_error():
    proc = run_cli(["growth", "-"], stdin_text='{"rows": [[0, 1], [0, 0]]}')
    assert proc.returncode == 3


def test_parse_error_exit_code():
    proc = run_cli(["growth", "-"], stdin_text="not json")
    assert proc.returncode == 2


def test_missing_file_is_parse_error():
    assert run_cli(["growth", "/nonexistent/file.json"]).returncode == 2


@pytest.mark.parametrize("entry", ["a", None])
def test_linebundle_non_numeric_cohomology_is_parse_error(entry):
    doc = {
        "dim": 2,
        "c1_action": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "nef": "nef",
        "cohomology": {"0": [entry, 1, 2, 3, 4, 5, 6, 7]},
    }
    proc = run_cli(["--json", "linebundle", "-"], stdin_text=json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error:")
    assert "Traceback" not in proc.stderr


def test_endo_non_array_labels_is_parse_error():
    doc = {
        "dim": 2,
        "actions": {"0": [[1]], "1": [[2]], "2": [[4]]},
        "labels": {"0": 5},
    }
    proc = run_cli(["--json", "endo", "-"], stdin_text=json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, doc",
    [
        ("endo", {"dim": True, "actions": {"0": [[1]], "1": [[2]]}}),
        ("linebundle", {"dim": True, "c1_action": [[0, 0], [1, 0]]}),
        (
            "linebundle",
            {
                "dim": 1,
                "c1_action": [[0, 0], [1, 0]],
                "cohomology": {"0": [True, 1, 2, 3, 4, 5, 6, 7]},
            },
        ),
        ("estimate", {"n_start": True, "values": [1, 2, 3, 4, 5, 6, 7, 8]}),
        ("estimate", {"values": [True, 2, 3, 4, 5, 6, 7, 8]}),
        ("quiver", {"vertices": True}),
        ("quiver", {"vertices": 2, "arrows": [[True, 2]]}),
    ],
)
def test_json_booleans_are_not_integers(command, doc):
    # true is a Python int; read as 1 it would give the input a second
    # digest beside the one written with 1.
    proc = run_cli(["--json", command, "-"], stdin_text=json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "flags", [["--t", "nan", "--A", "1"], ["--t", "0.5", "--A", "inf"]]
)
def test_twist_non_finite_parameter_is_domain_error(flags):
    proc = run_cli(
        ["--json", "twist", "--kind", "spherical", "--d", "2", *flags,
         "--B", "1", "--n", "10"]
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("domain error:")


HUGE = str(10**400)


@pytest.mark.parametrize(
    "command, doc",
    [
        ("growth", {"rows": [[HUGE]]}),
        ("endo", {"dim": 2, "actions": {"0": [[1]], "1": [[HUGE]], "2": [[1]]}}),
    ],
    ids=["growth", "endo"],
)
def test_spectral_radius_beyond_float_range_is_domain_error(command, doc):
    proc = run_cli(["--json", command, "-"], stdin_text=json.dumps(doc))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("domain error:")
    assert "Traceback" not in proc.stderr


def test_huge_discriminant_with_float_spectral_radius():
    # x^2 + 10^400: the discriminant is beyond the float range, but the
    # roots +-10^200 i are not.
    doc = {"rows": [[0, "-" + HUGE], [1, 0]]}
    proc = run_cli(["--json", "growth", "-"], stdin_text=json.dumps(doc))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["rho"] == 1e200
    assert results["rho_exact"] == str(10**200)


def test_classify_command():
    code, out = run_inproc(["--json", "classify", "--context", "a2cy3", "T1"])
    doc = json.loads(out)
    assert doc["results"]["classification"] == "parabolic_non_central"
    assert doc["results"]["h_pol"] == 1
    assert doc["results"]["crosscheck"]["consistent"] is True


def test_classify_hyperbolic_word():
    code, out = run_inproc(
        ["--json", "classify", "--context", "a2cy3", "T1", "T2^-1"]
    )
    doc = json.loads(out)
    assert doc["results"]["classification"] == "hyperbolic"
    assert abs(doc["results"]["h_cat"]["float"] - 0.962423650119) < 1e-12
    assert doc["results"]["pseudo_anosov"] is True


@pytest.mark.parametrize(
    "tokens", [["--context", "a2cy3", "T1", "T2^-1"], ["--context", "elliptic", "S"]]
)
def test_classify_builds_its_word_once(monkeypatch, tokens):
    from catentropy import sl2z_dynamics

    calls = []
    build = sl2z_dynamics.word_to_matrix

    def spy(w):
        calls.append(w)
        return build(w)

    monkeypatch.setattr(sl2z_dynamics, "word_to_matrix", spy)
    code, out = run_inproc(["--json", "classify", *tokens])
    assert code == 0
    assert json.loads(out)["results"]["crosscheck"]["consistent"] is True
    assert len(calls) == 1


def test_classify_elliptic_context():
    code, out = run_inproc(["--json", "classify", "--context", "elliptic", "S"])
    doc = json.loads(out)
    assert doc["results"]["classification"] == "elliptic_or_central"
    assert doc["results"]["h_pol"] == 0


def test_classify_bad_token_exit_2():
    assert run_cli(["classify", "--context", "a2cy3", "X9"]).returncode == 2


def test_endo_command(tmp_path):
    path = tmp_path / "endo.json"
    path.write_text(
        '{"dim": 2, "actions": {"0": [[1]], "1": [[2]], "2": [[4]]}}'
    )
    code, out = run_inproc(["--json", "endo", str(path), "--kuenneth"])
    doc = json.loads(out)
    assert abs(doc["results"]["h_cat"] - math.log(4)) < 1e-12
    assert doc["results"]["h_pol"] == 0
    assert doc["results"]["self_product"]["consistent"] is True


def test_endo_warnings_surfaced(tmp_path):
    path = tmp_path / "endo.json"
    path.write_text(
        '{"dim": 3, "actions": {"0": [[1]], "1": [[3]], "2": [[2]], "3": [[9]]}}'
    )
    code, out = run_inproc(["--json", "endo", str(path)])
    doc = json.loads(out)
    assert any("log-concavity" in w for w in doc["warnings"])


def test_linebundle_command(tmp_path):
    path = tmp_path / "lb.json"
    doc_in = {
        "dim": 2,
        "c1_action": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "nef": "nef",
        "cohomology": {
            "0": [math.comb(n + 2, 2) for n in range(1, 101)]
        },
    }
    path.write_text(json.dumps(doc_in))
    code, out = run_inproc(["--json", "linebundle", str(path)])
    doc = json.loads(out)
    assert doc["results"]["h_pol_exact"] == 2
    assert abs(doc["results"]["empirical_s_hat"] - 2) < 0.2


def test_twist_command():
    code, out = run_inproc(
        ["--json", "twist", "--kind", "spherical", "--d", "2",
         "--t", "0", "--A", "1", "--B", "1", "--n", "10"]
    )
    doc = json.loads(out)
    assert doc["results"]["bound_at_n"] == 11
    assert doc["results"]["recurrence_at_n"] == 11
    assert doc["results"]["h_pol_at_t"] == [0, 1]


def test_twist_accepts_negative_exponent_notation():
    # -1e-14 is a value of --t, not an option flag; it snaps to t = 0.
    code, out = run_inproc(
        ["--json", "twist", "--kind", "ptwist", "--d", "2",
         "--t", "-1e-14", "--A", "1", "--B", "1", "--n", "10"]
    )
    assert code == 0
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 1 and "t = 0 branch" in warnings[0]


def test_quiver_command():
    proc = run_cli(
        ["--json", "quiver", "-"],
        stdin_text='{"vertices": 2, "arrows": [[1, 2], [1, 2]]}',
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["report"]["h_pol"] == 1
    assert doc["results"]["report"]["crosscheck_consistent"] is True


def test_quiver_command_with_an_isometry(tmp_path, capsys):
    # A3 with Phi^2, of order 2, as the isometry: the envelope holds its
    # rows, in the results and in the hashed input, and the report of the
    # library call.  A shear that moves the Euler pairing exits 3.
    from catentropy.jsonio import inputs_digest, parse_quiver_text, serialize_hereditary_report
    from catentropy.quiver_hereditary import coxeter_matrix, euler_form, hereditary_report

    quiver_text = '{"vertices": 3, "arrows": [[1, 2], [2, 3]]}'
    quiver, quiver_payload = parse_quiver_text(quiver_text)
    phi2 = coxeter_matrix(quiver) ** 2
    assert phi2 != ExactMatrix.identity(3) and phi2**2 == ExactMatrix.identity(3)
    rows = [[str(x) for x in row] for row in phi2.rows]
    (tmp_path / "q.json").write_text(quiver_text)
    (tmp_path / "iso.json").write_text(json.dumps({"rows": rows}))
    code, out = run_inproc(
        ["--json", "quiver", str(tmp_path / "q.json"), "--isometry", str(tmp_path / "iso.json")]
    )
    assert code == 0
    doc = json.loads(out)
    payload = {"quiver": quiver_payload, "isometry": {"rows": rows}}
    assert doc["inputs_digest"] == inputs_digest("quiver", payload)
    assert doc["results"]["isometry"] == rows
    rep = hereditary_report(euler_form(quiver), phi2)
    assert doc["results"]["report"] == json.loads(canonical_json(serialize_hereditary_report(rep)))

    (tmp_path / "shear.json").write_text('{"rows": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}')
    code, out = run_inproc(
        ["--json", "quiver", str(tmp_path / "q.json"), "--isometry", str(tmp_path / "shear.json")]
    )
    assert code == 3 and out == ""
    assert "does not preserve the Euler pairing" in capsys.readouterr().err


def test_quiver_rejects_cycle():
    proc = run_cli(
        ["quiver", "-"],
        stdin_text='{"vertices": 2, "arrows": [[1, 2], [2, 1]]}',
    )
    assert proc.returncode == 3


def test_estimate_command_newline_format():
    values = "\n".join(str((n + 1) * (n + 2) // 2) for n in range(1, 301))
    proc = run_cli(["--json", "estimate", "-"], stdin_text=values)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["results"]["s_hat"] - 2) < 0.15


def test_estimate_command_json_format():
    payload = json.dumps(
        {"n_start": 1, "values": [float(2**n) for n in range(1, 41)]}
    )
    proc = run_cli(["--json", "estimate", "-"], stdin_text=payload)
    doc = json.loads(proc.stdout)
    assert abs(doc["results"]["rho_hat"] - 2) < 1e-3


@pytest.mark.parametrize("count", [8, 9])
def test_estimate_accepts_the_shortest_sequences(count):
    # PositiveSequence accepts 8 values; the default head drop keeps 8.
    payload = json.dumps({"n_start": 1, "values": list(range(1, count + 1))})
    proc = run_cli(["--json", "estimate", "-"], stdin_text=payload)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["window"] == [count - 7, count]


@pytest.mark.parametrize("value", ["2", "1", "-0.1", "nan", "x"])
def test_estimate_drop_head_outside_unit_interval_is_parse_error(value):
    payload = json.dumps({"n_start": 1, "values": list(range(1, 101))})
    proc = run_cli(
        ["--json", "estimate", "--drop-head", value, "-"], stdin_text=payload
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --drop-head:" in proc.stderr


def test_estimate_explicit_drop_head_is_applied_as_given():
    payload = json.dumps({"n_start": 1, "values": list(range(1, 101))})
    proc = run_cli(
        ["--json", "estimate", "--drop-head", "0.5", "-"], stdin_text=payload
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["window"] == [51, 100]
    proc = run_cli(
        ["--json", "estimate", "--drop-head", "0.95", "-"], stdin_text=payload
    )
    assert proc.returncode == 3
    assert "fit window has 5 points" in proc.stderr


def test_estimate_dependent_columns_is_domain_error():
    payload = json.dumps({"n_start": 10**20, "values": list(range(1, 17))})
    proc = run_cli(["--json", "estimate", "-"], stdin_text=payload)
    assert proc.returncode == 3
    assert "linearly dependent" in proc.stderr


def test_json_determinism_across_processes(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[2, 1], [1, 1]]}')
    outs = {run_cli(["--json", "growth", str(path)]).stdout for _ in range(3)}
    assert len(outs) == 1


def test_envelope_digest_depends_on_canonical_input_only(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"rows": [[1, 1], [0, 1]]}')
    b.write_text('{\n  "rows":  [[1,   1], [0, 1]]\n}')  # same canonical input
    out_a = run_cli(["--json", "growth", str(a)]).stdout
    out_b = run_cli(["--json", "growth", str(b)]).stdout
    assert out_a == out_b


def test_selftest_filter_runs_quickly():
    proc = run_cli(["selftest", "--filter", "minpoly"])
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_selftest_corrupt_negative_control():
    proc = run_cli(["selftest", "--filter", "quiver/coxeter", "--corrupt"])
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "coxeter-isometry" in proc.stdout


def test_human_readable_output():
    proc = run_cli(["classify", "--context", "a2cy3", "T1"])
    assert proc.returncode == 0
    assert "classification: parabolic_non_central" in proc.stdout
    assert "inputs digest:" in proc.stdout


def test_format_float_12_digits():
    assert format_float(math.log((3 + math.sqrt(5)) / 2)) == "0.962423650119"
    assert format_float(0.0) == "0"
    assert format_float(2.618033988749895) == "2.61803398875"


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": [1.5, None, True]}) == '{"a":[1.5,null,true],"b":1}'
