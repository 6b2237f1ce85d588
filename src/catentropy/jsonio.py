"""Canonical JSON output and input-file parsing for the CLI.

Output rules: object keys sorted, no insignificant whitespace, floats
printed with 12 significant digits (round-half-even), exact rationals as
"p/q" strings.  Two runs on the same canonical input are byte-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from . import __version__
from .errors import ParseError

if TYPE_CHECKING:
    from .exact_linalg import ExactMatrix, GrowthSignature
    from .growth_estimator import EstimatedSignature, PositiveSequence
    from .quiver_hereditary import HereditaryReport, Quiver
    from .sl2z_dynamics import TrichotomyReport
    from .twist_zoo import TwistEntropyReport, ValueOrInterval
    from .variety_dynamics import (
        DegreeTable,
        EndoAction,
        KuennethResult,
        LineBundleData,
        LineBundleReport,
        PullbackEntropyReport,
    )


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return '"%s"' % x  # not expected in reports; keep JSON well-formed
    if x == 0.0:
        return "0"
    return "%.12g" % x


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text; see the module rules."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj, key=str):
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError("cannot serialize %r" % type(obj).__name__)


def _sha256():
    """CPython's builtin SHA-256 (``_sha2`` from 3.12, ``_sha256`` before),
    as ``random`` takes its SHA-512: ``hashlib`` loads OpenSSL's libcrypto,
    several MB, for the one digest of a CLI process.  ``hashlib`` only
    where the build lacks the builtin module."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


def inputs_digest(command: str, payload: Any) -> str:
    text = canonical_json({"command": command, "input": payload})
    return _sha256()(text.encode("utf-8")).hexdigest()


def envelope(command: str, payload: Any, results: Any, warnings: list[str]) -> dict:
    return {
        "command": command,
        "inputs_digest": inputs_digest(command, payload),
        "results": results,
        "warnings": list(warnings),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _entry_to_fraction(x: Any, where: str) -> Fraction:
    if isinstance(x, bool):
        raise ParseError("%s: booleans are not matrix entries" % where)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("%s: bad rational string %r (%s)" % (where, x, exc))
    if isinstance(x, float):
        raise ParseError(
            "%s: JSON floats are inexact; quote the value (e.g. \"0.25\")" % where
        )
    raise ParseError("%s: unsupported entry %r" % (where, x))


def _is_int(x: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` are Python ints but not that."""
    return isinstance(x, int) and not isinstance(x, bool)


def _numbers(values: list, where: str) -> list[float]:
    if any(isinstance(v, bool) for v in values):
        raise ParseError("%s: booleans are not numbers" % where)
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ParseError("%s must be numbers: %s" % (where, exc))


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("%s is not valid JSON: %s" % (what, exc))


def parse_rows(rows: Any, where: str) -> ExactMatrix:
    from .exact_linalg import ExactMatrix

    if not isinstance(rows, list) or not rows:
        raise ParseError("%s: expected a nonempty array of rows" % where)
    width = None
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ParseError("%s: row %d is not an array" % (where, i))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("%s: ragged rows (row %d)" % (where, i))
        parsed.append(
            [_entry_to_fraction(x, "%s[%d][%d]" % (where, i, j)) for j, x in enumerate(row)]
        )
    if width != len(parsed):
        raise ParseError("%s: matrix must be square" % where)
    return ExactMatrix.from_rows(parsed)


def parse_matrix_text(text: str) -> tuple[ExactMatrix, Any]:
    """Matrix file: {"rows": [[...]]} with integer or rational-string
    entries.  Returns the matrix and its canonicalized payload."""
    doc = _load_json(text, "matrix file")
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ParseError('matrix file must be an object with a "rows" field')
    m = parse_rows(doc["rows"], "rows")
    return m, {"rows": [[str(x) for x in row] for row in m.rows]}


def parse_sequence_text(text: str) -> tuple[PositiveSequence, Any]:
    """Sequence file: {"n_start": int, "values": [...]} or plain
    newline-separated positive numbers with n_start = 1."""
    from .growth_estimator import PositiveSequence

    stripped = text.strip()
    if stripped.startswith("{"):
        doc = _load_json(text, "sequence file")
        values = doc.get("values")
        n_start = doc.get("n_start", 1)
        if not isinstance(values, list) or not _is_int(n_start):
            raise ParseError(
                'sequence file needs integer "n_start" and array "values"'
            )
    else:
        n_start = 1
        values = [line for line in stripped.splitlines() if line.strip()]
    seq = PositiveSequence.from_values(_numbers(values, "sequence values"), n_start)
    return seq, {"n_start": seq.n_start, "values": list(seq.values)}


def parse_endo_text(text: str) -> tuple[EndoAction, Any]:
    """Endomorphism file: {"dim": d, "actions": {"0": rows, ..., "d": rows},
    "labels": optional map}."""
    from .variety_dynamics import EndoAction

    doc = _load_json(text, "endomorphism file")
    if not isinstance(doc, dict):
        raise ParseError("endomorphism file must be an object")
    dim = doc.get("dim")
    actions = doc.get("actions")
    if not _is_int(dim) or not isinstance(actions, dict):
        raise ParseError('endomorphism file needs "dim" and an "actions" object')
    mats = []
    for p in range(dim + 1):
        key = str(p)
        if key not in actions:
            raise ParseError("missing action for codimension %d" % p)
        mats.append(parse_rows(actions[key], "actions[%s]" % key))
    raw = doc.get("labels")
    if raw is not None:
        if not isinstance(raw, dict):
            raise ParseError('"labels" must map codimension to name arrays')
        labels = [raw.get(str(p)) for p in range(dim + 1)]
        if any(x is not None and not isinstance(x, list) for x in labels):
            raise ParseError('"labels" entries must be arrays of names')
    endo = EndoAction.from_matrices(mats)
    payload = {
        "dim": dim,
        "actions": {
            str(p): [[str(x) for x in row] for row in m.rows]
            for p, m in enumerate(mats)
        },
    }
    return endo, payload


def parse_linebundle_text(text: str) -> tuple[LineBundleData, Any]:
    """Line-bundle file: {"dim": d, "c1_action": rows, "nef":
    "nef"|"antinef"|"unknown", "cohomology": {"k": sequence} optional}."""
    from .growth_estimator import PositiveSequence
    from .variety_dynamics import LineBundleData, NefFlag

    doc = _load_json(text, "line-bundle file")
    if not isinstance(doc, dict):
        raise ParseError("line-bundle file must be an object")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ParseError('"dim" must be a positive integer')
    c1 = parse_rows(doc.get("c1_action"), "c1_action")
    nef_raw = doc.get("nef", "unknown")
    try:
        nef = NefFlag(nef_raw)
    except ValueError:
        raise ParseError('"nef" must be one of "nef", "antinef", "unknown"')
    cohom = None
    if "cohomology" in doc and doc["cohomology"] is not None:
        if not isinstance(doc["cohomology"], dict):
            raise ParseError('"cohomology" must map degree to value arrays')
        cohom = {}
        for key, values in doc["cohomology"].items():
            try:
                k = int(key)
            except ValueError:
                raise ParseError("bad cohomology degree %r" % key)
            if not isinstance(values, list):
                raise ParseError("cohomology[%s] must be an array" % key)
            cohom[k] = PositiveSequence.from_values(
                _numbers(values, "cohomology[%s] entries" % key)
            )
    lb = LineBundleData(dim=dim, c1_action=c1, nef_flag=nef,
                        cohomology_sequences=cohom)
    payload = {
        "dim": dim,
        "c1_action": [[str(x) for x in row] for row in c1.rows],
        "nef": nef.value,
        "cohomology": (
            {str(k): list(v.values) for k, v in sorted(cohom.items())}
            if cohom
            else None
        ),
    }
    return lb, payload


def parse_quiver_text(text: str) -> tuple[Quiver, Any]:
    """Quiver file: {"vertices": n, "arrows": [[i, j], ...]} with 1-based
    vertex indices."""
    from .quiver_hereditary import Quiver

    doc = _load_json(text, "quiver file")
    if not isinstance(doc, dict):
        raise ParseError("quiver file must be an object")
    n = doc.get("vertices")
    arrows_raw = doc.get("arrows", [])
    if not _is_int(n) or n < 1:
        raise ParseError('"vertices" must be a positive integer')
    if not isinstance(arrows_raw, list):
        raise ParseError('"arrows" must be an array of [i, j] pairs')
    arrows = []
    for k, pair in enumerate(arrows_raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(x) for x in pair)
        ):
            raise ParseError("arrow %d must be a pair of integers" % k)
        arrows.append((pair[0] - 1, pair[1] - 1))
    q = Quiver.from_arrows(n, arrows)
    payload = {"vertices": n, "arrows": [[i + 1, j + 1] for i, j in arrows]}
    return q, payload


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


_INTERVAL_DEN = 10**18


def _outward(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Round a certified interval outward to a readable denominator; the
    bracket stays valid and widens by at most 2e-18."""
    lo_r = Fraction(math.floor(lo * _INTERVAL_DEN), _INTERVAL_DEN)
    hi_r = Fraction(math.ceil(hi * _INTERVAL_DEN), _INTERVAL_DEN)
    return lo_r, hi_r


def serialize_growth(sig: GrowthSignature) -> dict:
    from .exact_linalg import RootOfFactor

    exact = None
    if isinstance(sig.rho_exact, Fraction):
        exact = str(sig.rho_exact)
    elif isinstance(sig.rho_exact, RootOfFactor):
        exact = {
            "root_of": str(sig.rho_exact.factor),
            "modulus_rank": sig.rho_exact.modulus_rank,
        }
    lo, hi = _outward(*sig.rho_interval)
    return {
        "rho": sig.rho_float,
        "rho_interval": [lo, hi],
        "rho_exact": exact,
        "s": sig.s,
        "dominant_factors": [
            {"factor": str(h), "multiplicity": m}
            for h, m in sig.dominant_factors
        ],
        "quasi_unipotent_order": sig.quasi_unipotent_k,
        "tied_moduli": sig.tied,
    }


def serialize_estimate(est: EstimatedSignature) -> dict:
    return {
        "rho_hat": est.rho_hat,
        "s_hat": est.s_hat,
        "residual": est.residual,
        "window": [est.window[0], est.window[1]],
    }


def serialize_trichotomy(rep: TrichotomyReport, crosscheck: dict) -> dict:
    return {
        "classification": rep.classification.value,
        "h_cat": {"exact": rep.h_cat_exact, "float": rep.h_cat_float},
        "h_pol": rep.h_pol,
        "pseudo_anosov": rep.pseudo_anosov,
        "trace": rep.trace,
        "crosscheck": {
            "consistent": crosscheck["consistent"],
            "log_rho": crosscheck["details"]["log_rho"],
            "s": crosscheck["details"]["s"],
        },
    }


def serialize_degree_table(table: DegreeTable) -> dict:
    return {
        "d_p": list(table.d_p),
        "s_p": list(table.s_p),
        "plateau": [table.plateau[0], table.plateau[1]],
        "per_codimension": [serialize_growth(sig) for sig in table.signatures],
    }


def serialize_endo_report(
    rep: PullbackEntropyReport, kuenneth: KuennethResult | None
) -> dict:
    out = {
        "h_cat": rep.h_cat,
        "h_pol": rep.h_pol,
        "degrees": serialize_degree_table(rep.table),
        "joint_action": serialize_growth(rep.block_signature),
    }
    if kuenneth is not None:
        out["self_product"] = {
            "degree_mismatches": list(kuenneth.degree_mismatches),
            "s_mismatches": list(kuenneth.s_mismatches),
            "consistent": not (
                kuenneth.degree_mismatches or kuenneth.s_mismatches
            ),
        }
    return out


def serialize_linebundle_report(rep: LineBundleReport) -> dict:
    return {
        "h_cat": rep.h_cat,
        "h_pol_lower": rep.h_pol_lower,
        "h_pol_upper": rep.h_pol_upper,
        "h_pol_exact": rep.h_pol_exact,
        "exp_signature": serialize_growth(rep.exp_signature),
        "empirical_s_hat": rep.empirical_s_hat,
        "empirical_fits": (
            {str(k): serialize_estimate(v) for k, v in rep.empirical_fits.items()}
            if rep.empirical_fits
            else None
        ),
    }


def serialize_value_or_interval(v: ValueOrInterval) -> Any:
    if v.is_exact:
        return v.lo
    return [v.lo, "inf" if math.isinf(v.hi) else v.hi]


def serialize_twist_report(rep: TwistEntropyReport, bound: float, recurrence: float, n: int) -> dict:
    return {
        "kind": rep.kind.value,
        "bound_at_n": bound,
        "recurrence_at_n": recurrence,
        "n": n,
        "h_t": rep.h_t_description,
        "h_t_at_t": rep.h_t_at_t,
        "h_pol_branches": {
            key: serialize_value_or_interval(v) for key, v in rep.h_pol_branches
        },
        "h_pol_at_t": serialize_value_or_interval(rep.h_pol_at_t),
        "unknown_at_t": rep.unknown_at_t,
        "note": rep.note,
    }


def serialize_hereditary_report(rep: HereditaryReport) -> dict:
    return {
        "h_cat": rep.h_cat,
        "h_pol": rep.h_pol,
        "signature": serialize_growth(rep.signature),
        "crosscheck": serialize_estimate(rep.crosscheck),
        "crosscheck_consistent": rep.crosscheck_consistent,
        "skipped_pairs": [list(p) for p in rep.skipped_pairs],
        "used_pair_sum_fallback": rep.used_pair_sum_fallback,
        "mass_growth_note": (
            "the same values give the mass growth data whenever a numerical "
            "stability condition exists; that hypothesis is not verified here"
        ),
    }
