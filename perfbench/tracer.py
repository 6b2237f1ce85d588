"""Span timers around the program's public names, installed from outside.

``Tracer.install()`` replaces each traced function or method with a timing
wrapper in the module that defines it and in every ``catentropy`` module
that imported it by name (``cli.growth_signature``,
``quiver_hereditary.pairing_values``), so nested calls are seen as child
spans.  Per traced name it keeps the call count, the self time (span
duration minus the time its child spans cover) and the number of calls
that returned something other than ``None``.  A name that no longer
exists is recorded in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer name, module, attribute).  Several attributes may share one
#: layer name; ``Class.method`` wraps a method on its class.
TARGETS = [
    ("exact_linalg.growth_signature", "exact_linalg", "growth_signature"),
    ("exact_linalg.min_poly", "exact_linalg", "min_poly"),
    ("exact_linalg.char_poly", "exact_linalg", "char_poly"),
    ("exact_linalg.squarefree_decomposition", "exact_linalg", "squarefree_decomposition"),
    ("exact_linalg.quasi_unipotent_order", "exact_linalg", "quasi_unipotent_order"),
    ("exact_linalg.nilpotency_index", "exact_linalg", "nilpotency_index"),
    ("exact_linalg.matmul", "exact_linalg", "ExactMatrix.__matmul__"),
    ("exact_linalg.matvec", "exact_linalg", "ExactMatrix.matvec"),
    ("exact_linalg.inverse", "exact_linalg", "ExactMatrix.inverse"),
    ("exact_linalg.entry_abs_sum", "exact_linalg", "ExactMatrix.entry_abs_sum"),
    ("growth_estimator.pairing_values", "growth_estimator", "pairing_values"),
    ("growth_estimator.fit_growth", "growth_estimator", "fit_growth"),
    ("quiver_hereditary.hereditary_report", "quiver_hereditary", "hereditary_report"),
    ("quiver_hereditary.coxeter_matrix", "quiver_hereditary", "coxeter_matrix"),
    ("quiver_hereditary.check_isometry", "quiver_hereditary", "check_isometry"),
    ("sl2z_dynamics.crosscheck_with_lattice", "sl2z_dynamics", "crosscheck_with_lattice"),
    ("variety_dynamics.degree_table", "variety_dynamics", "degree_table"),
    ("variety_dynamics.kuenneth_self_product", "variety_dynamics", "kuenneth_self_product"),
    ("variety_dynamics.line_bundle_report", "variety_dynamics", "line_bundle_report"),
    ("twist_zoo.recurrence_series", "twist_zoo", "spherical_recurrence_series"),
    ("twist_zoo.recurrence_series", "twist_zoo", "ptwist_recurrence_series"),
    ("jsonio.canonical_json", "jsonio", "canonical_json"),
    ("jsonio.parse", "jsonio", "parse_rows"),
    ("jsonio.parse", "jsonio", "parse_matrix_text"),
    ("jsonio.parse", "jsonio", "parse_sequence_text"),
    ("jsonio.parse", "jsonio", "parse_endo_text"),
    ("jsonio.parse", "jsonio", "parse_linebundle_text"),
    ("jsonio.parse", "jsonio", "parse_quiver_text"),
]

PACKAGE = "catentropy"


class Tracer:
    def __init__(self):
        #: layer name -> [calls, self seconds, non-None results]
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stats[0] += 1
                stats[1] += dt - children
                if stack:
                    stack[-1] += dt
            if result is not None:
                stats[2] += 1
            return result

        return span

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod in ("cli", "jsonio", "quiver_hereditary", "sl2z_dynamics", "variety_dynamics"):
            importlib.import_module("%s.%s" % (PACKAGE, mod))
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
        for layer, mod_name, attr in TARGETS:
            owner = sys.modules["%s.%s" % (PACKAGE, mod_name)]
            *cls_path, name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append("%s.%s" % (mod_name, attr))
                continue
            wrapped = self._wrap(layer, original)
            if cls_path:
                # Aliases on the class (``__mul__ = __matmul__``) share the wrapper.
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._replace(owner, key, wrapped)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
