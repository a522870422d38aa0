"""Timing spans around the public functions of each cubechar layer.

The spans are recorded from outside the package: `install` replaces each
listed function with a wrapper in every `cubechar.*` namespace that holds it
(the modules import names by value, e.g. `from .perm import compose`), and
returns a function that puts the originals back.

A span's self time is its duration minus the time covered by its child
spans.  Spans are nested on one thread, so a span's children never overlap
and the covered time is the sum of their durations; the tracer keeps that
sum on its stack and needs no second pass over the spans.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from array import array
from collections import defaultdict

#: Spans kept in memory for the span file; the aggregates always cover all.
MAX_STORED_SPANS = 1 << 20


class Tracer:
    """Nested timing spans with per-name aggregates and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_values = defaultdict(int)
        self.certify_trails = []  # (precisions tried, final sign) per certify_sign call
        self.names = []
        self._name_ids = {}
        self._stack = []  # [name, span id, start, time covered by children]
        self._next_id = 0
        # one stored span: id, parent id (-1 for a root), name id, start, end
        self.span_ids = array("q")
        self.span_parents = array("q")
        self.span_names = array("H")
        self.span_starts = array("d")
        self.span_ends = array("d")
        self.spans_dropped = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self._next_id, self.clock(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = self.clock()
        name, span_id, start, covered = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[1]
        if len(self.span_ids) >= MAX_STORED_SPANS:
            self.spans_dropped += 1
            return
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_ids.append(span_id)
        self.span_parents.append(parent)
        self.span_names.append(name_id)
        self.span_starts.append(start)
        self.span_ends.append(end)

    def wrap(self, fn, name, count=None):
        """fn with a span named `name` (None: no span); count(args) -> {counter: n}."""
        enter, exit_ = self.enter, self.exit
        counts = self.counts

        def traced(*args, **kwargs):
            if count is not None:
                for key, n in count(args).items():
                    counts[key] += n
            if name is None:
                return fn(*args, **kwargs)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        traced.__wrapped__ = fn
        return traced

    def wrap_certify_sign(self, fn, name: str):
        """Like wrap, and records every precision the escalation tries."""
        tracer = self

        def traced(evaluate, *args, **kwargs):
            tried = []

            def recording(prec):
                tried.append(prec)
                return evaluate(prec)

            tracer.enter(name)
            try:
                enc, sign = fn(recording, *args, **kwargs)
            finally:
                tracer.exit()
            tracer.certify_trails.append((tuple(tried), sign))
            tracer.counts["certreal.evaluations"] += len(tried)
            tracer.max_values["certreal.max_prec_bits"] = max(
                tracer.max_values["certreal.max_prec_bits"], max(tried, default=0)
            )
            if sign == "undetermined":
                tracer.counts["certreal.undetermined"] += 1
            else:
                tracer.counts["certreal.certified"] += 1
            return enc, sign

        traced.__wrapped__ = fn
        return traced

    def save_spans(self, path) -> None:
        """Write the stored spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_ids, dtype=np.int64),
            parent=np.frombuffer(self.span_parents, dtype=np.int64),
            name=np.frombuffer(self.span_names, dtype=np.uint16),
            start=np.frombuffer(self.span_starts, dtype=np.float64),
            end=np.frombuffer(self.span_ends, dtype=np.float64),
            dropped=np.array(self.spans_dropped),
        )


# ---------------------------------------------------------------------------
# what is wrapped: span name -> (module, attribute) targets and work counters


def _construct(args):
    return {"perm.construct.calls": 1, "perm.table_entries": 1 << args[1]}


def _psd_dim(args):
    return {"characters.psd_check_exact.dim_sum": len(args[0])}


def _rep_entries(args):
    return {"gnsfinite.rep_entries": 1 << (2 * args[0].level)}


def _perms_enumerated(args):
    return {"obstruction.perms_enumerated": math.factorial(args[0])}


def _pairs(args):
    size = len(args[1])
    return {"appendix.pairs_checked": size * (size - 1)}


_PF = "ProductFormPermutation."
_NICE = "NiceSet."

#: A target is (module, attribute, optional work counter).  The span name
#: None counts calls without a span: the constructor consumes its caller's
#: generator, so a span there would take the caller's time; the constructor's
#: own work, the bijectivity check, is the perm.construct span.
LAYER_TARGETS = {
    None: [("perm", "CubePermutation.__init__", _construct)],
    "perm.construct": [("perm", "is_permutation_table")],
    "perm.compose": [("perm", "compose"), ("perm", "conjugate"), ("perm", "compose_tables")],
    "perm.inverse": [("perm", "CubePermutation.inverse"), ("perm", "invert_table")],
    "perm.cycle_type": [
        ("perm", "cycle_type"),
        ("perm", "table_cycle_lengths"),
        ("perm", "table_cycles"),
        ("perm", "permutation_sign"),
    ],
    "perm.fixed_fraction": [
        ("perm", "fixed_fraction"),
        ("perm", "fixed_count"),
        ("perm", "fixed_set"),
        ("perm", "fixed_fraction_of"),
    ],
    "perm.embed": [("perm", "embed_head"), ("perm", "embed_tail")],
    "perm.flip_perm": [("perm", "flip_perm")],
    "perm.text": [
        ("perm", "cycle_string"),
        ("perm", "table_string"),
        ("perm", "parse_permutation"),
        ("perm", "table_from_cycles"),
    ],
    "perm.product_form": [
        ("perm", _PF + m)
        for m in (
            "__init__",
            "compose",
            "inverse",
            "fiber_fixed_counts",
            "fixed_point_count",
            "cycle_type",
            "densify",
        )
    ],
    "cube.nice": [
        ("cube", _NICE + m)
        for m in ("__init__", "from_indices", "members", "contains", "lift", "canonical")
    ]
    + [("cube", "nice_intersect"), ("cube", "nice_union"), ("cube", "nice_product")],
    "characters.gram_matrix": [("characters", "gram_matrix")],
    "characters.psd_check_exact": [("characters", "psd_check_exact", _psd_dim)],
    "characters.psd_check_float": [("characters", "psd_check_float")],
    "characters.quadratic_form": [("characters", "quadratic_form")],
    "characters.char_eval": [("characters", "char_eval")],
    "gnsfinite.rep_matrix": [("gnsfinite", "rep_matrix", _rep_entries)],
    "gnsfinite.matrix_character": [("gnsfinite", "matrix_character")],
    "gnsfinite.tensor_character": [("gnsfinite", "tensor_character")],
    "gnsfinite.stabilization_scan": [("gnsfinite", "stabilization_scan")],
    "obstruction.c_alpha_real": [("obstruction", "c_alpha_real")],
    "obstruction.noninteger_witness": [("obstruction", "noninteger_witness")],
    "obstruction.c_alpha_integer": [("obstruction", "c_alpha_integer")],
    "obstruction.bruteforce": [
        ("obstruction", "signed_derangement_sum_bruteforce", _perms_enumerated),
        ("obstruction", "signed_fixcount_distribution", _perms_enumerated),
        ("obstruction", "alt_trace_bruteforce"),
    ],
    "appendix.construct_si": [("appendix", "construct_si")],
    "appendix.verify_si": [("appendix", "verify_si_properties", _pairs)],
    "dyadic.init": [("dyadic", "Dyadic.__init__")],
}

CERTIFY_SPAN = "certreal.certify_sign"


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(f"cubechar.{module_name}")
    *classes, attr = attr_path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return owner, attr


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "cubechar" or name.startswith("cubechar.")]


def install(tracer: Tracer):
    """Wrap every target in LAYER_TARGETS and certify_sign.

    Returns (undo function, targets not found): a target that a later version
    of the package renames or removes is skipped, and its layer reads 0.
    """
    undo, missing = [], []
    modules = _package_modules()

    def replace(original, wrapped, owner, attr):
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    for name, targets in LAYER_TARGETS.items():
        for target in targets:
            module_name, attr_path = target[0], target[1]
            count = target[2] if len(target) > 2 else None
            try:
                owner, attr = _resolve(module_name, attr_path)
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{attr_path}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, name, count))
            else:
                wrapped = tracer.wrap(original, name, count)
            replace(original, wrapped, owner, attr)
    owner, attr = _resolve("certreal", "certify_sign")
    original = getattr(owner, attr)
    replace(original, tracer.wrap_certify_sign(original, CERTIFY_SPAN), owner, attr)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, missing
