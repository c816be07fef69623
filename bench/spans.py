"""Spans around hopfrob's public functions, recorded from outside the program.

``install`` replaces each traced function at every module binding where
hopfrob imports it (and each traced method on its class) with a wrapper that
records a span: name, start, end, parent span and job id.  Spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the time its child spans cover; spans nest (one thread, one stack), so
the self times of all spans of a job add up to the job's duration.

The hot primitives ``StructureAlgebra.multiply`` and ``multiply_rows`` get a
call count only: a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (module, attribute, span name); methods are given as "Class.method"
SPANNED = (
    ("hopffile", "read_hopf_file", "hopffile.parse"),
    ("hopffile", "read_matrix_file", "hopffile.parse"),
    ("hopffile", "read_module_file", "hopffile.parse"),
    ("hopffile", "write_hopf_file", "hopffile.emit"),
    ("hopffile", "emit_hopf_text", "hopffile.emit"),
    ("algebra", "verify_algebra", "algebra.verify"),
    ("hopfcore", "verify_hopf", "hopfcore.verify_full"),
    ("hopfcore", "left_integral_space", "hopfcore.integral_space"),
    ("hopfcore", "right_integral_space", "hopfcore.integral_space"),
    ("hopfcore", "dual_left_integral_space", "hopfcore.integral_space"),
    ("hopfcore", "dual_hopf", "hopfcore.dual"),
    ("linalg", "Matrix.rref", "linalg.kernel"),
    ("linalg", "Matrix.kernel", "linalg.kernel"),
    ("linalg", "iterated_kernel_sparse", "linalg.kernel"),
    ("linalg", "Matrix.solve", "linalg.solve"),
    ("linalg", "Matrix.solve_matrix", "linalg.solve"),
    ("linalg", "Matrix.inverse", "linalg.solve"),
    ("double", "drinfeld_double", "double.build"),
    ("double", "double_fh_check", "double.fh_check"),
    ("frobenius", "build_integral_data", "frobenius.integral_data"),
    ("frobenius", "frobenius_system_from_norm", "frobenius.system"),
    ("frobenius", "dual_basis_identities_hold", "frobenius.dual_basis"),
    ("frobenius", "nakayama_closed_form", "frobenius.closed_form"),
    ("frobenius", "orders", "frobenius.orders"),
    ("frobenius", "verify_radford", "frobenius.radford"),
    ("frobenius", "dual_frobenius_check", "frobenius.dual_check"),
    ("separability", "is_separable_hopf", "separability.decide"),
    ("separability", "strong_separability", "separability.kanzaki"),
    ("separability", "etingof_gelaki_check", "separability.eg"),
    ("subext", "verify_embedding", "subext.embedding"),
    ("subext", "relative_nakayama", "subext.beta"),
    ("subext", "beta_frobenius_structure", "subext.structure"),
    ("subext", "induction_coinduction_check", "subext.induction"),
    ("dedekind", "module_transport_report", "dedekind.transport"),
)
COUNTED = (
    ("algebra", "StructureAlgebra.multiply", "algebra.multiply_calls"),
    ("algebra", "StructureAlgebra.multiply_rows", "algebra.multiply_calls"),
)
PARSE_BYTES = "hopffile.parse_bytes"
# verify_hopf spans are relabelled by the strategy their Report shows
CERTIFIED_SUFFIX = "(generator certified)"
VERIFY_CERTIFIED = "hopfcore.verify_certified"


class Tracer:
    """Spans as [name, start, end, parent index, job id], plus counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.job = None

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        out = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return out

    def spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "hopffile.parse" and os.path.isfile(args[0]):
                self.counts[PARSE_BYTES] += os.path.getsize(args[0])
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
                if fn.__name__ == "verify_hopf" and any(
                    it.name.endswith(CERTIFIED_SUFFIX) for it in out.items
                ):
                    self.spans[idx][0] = VERIFY_CERTIFIED
                return out
            finally:
                self.end(idx)

        return wrapper

    def counted(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer):
    """Wrap every target in the loaded hopfrob modules; returns an undo
    function that restores the originals."""
    mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("hopfrob.")}
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for modname, attr, label in table:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[modname], cls_name)
                replace(cls, meth, make(cls.__dict__[meth], label))
                continue
            orig = getattr(mods[modname], attr)
            wrapper = make(orig, label)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        replace(mod, key, wrapper)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans, counts: Counter) -> dict:
    """Per-layer numbers of one traced pass.

    Job spans are the roots, named ``cli.<subcommand>``: ``cli.<sub>_s`` is
    the summed time to verdict of that subcommand's jobs and ``cli.self_s``
    their summed self time.  Every other span name gets ``<name>_s``, its
    summed self time, and ``<name>_calls``.
    """
    out: Counter = Counter(counts)
    for span, st in zip(spans, self_times(spans)):
        if span[3] < 0:
            out[span[0] + "_s"] += span[2] - span[1]
            out["cli.self_s"] += st
            out["trace.total_s"] += span[2] - span[1]
        else:
            out[span[0] + "_s"] += st
            out[span[0] + "_calls"] += 1
        out["trace.self_sum_s"] += st
    out["hopfcore.verify_calls"] = out["hopfcore.verify_full_calls"] + out[VERIFY_CERTIFIED + "_calls"]
    return out
