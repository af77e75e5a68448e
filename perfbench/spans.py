"""Spans and counters around peakseq's layers, for the traced pass only.

``Tracer.install`` replaces public functions under the names their callers
look them up by (``peakseq.linsys.mat_mul``, ``peakseq.core.argmax_bound``,
``peakseq.cli.validate_envelope``, ...) and wraps the callables that
``TermSource``, ``Envelope`` and ``EnvelopeFn`` objects are constructed
with.  ``uninstall`` puts every original back.  Nothing here edits peakseq's
files; with the tracer uninstalled the program runs exactly as shipped.

Each span records its name, start and end (``perf_counter_ns``), parent span
and item id in flat arrays kept in memory; ``write`` saves them when the run
ends.  Self time is a span's duration minus the durations of its children,
which never overlap on one thread.
"""

from __future__ import annotations

import gzip
import math
from array import array
from time import perf_counter_ns

from peakseq import algebra, cli, core, linsys, sequences

SETUP_ITEM = -1

SOURCE_SPAN_SUFFIX = ".term"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.item = array("l")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.item_id = SETUP_ITEM
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._adapter_kind: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._evals_at: dict[int, int] = {}
        self._trunc: dict[int, int] = {}
        # Counters, each made at the boundary where the work happens.
        self.source_evals = 0
        self.terms_scanned = 0
        self.redundant_evals = 0
        self.bound_tightenings = 0
        self.bisection_forward_evals = 0
        self.kernel_flops = 0
        # item id -> [source evals, terms scanned, redundant evals]
        self.per_item: dict[int, list[int]] = {}

    # --- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def wrap(self, name: str, fn, before=None, after=None):
        """fn inside a span; ``before(idx)`` and ``after(idx, result)`` add counts."""
        if getattr(fn, "_perfbench_span", False):
            return fn
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item.append(self.item_id)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self._child_ns.append(0)
            if before is not None:
                before(idx, args, kwargs)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self.start[idx] = t0
                self.end[idx] = t1
                self._stack.pop()
                dur = t1 - t0
                child = self._child_ns.pop()
                if self._child_ns:
                    self._child_ns[-1] += dur
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - child
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        traced._perfbench_span = True
        return traced

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    # --- counters ----------------------------------------------------------

    def _item_counts(self) -> list[int]:
        counts = self.per_item.get(self.item_id)
        if counts is None:
            counts = self.per_item[self.item_id] = [0, 0, 0]
        return counts

    def _count_source(self, idx, args, kwargs) -> None:
        self.source_evals += 1
        self._item_counts()[0] += 1

    def _mark_evals(self, idx, args, kwargs) -> None:
        self._evals_at[idx] = self.source_evals

    def _scanned(self, idx: int, terms: int) -> None:
        evals = self.source_evals - self._evals_at.pop(idx)
        counts = self._item_counts()
        counts[1] += terms
        counts[2] += evals - terms
        self.terms_scanned += terms
        self.redundant_evals += evals - terms

    def _after_solve(self, idx, args, kwargs, sol) -> None:
        self._trunc.pop(idx, None)
        self._scanned(idx, sol.terms_evaluated)

    def _after_validate(self, idx, args, kwargs, findings) -> None:
        horizon = args[2] if len(args) > 2 else kwargs["horizon"]
        self._scanned(idx, horizon + 1)

    def _after_argmax_bound(self, idx, args, kwargs, bound) -> None:
        parent = self.parent[idx]
        if parent < 0 or self.span_name(parent) != "core.solve" or not bound.is_finite:
            return
        step = math.floor(bound.value + core.FLOOR_GUARD)
        current = self._trunc.get(parent)
        if current is None or step < current:
            self._trunc[parent] = step
            self.bound_tightenings += 1

    def _count_forward(self, idx, args, kwargs) -> None:
        parent = self.parent[idx]
        if parent >= 0 and self.span_name(parent) == "algebra.invert_numeric":
            self.bisection_forward_evals += 1

    def _count_flops(self, idx, args, kwargs) -> None:
        d = args[0].dim
        self.kernel_flops += 2 * d**3

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, name: str, **hooks) -> None:
        self._patch(module, attr, self.wrap(name, getattr(module, attr), **hooks))

    def install(self) -> None:
        tracer = self

        def source_name() -> str:
            kind = tracer._adapter_kind[-1] if tracer._adapter_kind else None
            return f"sequences.{kind}{SOURCE_SPAN_SUFFIX}" if kind else f"linsys{SOURCE_SPAN_SUFFIX}"

        src_init = core.TermSource.__dict__["__init__"]
        env_init = core.Envelope.__dict__["__init__"]
        fn_init = core.EnvelopeFn.__dict__["__init__"]

        def term_source_init(obj, eval, *args, **kwargs):
            src_init(obj, tracer.wrap(source_name(), eval, before=tracer._count_source), *args, **kwargs)

        def envelope_init(obj, h, *args, **kwargs):
            env_init(obj, tracer.wrap("core.envelope_h", h), *args, **kwargs)

        def envelope_fn_init(obj, eval, inverse, *args, **kwargs):
            fn_init(obj, tracer.wrap("algebra.envelope_eval", eval, before=tracer._count_forward),
                    tracer.wrap("algebra.envelope_inverse", inverse), *args, **kwargs)

        self._patch(core.TermSource, "__init__", term_source_init)
        self._patch(core.Envelope, "__init__", envelope_init)
        self._patch(core.EnvelopeFn, "__init__", envelope_fn_init)

        def adapter_init(orig, kind):
            traced = tracer.wrap("sequences.adapter_init", orig)

            def init(obj, *args, **kwargs):
                tracer._adapter_kind.append(kind)
                try:
                    traced(obj, *args, **kwargs)
                finally:
                    tracer._adapter_kind.pop()

            return init

        for cls, kind in ((sequences.FactorialRatioAdapter, "factorial"),
                          (sequences.FibonacciRatioAdapter, "fibonacci"),
                          (sequences.LogisticAdapter, "logistic"),
                          (sequences.SyracuseAdapter, "syracuse")):
            self._patch(cls, "__init__", adapter_init(cls.__dict__["__init__"], kind))
        step = sequences.SyracuseAdapter.__dict__["step"].__func__
        self._patch(sequences.SyracuseAdapter, "step",
                    staticmethod(self.wrap("sequences.syracuse.step", step)))
        from_rows = linsys.Matrix.__dict__["from_rows"].__func__
        self._patch(linsys.Matrix, "from_rows",
                    classmethod(self.wrap("linsys.matrix_from_rows", from_rows)))

        self._patch_function(cli, "main", "cli.main")
        for module in (core, cli, linsys, sequences):
            self._patch_function(module, "solve", "core.solve",
                                 before=self._mark_evals, after=self._after_solve)
        self._patch_function(core, "argmax_bound", "core.argmax_bound", after=self._after_argmax_bound)
        self._patch_function(linsys, "truncation_from", "core.truncation_from")
        self._patch_function(cli, "validate_envelope", "core.validate_envelope",
                             before=self._mark_evals, after=self._after_validate)
        self._patch_function(algebra, "invert_numeric", "algebra.invert_numeric")
        for attr in ("env_min", "promote_to_decreasing", "envelope_fn_from_forward"):
            self._patch_function(algebra, attr, "algebra.combinator_build")
        self._patch_function(linsys, "mat_mul", "linsys.mat_mul", before=self._count_flops)
        for attr in ("mat_pow", "sym_eig_bounds", "spectral_norm_sq_power", "cholesky_lower"):
            self._patch_function(linsys, attr, f"linsys.{attr}")
        self._patch_function(linsys, "envelope_from_certificate", "linsys.certificate")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_ns[nid] / 1e9, self.self_ns[nid] / 1e9

    def source_stats(self) -> tuple[int, float]:
        calls = total = 0
        for name, nid in self._ids.items():
            if name.endswith(SOURCE_SPAN_SUFFIX):
                calls += self.calls[nid]
                total += self.total_ns[nid]
        return calls, total / 1e9

    def write(self, path) -> None:
        """Save every span as gzip CSV: name,start_ns,end_ns,parent,item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,item\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{names[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.item[i]}\n")
