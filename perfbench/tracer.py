"""Spans around the library's public functions, recorded from outside.

`Tracer.instrument()` replaces each traced function at every module
attribute it is bound to (for example `lacore.gram` is also `basis.gram`
and `sstepcg.gram`), wraps two methods on their classes, and puts every
original back on exit. Functions imported at call time
(`from .lacore import sym_eig` inside a function body) pick the wrapper up
from the module attribute. The direct `a.as_csr() @ x` products in the
solvers bypass `lacore.spmv`, so `SparseMatrix.as_csr` hands out a proxy
whose `@` is traced as `csr.matmul`; every sparse product, direct or
through `lacore.spmv`, is one such span.

Wrappers only time and pass arguments, results and exceptions through, so
the traced computation is the untraced one. A span is
(id, parent id, request id, name, label, start ns, end ns, error); the
request id is the enclosing `bench.*` span (one cell, floor run or load).
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import defaultdict

PACKAGE = "sstepcg"

TRACED_FUNCTIONS = (
    ("matio", "load_problem"),
    ("matio", "read_matrix_market"),
    ("matio", "jacobi_precondition"),
    ("matio", "estimate_operator_norms"),
    ("lacore", "spmv"),
    ("lacore", "gram"),
    ("lacore", "nested_basis_conds"),
    ("lacore", "gram_cond_estimate"),
    ("lacore", "sym_eig"),
    ("basis", "build_block"),
    ("basis", "params_for"),
    ("basis", "leja_points"),
    ("ritz", "c_strategy"),
    ("ritz", "abs_matrix_norm"),
    ("classic", "hscg_solve"),
    ("classic", "hscg_attainable_accuracy"),
    ("sstep", "sstep_solve"),
    ("sstep", "recover_iterates"),
    ("adaptive", "adaptive_solve"),
    ("adaptive", "select_s_tilde"),
    ("harness", "emit_trace_csv"),
)


class _CsrProxy:
    """Stands in for the cached scipy CSR matrix; times `@`, delegates the rest.

    The span label is the product's computed traffic in bytes: the CSR
    arrays plus one read of x and one write of y.
    """

    __slots__ = ("_csr", "_tracer")

    def __init__(self, csr, tracer):
        self._csr = csr
        self._tracer = tracer

    def __matmul__(self, x):
        c = self._csr
        moved = c.data.nbytes + c.indices.nbytes + c.indptr.nbytes + 2 * c.shape[0] * c.data.itemsize
        token = self._tracer.enter("csr.matmul", moved)
        try:
            y = c @ x
        except BaseException as exc:
            self._tracer.exit(token, type(exc).__name__)
            raise
        self._tracer.exit(token)
        return y

    def __getattr__(self, name):
        return getattr(self._csr, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.results = defaultdict(list)  # name -> return values kept for metrics
        self._stack = [(0, 0)]  # (span id, request id)
        self._next_id = 1

    def enter(self, name, label=""):
        sid = self._next_id
        self._next_id += 1
        parent, request = self._stack[-1]
        if name.startswith("bench."):
            request = sid
        self._stack.append((sid, request))
        return (sid, parent, request, name, label, time.perf_counter_ns())

    def exit(self, token, error=""):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(token + (t1, error))

    @contextlib.contextmanager
    def span(self, name, label=""):
        token = self.enter(name, label)
        try:
            yield
        except BaseException as exc:
            self.exit(token, type(exc).__name__)
            raise
        self.exit(token)

    def _wrap(self, name, fn, keep_result=False):
        def traced(*args, **kwargs):
            token = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(token, type(exc).__name__)
                raise
            self.exit(token)
            if keep_result:
                self.results[name].append(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instrument(self):
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        undo = []
        for mod_name, fn_name in TRACED_FUNCTIONS:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            keep = fn_name in ("estimate_operator_norms", "emit_trace_csv")
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, keep_result=keep)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))
        ritz = sys.modules[f"{PACKAGE}.ritz"]
        matio = sys.modules[f"{PACKAGE}.matio"]
        absorb = ritz.RitzState.absorb_step
        as_csr = matio.SparseMatrix.as_csr
        ritz.RitzState.absorb_step = self._wrap("ritz.absorb_step", absorb)
        matio.SparseMatrix.as_csr = lambda a: _CsrProxy(as_csr(a), self)
        undo += [(ritz.RitzState, "absorb_step", absorb), (matio.SparseMatrix, "as_csr", as_csr)]
        try:
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,request,name,label,start_ns,end_ns,error\n")
            f.writelines(",".join(map(str, s)) + "\n" for s in self.spans)
        return path


class SpanSummary:
    """Per-name call counts, total and self seconds, and summed byte labels,
    over the spans whose request (enclosing `bench.*` span) passes a filter."""

    def __init__(self, spans, keep_request):
        request_name = {s[0]: s[3] for s in spans if s[3].startswith("bench.")}
        kept = [s for s in spans if keep_request(request_name.get(s[2], ""))]
        child_ns = defaultdict(int)
        for s in kept:
            child_ns[s[1]] += s[6] - s[5]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.bytes = defaultdict(int)
        for sid, _, _, name, label, t0, t1, err in kept:
            self.calls[name] += 1
            self.total_s[name] += (t1 - t0) * 1e-9
            self.self_s[name] += (t1 - t0 - child_ns[sid]) * 1e-9
            if err:
                self.errors[(name, err)] += 1
            if isinstance(label, int):
                self.bytes[name] += label
