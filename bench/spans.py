"""Span tracing of the quadcurl layers, installed from outside the program.

``traced(quadcurl, tracer)`` wraps every public function of the layer
modules at its module boundary and patches every ``quadcurl`` module that
binds it, because ``systems`` and ``harness`` import the assembly and solver
functions by name.  Two methods and the manufactured fields are wrapped too:
``Mesh.__post_init__`` (mesh construction), ``PencilSystem.schur_dense``, and
the u / curl_u / curl2_u / f callables of the cases the ``*_case``
constructors return.  ``quadrature`` and ``reference`` are not wrapped: they
are cached or cheap, so their time lands in the self time of their callers
and in ``setup_s``.

A span is ``[name, start, end, parent, request]``.  Spans are recorded only
inside a request (between ``begin`` and ``end``), so the benchmark's own
verification calls into the program are not traced.  At the same boundaries
the wrappers add work counts to ``Tracer.counts``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("mesh", "fespace", "assembly", "manufactured", "solvers", "systems", "harness")
CASE_FIELDS = ("u", "curl_u", "curl2_u", "f")


class Tracer:
    """In-memory span store with a stack of open spans and per-name counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.request = None
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin(self, request_id: int) -> int:
        self.request = request_id
        return self.open("request")

    def end(self, idx: int) -> None:
        self.close(idx)
        self.request = None

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, out)
        return out

    return traced_call


def _counters(quadcurl, fn_by_name):
    """Work counts recorded at layer boundaries, keyed by span name."""
    q_points = functools.lru_cache(maxsize=None)(
        lambda degree: quadcurl.quadrature.tet_rule(degree).num_points
    )

    signatures = {name: inspect.signature(fn) for name, fn in fn_by_name.items()}

    def bound(name, args, kwargs):
        return signatures[name].bind(*args, **kwargs).arguments

    def matrix(name, flops):
        def count(c, args, kwargs, out):
            c["assembly.calls"] += 1
            c["assembly.nnz"] += out.mat.nnz
            if flops:
                a = bound(name, args, kwargs)
                space = a.get("space") or a["row_space"]
                T, nb = space.cell_dofs.shape
                if space.family == "edge":
                    Q = q_points(a.get("degree") or 2 * space.order + 2)
                    c["assembly.local_flops"] += T * Q * nb * nb * 3
                else:  # nodal mass: one reference block scaled per tet
                    c["assembly.local_flops"] += T * nb * nb

        return count

    def load(c, args, kwargs, out):
        c["assembly.calls"] += 1

    def make_space(c, args, kwargs, out):
        c["fespace.make_space_calls"] += 1

    def eig(c, args, kwargs, out):
        c["solvers.gen_sym_eig_calls"] += 1
        c["solvers.eig_dim"] += out.vectors.shape[0]

    def saddle(c, args, kwargs, out):
        a = bound("solvers.saddle_solve", args, kwargs)
        K, G = (getattr(m, "mat", m) for m in (a["K"], a["G"]))
        c["solvers.saddle_dim"] += G.shape[0] + G.shape[1]
        c["solvers.saddle_nnz"] += K.nnz + 2 * G.nnz

    return {
        "assembly.assemble_curlcurl": matrix("assembly.assemble_curlcurl", True),
        "assembly.assemble_mass": matrix("assembly.assemble_mass", True),
        "assembly.assemble_gradient_map": matrix("assembly.assemble_gradient_map", False),
        "assembly.assemble_load": load,
        "fespace.make_space": make_space,
        "solvers.gen_sym_eig": eig,
        "solvers.saddle_solve": saddle,
    }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield attr, obj


@contextlib.contextmanager
def traced(quadcurl, tracer: Tracer):
    """Install the span wrappers for the duration of the block, then restore."""
    modules = [m for n, m in sys.modules.items() if n == "quadcurl" or n.startswith("quadcurl.")]
    originals = {}  # span name -> original function
    for layer in LAYERS:
        for attr, fn in _public_functions(getattr(quadcurl, layer)):
            originals[f"{layer}.{attr}"] = fn
    counters = _counters(quadcurl, originals)
    wrapper_of = {}  # id(original) -> wrapper
    for name, fn in originals.items():
        if name.startswith("manufactured.") and name.endswith("_case"):
            wrapper_of[id(fn)] = _wrap_case_constructor(tracer, fn)
        else:
            wrapper_of[id(fn)] = _wrap(tracer, name, fn, counters.get(name))

    def count_tets(c, args, kwargs, out):
        c["mesh.tets"] += args[0].num_tets

    def count_schur(c, args, kwargs, out):
        M, N = args[0].m_total, args[0].n_free
        c["systems.schur_dense_bytes"] += 8 * (M * M + M * N + N * N)

    patched = []  # (owner, attr, original)
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapper_of:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper_of[id(obj)])
        for owner, attr, name, count in (
            (quadcurl.mesh.Mesh, "__post_init__", "mesh.construct", count_tets),
            (quadcurl.systems.PencilSystem, "schur_dense", "systems.schur_dense", count_schur),
        ):
            fn = vars(owner)[attr]
            patched.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, count))
        yield tracer
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)


def _wrap_case_constructor(tracer: Tracer, constructor):
    """Span the constructor as manufactured.case; return the case with spanned fields."""
    wrapped_cases = {}  # id(case) -> (case, wrapped case); holding the case keeps its id unique

    def count_points(c, args, kwargs, out):
        c["manufactured.eval_points"] += out.size // out.shape[-1]

    spanned = _wrap(tracer, "manufactured.case", constructor)

    @functools.wraps(constructor)
    def case_call(*args, **kwargs):
        case = spanned(*args, **kwargs)
        if id(case) not in wrapped_cases:
            fields = {
                f: _wrap(tracer, "manufactured.eval", getattr(case, f), count_points)
                for f in CASE_FIELDS
            }
            wrapped_cases[id(case)] = (case, dataclasses.replace(case, **fields))
        return wrapped_cases[id(case)][1]

    return case_call
