import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import quadcurl
from checks import boundary_trace_violation, divergence_violation
from quadcurl import curlcurl_sine_case, generate_cube_mesh, manufactured, quadcurl_sin3_case
from quadcurl.manufactured import smooth_field

FIELDS = ("u", "curl_u", "curl2_u", "f")
X, Y, Z = sp.symbols("x y z")


def sym_curl(F):
    return [
        sp.diff(F[2], Y) - sp.diff(F[1], Z),
        sp.diff(F[0], Z) - sp.diff(F[2], X),
        sp.diff(F[1], X) - sp.diff(F[0], Y),
    ]


def case_expressions(name):
    """The four sympy fields (u, curl u, curl^2 u, f) of a case, derived here."""
    if name == "sine":
        u = [0, 0, sp.sin(sp.pi * X) * sp.sin(sp.pi * Y)]
        cu = sym_curl(u)
        c2u = sym_curl(cu)
        return curlcurl_sine_case(), (u, cu, c2u, c2u)
    psi = (sp.sin(sp.pi * X) * sp.sin(sp.pi * Y) * sp.sin(sp.pi * Z)) ** 3
    u = sym_curl([0, 0, psi])
    cu = sym_curl(u)
    c2u = sym_curl(cu)
    return quadcurl_sin3_case(), (u, cu, c2u, sym_curl(sym_curl(c2u)))


def plain_eval(exprs, pts):
    """Per-component lambdify without common subexpressions or blocks."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    comps = [np.broadcast_to(sp.lambdify((X, Y, Z), e, modules="numpy")(x, y, z), x.shape)
             for e in exprs]
    return np.stack(comps, axis=-1)


def fd_curl(F, pts, h=1e-5):
    partials = []
    for ax in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, ax] += h
        dm[:, ax] -= h
        partials.append((F(dp) - F(dm)) / (2.0 * h))
    out = np.empty_like(pts)
    out[:, 0] = partials[1][:, 2] - partials[2][:, 1]
    out[:, 1] = partials[2][:, 0] - partials[0][:, 2]
    out[:, 2] = partials[0][:, 1] - partials[1][:, 0]
    return out


def gauss_grid(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    return pts, W


def test_sine_case_source_is_two_pi_squared_u():
    case = curlcurl_sine_case()
    rng = np.random.default_rng(0)
    pts = rng.random((200, 3))
    assert np.abs(case.f(pts) - 2.0 * np.pi**2 * case.u(pts)).max() < 1e-12


def test_sine_case_traces_and_divergence():
    case = curlcurl_sine_case()
    assert not case.tangential_curl_zero
    assert boundary_trace_violation(case) < 1e-12
    assert divergence_violation(case) < 1e-8


def test_sine_case_curl_consistent_with_finite_differences():
    case = curlcurl_sine_case()
    rng = np.random.default_rng(3)
    pts = 0.1 + 0.8 * rng.random((50, 3))
    assert np.abs(case.curl_u(pts) - fd_curl(case.u, pts)).max() < 1e-7


def test_sin3_case_both_traces_vanish():
    case = quadcurl_sin3_case()
    assert case.tangential_curl_zero
    assert boundary_trace_violation(case) < 1e-10


def test_sin3_case_divergence_free():
    assert divergence_violation(quadcurl_sin3_case()) < 1e-6


def test_sin3_second_curl_consistent_with_finite_differences():
    case = quadcurl_sin3_case()
    rng = np.random.default_rng(5)
    pts = 0.1 + 0.8 * rng.random((50, 3))
    got = case.curl2_u(pts)
    ref = fd_curl(case.curl_u, pts)
    scale = 1.0 + np.abs(got).max()
    assert np.abs(got - ref).max() < 1e-4 * scale


def test_sin3_source_satisfies_energy_identity():
    """With both essential traces zero, (f, u) = ||curl^2 u||^2."""
    case = quadcurl_sin3_case()
    pts, W = gauss_grid(32)
    lhs = W @ np.einsum("pc,pc->p", case.f(pts), case.u(pts))
    c2 = case.curl2_u(pts)
    rhs = W @ np.einsum("pc,pc->p", c2, c2)
    assert rhs > 1.0
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_library_runs_without_sympy():
    """Importing quadcurl and building both cases loads no sympy module:
    sympy is the tests' oracle only, not a runtime dependency."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, quadcurl; quadcurl.curlcurl_sine_case(); quadcurl.quadcurl_sin3_case(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cases_are_cached():
    assert curlcurl_sine_case() is curlcurl_sine_case()
    assert quadcurl_sin3_case() is quadcurl_sin3_case()


@pytest.mark.parametrize("shape", [(3,), (0, 3), (5, 1703, 3)])
@pytest.mark.parametrize("name", ["sine", "sin3"])
def test_case_fields_match_plain_lambdify(name, shape):
    """Shared subexpressions and blocked evaluation change no value beyond roundoff.

    5 x 1703 points span three evaluation blocks, the last one partial.
    """
    case, exprs = case_expressions(name)
    pts = np.random.default_rng(2).random(shape)
    for field, e in zip(FIELDS, exprs):
        got = getattr(case, field)(pts)
        ref = plain_eval(e, pts)
        assert got.shape == shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(initial=1.0)


def test_smooth_field_matches_sympy_oracle():
    u_fn, curl_fn = smooth_field()
    assert smooth_field() is smooth_field()
    sx, sy, sz = (sp.sin(sp.pi * v) for v in (X, Y, Z))
    u = [sy * sz, sz * sx, sx * sy]
    pts = np.random.default_rng(5).uniform(-0.2, 1.2, (5, 1703, 3))
    for fn, exprs in ((u_fn, u), (curl_fn, sym_curl(u))):
        ref = plain_eval(exprs, pts)
        assert np.abs(fn(pts) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sine_case_zero_components_broadcast():
    case = curlcurl_sine_case()
    pts = np.random.default_rng(4).random((3, 7, 3))
    for field, zero in (("u", [0, 1]), ("curl_u", [2]), ("curl2_u", [0, 1]), ("f", [0, 1])):
        vals = getattr(case, field)(pts)
        assert vals.shape == pts.shape
        assert np.all(vals[..., zero] == 0.0)
        assert np.all(np.isfinite(vals))


def test_case_fields_reject_points_without_three_coordinates():
    with pytest.raises(ValueError):
        quadcurl_sin3_case().f(np.zeros((4, 2)))


def test_traced_source_solve_spans_every_field_evaluation(bench_spans, monkeypatch):
    """The benchmark's tracer sees each field evaluation of a quad-curl study.

    It wraps u, curl_u, curl2_u and f of the returned case; a source study
    that evaluated the fields some other way would read zero field time.  The
    study evaluates f for the load, curl_u and curl2_u for its two errors, and
    never u, whose error no column reads.
    """
    raw = quadcurl_sin3_case()
    field_of = {getattr(raw, f): f for f in FIELDS}
    evaluated = []
    wrap = bench_spans._wrap

    def recording_wrap(tracer, name, fn, count=None):
        traced_fn = wrap(tracer, name, fn, count)
        if name != "manufactured.eval":
            return traced_fn

        def call(*args, **kwargs):
            evaluated.append(field_of[fn])
            return traced_fn(*args, **kwargs)

        return call

    monkeypatch.setattr(bench_spans, "_wrap", recording_wrap)
    mesh = generate_cube_mesh(2)
    tracer = bench_spans.Tracer()
    with bench_spans.traced(quadcurl, tracer):
        request = tracer.begin(0)
        quadcurl.convergence_study("quadcurl-src", 1, [2])
        tracer.end(request)
    names = [s[0] for s in tracer.spans]
    assert names.count("manufactured.eval") == 3
    assert sorted(evaluated) == ["curl2_u", "curl_u", "f"]
    assert tracer.counts["manufactured.eval_points"] == 3 * mesh.num_tets * 216
    assert tracer.self_times()["manufactured.eval"] > 0.0


def distinct_fields():
    """The seven distinct fields of the two cases (the sine case's curl2_u
    is its f), then the two of smooth_field."""
    sin3, sine = quadcurl_sin3_case(), curlcurl_sine_case()
    return [sin3.u, sin3.curl_u, sin3.curl2_u, sin3.f, sine.u, sine.curl_u, sine.f,
            *smooth_field()]


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def test_shared_trig_table_changes_no_value():
    """Fields agree bitwise whether the shared trig table is cold, warm or
    partly filled, and when calls alternate between two read-only arrays.

    5 x 14003 points span two evaluation blocks.
    """
    pts = np.random.default_rng(8).uniform(-0.2, 1.2, (5, 14003, 3))
    assert len(manufactured._blocks(5 * 14003)) == 2
    fields = distinct_fields()
    ref = [fn(pts) for fn in fields]  # a writeable array is never kept
    A, B = read_only(pts), read_only(pts)
    cold = [fn(read_only(pts)) for fn in fields]
    filling = [fn(A) for fn in fields]  # each call fills the rows it needs
    assert manufactured._trig_memo[0]() is A
    assert manufactured._trig_memo[2] == set(range(6))
    table = manufactured._trig_memo[1]
    warm = [fn(A) for fn in fields]
    assert manufactured._trig_memo[1] is table
    interleaved = [(fn(A), fn(B)) for fn in fields]
    for i, want in enumerate(ref):
        for got in (cold[i], filling[i], warm[i], *interleaved[i]):
            assert np.array_equal(got, want)


def test_trig_of_changed_points_is_fresh():
    """A writeable array, or a read-only view of one, changed in place between
    two calls gets trig of its new values."""
    f = quadcurl_sin3_case().f
    rng = np.random.default_rng(9)
    X = rng.random((40, 3))
    f(X)
    X += 0.125
    assert np.array_equal(f(X), f(X.copy()))
    base = rng.random((40, 3))
    view = base.view()
    view.flags.writeable = False
    before = f(view)
    base += 0.125
    after = f(view)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, f(base.copy()))


def test_trig_table_released_with_its_points():
    """The memo holds its array weakly: collecting the array frees the table,
    and an older array's collection leaves a newer array's table in place."""
    f = quadcurl_sin3_case().f
    rng = np.random.default_rng(10)
    A = read_only(rng.random((30, 3)))
    f(A)
    table = weakref.ref(manufactured._trig_memo[1])
    del A
    gc.collect()
    assert manufactured._trig_memo is None
    assert table() is None

    A, B = read_only(rng.random((30, 3))), read_only(rng.random((30, 3)))
    f(A)
    held = manufactured._trig_memo  # keeps A's weakref, so its callback runs
    f(B)
    del A
    gc.collect()
    assert manufactured._trig_memo[0]() is B
    del held, B
    gc.collect()
    assert manufactured._trig_memo is None


def field_polynomials():
    """The (pi power, polynomials) of distinct_fields(), derived as their
    constructors derive them."""
    curl = manufactured._curl
    u = curl((0, ({}, {}, {(0, 0, 0, 3, 3, 3): 1})))
    cu = curl(u)
    c2u = curl(cu)
    v = 0, ({}, {}, {(0, 0, 0, 1, 1, 0): 1})
    w = 0, ({(0, 0, 0, 0, 1, 1): 1}, {(0, 0, 0, 1, 0, 1): 1}, {(0, 0, 0, 1, 1, 0): 1})
    return [u, cu, c2u, curl(curl(c2u)), v, curl(v), curl(curl(v)), w, curl(w)]


def blocked_4096(field, X):
    """A field's values as the 4096-point blocks evaluated them: each block took
    its own cos and sin, and its last block was partial."""
    m, polys = field
    body = ", ".join(manufactured._horner(p) if p else "0" for p in polys)
    fn = eval(f"lambda {', '.join(manufactured._GENS)}: ({body})", {})
    pts = X.reshape(-1, 3)
    out = np.empty(pts.shape)
    for start in range(0, len(pts), 4096):
        block = slice(start, start + 4096)
        angles = np.multiply(pts[block].T, np.pi, order="C")
        for c, v in enumerate(fn(*np.cos(angles), *np.sin(angles))):
            out[block, c] = v
    out *= np.pi**m
    return out.reshape(X.shape)


@pytest.mark.parametrize("shape, blocks", [
    pytest.param((10, 100, 3), 1, id="short-block"),
    pytest.param((162, 216, 3), 1, id="one-block-34992"),
    pytest.param((32768 + 37, 3), 1, id="one-block-and-a-bit"),
    pytest.param((3 * 32768 + 1000, 3), 3, id="several-blocks"),
])
def test_fields_bitwise_equal_4096_point_blocks(shape, blocks):
    """Evaluating in blocks of at least _BLOCK points changes no value: every
    field on writeable and read-only arrays equals the 4096-point evaluation."""
    npts = int(np.prod(shape[:-1]))
    spans = manufactured._blocks(npts)
    assert len(spans) == blocks and spans[0].start == 0 and spans[-1].stop == npts
    assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
    assert all(b.stop - b.start >= min(npts, manufactured._BLOCK) for b in spans)
    pts = np.random.default_rng(11).uniform(-0.2, 1.2, shape)
    frozen = read_only(pts)
    for field, fn in zip(field_polynomials(), distinct_fields()):
        want = blocked_4096(field, pts)
        assert np.array_equal(fn(pts), want)
        assert np.array_equal(fn(frozen), want)
