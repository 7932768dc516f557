import re
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import quadcurl
from checks import assert_block_of, coo_scatter, divergence_residual
from meshes import cube_without, five_tet_cube_mesh, jittered_cube_mesh
from quadcurl import (
    Mesh, build_curlcurl_system, build_quadcurl_pencil, convergence_study, curlcurl_sine_case,
    eigenpairs, generate_cube_mesh, quadcurl_sin3_case, setup_spaces, solve_curlcurl_source,
    solve_maxwell_eig, solve_quadcurl_eig, solve_quadcurl_source, solve_source,
)
from quadcurl.assembly import (
    _gram, assemble_curlcurl, assemble_gradient_map, assemble_load, assemble_mass,
)
from quadcurl.errors import EigenSolveError, SpaceError
from quadcurl.fespace import _Pattern, make_space
from quadcurl.quadrature import QuadRule, tet_rule
from quadcurl import solvers, systems
from quadcurl.solvers import _REFINE_STEPS


@pytest.fixture(scope="module")
def pencil2(cube2):
    return build_quadcurl_pencil(cube2, 1)


def test_single_interior_edge_pencil_exact():
    """n=1 leaves one free edge DoF; the pencil is scalar with value 9600/7."""
    mesh = generate_cube_mesh(1)
    pen = build_quadcurl_pencil(mesh, 1)
    assert (pen.n_free, pen.m_total, pen.p_free) == (1, 19, 0)
    res = solve_quadcurl_eig(mesh, 1, 1)
    assert res.values[0] == pytest.approx(9600.0 / 7.0, rel=1e-12)
    assert res.n_zero == 0
    assert res.residuals[0] < 1e-8


def test_block_pencil_agrees_with_schur(pencil2):
    """QZ on the full block system reproduces the shift-invert eigenvalues."""
    A, B, _ = pencil2.operator()
    vals = scipy.linalg.eigvals(A.toarray(), B.toarray())
    finite = np.sort(vals[np.isfinite(vals)].real)
    finite = finite[finite > 1e-6 * finite.max()]
    res = eigenpairs(pencil2, 5)
    assert np.abs(finite[:5] - res.values).max() < 1e-8 * res.values[0]


@pytest.mark.parametrize("order, n", [(1, 5), (2, 2)])
def test_operator_stacking_bitwise_equals_bmat(order, n):
    """(A, B, Y) stacked from CSR blocks store exactly what bmat/block_diag build.

    Y keeps its vstack spelling; A and B are checked against the COO-based
    bmat and block_diag, which sort and merge their entries on compression.
    """
    pen = build_quadcurl_pencil(jittered_cube_mesh(n, seed=2), order)
    K, M_M, M_N = pen.K.mat, pen.M_M.mat, pen.M_N.mat
    want = (sp.bmat([[None, K.T], [K, -M_M]], format="csr"),
            sp.block_diag([M_N, sp.csr_matrix((pen.m_total,) * 2)], format="csr"),
            sp.vstack([pen.G0.mat, sp.csr_matrix((pen.m_total, pen.p_free))], format="csr"))
    for got, ref in zip(pen.operator(), want):
        assert got.format == "csr" and got.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(ref, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("build", [build_quadcurl_pencil, build_curlcurl_system])
def test_operator_is_the_unit_scale_operator(cube2, build):
    """On the cube dilated by 4^3 or 4^-3, the record's scale is that
    dilation, and operator() stores bitwise the unit cube's (A, B, Y)."""
    want = build(cube2, 1).operator()
    for L in (4.0**3, 4.0**-3):
        record = build(Mesh(L * cube2.vertices, cube2.tets), 1)
        assert record.scale == L
        for got, ref in zip(record.operator(), want):
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(ref, part)), (L, part)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("mesh", [
    pytest.param(generate_cube_mesh(3), id="kuhn3"),
    pytest.param(jittered_cube_mesh(3, seed=4), id="jittered3"),
    pytest.param(five_tet_cube_mesh(4), id="fivetet4"),
])
def test_pencil_edge_mass_on_free_dofs_is_bitwise_the_assembled_one(mesh, order):
    """M_N, the free rows and columns of M_M, and the curl-curl record's
    U_{0,h} mass M0 each store exactly the free block of the assembled mass:
    triplet compression's pattern and the dense full layout's values.  M_N
    owns its data."""
    pen = build_quadcurl_pencil(mesh, order)
    edge = pen.spaces.edge
    free = edge.free_dofs
    want = coo_scatter(edge, _gram(edge, 0), free, free)
    for got in (pen.M_N, build_curlcurl_system(mesh, order).M0):
        assert_block_of(got.mat, pen.M_M.mat, free, free, (want.indptr, want.indices))
    assert not np.shares_memory(pen.M_N.mat.data, pen.M_M.mat.data)


@pytest.mark.parametrize("order", [1, 2])
def test_divergence_constrained_system_has_only_the_nonzero_eigenvalues(cube2, order):
    """The bypass claim, explicitly: the pencil with the divergence constraint

        [[0, K^T, M_N G0], [K, -M_M, 0], [G0^T M_N, 0, 0]]  against  diag(M_N, 0, 0)

    has exactly N - P finite eigenvalues, the nonzero ones of the record's
    pencil, and no zero: dropping the multiplier only adds the P gradient
    modes at lambda = 0.  The pencil's eigenvalues come from its Schur form
    K^T M_M^-1 K against M_N.
    """
    pen = build_quadcurl_pencil(cube2, order)
    N, M, P = pen.n_free, pen.m_total, pen.p_free
    K, M_M, M_N, G0 = (b.mat.toarray() for b in (pen.K, pen.M_M, pen.M_N, pen.G0))
    D = M_N @ G0
    A = np.block([[np.zeros((N, N)), K.T, D],
                  [K, -M_M, np.zeros((M, P))],
                  [D.T, np.zeros((P, M + P))]])
    B = scipy.linalg.block_diag(M_N, np.zeros((M + P, M + P)))
    alpha, beta = scipy.linalg.eigvals(A, B, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * np.abs(alpha)
    assert finite.sum() == N - P
    lam = alpha[finite] / beta[finite]
    assert np.abs(lam.imag).max() <= 1e-12 * np.abs(lam).max()
    lam = np.sort(lam.real)
    pencil = scipy.linalg.eigh(pen.schur_dense(), M_N, eigvals_only=True)
    assert np.abs(pencil[:P]).max() <= 1e-10 * pencil[P]  # the P gradient modes
    assert lam[0] > 0.5 * pencil[P]
    assert np.abs(lam / pencil[P:] - 1.0).max() <= 1e-12


def _negative_pivots(system, tau):
    """Negative eigenvalues of A - tau B, by Sylvester inertia: the negative
    pivots of the symmetric-mode, no-pivot LU the eigen route factors with."""
    A, B, _ = system.operator()
    lu = solvers._symmetric_lu(A - tau * B)
    assert np.array_equal(lu.perm_r, lu.perm_c)  # a symmetric permutation: congruence
    return int((lu.U.diagonal() < 0.0).sum())


def _slice_count(system, values, tau):
    """What the inertia of A - tau B must read if ``values`` are all the
    eigenvalues below tau: the M of the w block, the P gradient modes at 0,
    and the nonzero eigenvalues below tau."""
    return system.m_total + system.spaces.nodal.num_free + int((values < tau).sum())


@pytest.mark.parametrize("build, mesh, order", [
    pytest.param(build_curlcurl_system, generate_cube_mesh(3), 2, id="maxwell-kuhn3-order2"),
    pytest.param(build_quadcurl_pencil, five_tet_cube_mesh(4), 1, id="quadcurl-fivetet4-order1"),
    pytest.param(build_quadcurl_pencil, generate_cube_mesh(2), 2, id="quadcurl-kuhn2-order2"),
])
def test_repeated_eigenvalues_survive_every_count(build, mesh, order):
    """Counts 1-5 return the first values of a count-8 solve, every copy of a
    repeated eigenvalue included, and Sylvester inertia confirms none is missing.

    Each record has an exactly repeated eigenvalue among its first five (a
    double at 19.8 and 1733, a triple at 1558).  Lanczos finds only as many
    copies as its subspace allows: with ncv 28 the five-tet count-3 solve
    returned 3795.8 for the third copy of 1557.66.  Such a pair is a genuine
    eigenpair, so no residual check catches it.  The inertia of A - tau B,
    tau just below the largest returned value, counts every eigenvalue below
    tau, so it does.
    """
    system = build(mesh, order)
    ref = eigenpairs(system, 8).values
    for count in range(1, 6):
        got = eigenpairs(system, count).values
        assert np.abs(got - ref[:count]).max() <= 1e-9 * ref[0], count
        tau = got[-1] * (1.0 - 1e-6)
        assert _negative_pivots(system, tau) == _slice_count(system, got, tau), count


def test_inertia_count_catches_a_skipped_cluster_copy():
    """The five-tet triple with its third copy replaced by the next eigenvalue,
    as a too-small Lanczos subspace returns it, fails the inertia count."""
    pen = build_quadcurl_pencil(five_tet_cube_mesh(4), 1)
    ref = eigenpairs(pen, 8).values
    assert ref[2] - ref[0] <= 1e-9 * ref[0] < ref[3] - ref[2]  # the triple, then a gap
    skipped = np.append(ref[:2], ref[3])
    tau = skipped[-1] * (1.0 - 1e-6)
    assert _negative_pivots(pen, tau) == _slice_count(pen, skipped, tau) + 1


def test_pencil_shapes_and_gradient_compatibility(pencil2):
    N, M, P = pencil2.n_free, pencil2.m_total, pencil2.p_free
    assert (N, M, P) == (26, 98, 1)
    assert pencil2.K.shape == (M, N)
    assert pencil2.M_N.shape == (N, N)
    assert pencil2.M_M.shape == (M, M)
    assert pencil2.G0.shape == (N, P)
    KG = pencil2.K.mat @ pencil2.G0.mat
    assert (np.abs(KG.data).max() if KG.nnz else 0.0) < 1e-13
    A, _, Y = pencil2.operator()  # Y = [G0; 0], the kernel of the block operator
    assert Y.shape == (N + M, P)
    AY = A @ Y
    assert (np.abs(AY.data).max() if AY.nnz else 0.0) < 1e-13


def test_zero_multiplicity_matches_scalar_space(cube2, cube3):
    for mesh, expected_P in [(cube2, 1), (cube3, 8)]:
        pen = build_quadcurl_pencil(mesh, 1)
        assert pen.p_free == expected_P
        res = eigenpairs(pen, 2)
        assert res.n_zero == expected_P


def test_eigenvectors_discretely_divergence_free(cube3):
    pen = build_quadcurl_pencil(cube3, 1)
    res = eigenpairs(pen, 4)
    assert res.div_residuals.max() < 1e-8
    s = pen.spaces
    for i in range(4):
        direct = divergence_residual(s.edge, s.nodal, res.vectors[:, i])
        assert direct < 1e-8


def test_eigen_route_rejects_a_gradient_component(pencil2, cube2, monkeypatch):
    """The divergence contract raises on its own.

    A projector that leaves a gradient component of relative size 1e-11 in
    every iterate gives eigenpairs whose residuals (about 1.1e-9) pass the
    1e-8 residual gate, but whose divergence residuals (about 3.7e-9) do not
    pass the 1e-10 divergence gate.  The leak goes on a fresh record's eigen
    factor, so the module-scoped ``pencil2`` keeps its own.
    """
    assert eigenpairs(pencil2, 3).div_residuals.max() <= 1e-14
    pen = build_quadcurl_pencil(cube2, 1)
    project = pen.eigen_factor.project
    grad = pen.eigen_factor.Y @ np.ones(pen.p_free)

    def leaky(z):
        z = project(z)
        z += 1e-11 * np.linalg.norm(z) / np.linalg.norm(grad) * grad
        return z

    monkeypatch.setattr(pen.eigen_factor, "project", leaky)
    with pytest.raises(EigenSolveError, match="divergence residual"):
        eigenpairs(pen, 3)
    monkeypatch.setattr(solvers, "_EIG_DIV_TOL", 1e-7)
    assert eigenpairs(pen, 3).residuals.max() <= 1e-8  # the residual gate passes


@pytest.mark.parametrize("build", [build_quadcurl_pencil, build_curlcurl_system])
def test_record_factors_each_route_once(build, cube2, monkeypatch):
    """Two eigen and two source solves on a fresh record factor A - sigma B and
    Y^T B Y once per route, each at its own shift (a tenth of the unit-scale
    shift for the eigen route, _SHIFT_FRACTION of it for the source route);
    the results keep neither."""
    made = []
    symmetric_lu = solvers._symmetric_lu

    def counting(A):
        made.append(A.shape)
        return symmetric_lu(A)

    monkeypatch.setattr(solvers, "_symmetric_lu", counting)
    system = build(cube2, 1)
    load = np.random.default_rng(0).standard_normal(system.n_free)
    results = []
    for _ in range(2):
        results += [eigenpairs(system, 2), solve_source(system, load)]
    n, P = system.n_free + system.m_total, system.spaces.nodal.num_free
    assert made == [(n, n), (P, P)] * 2  # the eigen route's, then the source route's
    assert system.eigen_factor.sigma == 0.1 * systems._shift(system) < 0.0
    assert system.source_factor.sigma == systems._SHIFT_FRACTION * systems._shift(system)
    assert np.array_equal(results[0].values, results[2].values)
    assert np.array_equal(results[1].u.values, results[3].u.values)
    factors = [weakref.ref(system.eigen_factor), weakref.ref(system.source_factor)]
    del system
    assert [factor() for factor in factors] == [None, None]


def test_divergence_residual_calibration(pencil2):
    s = pencil2.spaces
    grad_field = pencil2.G0.mat @ np.ones(pencil2.p_free)
    assert divergence_residual(s.edge, s.nodal, grad_field) > 0.1
    assert divergence_residual(s.edge, s.nodal, np.zeros(pencil2.n_free)) == 0.0


def test_quadcurl_eig_matches_dense_schur(cube2, cube3):
    """Shift-invert with deflation vs dense eigh of the Schur form S against M_N."""
    for mesh, order in [(cube3, 1), (cube2, 2)]:
        pen = build_quadcurl_pencil(mesh, order)
        P = pen.p_free
        dense = scipy.linalg.eigh(pen.schur_dense(), pen.M_N.to_dense(), eigvals_only=True)
        assert np.abs(dense[:P]).max() < 1e-8 * dense[P]  # the P gradient modes
        res = eigenpairs(pen, 5)
        assert np.abs(res.values - dense[P:P + 5]).max() <= 1e-10 * dense[P]
        assert res.n_zero == P
        assert res.residuals.max() < 1e-10
        assert res.div_residuals.max() < 1e-8


def test_quadcurl_eig_beyond_former_dense_limit():
    """Order 1 on the n=10 cube (N=6130), past the former dense limit of N = 6000."""
    mesh = generate_cube_mesh(10)
    pen = build_quadcurl_pencil(mesh, 1)
    assert (pen.n_free, pen.p_free) == (6130, 729)
    res = eigenpairs(pen, 2)
    assert res.residuals.max() <= 1e-10
    assert res.n_zero == pen.p_free == 729
    assert res.div_residuals.max() <= 1e-8
    assert abs(res.values[0] - 1.71e3) <= 0.10 * 1.71e3  # criterion 2's fine window


def test_eig_invariant_under_dilation(cube2):
    """Scaling the cube by L scales lam by L^-4 (quad-curl) and L^-2 (Maxwell).

    Each record is solved at unit scale, so the iteration is the same one up
    to units.  Before it was, the shift alone followed the volume: order-2
    quad-curl at count 5 missed the residual gate at L = 1e-5 (0.69), and
    order 1 at L = 1e5 (6.0e-7) and at L = 2^17, an exact power of two.
    """
    for order in (1, 2):
        for count in (3, 4, 5):
            q_ref = solve_quadcurl_eig(cube2, order, count).values
            m_ref = solve_maxwell_eig(cube2, order, count).values
            for L in (3.0, 10.0, 1e-5, 1e5, 2.0**17):
                scaled = Mesh(L * cube2.vertices, cube2.tets)
                q = solve_quadcurl_eig(scaled, order, count).values
                assert np.abs(q * L**4 - q_ref).max() <= 1e-9 * q_ref[0], (order, count, L)
                m = solve_maxwell_eig(scaled, order, count).values
                assert np.abs(m * L**2 - m_ref).max() <= 1e-9 * m_ref[0], (order, count, L)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("solve, power", [(solve_quadcurl_eig, 4), (solve_maxwell_eig, 2)])
def test_eig_dilated_by_a_power_of_four_is_bitwise_the_unit_cubes(cube2, solve, power, order):
    """At L = 4^k the unit-scale blocks are bitwise the unit cube's, so
    lam L^power and the M_N-normalized u L^(1/2) are too."""
    ref = solve(cube2, order, 3)
    for L in (4.0**3, 4.0**-3):
        res = solve(Mesh(L * cube2.vertices, cube2.tets), order, 3)
        assert np.array_equal(res.values * L**power, ref.values), L
        assert np.array_equal(res.vectors * L**0.5, ref.vectors), L


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("build, power", [(build_quadcurl_pencil, 3), (build_curlcurl_system, 1)])
def test_source_solve_invariant_under_dilation(cube3, build, power, order):
    """For a fixed load vector F, scaling the cube by L scales u by L^3
    (quad-curl) and by L (curl-curl): bitwise at L = 4^k, to roundoff at any L.

    The unit-scale solve keeps the saddle residual at roundoff.  Before it
    did, L = 1e5 raised SingularSystemError for both problems (residuals
    4.0e-8 to 1.0e-7), and so did quad-curl at L = 1e3 (8.0e-8 and 8.6e-8).
    """
    unit = build(cube3, order)
    F = np.random.default_rng(order).standard_normal(unit.n_free)
    ref = solve_source(unit, F).u.values
    for L in (1e-5, 1e3, 1e5, 4.0**-8, 4.0**7):
        sol = solve_source(build(Mesh(L * cube3.vertices, cube3.tets), order), F)
        assert sol.residual <= 1e-12, L
        u = sol.u.values * L**-power
        if L in (4.0**-8, 4.0**7):
            assert np.array_equal(u, ref), L
        else:
            assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max(), L


def test_eigenpairs_take_the_shift_from_the_records_mesh(cube2):
    """A record carries its own mesh, so its shift always fits its blocks.

    The pencil of the cube dilated by 10 is solved at scale 16, with the
    shift of its volume there (0.244), and gives the unit cube's eigenvalues
    times 10^-4 (relative residual 2.8e-15).  The unit cube's full shift on
    the same blocks in their own units misses the residual gate (relative
    residual 2.9e7); its eigen shift, a tenth of that, reads 1.1e-12.
    """
    ref = solve_quadcurl_eig(cube2, 1, 2).values
    pen = build_quadcurl_pencil(Mesh(10.0 * cube2.vertices, cube2.tets), 1)
    vals = eigenpairs(pen, 2).values
    assert pen.scale == 16.0
    assert np.abs(vals / 1e-4 - ref).max() <= 1e-9 * ref[0]


def test_quadcurl_eigenvectors_in_millimetres(cube2):
    """Order 2 on the cube dilated by 1e3 (a metre-sized part meshed in mm).

    The u block must solve the Schur-form problem K^T M_M^-1 K u = lam M_N u,
    the one the block residual stands in for.  Solved at unit scale (ell =
    1024), its relative residual reads 1.2e-12 with the eigen shift at a
    tenth of the unit-scale shift, 2.9e-13 at the full shift and 1.9e-11 at
    a hundredth of it.  Before the unit scale, a hundredth missed the
    eigensolver's gate here (block residual 2.8e-8).
    """
    pen = build_quadcurl_pencil(Mesh(1e3 * cube2.vertices, cube2.tets), 2)
    res = eigenpairs(pen, 3)
    MU = pen.M_N.mat @ res.vectors
    KU = pen.K.mat @ res.vectors
    R = pen.K.mat.T @ scipy.linalg.solve(pen.M_M.to_dense(), KU) - MU * res.values
    schur = np.linalg.norm(R, axis=0) / (res.values * np.linalg.norm(MU, axis=0))
    assert schur.max() <= 1e-10


def _counting_projector(factor, monkeypatch):
    """Wrap the factor's projector; the list it returns gets the columns of
    every shift-invert iterate it projects."""
    project, columns = factor.project, []

    def counting(z):
        columns.append(z.size // z.shape[0])
        return project(z)

    monkeypatch.setattr(factor, "project", counting)
    return columns


def test_eigen_route_reports_its_shift_invert_applications(bench_workloads, monkeypatch):
    """``applications`` counts the projected shift-invert applications.

    On an ``eig-k1`` class mesh (the benchmark's jittered order-1 n = 5 cube)
    at count 3, the eigen shift at a tenth of the unit-scale shift converges
    in Lanczos's first 20-vector subspace (21 applications); the full shift
    takes a restart (37).  A count equal to the operator's rank takes one
    application per nonzero row of B, the columns of the Rayleigh-Ritz
    spanning set.
    """
    verts, tets = bench_workloads.jittered_cube(5, np.random.default_rng(0))
    pen = build_quadcurl_pencil(Mesh(verts, tets), 1)
    columns = _counting_projector(pen.eigen_factor, monkeypatch)
    res = eigenpairs(pen, 3)
    assert res.applications == sum(columns) == len(columns) <= 25
    monkeypatch.setattr(systems, "_EIGEN_SHIFT_FRACTION", 1.0)
    assert eigenpairs(build_quadcurl_pencil(Mesh(verts, tets), 1), 3).applications >= 36

    small = build_quadcurl_pencil(generate_cube_mesh(2), 1)
    columns = _counting_projector(small.eigen_factor, monkeypatch)
    res = eigenpairs(small, small.n_free - small.p_free)
    assert res.applications == sum(columns) == small.n_free
    assert len(columns) == 1


def test_eig_count_validation(cube2):
    with pytest.raises(EigenSolveError):
        solve_quadcurl_eig(cube2, 1, 0)
    with pytest.raises(EigenSolveError):
        solve_quadcurl_eig(cube2, 1, 26)  # only N - P = 25 nonzero modes
    with pytest.raises(EigenSolveError):
        solve_maxwell_eig(cube2, 1, 26)


def test_maxwell_lowest_modes(cube2):
    res = solve_maxwell_eig(cube2, 1, 3)
    assert res.values[0] == pytest.approx(17.06363423, rel=1e-8)
    assert res.values[1] == pytest.approx(res.values[2], rel=1e-10)
    assert res.n_zero == 1
    assert np.all(np.diff(res.values) >= 0)
    assert res.div_residuals.max() < 1e-8


def test_maxwell_eig_matches_dense(cube3):
    s = setup_spaces(cube3, 1)
    free = np.ix_(s.edge.free_dofs, s.edge.free_dofs)
    C0 = assemble_curlcurl(s.edge).to_dense()[free]
    M0 = assemble_mass(s.edge).to_dense()[free]
    P = s.nodal.num_free
    dense = scipy.linalg.eigh(C0, M0, eigvals_only=True)
    assert np.abs(dense[:P]).max() < 1e-8 * dense[P]
    res = solve_maxwell_eig(cube3, 1, 5)
    assert np.abs(res.values - dense[P:P + 5]).max() <= 1e-10 * dense[P]
    assert res.n_zero == P
    assert res.div_residuals.max() < 1e-8


def test_curlcurl_source_on_manufactured_case(cube2):
    sol = solve_curlcurl_source(cube2, 1, curlcurl_sine_case().f)
    assert sol.phi is None
    assert sol.residual < 1e-9
    assert sol.p_ratio < 1e-8
    table = convergence_study("curlcurl-src", 1, [2], mesh_factory=lambda n: cube2)
    (row,) = [dict(zip(table.headers, r)) for r in table.rows]
    assert row["p_ratio"] == sol.p_ratio
    assert row["err_hcurl"] == pytest.approx(np.hypot(row["err_l2"], row["err_curl"]))
    assert 0.0 < row["err_hcurl"] < 5.0


def test_gradient_load_is_absorbed_by_multiplier(cube2):
    """A pure-gradient source drives p, not u; p obeys a closed-form identity.

    Left-multiplying the first saddle row by G^T kills the curl-curl term
    (curl grad = 0), so p solves the projected system exactly regardless of u.
    """
    def fgrad(x):
        x = np.asarray(x)
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        out = np.empty(x.shape)
        out[..., 0] = np.pi * c[..., 0] * s[..., 1] * s[..., 2]
        out[..., 1] = np.pi * s[..., 0] * c[..., 1] * s[..., 2]
        out[..., 2] = np.pi * s[..., 0] * s[..., 1] * c[..., 2]
        return out

    mesh = generate_cube_mesh(2)
    sol = solve_curlcurl_source(mesh, 1, fgrad)
    s = setup_spaces(mesh, 1)
    free, nodal_free = s.edge.free_dofs, s.nodal.free_dofs
    M0 = assemble_mass(s.edge).mat[free][:, free]
    G0 = assemble_gradient_map(s.nodal, s.edge).mat[free][:, nodal_free]
    F = assemble_load(s.edge, fgrad).values[free]
    stiff = (G0.T @ (M0 @ G0)).toarray()
    p_star = np.linalg.solve(stiff, G0.T @ F)
    p_free = sol.p.values[nodal_free]
    assert np.abs(p_free - p_star).max() < 1e-10 * np.abs(p_star).max()
    u_free = sol.u.values[free]
    assert np.sqrt(u_free @ (M0 @ u_free)) < 0.05


def test_quadcurl_source_zero_load(cube2):
    sol = solve_quadcurl_source(cube2, 1, f=lambda x: np.zeros(np.asarray(x).shape))
    assert np.abs(sol.u.values).max() < 1e-14
    assert np.abs(sol.phi.values).max() < 1e-14
    assert sol.p_ratio == 0.0


def test_quadcurl_source_manufactured_errors(cube2):
    sol = solve_quadcurl_source(cube2, 1, quadcurl_sin3_case().f)
    table = convergence_study("quadcurl-src", 1, [2], mesh_factory=lambda n: cube2)
    (row,) = [dict(zip(table.headers, r)) for r in table.rows]
    assert row["p_ratio"] == sol.p_ratio
    assert row["err_combined"] == pytest.approx(row["err_curl_u"] + row["err_phi"])
    assert sol.residual < 1e-9
    # ||GM^T M_M phi|| / ||M_M phi||, GM the gradient map from S_h (p's
    # space) to U_h (phi's): phi is discretely divergence-free with no
    # multiplier of its own
    assert divergence_residual(sol.phi.space, sol.p.space, sol.phi) <= 1e-10


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("nodal_free", [True, False])
def test_curl_annihilates_edge_space_gradients(order, nodal_free):
    """GM^T K = 0 to roundoff: curl grad = 0, so phi = M_M^-1 K u is discretely
    divergence-free in U_h without a multiplier, against interior and
    boundary nodal gradients alike."""
    mesh = jittered_cube_mesh(2, seed=19)
    pen = build_quadcurl_pencil(mesh, order)
    nodal = pen.spaces.nodal
    GM = assemble_gradient_map(nodal, pen.spaces.edge).mat
    if nodal_free:
        GM = GM[:, nodal.free_dofs]
    GMK = (GM.T @ pen.K.mat).tocsr()
    scale = abs(GM).max() * abs(pen.K.mat).max()
    assert GMK.shape == (nodal.num_free if nodal_free else nodal.ndofs, pen.n_free)
    assert np.abs(GMK.data).max() <= 1e-13 * scale


def test_source_multipliers_match_closed_form():
    """p of both source solves is (G0^T M0 G0)^-1 G0^T F to roundoff.

    Y^T times the first saddle row drops the curl terms (K Y = 0), so p has
    this closed form for the quad-curl saddle (M_N = M0) and the curl-curl
    one alike.  The sin^3 load is not discretely divergence-free at order 1,
    so p is small but not roundoff.
    """
    mesh = jittered_cube_mesh(4, seed=7)
    s = setup_spaces(mesh, 1)
    free, nodal_free = s.edge.free_dofs, s.nodal.free_dofs
    M0 = assemble_mass(s.edge).mat[free][:, free]
    G0 = assemble_gradient_map(s.nodal, s.edge).mat[free][:, nodal_free]
    case = quadcurl_sin3_case()
    F = assemble_load(s.edge, case.f).values[free]
    p_star = np.linalg.solve((G0.T @ M0 @ G0).toarray(), G0.T @ F)
    for sol in (solve_quadcurl_source(mesh, 1, case.f),
                solve_curlcurl_source(mesh, 1, case.f)):
        p = sol.p.values[nodal_free]
        assert np.abs(p - p_star).max() <= 1e-12 * np.abs(p_star).max()


@pytest.mark.parametrize("order", [1, 2])
def test_source_solves_report_refinement_steps(cube2, order, monkeypatch):
    """Steps are counted, and stopping on the roundoff floor saves the step(s)
    the stall test alone spends confirming it, with the same study errors."""
    def solve_both():
        return (solve_quadcurl_source(cube2, order, quadcurl_sin3_case().f),
                solve_curlcurl_source(cube2, order, curlcurl_sine_case().f))

    def study_errors():
        tables = [convergence_study(problem, order, [2], mesh_factory=lambda n: cube2)
                  for problem in ("quadcurl-src", "curlcurl-src")]
        return [t.column(h)[0] for t in tables for h in t.headers if h.startswith("err_")]

    with_floor, errors = solve_both(), study_errors()
    monkeypatch.setattr(quadcurl.solvers, "_REFINE_FLOOR_FACTOR", 0.0)
    for sol, stalled in zip(with_floor, solve_both()):
        assert 2 <= sol.refine_steps < stalled.refine_steps <= _REFINE_STEPS
        assert sol.residual <= 1e-9
        u, ref = sol.u.values, stalled.u.values
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    assert len(errors) == 6
    assert errors == pytest.approx(study_errors(), rel=1e-11)


def test_refinement_floor_tracks_roundoff_on_a_finer_mesh(monkeypatch):
    """The floor scales with the roundoff of the residual, not a fixed level.

    At order-2 curl-curl on the n = 5 cube the first-row residual settles
    near 2e-14 of ||f||; the floor still fires there and saves the step the
    stall test alone spends confirming it.
    """
    mesh = generate_cube_mesh(5)
    sol = solve_curlcurl_source(mesh, 2, curlcurl_sine_case().f)
    monkeypatch.setattr(quadcurl.solvers, "_REFINE_FLOOR_FACTOR", 0.0)
    stalled = solve_curlcurl_source(mesh, 2, curlcurl_sine_case().f)
    assert sol.refine_steps < stalled.refine_steps
    u, ref = sol.u.values, stalled.u.values
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


def test_traced_source_solve_reports_saddle_size(bench_spans):
    """The benchmark's tracer binds saddle_solve's K and G by name for its counts."""
    mesh = generate_cube_mesh(2)
    tracer = bench_spans.Tracer()
    with bench_spans.traced(quadcurl, tracer):
        request = tracer.begin(0)
        quadcurl.solve_quadcurl_source(mesh, 1, lambda x: np.ones(np.shape(x)))
        tracer.end(request)
    assert [span[0] for span in tracer.spans].count("solvers.saddle_solve") == 1
    pen = build_quadcurl_pencil(mesh, 1)
    K, B, Y = pen.operator()
    G = B @ Y
    assert tracer.counts["solvers.saddle_dim"] == G.shape[0] + G.shape[1]
    assert tracer.counts["solvers.saddle_nnz"] == K.nnz + 2 * G.nnz


@pytest.mark.parametrize("order", [1, 2])
def test_multiplier_norm_matches_the_assembled_nodal_mass(order):
    """p_ratio's ||p_h||, summed tet by tet over the local mass blocks, is
    sqrt(p^T M_S p) with the assembled S_h mass, to roundoff."""
    pen = build_quadcurl_pencil(jittered_cube_mesh(3, seed=6), order)
    s = pen.spaces
    sol = solve_source(pen, np.random.default_rng(order).standard_normal(pen.n_free))
    nodal_free = s.nodal.free_dofs
    p = sol.p.values[nodal_free]
    u = sol.u.values[s.edge.free_dofs]
    norm_p = np.sqrt(p @ (assemble_mass(s.nodal).mat[nodal_free][:, nodal_free] @ p))
    assert norm_p > 0.0
    want = norm_p / np.sqrt(u @ (pen.M_N.mat @ u))
    assert abs(sol.p_ratio - want) <= 1e-14 * want


def test_quadcurl_source_rejects_bad_load_length(pencil2):
    with pytest.raises(SpaceError):
        solve_source(pencil2, np.ones(7))


def test_inverse_power_iteration_reaches_first_eigenvalue(pencil2):
    """Repeated source solves with recycled loads converge to lambda_1.

    This ties the three-field (u, phi, p) source solver to the eigensolver
    through a completely different algebraic route.
    """
    s = pencil2.spaces
    rng = np.random.default_rng(0)
    u = rng.standard_normal(pencil2.n_free)
    lam = None
    for _ in range(40):
        Mu = pencil2.M_N.mat @ u
        Mu /= np.linalg.norm(Mu)
        sol = solve_source(pencil2, Mu)
        u = sol.u.values[s.edge.free_dofs]
        phi = sol.phi.values
        lam = (phi @ (pencil2.M_M.mat @ phi)) / (u @ (pencil2.M_N.mat @ u))
    eig = eigenpairs(pencil2, 1)
    assert lam == pytest.approx(eig.values[0], rel=1e-6)
    assert eig.values[0] == pytest.approx(738.7206201, rel=1e-8)
    assert divergence_residual(s.edge, s.nodal, sol.phi) <= 1e-10


def test_readme_example_reaches_first_eigenvalue():
    """Every python block of README.md runs; its inverse-power iteration
    reaches the eigen route's lambda_1."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    lam, lam1 = namespace["lam"], namespace["lam1"]
    assert abs(lam - lam1) <= 1e-10 * lam1


def test_maxwell_inverse_power_iteration_reaches_first_eigenvalue(cube2):
    """Curl-curl source solves with the raw load M0 u converge to Maxwell's lambda_1.

    The multiplier projects every iterate onto the discretely
    divergence-free subspace, so the gradient modes at zero never attract it.
    """
    system = build_curlcurl_system(cube2, 1)
    M0, free = system.M0.mat, system.spaces.edge.free_dofs
    u = np.random.default_rng(0).standard_normal(system.n_free)
    for _ in range(60):  # lambda_1 / lambda_2 = 0.87
        Mu = M0 @ u
        u = solve_source(system, Mu / np.linalg.norm(Mu)).u.values[free]
    lam = (u @ (system.C0.mat @ u)) / (u @ (M0 @ u))
    assert lam == pytest.approx(solve_maxwell_eig(cube2, 1, 1).values[0], rel=1e-6)


def test_setup_spaces_share_the_meshs_topology(cube2):
    """One edge space (U_h, and U_{0,h} as its free DoFs) and one nodal space
    both read the one topology the mesh built."""
    topo = cube2.topology
    s = setup_spaces(cube2, 2)
    assert all(space.mesh.topology is topo for space in (s.edge, s.nodal))
    assert s.edge.ndofs == 2 * topo.num_edges + 2 * topo.num_faces
    assert s.nodal.ndofs == cube2.num_vertices + topo.num_edges


@pytest.mark.parametrize("make", [
    pytest.param(lambda mesh: mesh, id="mesh"),
    pytest.param(lambda mesh: make_space(mesh, "edge", 1), id="space"),
    pytest.param(lambda mesh: build_quadcurl_pencil(mesh, 1), id="record"),
    pytest.param(lambda mesh: QuadRule(tet_rule(2).points, tet_rule(2).weights, 2), id="rule"),
])
def test_array_records_compare_by_identity(make):
    """An object that holds arrays equals only itself, so ``in`` finds it and
    it works as a dict key; field-wise equality of arrays would raise."""
    mesh = generate_cube_mesh(1)
    a = make(mesh)
    b = make(Mesh(mesh.vertices, mesh.tets) if a is mesh else mesh)
    assert a == a and b == b
    assert a != b and not a == b
    assert b in [a, b] and a in [b, a]
    table = {a: "a", b: "b"}
    assert table[a] == "a" and table[b] == "b"


@pytest.mark.parametrize("build", [build_curlcurl_system, build_quadcurl_pencil])
def test_record_sorts_two_patterns_and_its_row_space_keeps_one(build, monkeypatch):
    """A record makes exactly two patterns: its edge space's coupling, which
    every edge block scatters onto, and the gradient map's.  The coupling
    stays on the space; the mesh keeps no pattern."""
    made = []
    init = _Pattern.__init__

    def counting(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(_Pattern, "__init__", counting)
    mesh = jittered_cube_mesh(2, seed=6)
    system = build(mesh, 2)
    space = system.spaces.edge
    assert len(made) == 2
    assert space.coupling is space.coupling is made[0]
    assert len(made) == 2  # reading it again sorts nothing
    assert not hasattr(mesh, "_couplings")  # a Mesh field would be a class attribute


def _relabelled_and_moved(mesh, seed):
    """The mesh with a random vertex numbering, a shuffled tet order and
    reversed vertex order in each tet, under a random rotation and translation."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    tets = new_id[mesh.tets][rng.permutation(mesh.num_tets), ::-1]
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(Q) < 0.0:  # a rotation, not a reflection
        Q[:, 0] = -Q[:, 0]
    return Mesh(vertices @ Q.T + rng.uniform(-2.0, 2.0, 3), tets)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("solve", [solve_quadcurl_eig, solve_maxwell_eig])
def test_eig_invariant_under_relabelling_and_rigid_motion(solve, order):
    """lambda_1-3 do not depend on how the mesh is numbered, ordered or placed."""
    mesh = jittered_cube_mesh(3)
    moved = _relabelled_and_moved(mesh, seed=order)
    assert not np.array_equal(moved.tets, mesh.tets)
    ref = solve(mesh, order, 3).values
    got = solve(moved, order, 3).values
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def _inside(centroids, low, high, axes=(0, 1, 2)) -> np.ndarray:
    c = centroids[:, list(axes)]
    return ((c > low) & (c < high)).all(axis=1)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("build, solve_eig, solve_load", [
    (build_quadcurl_pencil, solve_quadcurl_eig, solve_quadcurl_source),
    (build_curlcurl_system, solve_maxwell_eig, solve_curlcurl_source),
])
@pytest.mark.parametrize("make_mesh, tets, H", [
    pytest.param(lambda: cube_without(3, lambda c: _inside(c, 1 / 3, 2 / 3)), 156, 1, id="one"),
    pytest.param(lambda: cube_without(5, lambda c: _inside(c, 0.2, 0.4) | _inside(c, 0.6, 0.8)),
                 738, 2, id="two"),
])
def test_domain_with_cavities_is_rejected_before_any_factor(make_mesh, tets, H, build, solve_eig,
                                                            solve_load, order, monkeypatch):
    """The Kuhn n = 3 cube without its middle subcube has two boundary
    components on one domain component: the kernel of curl on U_{0,h} holds
    H = 1 discrete harmonic field that Y = [G0; 0] does not span (H = 2 for
    two cavities in the n = 5 cube).  Building the record raises SpaceError
    naming H, so no solve makes a factor."""
    def no_factor(*args):
        raise AssertionError("a factor was made")

    monkeypatch.setattr(systems, "shifted_factor", no_factor)
    mesh = make_mesh()
    assert mesh.num_tets == tets
    message = rf"{H + 1} components on 1 domain components, so H = {H}:"
    for run in (lambda: build(mesh, order), lambda: solve_eig(mesh, order, 1),
                lambda: solve_load(mesh, order, lambda x: np.ones(np.shape(x)))):
        with pytest.raises(SpaceError, match=message):
            run()


@pytest.mark.parametrize("order, quadcurl_first, maxwell_first", [
    (1, 1359.873, 8.862970), (2, 1739.880, 9.799217)])
def test_domain_with_a_through_hole_solves_by_both_routes(order, quadcurl_first, maxwell_first):
    """A square through-hole, (1/3, 2/3)^2 x (0, 1) out of the Kuhn n = 3 cube,
    leaves one boundary component (genus 1), so Y spans the kernel of curl
    and both routes of both records solve."""
    mesh = cube_without(3, lambda c: _inside(c, 1 / 3, 2 / 3, axes=(0, 1)))
    assert mesh.num_tets == 144
    for build, first in ((build_quadcurl_pencil, quadcurl_first),
                         (build_curlcurl_system, maxwell_first)):
        system = build(mesh, order)
        assert eigenpairs(system, 1).values[0] == pytest.approx(first, rel=1e-6)
        assert solve_source(system, np.ones(system.n_free)).residual < 1e-12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("build", [build_quadcurl_pencil, build_curlcurl_system])
def test_two_disjoint_cubes_solve_with_every_eigenvalue_twice(cube2, build, order):
    """Two disjoint copies of the n = 2 cube have two boundary components on
    two domain components (H = 0): each route solves, and the first
    eigenvalues are the single cube's, each twice."""
    two = Mesh(np.vstack([cube2.vertices, cube2.vertices + [2.0, 0.0, 0.0]]),
               np.vstack([cube2.tets, cube2.tets + cube2.num_vertices]))
    single = eigenpairs(build(cube2, order), 4).values
    system = build(two, order)
    got = eigenpairs(system, 4).values
    assert np.abs(got / np.sort(np.repeat(single, 2))[:4] - 1.0).max() <= 1e-10
    assert solve_source(system, np.ones(system.n_free)).residual < 1e-12


def test_pencil_requires_interior_edges():
    from quadcurl.mesh import Mesh

    one_tet = Mesh(
        np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        np.array([[0, 1, 2, 3]]),
    )
    with pytest.raises(SpaceError):
        build_quadcurl_pencil(one_tet, 1)
