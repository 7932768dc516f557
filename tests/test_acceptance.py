"""End-to-end validation gates.

Each test prints a one-line summary with the measured numbers before
asserting, so a red run still shows how far off the result was.  The
eigenvalue windows are deliberately wide because the coarse meshes are far
from the limit.  The mixed pencil has no min-max bound, so no test asserts
the side from which an eigenvalue converges: on the Kuhn, five-tet and
jittered Delaunay cubes the first quad-curl eigenvalue rises toward its
limit, and the fall seen on the polyhedral ball meshes of ``meshes.py``
comes from the domain, whose volume grows from 0.878 to 0.960 of the unit
ball's between h = 0.8 and h = 0.45.
"""

import os.path

import numpy as np
import pytest
import scipy.linalg

from meshes import five_tet_cube_mesh, jittered_cube_mesh
from quadcurl import (
    build_quadcurl_pencil, convergence_study, eigenpairs, generate_cube_mesh, read_gmsh,
    solve_maxwell_eig,
)
from quadcurl.assembly import assemble_curlcurl, assemble_gradient_map
from quadcurl.fespace import make_space

BALL_MESH = os.path.join(os.path.dirname(__file__), "data", "ball_h03.msh")

TWO_PI_SQ = 2.0 * np.pi**2
LAM1_CUBE = 1.71e3  # reference first quad-curl eigenvalue of the unit cube


def _line(tag, ok, detail):
    print(f"[{tag}] {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def maxwell_results():
    return {n: solve_maxwell_eig(generate_cube_mesh(n), 1, 5) for n in (4, 8)}


@pytest.fixture(scope="module")
def kuhn_ladder():
    out = {}
    for n in (2, 3, 4, 5, 8):
        mesh = generate_cube_mesh(n)
        pen = build_quadcurl_pencil(mesh, 1)
        count = 4 if n in (2, 3) else 1
        res = eigenpairs(pen, count)
        out[n] = (pen, res)
    return out


@pytest.fixture(scope="module")
def fivetet_result():
    mesh = five_tet_cube_mesh(4)
    pen = build_quadcurl_pencil(mesh, 1)
    return pen, eigenpairs(pen, 3)


@pytest.fixture(scope="module")
def order2_eigs():
    out = {}
    for n in (2, 3):
        mesh = generate_cube_mesh(n)
        pen = build_quadcurl_pencil(mesh, 2)
        out[n] = (pen, eigenpairs(pen, 1))
    return out


def test_criterion_1_maxwell_validation(maxwell_results):
    """Curl-curl eigenvalues on the cube converge to 2 pi^2 (triple mode)."""
    lam4 = maxwell_results[4].values
    lam8 = maxwell_results[8].values
    rel = abs(lam4[0] - TWO_PI_SQ) / TWO_PI_SQ
    cluster = int(np.count_nonzero(lam4 < 1.25 * lam4[0]))
    err4 = abs(lam4[0] - TWO_PI_SQ)
    err8 = abs(lam8[0] - TWO_PI_SQ)
    ratio = err4 / err8
    ok = rel <= 0.05 and cluster == 3 and 3.0 <= ratio <= 5.0
    _line("1 maxwell", ok,
          f"lam1(n=4)={lam4[0]:.8g} ({100 * rel:.2f}% off {TWO_PI_SQ:.6g}), "
          f"cluster={cluster}, err ratio n4/n8={ratio:.3f}")
    assert rel <= 0.05
    assert cluster == 3
    assert 3.0 <= ratio <= 5.0


def test_criterion_2_quadcurl_order1(kuhn_ladder, fivetet_result):
    """First quad-curl eigenvalue: coarse window, monotonicity, fine window."""
    pen7, res7 = fivetet_result
    dof7 = pen7.n_free + pen7.m_total
    lam7 = res7.values[0]
    ladder = {n: (p.n_free + p.m_total, r.values[0])
              for n, (p, r) in kuhn_ladder.items()}
    lams = [ladder[n][1] for n in (2, 3, 4, 5, 8)]
    dof_fine, lam_fine = ladder[8]
    fine_ok = abs(lam_fine - LAM1_CUBE) <= 0.10 * LAM1_CUBE
    mono_ok = all(b >= a for a, b in zip(lams, lams[1:]))
    coarse_ok = 1.40e3 <= lam7 <= 1.80e3
    _line("2 quad-curl k=1", coarse_ok and mono_ok and fine_ok,
          f"coarse lam1={lam7:.6g} at dof={dof7} (five-tet mesh; Kuhn n=4 "
          f"gives {ladder[4][1]:.6g} at dof={ladder[4][0]}), "
          f"ladder={[f'{v:.5g}' for v in lams]}, "
          f"fine lam1={lam_fine:.6g} at dof={dof_fine}")
    # The isotropic five-tet mesh keeps the continuum triple degenerate and
    # lands in the window at ~700-800 DoF; the Kuhn family splits the triple
    # and its lowest branch sits below the window at the same resolution.
    assert 600 <= dof7 <= 950
    assert coarse_ok
    assert np.ptp(res7.values[:3]) < 1e-6 * lam7  # exact triple on this mesh
    assert mono_ok
    assert dof_fine >= 5000
    assert fine_ok


def test_criterion_3_quadcurl_order2(order2_eigs):
    """Order-2 window at the coarsest mesh, plus contraction toward the limit."""
    (pen2, res2), (pen3, res3) = order2_eigs[2], order2_eigs[3]
    lam2, lam3 = res2.values[0], res3.values[0]
    dof2 = pen2.n_free + pen2.m_total
    window_ok = abs(lam2 - 1.75e3) <= 0.15 * 1.75e3
    ratio = abs(lam2 - LAM1_CUBE) / abs(lam3 - LAM1_CUBE)
    contraction_ok = ratio >= (3 / 2) ** 2
    _line("3 quad-curl k=2", window_ok and contraction_ok,
          f"lam1(n=2)={lam2:.6g} at dof={dof2}, lam1(n=3)={lam3:.6g}, "
          f"direction={'down' if lam3 <= lam2 else 'up'}, "
          f"error ratio n2/n3={ratio:.3f} (need >= 2.25)")
    assert window_ok
    # Convergence clause.  The mixed pencil has no min-max property, so the
    # side of approach is not fixed; measured order-2 lam1 for n = 1..4:
    #   Kuhn:                1237, 1571, 1663, 1688
    #   five-tet:            1848, 1497, 1690, 1702
    #   jittered (seed 7):   1237, 1502, 1688, 1697
    # All head to ~1.70e3 from below past the coarsest level.  Going from
    # n = 2 to n = 3 (h shrinks by 3/2) the distance to the cube value must
    # shrink by more than first order allows: the ratios read 2.94 (Kuhn),
    # 10.5 (five-tet) and 9.5 (jittered), while the order-1 Kuhn pair
    # (738.7, 1126.2) reads 1.66 and would fail.
    assert contraction_ok, (
        f"lam1 moved from {lam2:.6g} to {lam3:.6g}: distance to "
        f"{LAM1_CUBE:.6g} shrank by {ratio:.3f}, below (3/2)^2"
    )


@pytest.fixture(scope="module")
def quadcurl_src_tables():
    return {
        1: convergence_study("quadcurl-src", 1, [2, 3, 4]),
        2: convergence_study("quadcurl-src", 2, [2, 3, 4]),
    }


def test_criterion_4_quadcurl_source_convergence(quadcurl_src_tables):
    """Combined curl(u) + phi error: order 2 converges at rate >= 0.8."""
    t2 = quadcurl_src_tables[2]
    rates = [r for r in t2.column("rate") if r is not None]
    errs1 = quadcurl_src_tables[1].column("err_combined")
    ok = all(r >= 0.8 for r in rates) and all(
        b < a for a, b in zip(errs1, errs1[1:]))
    _line("4 source conv", ok,
          f"k=2 rates={[f'{r:.3f}' for r in rates]}, "
          f"k=1 errors={[f'{e:.4g}' for e in errs1]}")
    assert len(rates) == 2
    for r in rates:
        assert r >= 0.8
    for a, b in zip(errs1, errs1[1:]):
        assert b < a  # order 1: errors decrease, no rate asserted


@pytest.fixture(scope="module")
def curlcurl_src_tables():
    return {
        1: convergence_study("curlcurl-src", 1, [2, 4, 8]),
        2: convergence_study("curlcurl-src", 2, [2, 3, 4]),
    }


def test_criterion_5_curlcurl_source_convergence(curlcurl_src_tables):
    rate1 = curlcurl_src_tables[1].column("rate")[-1]
    rate2 = curlcurl_src_tables[2].column("rate")[-1]
    p_worst = max(max(t.column("p_ratio")) for t in curlcurl_src_tables.values())
    ok = abs(rate1 - 1.0) <= 0.2 and abs(rate2 - 2.0) <= 0.3 and p_worst <= 1e-8
    _line("5 curl-curl conv", ok,
          f"k=1 rate={rate1:.3f}, k=2 rate={rate2:.3f}, "
          f"max p_ratio={p_worst:.3g}")
    assert abs(rate1 - 1.0) <= 0.2
    assert abs(rate2 - 2.0) <= 0.3
    assert p_worst <= 1e-8  # multiplier vanishes for divergence-free loads


def test_criterion_6_structural_properties(kuhn_ladder):
    # (a) zero-eigenvalue multiplicity equals dim of the free scalar space
    for n in (2, 3):
        pen, res = kuhn_ladder[n]
        assert res.n_zero == pen.p_free

    # (b) shift-invert route vs dense QZ on the full block pencil
    pen3, res3 = kuhn_ladder[3]
    A, B, _ = pen3.operator()
    assert A.shape[0] <= 400
    qz = scipy.linalg.eigvals(A.toarray(), B.toarray())
    finite = np.sort(qz[np.isfinite(qz)].real)
    nonzero = finite[finite > 1e-6 * finite.max()]
    agree = np.abs(nonzero[:4] - res3.values).max() / res3.values[0]
    assert agree <= 1e-8

    # (c) returned eigenvectors are discretely divergence-free
    worst_div = max(res.div_residuals.max() for _, res in kuhn_ladder.values())
    assert worst_div <= 1e-8

    # (d) curl-curl times gradient map vanishes identically
    worst_cg = 0.0
    cases = [(generate_cube_mesh(2), 1), (generate_cube_mesh(2), 2),
             (generate_cube_mesh(3), 1), (five_tet_cube_mesh(2), 1),
             (jittered_cube_mesh(2, seed=23), 2)]
    for mesh, order in cases:
        edge = make_space(mesh, "edge", order)
        nodal = make_space(mesh, "nodal", order)
        CG = assemble_curlcurl(edge).mat @ assemble_gradient_map(nodal, edge).mat
        worst_cg = max(worst_cg, np.abs(CG.data).max() if CG.nnz else 0.0)
    assert worst_cg <= 1e-10

    # (e) interpolation converges at the expected order
    r1 = convergence_study("interp", 1, [2, 4, 8]).column("rate")[-1]
    r2 = convergence_study("interp", 2, [2, 3, 4]).column("rate")[-1]
    _line("6 structure", True,
          f"QZ agreement={agree:.2e}, div={worst_div:.2e}, CG={worst_cg:.2e}, "
          f"interp rates=({r1:.3f}, {r2:.3f})")
    assert abs(r1 - 1.0) <= 0.2
    assert abs(r2 - 2.0) <= 0.2


@pytest.mark.skipif(not os.path.exists(BALL_MESH),
                    reason="ball mesh data file not present")
def test_criterion_7_ball_eigenvalue():
    """First quad-curl eigenvalue on the unit ball (k=1, shipped mesh)."""
    with open(BALL_MESH) as fh:
        mesh = read_gmsh(fh.read())
    pen = build_quadcurl_pencil(mesh, 1)
    res = eigenpairs(pen, 1)
    lam = res.values[0]
    rel = abs(lam - 201.6) / 201.6
    _line("7 ball", rel <= 0.10,
          f"lam1={lam:.6g} at dof={pen.n_free + pen.m_total} "
          f"({100 * rel:.2f}% off 201.6)")
    assert rel <= 0.10
