"""Checks used only by the tests: a pointwise evaluator of discrete fields,
the discrete divergence of edge-space fields and the boundary traces and
divergence of the manufactured cases."""

import numpy as np

from quadcurl.assembly import assemble_gradient_map, assemble_mass
from quadcurl.fespace import DofVector, FESpace, push_forward


def physical_points(mesh, ref_points) -> np.ndarray:
    """Chosen reference points pushed to every tet: (T, n, 3)."""
    origin = mesh.vertices[mesh.tets[:, 0]]
    return origin[:, None, :] + np.asarray(ref_points, dtype=np.float64) @ mesh.jac.transpose(0, 2, 1)


def eval_at(vec: DofVector, ref_points):
    """A field on every tet at chosen reference points: (values, derivatives).

    For the edge family, values and curls, both (T, n, 3); for the nodal
    family, values (T, n) and gradients (T, n, 3).  It is the library's
    contraction of reference tables with the push-forward maps, so at a tet
    rule's points it is bitwise the library's evaluation.
    """
    space = vec.space
    vals, derivs = space.element.tabulate(np.asarray(ref_points, dtype=np.float64))
    coeffs = vec.values[space.cell_dofs]
    fields = [np.tensordot(coeffs, ref, axes=(1, 1)) @ A.transpose(0, 2, 1)
              for ref, A in zip((vals, derivs), push_forward(space))]
    if space.family == "nodal":
        fields[0] = fields[0][..., 0]
    return tuple(fields)


def divergence_residual(edge_space: FESpace, nodal_space: FESpace, u) -> float:
    """Discrete divergence residual ||G^T M0 u|| / ||M0 u|| (0 for u = 0)."""
    M0 = assemble_mass(edge_space)
    G0 = assemble_gradient_map(nodal_space, edge_space)
    vals = u.values[edge_space.active_dofs] if isinstance(u, DofVector) else np.asarray(u)
    Mu = M0.mat @ vals
    den = np.linalg.norm(Mu)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(G0.mat.T @ Mu) / den)


def boundary_trace_violation(case, samples_per_face: int = 40) -> float:
    """Largest tangential-trace magnitude of u (and curl u when declared
    zero) sampled on the cube boundary."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for axis in range(3):
        for val in (0.0, 1.0):
            pts = rng.random((samples_per_face, 3))
            pts[:, axis] = val
            nu = np.zeros(3)
            nu[axis] = 1.0
            worst = max(worst, np.abs(np.cross(case.u(pts), nu)).max())
            if case.tangential_curl_zero:
                worst = max(worst, np.abs(np.cross(case.curl_u(pts), nu)).max())
    return worst


def divergence_violation(case, samples: int = 100, h: float = 1e-5) -> float:
    """Max |div u| at interior sample points, by central differences."""
    rng = np.random.default_rng(11)
    pts = 0.1 + 0.8 * rng.random((samples, 3))
    div = np.zeros(samples)
    for axis in range(3):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += h
        dm[:, axis] -= h
        div += (case.u(dp)[:, axis] - case.u(dm)[:, axis]) / (2.0 * h)
    return float(np.abs(div).max())
