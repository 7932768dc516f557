"""Extra mesh constructions used by the tests.

The package itself only generates Kuhn-split cube meshes; the tests also need
an isotropic structured cube mesh (alternating 5-tet subdivision), irregular
meshes (jittered Delaunay), Kuhn cubes with holes or cavities, a polyhedral
unit-ball mesh, and a Gmsh writer to round-trip the parser. Run this module directly to regenerate
``tests/data/ball_h03.msh``.
"""

import os

import numpy as np
from scipy.spatial import Delaunay

from quadcurl import Mesh, generate_cube_mesh


def five_tet_cube_mesh(n):
    """Unit cube split into 5 tets per subcube with alternating parity.

    Neighboring subcubes use mirrored corner sets, so shared-face diagonals
    match and the mesh is conforming. Unlike the Kuhn split there is no global
    diagonal direction; the center tet of each subcube is regular.
    """
    axis = np.linspace(0.0, 1.0, n + 1)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    pts = np.array([[axis[i], axis[j], axis[k]]
                    for i in range(n + 1) for j in range(n + 1)
                    for k in range(n + 1)])
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = {(a, b, d): vid(i + a, j + b, k + d)
                     for a in (0, 1) for b in (0, 1) for d in (0, 1)}
                if (i + j + k) % 2 == 0:
                    cen = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
                else:
                    cen = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
                tets.append([c[x] for x in cen])
                for corner in (x for x in c if x not in cen):
                    mates = [x for x in cen
                             if sum(abs(x[t] - corner[t]) for t in range(3)) == 1]
                    tets.append([c[corner]] + [c[x] for x in mates])
    return Mesh(pts, np.array(tets, dtype=np.int64))


def cube_without(n, removed):
    """The Kuhn cube of n**3 subcubes without the tets for whose (T, 3)
    centroids ``removed`` is True."""
    mesh = generate_cube_mesh(n)
    return Mesh(mesh.vertices, mesh.tets[~removed(mesh.vertices[mesh.tets].mean(axis=1))])


def jittered_cube_mesh(n, seed=7, amp=0.28):
    """Irregular cube mesh: jitter grid nodes, then Delaunay-tetrahedralize.

    Boundary nodes move only tangentially within their face or edge, so the
    convex hull stays the exact unit cube.
    """
    rng = np.random.default_rng(seed)
    axis = np.linspace(0.0, 1.0, n + 1)
    I, J, K = np.meshgrid(np.arange(n + 1), np.arange(n + 1), np.arange(n + 1),
                          indexing="ij")
    idx = np.stack([I.ravel(), J.ravel(), K.ravel()], axis=1)
    pts = axis[idx]
    free = (idx > 0) & (idx < n)
    pts = pts + np.where(free, rng.uniform(-amp / n, amp / n, pts.shape), 0.0)
    return Mesh(pts, Delaunay(pts).simplices)


def ball_mesh(h=0.3, seed=11):
    """Polyhedral approximation of the unit ball at target spacing ``h``.

    Surface nodes follow a Fibonacci sphere; interior nodes come from a
    jittered grid clipped to the ball. Delaunay tetrahedralization of the
    union, with sliver caps (tets whose four vertices all lie on the sphere)
    removed.
    """
    rng = np.random.default_rng(seed)
    n_surf = int(np.ceil(4.0 * np.pi / (0.4330 * h * h)))
    i = np.arange(n_surf)
    golden = (1.0 + 5.0**0.5) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / n_surf
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = 2.0 * np.pi * i / golden
    surf = np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)

    g = np.arange(-1.0, 1.0 + 1e-9, h)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    pts += rng.uniform(-0.15 * h, 0.15 * h, pts.shape)
    inner = pts[np.linalg.norm(pts, axis=1) < 1.0 - 0.55 * h]

    allpts = np.vstack([surf, inner])
    simp = Delaunay(allpts).simplices
    keep = ~(simp < n_surf).all(axis=1)
    return Mesh(allpts, simp[keep])


def write_gmsh(mesh, extra_triangles=0):
    """Serialize a mesh as Gmsh ASCII v2.2 text (1-based dense node ids).

    ``extra_triangles`` prepends that many type-2 surface elements (taken from
    the first tets' faces) so parser skip-paths get exercised.
    """
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes",
             str(mesh.vertices.shape[0])]
    for i, p in enumerate(mesh.vertices, start=1):
        lines.append(f"{i} {p[0]:.16g} {p[1]:.16g} {p[2]:.16g}")
    lines.append("$EndNodes")
    lines.append("$Elements")
    n_el = mesh.tets.shape[0] + extra_triangles
    lines.append(str(n_el))
    eid = 1
    for t in range(extra_triangles):
        a, b, c, _ = mesh.tets[t % mesh.tets.shape[0]] + 1
        lines.append(f"{eid} 2 2 0 1 {a} {b} {c}")
        eid += 1
    for tet in mesh.tets + 1:
        lines.append(f"{eid} 4 2 0 1 {tet[0]} {tet[1]} {tet[2]} {tet[3]}")
        eid += 1
    lines.append("$EndElements")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    out = os.path.join(os.path.dirname(__file__), "data", "ball_h03.msh")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    mesh = ball_mesh(h=0.3, seed=11)
    with open(out, "w") as fh:
        fh.write(write_gmsh(mesh))
    print(f"wrote {out}: {mesh.vertices.shape[0]} nodes, "
          f"{mesh.tets.shape[0]} tets, h_max={mesh.h_max:.3f}")
