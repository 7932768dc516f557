"""Seeded inputs for the quadcurl benchmark: jittered cube meshes and request streams.

Every workload is a closed loop with one client.  Its stream is a sequence of
rounds; each round holds a fixed multiset of request classes, so two seeds
give the same class proportions (and comparable latency percentiles).  The
seed only sets the mesh jitter, the eigenvalue counts and the order of the
requests inside a round.

The program receives plain vertex and tet arrays.  Meshes are unit cubes cut
into six Kuhn tetrahedra per subcube (built here, not by the program), with
every interior vertex moved by up to ``JITTER`` of the mesh step along each
axis.  Boundary vertices stay on the cube faces, so the manufactured
solutions, which need the exact cube boundary, stay valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

JITTER = 0.1  # interior vertex displacement per axis, as a share of the mesh step
MIN_VOLUME_SHARE = 0.25  # smallest jittered tet volume allowed, as a share of h^3 / 6


@dataclass(frozen=True)
class Request:
    """One request of a stream.

    ``kind`` is ``"eig"`` (``solve_quadcurl_eig`` on ``meshes[0]``) or
    ``"conv"`` (``convergence_study`` of ``problem`` over ``levels``, one mesh
    per level).  ``repeat`` marks a request whose mesh arrays an earlier
    request of the stream already sent.
    """

    kind: str
    order: int
    levels: tuple
    meshes: tuple  # ((vertices, tets), ...) in level order
    count: int = 0
    problem: str = ""
    repeat: bool = False


@dataclass(frozen=True)
class Workload:
    """Request classes of a workload; why each workload exists is in BENCHMARK.json."""

    name: str
    classes: tuple  # (kind, problem, order, levels, weight) per request class
    repeats: bool  # eig only: every class appears twice, the second reuses the mesh
    cases: tuple  # manufactured case constructors the workload needs
    orders: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eig-k1",
            classes=(("eig", "", 1, (4,), 2), ("eig", "", 1, (5,), 4), ("eig", "", 1, (6,), 2)),
            repeats=True,
            cases=(),
            orders=(1,),
        ),
        Workload(
            name="eig-k2",
            classes=(("eig", "", 2, (2,), 3), ("eig", "", 2, (3,), 1)),
            repeats=False,
            cases=(),
            orders=(2,),
        ),
        Workload(
            name="src-conv",
            classes=(
                ("conv", "curlcurl-src", 1, (3, 4), 1),
                ("conv", "curlcurl-src", 2, (2, 3), 1),
                ("conv", "quadcurl-src", 1, (3, 4), 2),
                ("conv", "quadcurl-src", 2, (2, 3), 2),
            ),
            repeats=False,
            cases=("curlcurl_sine_case", "quadcurl_sin3_case"),
            orders=(1, 2),
        ),
    )
}


def cube_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (V, 3) and tets (6 n^3, 4) of the unit cube, six Kuhn tets per subcube."""
    side = np.linspace(0.0, 1.0, n + 1)
    verts = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1).reshape(-1, 3)
    vid = np.arange((n + 1) ** 3).reshape(n + 1, n + 1, n + 1)
    low = np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    tets = []
    for perm in itertools.permutations(range(3)):
        corner = low.copy()
        path = [vid[corner[:, 0], corner[:, 1], corner[:, 2]]]
        for axis in perm:
            corner[:, axis] += 1
            path.append(vid[corner[:, 0], corner[:, 1], corner[:, 2]])
        tets.append(np.stack(path, axis=1))
    return verts, np.concatenate(tets).astype(np.int64)


def _signed_volumes(verts: np.ndarray, tets: np.ndarray) -> np.ndarray:
    c = verts[tets]
    return np.linalg.det(c[:, 1:] - c[:, :1]) / 6.0


def jittered_cube(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Kuhn cube mesh with interior vertices moved by up to JITTER / n per axis."""
    verts, tets = cube_arrays(n)
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += rng.uniform(-JITTER, JITTER, (int(interior.sum()), 3)) / n
    ref = _signed_volumes(*cube_arrays(n))
    vol = _signed_volumes(verts, tets)
    if np.any(vol * np.sign(ref) < MIN_VOLUME_SHARE / (6.0 * n**3)):
        raise ValueError(f"jitter degraded a tet of the n={n} cube below the volume floor")
    return verts, tets


def space_dims(n: int, order: int) -> dict:
    """N (free U_0 DoFs), M (all U DoFs) and P (free nodal DoFs) of a Kuhn n-cube.

    Counted from the mesh combinatorics alone, so the verifier does not take
    them from the program: edges are axis edges, face diagonals and body
    diagonals; faces follow from Euler's formula for a ball.
    """
    V, T = (n + 1) ** 3, 6 * n**3
    E = 3 * n * (n + 1) ** 2 + 3 * n**2 * (n + 1) + n**3
    F = 1 - V + E + T
    Vi = (n - 1) ** 3
    Ei = 3 * n * (n - 1) ** 2 + 3 * n**2 * (n - 1) + n**3
    Fi = F - 12 * n**2
    if order == 1:
        return {"N": Ei, "M": E, "P": Vi}
    return {"N": 2 * Ei + 2 * Fi, "M": 2 * E + 2 * F, "P": Vi + Ei}


def _workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sorted(WORKLOADS).index(name)])


def stream(name: str, seed: int):
    """Endless generator of rounds (lists of Requests); the same seed gives the same rounds."""
    wl = WORKLOADS[name]
    rng = _workload_rng(name, seed)
    while True:
        slots = [c for c in wl.classes for _ in range(c[4])]
        slots = [slots[i] for i in rng.permutation(len(slots))]
        sent: dict = {}  # class -> (meshes, count) already sent in this round
        rnd = []
        for kind, problem, order, levels, _ in slots:
            key = (kind, problem, order, levels)
            if wl.repeats and key in sent:
                meshes, first_count = sent.pop(key)
                count = int(rng.choice([c for c in range(1, 6) if c != first_count]))
                rnd.append(Request(kind, order, levels, meshes, count, problem, repeat=True))
                continue
            meshes = tuple(jittered_cube(n, rng) for n in levels)
            count = int(rng.integers(1, 6)) if kind == "eig" else 0
            sent[key] = (meshes, count)
            rnd.append(Request(kind, order, levels, meshes, count, problem))
        yield rnd


def prepare(quadcurl, name: str) -> None:
    """The program's lazy set-up for a workload: manufactured cases and reference elements."""
    wl = WORKLOADS[name]
    for case in wl.cases:
        getattr(quadcurl, case)()
    for order in wl.orders:
        for family in ("edge", "nodal"):
            quadcurl.reference.get_element(family, order)
