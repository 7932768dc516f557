"""Command-line front end and convergence-study driver.

Subcommands
-----------
``eig``
    Quad-curl eigenvalues on one mesh (``--mesh``, optionally
    ``--dump-matrices``), or an eigenvalue table over ``--levels``; the two
    modes do not mix.
``maxwell``
    Curl-curl (Maxwell) eigenvalues; same single-mesh / table switch.
``source-conv``
    Source-problem convergence study (``--problem quadcurl`` or ``curlcurl``).
``interp-conv``
    Edge-interpolation convergence study on a smooth field.
``info``
    Mesh and space dimensions for a given mesh/order.

``eig`` and ``maxwell`` build the model problem's record
(``build_quadcurl_pencil`` or ``build_curlcurl_system``), solve it with
``eigenpairs`` and dump that record's matrix fields by name; the source
studies call the ``solve_*_source`` entry points.

Each subcommand accepts only the options it reads.  Mesh specs take the
form ``cube:n=<int>`` (structured Kuhn mesh of the unit cube) or
``file:<path>`` (Gmsh ASCII v2.2). CSV output uses 10 significant digits.
Exit codes: 0 success, 2 usage error, 1 numerical failure. Output files are
only written after a run fully succeeds, and both destinations (``--out``
and ``--dump-matrices``) are checked before any work, so usage errors never
leave partial files behind.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .assembly import SparseMatrix
from .errors import QuadCurlError, UsageError
from .fespace import integrate_errors, interpolate, make_space
from .manufactured import curlcurl_sine_case, quadcurl_sin3_case, smooth_field
from .mesh import Mesh, generate_cube_mesh, read_gmsh
from .systems import (
    build_curlcurl_system,
    build_quadcurl_pencil,
    eigenpairs,
    setup_spaces,
    solve_curlcurl_source,
    solve_quadcurl_source,
)

PROBLEMS = ("interp", "curlcurl-src", "quadcurl-src", "maxwell-eig", "quadcurl-eig")

DEFAULT_LEVELS = {
    "interp": (2, 4, 8),
    "curlcurl-src": (2, 4, 8),
    "quadcurl-src": (2, 3, 4),
}


def _fmt(value) -> str:
    """Format one CSV field: floats at 10 significant digits, ints as ints."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.10g}"


@dataclass
class ConvergenceTable:
    """Rows of per-level results with an observed-rate column.

    ``headers`` names the columns; ``rows`` holds one list per refinement
    level in header order. Rates are h-ratio normalized,
    rate_l = log(e_{l-1}/e_l) / log(h_{l-1}/h_l), which reduces to the plain
    log2 ratio when h halves between levels. The first row has no rate.
    """

    problem: str
    headers: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def column(self, name: str) -> list:
        i = self.headers.index(name)
        return [row[i] for row in self.rows]


def observed_rates(hs: Sequence[float], errs: Sequence[float]) -> list:
    """Per-level convergence rates; None for the first level."""
    out: list = [None]
    for i in range(1, len(errs)):
        if errs[i] <= 0.0 or errs[i - 1] <= 0.0:
            out.append(None)
            continue
        out.append(math.log(errs[i - 1] / errs[i]) / math.log(hs[i - 1] / hs[i]))
    return out


def convergence_study(
    problem: str,
    orders,
    levels: Sequence[int],
    num: int = 1,
    mesh_factory: Callable[[int], Mesh] = generate_cube_mesh,
) -> ConvergenceTable:
    """Run one problem over refinement levels and collect a rate table.

    ``orders`` may be a single order or a sequence; rows are emitted per
    (order, level) pair. ``levels`` are cube subdivision counts, strictly
    increasing.
    """
    if problem not in PROBLEMS:
        raise UsageError(f"unknown problem id {problem!r}; choose from {PROBLEMS}")
    levels = [int(n) for n in levels]
    if len(levels) == 0 or any(n <= 0 for n in levels):
        raise UsageError("levels must be positive integers")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise UsageError("levels must be strictly increasing")
    if isinstance(orders, (int, np.integer)):
        orders = [int(orders)]

    base = ["order", "level", "h_max", "N", "M"]
    if problem == "interp":
        headers = base + ["err_l2", "err_curl", "err_hcurl", "rate"]
    elif problem == "curlcurl-src":
        headers = base + ["err_l2", "err_curl", "err_hcurl", "p_ratio", "rate"]
    elif problem == "quadcurl-src":
        headers = base + ["err_curl_u", "err_phi", "err_combined", "p_ratio", "rate"]
    else:
        headers = base + [f"lambda_{i + 1}" for i in range(num)] + ["dof"]

    table = ConvergenceTable(problem=problem, headers=headers)
    for order in orders:
        hs: list[float] = []
        errs: list[float] = []
        rows: list[list] = []
        for n in levels:
            mesh = mesh_factory(n)
            hs.append(mesh.h_max)
            if problem == "interp":
                space = make_space(mesh, "edge", order)
                u, curl_u = smooth_field()
                vec = interpolate(space, u)
                e0, e1 = integrate_errors(vec, exact_value=u, exact_deriv=curl_u)
                eh = float(np.hypot(e0, e1))
                errs.append(eh)
                rows.append([order, n, mesh.h_max, space.ndofs, 0, e0, e1, eh])
            elif problem == "curlcurl-src":
                sol = solve_curlcurl_source(mesh, order, curlcurl_sine_case())
                eh = sol.errors["hcurl"]
                errs.append(eh)
                rows.append([order, n, mesh.h_max, *_source_dims(sol),
                             sol.errors["l2"], sol.errors["curl"], eh,
                             sol.p_ratio])
            elif problem == "quadcurl-src":
                sol = solve_quadcurl_source(mesh, order, quadcurl_sin3_case())
                eh = sol.errors["combined"]
                errs.append(eh)
                rows.append([order, n, mesh.h_max, *_source_dims(sol),
                             sol.errors["curl_u"], sol.errors["phi"], eh,
                             sol.p_ratio])
            else:
                res, dims, _ = _solve_eig(problem, mesh, order, num)
                rows.append([order, n, mesh.h_max, dims[0], dims[1],
                             *res.values[:num], sum(dims)])
        if problem in ("interp", "curlcurl-src", "quadcurl-src"):
            for row, rate in zip(rows, observed_rates(hs, errs)):
                row.append(rate)
        table.rows.extend(rows)
    return table


def emit_csv(table: ConvergenceTable, destination) -> None:
    """Write a table as CSV (header + rows, 10 significant digits).

    ``destination`` is a path or a file-like object. Values round-trip
    through ``float()`` to 10 digits; undefined fields are left empty.
    """
    if not table.rows:
        raise UsageError("cannot emit an empty table")
    text = ",".join(table.headers) + "\n"
    for row in table.rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def parse_mesh_spec(spec: str) -> Mesh:
    """Build a mesh from a ``cube:n=<int>`` or ``file:<path>`` spec string."""
    if spec.startswith("cube:"):
        body = spec[len("cube:"):]
        if not body.startswith("n="):
            raise UsageError(f"bad cube mesh spec {spec!r}; expected cube:n=<int>")
        try:
            n = int(body[2:])
        except ValueError:
            raise UsageError(f"bad cube mesh spec {spec!r}; n must be an integer")
        if n < 1:
            raise UsageError(f"bad cube mesh spec {spec!r}; n must be >= 1")
        return generate_cube_mesh(n)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"mesh file unreadable: {exc}")
        return read_gmsh(text)
    raise UsageError(f"bad mesh spec {spec!r}; expected cube:n=<int> or file:<path>")


def _dump_matrices(directory: str, blocks: dict) -> None:
    """Dump named system matrices in coordinate text format."""
    try:
        os.makedirs(directory, exist_ok=True)
        for name, mat in blocks.items():
            mat.dump(os.path.join(directory, f"{name}.txt"))
    except OSError as exc:
        raise UsageError(f"dump directory unwritable: {exc}")


def _source_dims(sol) -> tuple[int, int]:
    """(N, M) of a source solve: free U_{0,h} DoFs and all U_h DoFs."""
    return sol.u.space.num_free, sol.u.space.ndofs


def _solve_eig(problem: str, mesh: Mesh, order: int, num: int):
    """Eigen solve, its (N, M) and the record's named blocks; M is 0 for Maxwell."""
    build = build_curlcurl_system if problem == "maxwell-eig" else build_quadcurl_pencil
    system = build(mesh, order)
    res = eigenpairs(system, num)
    blocks = {name: m for name, m in vars(system).items() if isinstance(m, SparseMatrix)}
    return res, (system.n_free, system.m_total), blocks


def _eig_single_table(problem: str, mesh: Mesh, order: int, num: int):
    """One mesh's eigenvalue table and the named blocks it was solved from."""
    res, dims, blocks = _solve_eig(problem, mesh, order, num)
    table = ConvergenceTable(problem=problem,
                             headers=["index", "lambda", "dof"])
    for i, lam in enumerate(res.values[:num]):
        table.rows.append([i + 1, lam, sum(dims)])
    return table, blocks


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


_OPTIONS = {
    "--mesh": dict(default=None,
                   help="mesh spec: cube:n=<int> or file:<path> (default cube:n=2)"),
    "--order": dict(type=int, default=1, choices=(1, 2)),
    "--num": dict(type=int, default=5, help="number of eigenvalues"),
    "--levels": dict(default=None,
                     help="comma-separated cube levels; switches to a table run"),
    "--problem": dict(default="quadcurl", choices=("quadcurl", "curlcurl")),
    "--out": dict(default=None, help="CSV output path (default stdout)"),
    "--dump-matrices": dict(default=None, metavar="DIR",
                            help="dump assembled matrices in coordinate text format"),
}

# Each subcommand accepts only the options it reads.
_SUBCOMMANDS = {
    "eig": ("quad-curl eigenvalues",
            ("--mesh", "--order", "--num", "--levels", "--out", "--dump-matrices")),
    "maxwell": ("curl-curl eigenvalues",
                ("--mesh", "--order", "--num", "--levels", "--out", "--dump-matrices")),
    "source-conv": ("source-problem convergence study",
                    ("--order", "--levels", "--problem", "--out")),
    "interp-conv": ("interpolation convergence study", ("--order", "--levels", "--out")),
    "info": ("mesh and space dimensions", ("--mesh", "--order", "--out")),
}

DEFAULT_MESH = "cube:n=2"


def _build_parser() -> _Parser:
    parser = _Parser(prog="quadcurl",
                     description="Mixed edge-element solvers for the "
                                 "quad-curl eigenvalue problem.")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def _parse_levels(text: str) -> list:
    try:
        levels = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --levels value {text!r}; expected comma-separated ints")
    if not levels:
        raise UsageError("empty --levels value")
    return levels


def _info_table(mesh: Mesh, order: int) -> ConvergenceTable:
    sp = setup_spaces(mesh, order)
    topo = mesh.topology
    table = ConvergenceTable(problem="info", headers=["key", "value"])
    pairs = [
        ("vertices", mesh.vertices.shape[0]),
        ("tets", mesh.tets.shape[0]),
        ("edges", topo.edges.shape[0]),
        ("faces", topo.faces.shape[0]),
        ("boundary_edges", int(topo.boundary_edges.sum())),
        ("boundary_faces", int(topo.boundary_faces.sum())),
        ("h_max", mesh.h_max),
        ("order", order),
        ("N_edge_constrained", sp.u0.num_free),
        ("M_edge_full", sp.uf.num_active),
        ("P_nodal_constrained", sp.s0.num_free),
        ("dof_pencil", sp.u0.num_free + sp.uf.num_active),
    ]
    table.rows.extend([list(p) for p in pairs])
    return table


def _check_destinations(out: str | None, dump: str | None) -> None:
    """Raise UsageError unless the CSV file and the dump directory can be written.

    Checked before either is written, so a bad one never leaves the other's
    files behind.
    """
    if out is not None:
        parent = os.path.dirname(os.path.abspath(out))
        if (os.path.isdir(out) or not os.path.isdir(parent) or not os.access(parent, os.W_OK)
                or (os.path.exists(out) and not os.access(out, os.W_OK))):
            raise UsageError(f"output path unwritable: {out}")
    if dump is not None:
        existing = os.path.abspath(dump)  # missing parts are created in this ancestor
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing) or not os.access(existing, os.W_OK):
            raise UsageError(f"dump directory unwritable: {dump}")


def run_cli(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand "
                             "(eig, maxwell, source-conv, interp-conv, info)")
        _check_destinations(args.out, getattr(args, "dump_matrices", None))

        if args.command == "info":
            mesh = parse_mesh_spec(DEFAULT_MESH if args.mesh is None else args.mesh)
            table = _info_table(mesh, args.order)
        elif args.command in ("eig", "maxwell"):
            problem = "quadcurl-eig" if args.command == "eig" else "maxwell-eig"
            if args.levels is not None:
                if args.mesh is not None or args.dump_matrices is not None:
                    raise UsageError("--levels runs on cube levels; it takes "
                                     "neither --mesh nor --dump-matrices")
                levels = _parse_levels(args.levels)
                table = convergence_study(problem, args.order, levels, num=args.num)
            else:
                mesh = parse_mesh_spec(DEFAULT_MESH if args.mesh is None else args.mesh)
                table, blocks = _eig_single_table(problem, mesh, args.order, args.num)
                if args.dump_matrices is not None:
                    _dump_matrices(args.dump_matrices, blocks)
        elif args.command == "source-conv":
            problem = "quadcurl-src" if args.problem == "quadcurl" else "curlcurl-src"
            levels = _parse_levels(args.levels) if args.levels is not None \
                else list(DEFAULT_LEVELS[problem])
            table = convergence_study(problem, args.order, levels)
        else:
            levels = _parse_levels(args.levels) if args.levels is not None \
                else list(DEFAULT_LEVELS["interp"])
            table = convergence_study("interp", args.order, levels)

        buf = io.StringIO()
        emit_csv(table, buf)
        if args.out is None:
            sys.stdout.write(buf.getvalue())
        else:
            try:
                with open(args.out, "w") as fh:
                    fh.write(buf.getvalue())
            except OSError as exc:
                raise UsageError(f"output path unwritable: {exc}")
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QuadCurlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
