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

``PROBLEMS`` is the one table of the five studies: per problem id, its CSV
columns, CLI default levels and the function that measures one mesh.  The
source studies take the fields ``solve_*_source`` returns and integrate their
errors against the manufactured case here.  ``eig`` and ``maxwell`` on one
mesh build the model problem's record, solve it with ``eigenpairs`` and dump
that record's matrix fields by name.

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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .assembly import SparseMatrix
from .errors import GmshParseError, QuadCurlError, UsageError
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


class _Study(NamedTuple):
    columns: Callable[[int], list]  # CSV columns after order, level, h_max, N, M, given num
    levels: tuple  # CLI default levels; none where the CLI runs one mesh without --levels
    measure: Callable  # (mesh, order, num) -> ((N, M), column values, error to rate or None)


def _source_dims(sol) -> tuple[int, int]:
    """(N, M) of a source solve: free U_{0,h} DoFs and all U_h DoFs."""
    return sol.u.space.num_free, sol.u.space.ndofs


def _measure_interp(mesh: Mesh, order: int, num: int):
    """Edge interpolant of the smooth field: L2, curl and H(curl) errors."""
    space = make_space(mesh, "edge", order)
    u, curl_u = smooth_field()
    e0, e1 = integrate_errors(interpolate(space, u), exact_value=u, exact_deriv=curl_u)
    eh = float(np.hypot(e0, e1))
    return (space.ndofs, 0), [e0, e1, eh], eh


def _measure_curlcurl_src(mesh: Mesh, order: int, num: int):
    """Curl-curl solve of the sine case: u's L2, curl and H(curl) errors and p_ratio."""
    case = curlcurl_sine_case()
    sol = solve_curlcurl_source(mesh, order, case.f)
    e0, e1 = integrate_errors(sol.u, case.u, case.curl_u)
    eh = float(np.hypot(e0, e1))
    return _source_dims(sol), [e0, e1, eh, sol.p_ratio], eh


def _measure_quadcurl_src(mesh: Mesh, order: int, num: int):
    """Quad-curl solve of the sin^3 case: u's curl error, phi's against curl^2 u, p_ratio."""
    case = quadcurl_sin3_case()
    sol = solve_quadcurl_source(mesh, order, case.f)
    _, e_curl = integrate_errors(sol.u, exact_deriv=case.curl_u)
    e_phi, _ = integrate_errors(sol.phi, exact_value=case.curl2_u)
    return _source_dims(sol), [e_curl, e_phi, e_curl + e_phi, sol.p_ratio], e_curl + e_phi


def _eig_row(system, num: int):
    """The first num eigenvalues of a record and its N + M; no error to rate."""
    res = eigenpairs(system, num)
    dims = (system.n_free, system.m_total)
    return dims, [*res.values[:num], sum(dims)], None


def _eig_columns(num: int) -> list:
    return [f"lambda_{i + 1}" for i in range(num)] + ["dof"]


# The source and eigen entry points are looked up when a study runs, not
# bound here, so a wrapper installed on the module's names sees every call.
PROBLEMS = {
    "interp": _Study(lambda num: ["err_l2", "err_curl", "err_hcurl", "rate"],
                     (2, 4, 8), _measure_interp),
    "curlcurl-src": _Study(lambda num: ["err_l2", "err_curl", "err_hcurl", "p_ratio", "rate"],
                           (2, 4, 8), _measure_curlcurl_src),
    "quadcurl-src": _Study(lambda num: ["err_curl_u", "err_phi", "err_combined", "p_ratio", "rate"],
                           (2, 3, 4), _measure_quadcurl_src),
    "maxwell-eig": _Study(_eig_columns, (), lambda mesh, order, num:
                          _eig_row(build_curlcurl_system(mesh, order), num)),
    "quadcurl-eig": _Study(_eig_columns, (), lambda mesh, order, num:
                           _eig_row(build_quadcurl_pencil(mesh, order), num)),
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
    log2 ratio when h halves between levels. The first row has no rate, and
    neither has a row whose error or previous error is not positive, or whose
    h_max equals the previous row's (the rate would divide by log 1 = 0).
    """

    headers: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def column(self, name: str) -> list:
        i = self.headers.index(name)
        return [row[i] for row in self.rows]


def observed_rates(hs: Sequence[float], errs: Sequence[float]) -> list:
    """Per-level convergence rates; None for the first level and where the
    rate is undefined (see ``ConvergenceTable``)."""
    out: list = [None]
    for i in range(1, len(errs)):
        if errs[i] <= 0.0 or errs[i - 1] <= 0.0 or hs[i] == hs[i - 1]:
            out.append(None)
            continue
        out.append(math.log(errs[i - 1] / errs[i]) / math.log(hs[i - 1] / hs[i]))
    return out


def convergence_study(
    problem: str,
    order: int,
    levels: Sequence[int],
    num: int = 1,
    mesh_factory: Callable[[int], Mesh] = generate_cube_mesh,
) -> ConvergenceTable:
    """Run one problem of ``PROBLEMS`` at one order over refinement levels and
    collect a rate table, one row per level.

    ``levels`` are cube subdivision counts, strictly increasing.  A study
    whose measure returns an error gets a rate column.
    """
    if problem not in PROBLEMS:
        raise UsageError(f"unknown problem id {problem!r}; choose from {tuple(PROBLEMS)}")
    levels = [int(n) for n in levels]
    if len(levels) == 0 or any(n <= 0 for n in levels):
        raise UsageError("levels must be positive integers")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise UsageError("levels must be strictly increasing")

    study = PROBLEMS[problem]
    table = ConvergenceTable(headers=["order", "level", "h_max", "N", "M", *study.columns(num)])
    hs: list[float] = []
    errs: list = []
    for n in levels:
        mesh = mesh_factory(n)
        (N, M), values, err = study.measure(mesh, order, num)
        hs.append(mesh.h_max)
        errs.append(err)
        table.rows.append([order, n, mesh.h_max, N, M, *values])
    if errs[0] is not None:
        for row, rate in zip(table.rows, observed_rates(hs, errs)):
            row.append(rate)
    return table


def emit_csv(table: ConvergenceTable, stream) -> None:
    """Write a table as CSV (header + rows, 10 significant digits) to a text stream.

    Values round-trip through ``float()`` to 10 digits; undefined fields are
    left empty.
    """
    if not table.rows:
        raise UsageError("cannot emit an empty table")
    text = ",".join(table.headers) + "\n"
    for row in table.rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    stream.write(text)


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
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"mesh file unreadable: {exc}")
        except UnicodeDecodeError as exc:
            raise GmshParseError(f"mesh file is not UTF-8 text: {exc}") from None
        return read_gmsh(text)
    raise UsageError(f"bad mesh spec {spec!r}; expected cube:n=<int> or file:<path>")


def _dump_matrices(directory: str, system) -> None:
    """Dump a record's matrix fields, by field name, in coordinate text format."""
    try:
        os.makedirs(directory, exist_ok=True)
        for name, mat in vars(system).items():
            if isinstance(mat, SparseMatrix):
                mat.dump(os.path.join(directory, f"{name}.txt"))
    except OSError as exc:
        raise UsageError(f"dump directory unwritable: {exc}")


def _eig_single_table(system, num: int) -> ConvergenceTable:
    """One record's eigenvalue table: index, lambda and N + M per row."""
    res = eigenpairs(system, num)
    dof = system.n_free + system.m_total
    table = ConvergenceTable(headers=["index", "lambda", "dof"])
    table.rows.extend([i + 1, lam, dof] for i, lam in enumerate(res.values[:num]))
    return table


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
    table = ConvergenceTable(headers=["key", "value"])
    pairs = [
        ("vertices", mesh.vertices.shape[0]),
        ("tets", mesh.tets.shape[0]),
        ("edges", topo.edges.shape[0]),
        ("faces", topo.faces.shape[0]),
        ("boundary_edges", int(topo.boundary_edges.sum())),
        ("boundary_faces", int(topo.boundary_faces.sum())),
        ("h_max", mesh.h_max),
        ("order", order),
        ("N_edge_constrained", sp.edge.num_free),
        ("M_edge_full", sp.edge.ndofs),
        ("P_nodal_constrained", sp.nodal.num_free),
        ("dof_pencil", sp.edge.num_free + sp.edge.ndofs),
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
            if args.num < 1:
                raise UsageError(f"--num must be >= 1, got {args.num}")
            if args.levels is not None:
                if args.mesh is not None or args.dump_matrices is not None:
                    raise UsageError("--levels runs on cube levels; it takes "
                                     "neither --mesh nor --dump-matrices")
                levels = _parse_levels(args.levels)
                table = convergence_study(problem, args.order, levels, num=args.num)
            else:
                mesh = parse_mesh_spec(DEFAULT_MESH if args.mesh is None else args.mesh)
                build = build_quadcurl_pencil if args.command == "eig" else build_curlcurl_system
                system = build(mesh, args.order)
                table = _eig_single_table(system, args.num)
                if args.dump_matrices is not None:
                    _dump_matrices(args.dump_matrices, system)
        else:
            problem = f"{args.problem}-src" if args.command == "source-conv" else "interp"
            levels = _parse_levels(args.levels) if args.levels is not None \
                else list(PROBLEMS[problem].levels)
            table = convergence_study(problem, args.order, levels)

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
