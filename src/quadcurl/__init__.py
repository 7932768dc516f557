"""Curl-conforming tetrahedral FEM toolkit for curl-curl and quad-curl problems."""

from .mesh import Mesh, Topology, generate_cube_mesh, read_gmsh, build_topology
from .fespace import FESpace, DofVector, make_space, interpolate, integrate_errors
from .quadrature import QuadRule, tet_rule, triangle_rule, segment_rule
from .assembly import SparseMatrix, assemble_mass, assemble_curlcurl, assemble_gradient_map, assemble_load
from .solvers import EigenResult, ShiftedFactor, gen_sym_eig, saddle_solve, shifted_factor
from .manufactured import ManufacturedCase, curlcurl_sine_case, quadcurl_sin3_case
from .systems import (
    CurlCurlSystem,
    PencilSystem,
    SourceSolution,
    build_curlcurl_system,
    build_quadcurl_pencil,
    eigenpairs,
    solve_source,
    solve_quadcurl_eig,
    solve_maxwell_eig,
    solve_curlcurl_source,
    solve_quadcurl_source,
    setup_spaces,
)
from .harness import ConvergenceTable, convergence_study, emit_csv, observed_rates, run_cli

__version__ = "0.1.0"
