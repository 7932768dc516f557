"""Curl-conforming tetrahedral FEM toolkit for curl-curl and quad-curl problems."""

from .mesh import Mesh, Topology, BoundarySet, generate_cube_mesh, read_gmsh, build_topology, boundary_classification
from .fespace import FESpace, DofVector, make_space, interpolate, eval_field, integrate_errors
from .quadrature import QuadRule, tet_rule, triangle_rule, segment_rule
from .reference import reference_shape_functions
from .assembly import SparseMatrix, assemble_mass, assemble_curlcurl, assemble_gradient_map, assemble_load, restrict
from .solvers import EigenResult, saddle_solve, gen_sym_eig
from .manufactured import ManufacturedCase, curlcurl_sine_case, quadcurl_sin3_case
from .systems import (
    PencilSystem,
    SourceSolution,
    build_quadcurl_pencil,
    solve_quadcurl_eig,
    solve_maxwell_eig,
    solve_curlcurl_source,
    solve_quadcurl_source,
    divergence_residual,
    setup_spaces,
)
from .harness import ConvergenceTable, convergence_study, emit_csv, observed_rates, run_cli

__version__ = "0.1.0"
