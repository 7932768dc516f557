"""Per-request output checks for the quadcurl benchmark.

The checks recompute what they can instead of trusting the program's own
diagnostics: ``gen_sym_eig`` only warns about poor residuals, so eigenpair
residuals, B-orthonormality and discrete divergence are recomputed here from
the assembled pencil, and the dimensions and zero-mode count are compared
with counts derived from the mesh combinatorics (``workloads.space_dims``).
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
import scipy.sparse.linalg as spla

from workloads import space_dims

# First quad-curl eigenvalue of the unit cube, about 1.71e3 (the fine-mesh
# value the repository's acceptance tests use).  Kuhn meshes with n <= 6 at
# order 1 approach it from below (1.31e3 at n = 4), order 2 from both sides.
LAMBDA1_REF = 1.71e3
LAMBDA1_WINDOW = (0.7 * LAMBDA1_REF, 1.1 * LAMBDA1_REF)
EIG_RESIDUAL_TOL = 1e-8  # relative: ||S u - lam M_N u|| / (lam ||M_N u||)
ORTHO_TOL = 1e-8  # max |U^T M_N U - I|
DIV_TOL = 1e-8  # ||G0^T M_N u|| / ||M_N u||
CURLCURL_P_RATIO_TOL = 1e-9  # divergence-free load: the multiplier is roundoff
# Quad-curl multiplier: it carries the load-quadrature error, per order and at
# every level (see README).  It need not fall with h: on one seeded mesh
# pair it read 1.27e-6 (n = 3) and 1.35e-6 (n = 4) at order 1.
QUADCURL_P_RATIO_TOL = {1: 1e-3, 2: 0.1}
CSV_RTOL = 1e-9  # emit_csv writes 10 significant digits

PENCILS_KEPT = 4  # distinct meshes in one eig-k1 round

ERROR_COLUMN = {"curlcurl-src": "err_hcurl", "quadcurl-src": "err_combined"}


class Verifier:
    """Checks one request's output; returns a list of problems (empty when correct).

    Keeps the pencils of the last few meshes, so a request that resends a
    mesh of its round is not assembled again for checking.
    ``max_eig_residual`` is the largest eigenpair residual seen so far.
    """

    def __init__(self, quadcurl):
        self.q = quadcurl
        self._pencils: OrderedDict = OrderedDict()
        self.max_eig_residual = 0.0

    def _pencil_for(self, req):
        verts, tets = req.meshes[0]
        key = (req.order, verts.tobytes(), tets.tobytes())
        if key not in self._pencils:
            pen = self.q.build_quadcurl_pencil(self.q.Mesh(verts, tets), req.order)
            self._pencils[key] = (pen.K.mat, pen.M_N.mat, pen.G0.mat, spla.splu(pen.M_M.mat.tocsc()))
            if len(self._pencils) > PENCILS_KEPT:
                self._pencils.popitem(last=False)
        return self._pencils[key]

    def check(self, req, out) -> list:
        return self.check_eig(req, out) if req.kind == "eig" else self.check_conv(req, *out)

    def check_eig(self, req, res) -> list:
        dims = space_dims(req.levels[0], req.order)
        N, P, c = dims["N"], dims["P"], req.count
        vals, U = np.asarray(res.values), np.asarray(res.vectors)
        if vals.shape != (c,) or U.shape != (N, c):
            return [f"shapes {vals.shape}, {U.shape}; expected ({c},), ({N}, {c})"]
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(U))):
            return ["non-finite eigenpair"]
        problems = []
        if res.n_zero != P:
            problems.append(f"n_zero {res.n_zero} != P {P}")
        if vals.min() <= 0.0 or np.any(np.diff(vals) < -1e-10 * vals[1:]):
            problems.append(f"eigenvalues not positive ascending: {vals}")
        if not LAMBDA1_WINDOW[0] <= vals[0] <= LAMBDA1_WINDOW[1]:
            problems.append(f"lambda_1 {vals[0]:.6g} outside {LAMBDA1_WINDOW}")
        K, MN, G0, mm_lu = self._pencil_for(req)
        if K.shape != (dims["M"], N):
            problems.append(f"pencil K is {K.shape}, expected ({dims['M']}, {N})")
            return problems
        MU = MN @ U
        R = K.T @ mm_lu.solve(K @ U) - MU * vals
        rel = np.linalg.norm(R, axis=0) / (np.abs(vals) * np.linalg.norm(MU, axis=0))
        self.max_eig_residual = max(self.max_eig_residual, float(rel.max()))
        if rel.max() > EIG_RESIDUAL_TOL:
            problems.append(f"eigen residual {rel.max():.3e} > {EIG_RESIDUAL_TOL}")
        ortho = np.abs(U.T @ MU - np.eye(c)).max()
        if ortho > ORTHO_TOL:
            problems.append(f"M_N-orthonormality error {ortho:.3e}")
        div = np.linalg.norm(G0.T @ MU, axis=0) / np.linalg.norm(MU, axis=0)
        if div.max() > DIV_TOL:
            problems.append(f"divergence residual {div.max():.3e} > {DIV_TOL}")
        return problems

    def check_conv(self, req, table, csv_text) -> list:
        if len(table.rows) != len(req.levels):
            return [f"{len(table.rows)} rows for {len(req.levels)} levels"]
        col = {h: table.column(h) for h in table.headers}
        problems = []
        for level, N, M in zip(req.levels, col["N"], col["M"]):
            dims = space_dims(level, req.order)
            if (N, M) != (dims["N"], dims["M"]):
                problems.append(f"level {level}: N, M = {N}, {M}; expected {dims['N']}, {dims['M']}")
        errs = [float(e) for e in col[ERROR_COLUMN[req.problem]]]
        if not all(math.isfinite(e) and e > 0.0 for e in errs):
            problems.append(f"errors not finite positive: {errs}")
        elif not errs[1] < errs[0]:
            problems.append(f"error did not decrease: {errs}")
        ratios = [float(r) for r in col["p_ratio"]]
        if req.problem == "curlcurl-src":
            if max(ratios) > CURLCURL_P_RATIO_TOL:
                problems.append(f"p_ratio {max(ratios):.3e} > {CURLCURL_P_RATIO_TOL}")
        elif max(ratios) > QUADCURL_P_RATIO_TOL[req.order]:
            problems.append(f"p_ratio {max(ratios):.3e} > {QUADCURL_P_RATIO_TOL[req.order]}")
        problems += _check_csv(table, csv_text)
        return problems


def _check_csv(table, text: str) -> list:
    lines = text.splitlines()
    if lines[:1] != [",".join(table.headers)] or len(lines) != len(table.rows) + 1:
        return ["CSV header or row count does not match the table"]
    for line, row in zip(lines[1:], table.rows):
        fields = line.split(",")
        if len(fields) != len(row):
            return [f"CSV row {line!r} has {len(fields)} fields for {len(row)} values"]
        for field, value in zip(fields, row):
            if value is None or (isinstance(value, float) and math.isnan(value)):
                if field != "":
                    return [f"CSV field {field!r} for an undefined value"]
            elif not math.isclose(float(field), float(value), rel_tol=CSV_RTOL, abs_tol=1e-300):
                return [f"CSV field {field!r} does not round-trip {value!r}"]
    return []
