import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshes import five_tet_cube_mesh, write_gmsh
from quadcurl import (
    ConvergenceTable, convergence_study, emit_csv, observed_rates, quadcurl_sin3_case, run_cli,
)
from quadcurl import harness
from quadcurl.errors import UsageError
from quadcurl.harness import parse_mesh_spec

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN_RTOL = 1e-9  # emit_csv writes 10 significant digits
# Absolute floor for fields that are only roundoff: p_ratio of a
# divergence-free load reads 1e-16 to 4e-11 and moves in its 4th digit with
# the BLAS thread count.  The smallest golden field that is not roundoff is
# 1.33e-6.
GOLDEN_ATOL = 1e-15
# CLI runs whose CSV is kept in tests/data/golden/<name>.csv
GOLDEN_RUNS = {
    "eig_cube2_order2": ["eig", "--mesh", "cube:n=2", "--order", "2"],
    "eig_cube4_order1": ["eig", "--mesh", "cube:n=4", "--order", "1"],
    "maxwell_cube3_order2": ["maxwell", "--mesh", "cube:n=3", "--order", "2"],
    "eig_levels_2_3": ["eig", "--levels", "2,3"],
    "maxwell_levels_2_3": ["maxwell", "--levels", "2,3"],
    "source_quadcurl_order1": ["source-conv", "--problem", "quadcurl", "--order", "1",
                               "--levels", "2,3"],
    "source_quadcurl_order2": ["source-conv", "--problem", "quadcurl", "--order", "2",
                               "--levels", "2,3"],
    "source_curlcurl_order1": ["source-conv", "--problem", "curlcurl", "--order", "1",
                               "--levels", "2,3"],
    "source_curlcurl_order2": ["source-conv", "--problem", "curlcurl", "--order", "2",
                               "--levels", "2,3"],
    "interp_order1": ["interp-conv", "--order", "1", "--levels", "2,3"],
}


def test_observed_rates_exact_on_power_law():
    hs = [0.5, 0.25, 0.125]
    errs = [4.0 * h**2 for h in hs]
    rates = observed_rates(hs, errs)
    assert rates[0] is None
    assert rates[1] == pytest.approx(2.0, abs=1e-13)
    assert rates[2] == pytest.approx(2.0, abs=1e-13)


def test_observed_rates_handles_uneven_refinement():
    hs = [1.0 / 2, 1.0 / 3, 1.0 / 4]
    errs = [h**1.5 for h in hs]
    rates = observed_rates(hs, errs)
    assert rates[1] == pytest.approx(1.5, abs=1e-12)
    assert rates[2] == pytest.approx(1.5, abs=1e-12)


def test_observed_rates_skips_nonpositive_errors():
    rates = observed_rates([0.5, 0.25, 0.125], [1.0, 0.0, 0.5])
    assert rates == [None, None, None]


def test_interp_study_table():
    table = convergence_study("interp", 1, [2, 4])
    assert table.headers == ["order", "level", "h_max", "N", "M",
                             "err_l2", "err_curl", "err_hcurl", "rate"]
    assert len(table.rows) == 2
    assert table.column("level") == [2, 4]
    assert table.column("rate")[0] is None
    assert 0.8 <= table.column("rate")[1] <= 1.2
    errs = table.column("err_hcurl")
    assert errs[1] < errs[0]


def test_study_multiple_orders_stack_rows():
    table = convergence_study("interp", [1, 2], [2, 3])
    assert table.column("order") == [1, 1, 2, 2]
    # rates restart per order: first row of each order block has none
    rates = table.column("rate")
    assert rates[0] is None and rates[2] is None
    assert rates[1] is not None and rates[3] is not None


def test_source_level_samples_its_fields_on_one_array(monkeypatch):
    """A quad-curl source level hands its load f and the exact curl_u and
    curl2_u of its errors the very same read-only point array, which owns its
    memory, so the three fields share one trig table."""
    case = quadcurl_sin3_case()
    seen = {}

    def recording(name):
        field = getattr(case, name)

        def call(X):
            seen.setdefault(name, []).append(X)
            return field(X)

        return call

    names = ("f", "curl_u", "curl2_u")
    wrapped = dataclasses.replace(case, **{name: recording(name) for name in names})
    monkeypatch.setattr(harness, "quadcurl_sin3_case", lambda: wrapped)
    convergence_study("quadcurl-src", 1, [2])
    assert sorted(seen) == sorted(names) and all(len(seen[n]) == 1 for n in names)
    X = seen["f"][0]
    assert seen["curl_u"][0] is X and seen["curl2_u"][0] is X
    assert not X.flags.writeable and X.base is None


def test_study_validates_inputs():
    with pytest.raises(UsageError):
        convergence_study("poisson", 1, [2, 4])
    with pytest.raises(UsageError):
        convergence_study("interp", 1, [])
    with pytest.raises(UsageError):
        convergence_study("interp", 1, [4, 2])
    with pytest.raises(UsageError):
        convergence_study("interp", 1, [0, 2])


def test_eig_study_columns():
    table = convergence_study("quadcurl-eig", 1, [1, 2], num=1)
    assert table.headers[-2:] == ["lambda_1", "dof"]
    assert table.column("dof") == [20, 124]
    lam = table.column("lambda_1")
    assert lam[0] == pytest.approx(9600.0 / 7.0, rel=1e-10)


def test_emit_csv_round_trip(tmp_path):
    table = convergence_study("interp", 1, [2, 4])
    path = tmp_path / "interp.csv"
    emit_csv(table, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == table.headers
    first = lines[1].split(",")
    assert first[-1] == ""  # no rate on the first level
    err_col = table.headers.index("err_hcurl")
    assert float(first[err_col]) == pytest.approx(
        table.rows[0][err_col], rel=1e-9)
    # 10 significant digits in the field text
    assert len(first[err_col].replace(".", "").replace("-", "").lstrip("0")) <= 11


def test_emit_csv_rejects_empty_table():
    with pytest.raises(UsageError):
        emit_csv(ConvergenceTable(problem="x", headers=["a"]), io.StringIO())


def test_emit_csv_deterministic():
    a, b = io.StringIO(), io.StringIO()
    emit_csv(convergence_study("interp", 1, [2, 3]), a)
    emit_csv(convergence_study("interp", 1, [2, 3]), b)
    assert a.getvalue() == b.getvalue()


def test_parse_mesh_spec_cube_and_errors():
    mesh = parse_mesh_spec("cube:n=3")
    assert mesh.num_tets == 6 * 27
    for bad in ["cube:n=0", "cube:n=x", "cube:m=2", "sphere:r=1", "file:/no/such/file"]:
        with pytest.raises(UsageError):
            parse_mesh_spec(bad)


def test_parse_mesh_spec_file(tmp_path):
    mesh = five_tet_cube_mesh(2)
    path = tmp_path / "m.msh"
    path.write_text(write_gmsh(mesh))
    got = parse_mesh_spec(f"file:{path}")
    assert got.num_tets == mesh.num_tets
    assert got.num_vertices == mesh.num_vertices


def test_cli_eig_writes_csv(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code = run_cli(["eig", "--mesh", "cube:n=2", "--order", "1",
                    "--num", "3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "index,lambda,dof"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(738.7206201, rel=1e-8)
    assert first[2] == "124"


def test_cli_oversized_cube_is_a_numerical_failure(capsys):
    assert run_cli(["info", "--mesh", "cube:n=128"]) == 1
    assert "vertices" in capsys.readouterr().err


def test_cli_stdout_default(capsys):
    code = run_cli(["info", "--mesh", "cube:n=2"])
    assert code == 0
    outp = capsys.readouterr().out
    keys = [ln.split(",")[0] for ln in outp.splitlines()[1:]]
    assert keys == ["vertices", "tets", "edges", "faces", "boundary_edges",
                    "boundary_faces", "h_max", "order", "N_edge_constrained",
                    "M_edge_full", "P_nodal_constrained", "dof_pencil"]
    values = dict(ln.split(",") for ln in outp.splitlines()[1:])
    assert values["vertices"] == "27"
    assert values["boundary_edges"] == "72"
    assert values["dof_pencil"] == "124"


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["eig", "--mesh", "cube:n=0"],
    ["eig", "--mesh", "file:/definitely/not/here.msh"],
    ["eig", "--order", "3"],
    ["eig", "--levels", "4,2"],
    [],
    ["eig", "--levels", "1,2", "--dump-matrices", "never"],
    ["eig", "--levels", "1,2", "--mesh", "cube:n=2"],
    ["maxwell", "--levels", "1,2", "--mesh", "cube:n=2"],
    ["source-conv", "--levels", "1,2", "--dump-matrices", "never"],
    ["source-conv", "--levels", "1,2", "--mesh", "cube:n=2"],
    ["source-conv", "--levels", "1,2", "--num", "3"],
    ["interp-conv", "--levels", "1,2", "--mesh", "cube:n=2"],
    ["interp-conv", "--levels", "1,2", "--num", "3"],
    ["info", "--levels", "1,2"],
    ["info", "--dump-matrices", "never"],
    ["info", "--num", "3"],
    ["eig", "--num", "0"],
    ["maxwell", "--levels", "2", "--num", "-1"],
])
def test_cli_usage_errors_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("usage error:")
    assert out == ""


def test_cli_usage_error_leaves_no_partial_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = run_cli(["eig", "--mesh", "cube:n=0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    capsys.readouterr()


def test_cli_numerical_failure_exit_1(capsys):
    code = run_cli(["eig", "--mesh", "cube:n=1", "--num", "5"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_dump_matrices(tmp_path, capsys):
    dump = tmp_path / "mats"
    code = run_cli(["eig", "--mesh", "cube:n=1", "--num", "1",
                    "--dump-matrices", str(dump)])
    assert code == 0
    capsys.readouterr()
    names = sorted(os.listdir(dump))
    assert names == ["G0.txt", "K.txt", "M_M.txt", "M_N.txt"]
    header = (dump / "K.txt").read_text().splitlines()[0].split()
    assert [int(v) for v in header] == [19, 1, 19]


def test_cli_maxwell_dump(tmp_path, capsys):
    dump = tmp_path / "mw"
    code = run_cli(["maxwell", "--mesh", "cube:n=2", "--num", "1",
                    "--dump-matrices", str(dump)])
    assert code == 0
    capsys.readouterr()
    assert sorted(os.listdir(dump)) == ["C0.txt", "G0.txt", "M0.txt"]


@pytest.mark.parametrize("argv", [
    ["eig", "--mesh", "cube:n=2", "--num", "30"],
    ["maxwell", "--mesh", "cube:n=1", "--num", "5"],
])
def test_cli_failed_solve_dumps_nothing(argv, tmp_path, capsys):
    dump = tmp_path / "d"
    assert run_cli(argv + ["--dump-matrices", str(dump)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not dump.exists() or os.listdir(dump) == []


def test_cli_unwritable_dump_directory_exit_2(tmp_path, capsys):
    taken = tmp_path / "file"
    taken.write_text("")
    code = run_cli(["eig", "--mesh", "cube:n=1", "--num", "1",
                    "--dump-matrices", str(taken)])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("bad", ["out", "dump"])
def test_cli_unwritable_destination_writes_neither(bad, tmp_path, capsys):
    """Whichever of --out and --dump-matrices cannot be written, neither is."""
    out, dump = tmp_path / "x.csv", tmp_path / "d"
    if bad == "out":
        out = tmp_path / "missing" / "x.csv"
    else:
        dump = tmp_path / "file"
        dump.write_text("")
    code = run_cli(["eig", "--mesh", "cube:n=1", "--num", "1",
                    "--dump-matrices", str(dump), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()
    assert dump.is_file() or not dump.exists()


def test_module_entry_point_prints_info_csv():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "quadcurl", "info", "--mesh", "cube:n=2"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "key,value"
    assert "boundary_edges,72" in lines


def test_cli_levels_table(capsys):
    code = run_cli(["eig", "--levels", "1,2", "--num", "1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split(",")[:5] == ["order", "level", "h_max", "N", "M"]
    assert len(lines) == 3


def test_cli_source_conv_curlcurl(capsys):
    code = run_cli(["source-conv", "--problem", "curlcurl", "--levels", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split(",")[5] == "err_l2"
    assert len(out.splitlines()) == 3


def test_cli_interp_conv(capsys):
    code = run_cli(["interp-conv", "--levels", "2,4", "--order", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    rate = lines[2].split(",")[-1]
    assert 1.5 <= float(rate) <= 2.5


def _same_csv_field(got: str, want: str) -> bool:
    """Integer and empty fields match exactly, floats to GOLDEN_RTOL or GOLDEN_ATOL."""
    if got == want:
        return True
    if want == "" or want.lstrip("-").isdigit():
        return False
    return math.isclose(float(got), float(want), rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_matches_golden_csv(name, tmp_path):
    """The run's CSV agrees with its copy kept in tests/data/golden."""
    out = tmp_path / "out.csv"
    assert run_cli(GOLDEN_RUNS[name] + ["--out", str(out)]) == 0
    got = [line.split(",") for line in out.read_text().splitlines()]
    want = [line.split(",") for line in (GOLDEN / f"{name}.csv").read_text().splitlines()]
    assert got[0] == want[0]
    assert [len(row) for row in got] == [len(row) for row in want]
    bad = [(i, g, w) for i, (grow, wrow) in enumerate(zip(got, want))
           for g, w in zip(grow, wrow) if not _same_csv_field(g, w)]
    assert bad == []


def test_golden_csvs_match_with_one_blas_thread():
    """The golden comparison holds with BLAS pinned to one thread, as the benchmark runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_cli_matches_golden_csv"],
        cwd=Path(__file__).resolve().parents[1], env=env,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert f"{len(GOLDEN_RUNS)} passed" in proc.stdout
