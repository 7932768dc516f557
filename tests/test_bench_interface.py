"""The program names that the benchmark under ``bench/`` reads stay in place."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import quadcurl
from quadcurl import generate_cube_mesh

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    """The benchmark's own self-test: generator, verifier and pencil dimensions."""
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_bench_src_conv_smoke_run():
    """A short ``src-conv`` benchmark run exits 0 with every request verified."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "src-conv",
                           "--seed", "1", "--seconds", "0.5"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("workload", ["eig-k2", "src-conv"])
def test_bench_traced_smoke_run(workload, bench_run):
    """A short traced run exits 0 with every request verified and reports
    exactly the benchmark's per-layer metrics, so the tracer in
    ``bench/spans.py`` still wraps the program."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.3", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(bench_run.PER_LAYER)


def test_traced_eig_solve_counts_assembled_matrices(bench_spans):
    """The tracer reads ``out.mat.nnz`` and the space parameter names."""
    tracer = bench_spans.Tracer()
    with bench_spans.traced(quadcurl, tracer):
        request = tracer.begin(0)
        quadcurl.solve_quadcurl_eig(generate_cube_mesh(2), 1, 2)
        tracer.end(request)
    names = [span[0] for span in tracer.spans]
    assert names.count("assembly.assemble_curlcurl") == 1
    assert "assembly.restrict" not in names
    assert tracer.counts["assembly.calls"] > 0
    assert tracer.counts["assembly.nnz"] > 0
    assert tracer.counts["assembly.local_flops"] > 0


@pytest.mark.parametrize("run", [
    pytest.param(lambda: quadcurl.solve_quadcurl_eig(generate_cube_mesh(2), 1, 2), id="eig"),
    pytest.param(lambda: quadcurl.convergence_study("quadcurl-src", 1, [2]), id="src-study"),
])
def test_traced_eig_solve_builds_topology_once(bench_spans, run):
    """A request on one mesh spans one ``build_topology``, the mesh's own; no second pass runs."""
    tracer = bench_spans.Tracer()
    with bench_spans.traced(quadcurl, tracer):
        request = tracer.begin(0)
        run()
        tracer.end(request)
    names = [span[0] for span in tracer.spans]
    assert names.count("mesh.build_topology") == 1
    assert "mesh.boundary_classification" not in names


def test_traced_quadcurl_source_level_assembles_one_mass(bench_spans):
    """A quad-curl source level assembles one mass, M_M: M_N is its free
    block, and ||p_h|| is summed over local blocks with no S_h mass.  It
    still evaluates three fields: the load and the two exact fields of its
    errors."""
    tracer = bench_spans.Tracer()
    with bench_spans.traced(quadcurl, tracer):
        request = tracer.begin(0)
        quadcurl.convergence_study("quadcurl-src", 1, [2])
        tracer.end(request)
    names = [span[0] for span in tracer.spans]
    assert names.count("assembly.assemble_mass") == 1
    assert names.count("manufactured.eval") == 3
