import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from quadcurl import Mesh, generate_cube_mesh


@pytest.fixture(scope="session")
def ref_tet_mesh():
    """Single reference tetrahedron."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return Mesh(verts, np.array([[0, 1, 2, 3]]))


@pytest.fixture(scope="session")
def cube2():
    return generate_cube_mesh(2)


@pytest.fixture(scope="session")
def cube3():
    return generate_cube_mesh(3)


def _bench_module(name):
    """``bench/<name>.py`` loaded as the module ``bench_<name>``."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench_spans():
    """The benchmark's span tracer, ``bench/spans.py``."""
    return _bench_module("spans")


@pytest.fixture(scope="session")
def bench_run():
    """The benchmark's driver, ``bench/run.py``."""
    return _bench_module("run")


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's request classes and meshes, ``bench/workloads.py``."""
    return _bench_module("workloads")
