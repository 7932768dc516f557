import importlib.util
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


@pytest.fixture(scope="session")
def bench_spans():
    """The benchmark's span tracer, ``bench/spans.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
