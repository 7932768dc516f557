"""Self-test of the benchmark: the generator is deterministic, the verifier rejects bad output.

Run from the repository root::

    python3 bench/selftest.py
"""

import copy
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import quadcurl  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _csv(table):
    buf = io.StringIO()
    quadcurl.emit_csv(table, buf)
    return buf.getvalue()


def _rounds(name, seed, count):
    gen = workloads.stream(name, seed)
    return [next(gen) for _ in range(count)]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_requests(self):
        for name in workloads.WORKLOADS:
            for ra, rb in zip(_rounds(name, 7, 2), _rounds(name, 7, 2)):
                self.assertEqual(len(ra), len(rb))
                for a, b in zip(ra, rb):
                    self.assertEqual(
                        (a.kind, a.problem, a.order, a.levels, a.count, a.repeat),
                        (b.kind, b.problem, b.order, b.levels, b.count, b.repeat),
                    )
                    for (va, ta), (vb, tb) in zip(a.meshes, b.meshes):
                        np.testing.assert_array_equal(va, vb)
                        np.testing.assert_array_equal(ta, tb)

    def test_other_seed_gives_other_jitter(self):
        a = _rounds("eig-k2", 7, 1)[0]
        b = _rounds("eig-k2", 8, 1)[0]
        self.assertFalse(np.array_equal(a[0].meshes[0][0], b[0].meshes[0][0]))

    def test_round_holds_the_class_mix(self):
        for name, wl in workloads.WORKLOADS.items():
            for rnd in _rounds(name, 3, 2):
                mix = {}
                for r in rnd:
                    key = (r.kind, r.problem, r.order, r.levels)
                    mix[key] = mix.get(key, 0) + 1
                self.assertEqual(mix, {c[:4]: c[4] for c in wl.classes})

    def test_eig_k1_resends_half_of_its_meshes_with_a_new_count(self):
        rnd = _rounds("eig-k1", 5, 1)[0]
        self.assertEqual(sum(r.repeat for r in rnd), len(rnd) // 2)
        for i, r in enumerate(rnd):
            if r.repeat:
                first = [p for p in rnd[:i] if p.meshes[0][0] is r.meshes[0][0]]
                self.assertEqual(len(first), 1)
                self.assertFalse(first[0].repeat)
                self.assertNotEqual(first[0].count, r.count)

    def test_jitter_moves_only_interior_vertices(self):
        for n in (2, 4, 6):
            ref, tets_ref = workloads.cube_arrays(n)
            verts, tets = workloads.jittered_cube(n, np.random.default_rng(n))
            np.testing.assert_array_equal(tets, tets_ref)
            boundary = np.any((ref == 0.0) | (ref == 1.0), axis=1)
            np.testing.assert_array_equal(verts[boundary], ref[boundary])
            self.assertLessEqual(np.abs(verts - ref).max(), workloads.JITTER / n)
            self.assertGreater(np.abs(verts - ref)[~boundary].max(), 0.0)

    def test_space_dims_match_the_program(self):
        for n in (2, 3):
            for order in (1, 2):
                pen = quadcurl.build_quadcurl_pencil(quadcurl.Mesh(*workloads.cube_arrays(n)), order)
                self.assertEqual(
                    workloads.space_dims(n, order),
                    {"N": pen.n_free, "M": pen.m_total, "P": pen.p_free},
                )


class VerifierTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.verifier = verify.Verifier(quadcurl)
        mesh = workloads.jittered_cube(4, np.random.default_rng(1))
        cls.eig_req = workloads.Request("eig", 1, (4,), (mesh,), count=3)
        cls.eig_res = run._execute(quadcurl, cls.eig_req)
        meshes = tuple(workloads.jittered_cube(n, np.random.default_rng(n)) for n in (2, 3))
        cls.conv_req = workloads.Request("conv", 1, (2, 3), meshes, problem="curlcurl-src")
        cls.table, cls.csv = run._execute(quadcurl, cls.conv_req)

    def test_accepts_correct_output(self):
        self.assertEqual(self.verifier.check(self.eig_req, self.eig_res), [])
        self.assertEqual(self.verifier.check(self.conv_req, (self.table, self.csv)), [])

    def test_rejects_perturbed_eigenvector(self):
        vecs = self.eig_res.vectors.copy()
        vecs[:, 1] += 1e-4 * np.random.default_rng(0).standard_normal(vecs.shape[0])
        bad = dataclasses.replace(self.eig_res, vectors=vecs)
        self.assertTrue(any("residual" in p for p in self.verifier.check(self.eig_req, bad)))

    def test_rejects_perturbed_eigenvalue(self):
        vals = self.eig_res.values.copy()
        vals[2] *= 1.0 + 1e-6
        bad = dataclasses.replace(self.eig_res, values=vals)
        self.assertTrue(any("residual" in p for p in self.verifier.check(self.eig_req, bad)))

    def test_rejects_wrong_zero_mode_count(self):
        bad = dataclasses.replace(self.eig_res, n_zero=self.eig_res.n_zero - 1)
        self.assertTrue(any("n_zero" in p for p in self.verifier.check(self.eig_req, bad)))

    def test_rejects_error_that_grows(self):
        table = copy.deepcopy(self.table)
        i = table.headers.index("err_hcurl")
        table.rows[0][i], table.rows[1][i] = table.rows[1][i], table.rows[0][i]
        problems = self.verifier.check(self.conv_req, (table, self.csv))
        self.assertTrue(any("decrease" in p for p in problems))

    def test_quadcurl_multiplier_is_bounded_not_required_to_fall(self):
        # Seed 124457842 sends this mesh pair; its multiplier is load-quadrature
        # error, 1.27e-6 at n = 3 and 1.35e-6 at n = 4, and the output is correct.
        req = _rounds("src-conv", 124457842, 4)[3][0]
        self.assertEqual((req.problem, req.order, req.levels), ("quadcurl-src", 1, (3, 4)))
        table, csv = run._execute(quadcurl, req)
        ratios = table.column("p_ratio")
        self.assertGreater(ratios[1], ratios[0])
        self.assertEqual(self.verifier.check(req, (table, csv)), [])
        bad = copy.deepcopy(table)
        bad.rows[1][bad.headers.index("p_ratio")] = 10 * verify.QUADCURL_P_RATIO_TOL[1]
        problems = self.verifier.check(req, (bad, _csv(bad)))
        self.assertTrue(any("p_ratio" in p for p in problems))

    def test_rejects_csv_that_differs_from_the_table(self):
        bad_csv = self.csv.replace(",", ";", 1)
        self.assertNotEqual(self.verifier.check(self.conv_req, (self.table, bad_csv)), [])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
