"""quadcurl benchmark: seeded closed-loop solve workloads with checked outputs.

Run from the repository root::

    python3 bench/run.py --workload eig-k1 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

One client sends the workload's requests one after another (a closed loop)
to the public entry points ``solve_quadcurl_eig`` and ``convergence_study`` /
``emit_csv``, verifies every output, and stops at the first round boundary
after ``--seconds`` of request time.  Verification pauses the clock.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
give the same numbers for reading, ``error_rate``, and an ``info`` JSON line
with the environment and the measured input properties.  ``--workload all``
runs every workload in its own process and prints one table.

See bench/README.md for the workloads, metrics and known gaps.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("eig-k1", "eig-k2", "src-conv")
SETUP_SAMPLES = 3  # fresh start-ups per run; setup_s is their median
# One BLAS thread: the client is one process sending one request at a time,
# and on a small shared machine a second BLAS thread made every dense kernel
# slower and noisier (measured on a 2-CPU container: Schur + eigh at n = 5,
# 0.20-0.27 s with two threads against 0.14-0.20 s with one).
BLAS_THREADS = 1
PROBE_UNITS = 5
PROBE_REF_S = 0.004  # reference probe unit time; scaled times are seconds at this speed
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

# Self time per request of these spans, reported as "<span>_s".
SPAN_TIMES = (
    "mesh.construct",
    "mesh.build_topology",
    "mesh.boundary_classification",
    "fespace.make_space",
    "fespace.integrate_errors",
    "fespace.eval_cells",
    "fespace.cell_geometry",
    "fespace.map_points",
    "assembly.assemble_curlcurl",
    "assembly.assemble_mass",
    "assembly.assemble_gradient_map",
    "assembly.assemble_load",
    "assembly.restrict",
    "manufactured.eval",
    "manufactured.case",
    "solvers.gen_sym_eig",
    "solvers.saddle_solve",
    "systems.setup_spaces",
    "systems.build_quadcurl_pencil",
    "systems.schur_dense",
    "systems.solve_quadcurl_eig",
    "systems.solve_quadcurl_source",
    "systems.solve_curlcurl_source",
    "harness.convergence_study",
    "harness.emit_csv",
)
# Work counts per request, recorded at the layer boundaries.
SPAN_COUNTS = {
    "mesh.tets": "count",
    "fespace.make_space_calls": "count",
    "assembly.calls": "count",
    "assembly.nnz": "count",
    "assembly.local_flops": "flop",
    "manufactured.eval_points": "count",
    "solvers.gen_sym_eig_calls": "count",
    "solvers.eig_dim": "count",
    "solvers.saddle_dim": "count",
    "solvers.saddle_nnz": "count",
    "systems.schur_dense_bytes": "B",
}
LAYERS = ("mesh", "fespace", "assembly", "manufactured", "solvers", "systems", "harness")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    **SPAN_COUNTS,
    "solvers.eig_residual_max": "ratio",
    "trace.request_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_p50_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class SpeedProbe:
    """A fixed piece of CPU work: a matrix product, a pass over an 800 KB
    array and an interpreter loop, the three kinds of work the program does.

    The machine's speed for one process swings by 20-50 % over seconds when
    other tenants share its cores, so raw wall times spread as much between
    runs.  Timing this probe just before and just after each measured
    interval gives the speed at that moment; ``scale`` maps the interval to
    reference seconds, the time it would take where one probe unit takes
    ``PROBE_REF_S``.  A call reports the median of ``PROBE_UNITS`` units, so
    a short disturbance (such as a child process exiting) does not count.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((200, 200))
        self._x = rng.random(100_000)
        self._sin = np.sin

    def _unit(self) -> float:
        t0 = time.perf_counter()
        self._a @ self._a
        self._sin(self._x).sum()
        s = 0
        for i in range(15000):
            s += i * i
        return time.perf_counter() - t0

    def __call__(self) -> float:
        return statistics.median(self._unit() for _ in range(PROBE_UNITS))

    @staticmethod
    def scale(before: float, after: float) -> float:
        return PROBE_REF_S / (0.5 * (before + after))


def _measure_setup(workload: str, probe: SpeedProbe) -> tuple[float, float]:
    """Median set-up time of fresh start-ups, scaled and raw.

    One sample is the wall time from starting an interpreter to the end of
    the workload's lazy set-up in it.
    """
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe()
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(BENCH / "startup.py"), workload],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        raw.append(float(out.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * probe.scale(before, probe()))
    return statistics.median(scaled), statistics.median(raw)


def _execute(q, req):
    """Send one request to the program; the timed part of the loop."""
    if req.kind == "eig":
        verts, tets = req.meshes[0]
        return q.solve_quadcurl_eig(q.Mesh(verts, tets), req.order, req.count)
    meshes = dict(zip(req.levels, req.meshes))
    table = q.convergence_study(
        req.problem, req.order, req.levels, mesh_factory=lambda n: q.Mesh(*meshes[n])
    )
    buf = io.StringIO()
    q.emit_csv(table, buf)
    return table, buf.getvalue()


class Client:
    """The closed-loop client: sends rounds, times and verifies each request."""

    def __init__(self, q, rounds, verifier, space_dims, probe):
        self.q, self.rounds, self.verifier, self.space_dims = q, rounds, verifier, space_dims
        self.probe = probe
        self.attempted = self.failed = self.repeats = self.timed = 0
        self.problems: list = []
        self.seen: set = set()
        self.dims = {"N": set(), "M": set(), "P": set()}

    def run_round(self, tracer=None) -> tuple[list, float]:
        """One round; returns (raw, scaled) latencies of correct requests and the raw request time."""
        samples, busy = [], 0.0
        for req in next(self.rounds):
            self.attempted += 1
            self.observe(req)
            before = self.probe()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                span = tracer.begin(self.attempted) if tracer else None
                t0 = time.perf_counter()
                try:
                    out, problems = _execute(self.q, req), []
                except Exception as exc:  # a failed request is counted, the loop goes on
                    out, problems = None, [f"{type(exc).__name__}: {exc}"]
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end(span)
            scale = self.probe.scale(before, self.probe())
            busy += dt
            problems += [f"{w.category.__name__}: {w.message}" for w in caught]
            if not problems:
                try:
                    problems = self.verifier.check(req, out)
                except Exception as exc:  # malformed output
                    problems = [f"verifier: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.append((self.attempted, req.kind, req.order, req.levels, problems))
            else:
                samples.append((dt, dt * scale))
        return samples, busy

    def run_timed(self, seconds: float, tracer=None) -> tuple[list, float]:
        """Whole rounds until `seconds` of raw request time have passed.

        Returns the samples of each round, a list per round, and the raw request time.
        """
        rounds, busy = [], 0.0
        while busy < seconds:
            start = self.attempted
            smp, b = self.run_round(tracer)
            rounds.append(smp)
            busy += b
            self.timed += self.attempted - start
        return rounds, busy

    def observe(self, req) -> None:
        """Repeat share and N/M/P range, measured on the arrays actually sent."""
        digest = hashlib.blake2b(b"".join(a.tobytes() for m in req.meshes for a in m)).digest()
        self.repeats += digest in self.seen
        self.seen.add(digest)
        for n in req.levels:
            for k, v in self.space_dims(n, req.order).items():
                self.dims[k].add(v)


def _environment() -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "machine": platform.machine(),
    }


def _percentile(values: list, p: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def _layer_metrics(tracer, untraced_p50: float, traced_p50: float, max_residual: float) -> dict:
    self_t = tracer.self_times()
    requests = sum(1 for s in tracer.spans if s[0] == "request")
    request_total = tracer.total("request")
    values = {f"{layer}.self_s": sum(v for k, v in self_t.items() if k.startswith(layer + "."))
              for layer in LAYERS}
    values.update({f"{name}_s": self_t.get(name, 0.0) for name in SPAN_TIMES})
    values.update({name: tracer.counts.get(name, 0.0) for name in SPAN_COUNTS})
    values = {k: v / requests for k, v in values.items()}
    values["solvers.eig_residual_max"] = max_residual
    values["trace.request_s"] = request_total / requests
    values["trace.coverage"] = 1.0 - self_t["request"] / request_total
    values["trace.overhead_p50_s"] = traced_p50 - untraced_p50
    return {k: _metric(values[k], unit) for k, unit in PER_LAYER.items()}


def _latency_metrics(rounds: list, col: int) -> dict:
    """p50, p90 and throughput over the latencies in column `col` (0 raw, 1 scaled).

    Every round holds the same request mix, so throughput is the median over
    rounds of requests per second of request time; one slow moment of the
    machine then moves a single round, not the whole figure.
    """
    lat = [smp[col] for rnd in rounds for smp in rnd]
    per_round = [len(rnd) / sum(smp[col] for smp in rnd) for rnd in rounds if rnd]
    return {
        "latency_p50_s": _metric(_percentile(lat, 50), "s"),
        "latency_p90_s": _metric(_percentile(lat, 90), "s"),
        "throughput_rps": _metric(statistics.median(per_round), "1/s"),
    }


def run_workload(args) -> int:
    wall = {"start": time.monotonic()}
    for var in BLAS_VARS:  # before numpy is imported, here and in the start-ups
        os.environ[var] = str(BLAS_THREADS)
    probe = SpeedProbe()
    probe()  # first call pays page faults and BLAS start-up
    if not args.trace:
        setup_s, setup_raw_s = _measure_setup(args.workload, probe)
    wall["setup"] = time.monotonic()

    sys.path.insert(0, str(SRC))
    import quadcurl

    if not Path(quadcurl.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported quadcurl from {quadcurl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import verify
    import workloads

    workloads.prepare(quadcurl, args.workload)
    client = Client(quadcurl, workloads.stream(args.workload, args.seed),
                    verify.Verifier(quadcurl), workloads.space_dims, probe)
    client.run_round()  # warm-up: verified, not timed
    wall["warmup"] = time.monotonic()

    tracer = None
    if args.trace:
        untraced, _ = client.run_timed(args.seconds / 2)
        untraced = [smp for rnd in untraced for smp in rnd]
        client.verifier.max_eig_residual = 0.0
        tracer = spans.Tracer()
        with spans.traced(quadcurl, tracer):
            rounds, busy = client.run_timed(args.seconds / 2, tracer)
        rounds = rounds if untraced else []
    else:
        rounds, busy = client.run_timed(args.seconds)
    samples = [smp for rnd in rounds for smp in rnd]
    wall["loop"] = time.monotonic()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": _environment(),
        "warmup_requests": client.attempted - client.timed,
        "timed_requests": client.timed,
        "timed_request_s": busy,
        "wall_s": {k: round(wall[k] - wall[p], 3) for p, k in zip(wall, list(wall)[1:])},
        "samples": len(samples),
        "repeat_share": client.repeats / client.attempted,
        "dims": {k: [min(v), max(v)] for k, v in client.dims.items()},
        "error_rate": client.failed / client.attempted,
        "problems": client.problems[:5],
    }
    if not samples:
        print("info " + json.dumps(info))
        print(f"error: every timed request of {args.workload} failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = _layer_metrics(
            tracer,
            _percentile([smp[1] for smp in untraced], 50),
            _percentile([smp[1] for smp in samples], 50),
            client.verifier.max_eig_residual,
        )
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            **_latency_metrics(rounds, 1),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info["raw"] = {"setup_s": setup_raw_s,
                       **{k: m["value"] for k, m in _latency_metrics(rounds, 0).items()}}
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"info": info, "spans": tracer.spans, "counts": tracer.counts}))
        info["spans_file"] = str(path.relative_to(ROOT))

    print("info " + json.dumps(info))
    print(f"{args.workload} seed {args.seed}: {client.attempted} requests, {client.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {info['error_rate']:.6g} ratio")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of their metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    rows = {k: m["unit"] for k, m in results[WORKLOAD_NAMES[0]]["metrics"].items()}
    for r in results.values():
        r["metrics"]["error_rate"] = _metric(r["failed"] / r["attempted"], "ratio")
    rows["error_rate"] = "ratio"
    print(f"\n{'metric':34s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES))
    for metric, unit in rows.items():
        values = "".join(f"{results[w]['metrics'][metric]['value']:14.6g}" for w in WORKLOAD_NAMES)
        print(f"{metric:34s} {unit:6s}" + values)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "quadcurl" / "__init__.py").is_file():
        print(f"error: no quadcurl sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
