#!/usr/bin/env python3
"""potts3 benchmark: run one workload once and print one JSON result line.

    python3 perfbench/run.py --workload mixing-z24 --seed 1 --seconds 4 --trace 0

Run it from anywhere; it measures the ``src/`` tree of the checkout it sits
in.  Workloads and the reasons for them are in ``workloads.py``; metric names
and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics.  It first starts
SETUP_SAMPLES fresh interpreters that import potts3 and build the
workload's lattices (``setup_s`` is their median), then runs untraced
passes: the first always, each further one while it should end within
``--seconds``.  ``wall_s`` is the median pass and ``peak_rss_mb`` the peak
resident memory of this process.

``--trace 1`` reports the per-layer metrics: the same passes with spans
around each call into a module.  Self times and counts are per pass.
``trace.overhead_s`` is the spans per pass times the measured cost of one
span; BASELINE.md compares traced and untraced walls across runs.

The last stdout line is the result; the line before it holds provenance
and the raw samples.  Spans of traced runs go to ``.bench_out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7

# A fresh interpreter: import potts3, build the lattices, print the clock.
# perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
SETUP_CHILD = """
import json, sys, time
import potts3
from potts3.lattice import LatticeKind, LatticeSpec, build_lattice
for kind, d, n in json.loads(sys.argv[1]):
    build_lattice(LatticeSpec(LatticeKind(kind), d, n))
print(time.perf_counter())
"""


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def source_digest() -> str:
    """sha256 over the measured sources: names the commit without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_sample(lattices) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, json.dumps(lattices)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tail(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return {"samples": len(ordered), "percentile": None, "value": None}
    return {"samples": len(ordered), "percentile": 100 * k / len(ordered), "value": ordered[k - 1]}


class Pass:
    def __init__(self, wall, failures, counts, tracer=None):
        self.wall, self.failures, self.counts, self.tracer = wall, failures, counts, tracer


def run_passes(workload, seconds, out, traced):
    from spans import NullTracer, Tracer, instrumented

    passes = []
    deadline = time.perf_counter() + seconds
    # the first pass always runs; another only if it should end in time
    while not passes or time.perf_counter() + passes[-1].wall <= deadline:
        pass_out = fresh_dir(out / "pass")
        counts: dict = {}
        if traced:
            tracer = Tracer()
            with instrumented(tracer, workload.patches(counts)):
                start = time.perf_counter()
                with tracer.span("bench.pass"):
                    failures = workload.run_pass(tracer, counts, pass_out)
                wall = time.perf_counter() - start
            check_trace(tracer, wall)
        else:
            tracer = None
            start = time.perf_counter()
            failures = workload.run_pass(NullTracer(), counts, pass_out)
            wall = time.perf_counter() - start
        passes.append(Pass(wall, failures, counts, tracer))
    check_counts(workload, passes, traced)
    return passes


def check_trace(tracer, wall):
    """Spans nest, and the self times add up to the traced pass."""
    tracer.check_nesting()
    total = sum(tracer.self_times().values())
    if abs(total - wall) > 1e-3:
        raise RuntimeError(f"self times sum to {total:.6f} s, pass took {wall:.6f} s")


# meta.json's timestamp and the report's build stamp vary in length
VARYING_COUNTS = {"cli.out_bytes"}


def check_counts(workload, passes, traced):
    """Work counts repeat exactly; a count that drifts is a benchmark bug."""
    first = {k: v for k, v in passes[0].counts.items() if k not in VARYING_COUNTS}
    for p in passes[1:]:
        if {k: v for k, v in p.counts.items() if k not in VARYING_COUNTS} != first:
            raise RuntimeError(f"work counts drift between passes: {first} vs {p.counts}")
    if traced:
        for key, want in workload.frozen_counts.items():
            if first.get(key) != want:
                raise RuntimeError(f"{key} = {first.get(key)}, frozen at {want}")


def span_cost() -> float:
    """Seconds one wrapped call spends in its span."""
    from spans import Tracer, _wrap

    calls = 20000
    probe = _wrap(Tracer(), lambda: None, "calibrate", None)
    start = time.perf_counter()
    for _ in range(calls):
        probe()
    return (time.perf_counter() - start) / calls


def layer_values(passes) -> dict:
    n = len(passes)
    values: dict = dict(passes[0].counts)
    self_times: dict = {}
    chain_durations = []
    spans = 0
    for p in passes:
        for name, t in p.tracer.self_times().items():
            self_times[name] = self_times.get(name, 0.0) + t / n
        chain_durations += [e - s for name, s, e, _ in p.tracer.spans if name == "dynamics.chain"]
        spans += len(p.tracer.spans)
    values.update({f"{name}_s": t for name, t in self_times.items()})
    values["bench.self_s"] = values.pop("bench.pass_s")

    def ratio(num, den):
        return values.get(num, 0) / values[den] if values.get(den) else 0.0

    values["oracle.tv_matvecs_per_s"] = ratio("oracle.tv_matvecs", "oracle.tv_s")
    values["dynamics.proposals_per_s"] = ratio("dynamics.proposals", "dynamics.chain_s")
    values["dynamics.chain_p50_s"] = statistics.median(chain_durations) if chain_durations else 0.0
    values["cutset.cutsets"] = values.get("cutset.box_cutsets", 0) + values.get("cutset.torus_cutsets", 0)
    values["cutset.size_ge16_share"] = ratio("cutset.box_ge16", "cutset.box_cutsets")
    values["peierls.explicit_share"] = ratio("peierls.explicit_pairs", "peierls.flow_pairs")
    values["trace.wall_s"] = statistics.median(p.wall for p in passes)
    values["trace.spans"] = spans / n
    values["trace.overhead_s"] = values["trace.spans"] * span_cost()
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "potts3" / "__init__.py").is_file():
        print(f"error: no potts3 sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "source_sha256": source_digest(),
        "loadavg_start": loadavg(),
    }
    workload = WORKLOADS[args.workload]()
    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload.prepare(args.seed)
        if args.trace:
            passes = run_passes(workload, args.seconds, out, traced=True)
            values = layer_values(passes)
            detail = {"counts": passes[0].counts}
            wanted = spec["per_layer"]
        else:
            setups = [setup_sample(workload.lattices) for _ in range(SETUP_SAMPLES)]
            passes = run_passes(workload, args.seconds, out, traced=False)
            walls = [p.wall for p in passes]
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            detail = {"wall_s": walls, "wall_s_tail": tail(walls), "setup_s": setups}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    provenance["loadavg_end"] = loadavg()
    if args.trace:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans = [p.tracer.records() for p in passes]
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    print(json.dumps({"provenance": provenance, "failures": failures, **detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": workload.ops * len(passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
