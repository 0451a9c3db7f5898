"""The four benchmark workloads and the checks on their exact outputs.

Each workload runs one *pass*: the work a user waits for, then the check
of every exact output against its frozen reference.  ``run_pass`` returns
one message per failed operation, so ``failed``/``attempted`` is the
workload's failure rate.  Where a workload has a CLI command the pass goes
through ``potts3.cli.main``; a traced pass runs the same call with the
module functions it reaches wrapped in spans (see ``patches``), so it makes
the same library calls in the same order.

Why these workloads:

* mixing-z24 is the flagship exact computation; big-integer TV power
  iteration dominates it and it touches no dynamics, cutset, peierls,
  transfer or entropy code.
* torpid-z44 is the only simulated workload: the Metropolis kernel does
  nearly all the work, the oracle none, and it writes one CSV per chain.
* peierls-box sweeps cutsets, flows and repair-map images over exhaustive
  and seeded corpora; it is the only workload that exercises peierls.
* count-entropy is the only workload where transfer counting and entropy
  do most of the work.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from potts3 import cli, entropy, oracle
from potts3.coloring import (
    Coloring,
    OddBoundaryZero,
    Parity,
    is_proper,
    odd_boundary_pinned,
    phase_coloring,
    satisfies_bc,
)
from potts3.cutset import build_box_cutset, select_family, verify_properties
from potts3.dynamics import ChainSpec, run_chain
from potts3.lattice import LatticeKind, LatticeSpec, box, build_lattice, shift_order, torus
from potts3.oracle import ExactTransitionMatrix, enumerate_colorings, influence_ratio
from potts3.peierls import (
    boundary_layer,
    bound_report,
    exact_approximation,
    flow_out_total,
    membership_subset,
    phi_family,
    reconstruct,
)

REFERENCE = Path(__file__).resolve().parent / "reference"
FLOAT_TOL = 1e-12


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


# -- checking helpers ------------------------------------------------------------


def differences(got, want, path: str = "") -> list[str]:
    """Paths where ``got`` differs from ``want``; floats within FLOAT_TOL.

    Keys that ``got`` adds beyond ``want`` are ignored: a report may grow
    new fields, but no frozen value may change or go missing.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(want):
            if key not in got:
                out.append(f"{path}/{key}: missing")
            else:
                out += differences(got[key], want[key], f"{path}/{key}")
        return out
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += differences(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= FLOAT_TOL else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def run_cli(argv: list[str], out: Path):
    """Run one CLI command in-process; returns (exit code, stdout, report)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv + ["--out", str(out)])
    report_path = out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    if report is not None:
        report.pop("build", None)   # stamps the cwd's git state, not the program
    return code, stdout.getvalue(), report


def check_cli(ref: dict, out: Path) -> list[str]:
    """Run ``ref["argv"]`` and compare exit code, stdout and report."""
    code, stdout, report = run_cli(ref["argv"], out)
    if code != 0:
        return [f"{' '.join(ref['argv'])}: exit {code}"]
    problems = differences(json.loads(stdout), json.loads(ref["stdout"]), "stdout")
    problems += differences(report, ref["report"], "report")
    return [f"{ref['argv'][0]}: " + "; ".join(problems[:5])] if problems else []


def guarded(op_name: str, fn, *args) -> list[str]:
    """One operation: its failure messages, or the error it raised."""
    try:
        return fn(*args)
    except Exception:  # a crash is a failed operation; the run goes on
        return [f"{op_name}: raised\n{traceback.format_exc()}"]


def file_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file())


# -- span hooks: work counts measured where the work happens ---------------------


def _count(counts, key, amount):
    counts[key] = counts.get(key, 0) + amount


def _slab_states(lat) -> int:
    """Proper 3-colorings of the transfer engine's slab (d = 2 only): a
    cycle of n vertices on tori, a path of 2n+1 vertices on boxes."""
    if lat.d != 2:
        raise ValueError("slab-state count is defined for d = 2 inputs")
    if lat.kind is LatticeKind.TORUS:
        return 2 ** lat.n + 2 * (-1) ** lat.n
    return 3 * 2 ** (2 * lat.n)


def common_patches(counts):
    """Spans around the CLI's calls into the lattice and its report writer."""
    return [
        (cli, "build_lattice", "lattice.build",
         lambda lat, a, k: _count(counts, "lattice.vertices", lat.nv)),
        (cli, "write_report", "cli.write",
         lambda _r, a, k: _count(counts, "cli.out_bytes", file_bytes(Path(a[0])))),
    ]


# -- workloads -------------------------------------------------------------------


class Workload:
    """Default: run the CLI commands frozen in ``reference/<name>.json``."""

    name = ""
    lattices: list[tuple[str, int, int]] = []   # built by each set-up sample

    def __init__(self):
        self.ref = load_reference(self.name)
        self.frozen_counts = self.ref.get("counts", {})   # repeat for every seed

    @property
    def ops(self) -> int:
        """Operations per pass: each counts once in attempted/failed."""
        return len(self.ref["ops"])

    def prepare(self, seed: int) -> None:
        """Untimed: make the seeded inputs and check them."""

    def patches(self, counts: dict) -> list:
        return common_patches(counts)

    def run_pass(self, tracer, counts: dict, out: Path) -> list[str]:
        failures = []
        for i, ref in enumerate(self.ref["ops"]):
            failures += guarded(ref["argv"][0], check_cli, ref, out / f"op{i}")
        return failures


class MixingZ24(Workload):
    name = "mixing-z24"
    lattices = [("torus", 2, 4)]

    def patches(self, counts):
        def moves(P, a, k):
            _count(counts, "oracle.moves", sum(len(row) for row in P.adj))

        matrix_checks = [
            (ExactTransitionMatrix, m, "oracle.matrix", None)
            for m in ("row_sums_ok", "is_symmetric", "uniform_is_stationary", "is_connected")
        ]
        return common_patches(counts) + matrix_checks + [
            (cli, "enumerate_colorings", "oracle.enumerate",
             lambda states, a, k: _count(counts, "oracle.states", len(states))),
            (cli, "transition_matrix", "oracle.matrix", moves),
            (oracle, "orbit_representatives", "oracle.orbits",
             lambda reps, a, k: _count(counts, "oracle.orbits", len(reps))),
            (cli, "tv_mixing_time", "oracle.tv",
             lambda mix, a, k: _count(counts, "oracle.tv_matvecs",
                                      sum(mix.per_start_t_star.values()))),
            (cli, "conductance_bound", "oracle.conductance", None),
        ]


class TorpidZ44(Workload):
    """Even-phase chains on Z^4_4 through ``torpid-demo --workers 1``."""

    name = "torpid-z44"
    lattices = [("torus", 4, 4)]
    chains, sweeps = 32, 2000
    ops = 1

    def argv(self, seed: int) -> list[str]:
        return [
            "torpid-demo", "--d", "4", "--n", "4", "--chains", str(self.chains),
            "--sweeps", str(self.sweeps), "--seed", str(seed), "--workers", "1",
        ]

    def prepare(self, seed):
        # replay one chain through the public API; its CSV must match the
        # CLI's byte for byte (the CLI runs every chain the same way)
        self.seed = seed
        self.replay_stream = seed % self.chains
        lat = build_lattice(LatticeSpec(LatticeKind.TORUS, 4, 4))
        chi0 = phase_coloring(lat, Parity.EVEN, 1, 3)
        spec = ChainSpec(q=3, seed=seed, stream=self.replay_stream)
        _final, traj = run_chain(spec, chi0, self.sweeps * lat.nv, thin=lat.nv)
        self.replay_csv = traj.to_csv()

    def patches(self, counts):
        return common_patches(counts) + [
            (cli, "run_chain", "dynamics.chain",
             lambda _r, a, k: _count(counts, "dynamics.proposals", a[2])),
        ]

    def run_pass(self, tracer, counts, out):
        return guarded(self.name, self._check, out / "torpid")

    def _check(self, out):
        code, _stdout, report = run_cli(self.argv(self.seed), out)
        if code != 0:
            return [f"torpid-demo: exit {code}"]
        problems = []
        csvs = sorted(out.glob("chain*.csv"))
        files = len(list(out.iterdir()))
        if len(csvs) != self.chains or files != self.chains + 2:   # + report, meta
            problems.append(f"{files} files, {len(csvs)} chain CSVs")
        if report["start_imbalance"] != self.ref["start_imbalance"]:
            problems.append(f"start_imbalance {report['start_imbalance']}")
        replayed = [c for c in csvs if c.name.startswith(f"chain{self.replay_stream:03d}_")]
        if len(replayed) != 1 or replayed[0].read_text() != self.replay_csv:
            problems.append(f"chain {self.replay_stream} differs from its replay")
        frozen = self.ref["seeds"].get(str(self.seed))
        if frozen is not None:
            problems += differences(report, frozen["report"], "report")
            if csv_digest(csvs) != frozen["csv_sha256"]:
                problems.append("chain CSVs differ from the frozen ones")
        return ["torpid-demo: " + "; ".join(problems[:5])] if problems else []


def csv_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class PeierlsBox(Workload):
    """Cutset, flow and repair-map sweeps on boxes, plus the torus family
    sweep and the influence ratio."""

    name = "peierls-box"
    lattices = [("box", 2, 2), ("box", 2, 3), ("torus", 2, 4)]
    ops = 4
    # Seeded box(2,3) colorings are added while their repair-map images
    # (sum over directions of 2^|W^s|, which sets the flow and image work)
    # fit this budget, so every seed asks for nearly the same work.
    image_budget = 3200

    def patches(self, counts):
        return []   # the pass calls the library itself, inside its own spans

    def prepare(self, seed):
        lat = box(2, 3)
        bc = odd_boundary_pinned((0, 0))
        v0 = lat.index((0, 0))
        self.corpus, images = [], 0
        for chi in seeded_colorings(lat, bc, seed):
            if not (is_proper(chi) and satisfies_bc(chi, bc)):
                raise RuntimeError("seeded corpus holds a coloring outside C_3^O(v0)")
            region = build_box_cutset(chi, v0).region
            cost = sum(1 << boundary_layer(lat, region, s).bit_count() for s in shift_order(2))
            if images + cost <= self.image_budget:
                self.corpus.append(chi)
                images += cost
            if self.image_budget - images < 32:   # 32 = 4 directions x 2^3, the least
                break

    def run_pass(self, tracer, counts, out):
        with tracer.span("lattice.build"):
            lat22 = box(2, 2)
            tor = torus(2, 4)
        _count(counts, "lattice.vertices", lat22.nv + tor.nv)
        failures = guarded("box(2,2) sweep", self._box_sweep, tracer, counts, lat22, None)
        failures += guarded("box(2,3) sweep", self._box_sweep, tracer, counts,
                            self.corpus[0].lattice, self.corpus)
        failures += guarded("torus family sweep", self._torus_sweep, tracer, counts, tor)
        failures += guarded("influence", self._influence, tracer)
        return failures

    def _box_sweep(self, tracer, counts, lat, corpus):
        v0 = lat.index((0, 0))
        if corpus is None:
            with tracer.span("oracle.enumerate"):
                corpus = list(enumerate_colorings(lat, 3, odd_boundary_pinned((0, 0))))
            _count(counts, "oracle.states", len(corpus))
        bc = OddBoundaryZero()
        bad = []
        big = 0
        for chi in corpus:
            with tracer.span("cutset.build"):
                cut = build_box_cutset(chi, v0)
            with tracer.span("cutset.verify"):
                rep = verify_properties(cut, chi, v0)
            if not (rep.p1_anchored and rep.all_hold() and rep.size_identity):
                bad.append("cutset properties")
            big += cut.size >= 16
            approx = exact_approximation(cut)
            for s in shift_order(lat.d):
                with tracer.span("peierls.flow"):
                    total = flow_out_total(chi, cut, approx, s, explicit_cap=20)
                with tracer.span("peierls.phi"):
                    family = list(phi_family(chi, cut.region, s))
                # one span per family, not per image, keeps the tracing cheap
                with tracer.span("coloring.check"):
                    landed = all(is_proper(cp) and satisfies_bc(cp, bc) for _, cp in family)
                with tracer.span("peierls.reconstruct"):
                    back = all(
                        reconstruct(cp, cut.region, s) == chi
                        and membership_subset(chi, cp, cut.region, s) == subset
                        for subset, cp in family
                    )
                _count(counts, "peierls.flow_pairs", 1)
                _count(counts, "peierls.phi_images", len(family))
                _count(counts, "coloring.checks", len(family))
                if total.explicit is not None:
                    _count(counts, "peierls.explicit_pairs", 1)
                    _count(counts, "peierls.flow_explicit_terms", len(family))
                # |W^s| <= 6 on these boxes, so the explicit sum must have run
                if total.closed_form != 1 or total.explicit != 1:
                    bad.append(f"flow {total}")
                if not (landed and back):
                    bad.append("image round trip")
                with tracer.span("peierls.bound"):
                    bound = bound_report(chi, family[-1][1], cut, approx, s)
                if bound.status not in ("ok", "skipped"):
                    bad.append(f"bound status {bound.status}")
        _count(counts, "cutset.box_cutsets", len(corpus))
        _count(counts, "cutset.box_ge16", big)
        if corpus is self.corpus and big == 0:
            bad.append("no cutset of size >= 16 in the seeded corpus")
        return [f"box sweep on n={lat.n}: " + "; ".join(sorted(set(bad)))] if bad else []

    def _torus_sweep(self, tracer, counts, lat):
        with tracer.span("oracle.enumerate"):
            states = list(enumerate_colorings(lat, 3))
        _count(counts, "oracle.states", len(states))
        with tracer.span("cutset.family"):
            families = [select_family(chi) for chi in states]
        with tracer.span("cutset.verify"):
            reports = [verify_properties(cut, chi)
                       for chi, fam in zip(states, families) for cut in fam.cutsets]
        bad = not all(r.all_hold() and r.size_identity and r.p8a_isoperimetry is True
                      for r in reports)
        cutsets = len(reports)
        _count(counts, "cutset.families", len(states))
        _count(counts, "cutset.torus_cutsets", cutsets)
        want = self.ref["torus"]
        problems = []
        if bad:
            problems.append("a torus cutset property fails")
        if (len(states), cutsets) != (want["states"], want["cutsets"]):
            problems.append(f"{len(states)} states, {cutsets} cutsets")
        return ["torus family sweep: " + "; ".join(problems)] if problems else []

    def _influence(self, tracer):
        with tracer.span("oracle.influence"):
            rep = influence_ratio(2, 2)
        want = self.ref["influence"]
        got = {
            "pinned": rep.pinned, "total": rep.total,
            "histogram": {str(k): v for k, v in rep.histogram.items()},
        }
        ok = not differences(got, want) and rep.ratio == Fraction(want["pinned"], want["total"])
        return [] if ok else [f"influence(2, 2): {got}"]


def seeded_colorings(lat, bc, seed: int):
    """Distinct colorings satisfying ``bc``, without end: backtracking in
    vertex order with the free colors tried in a seeded random order."""
    rng = random.Random(seed)
    pins = bc.pins(lat)
    seen: set[bytes] = set()
    colors = bytearray(lat.nv)
    assigned = [False] * lat.nv

    def fill(v):
        if v == lat.nv:
            return True
        for c in (pins[v],) if v in pins else rng.sample(range(3), 3):
            if any(assigned[u] and colors[u] == c for u in lat.neighbors[v]):
                continue
            colors[v], assigned[v] = c, True
            if fill(v + 1):
                return True
            assigned[v] = False
        return False

    while True:
        assigned[:] = [False] * lat.nv
        if not fill(0):
            raise RuntimeError("boundary condition admits no coloring")
        if bytes(colors) not in seen:
            seen.add(bytes(colors))
            yield Coloring(lat, bytes(colors), 3)


class CountEntropy(Workload):
    """Transfer counts on Z^2_8 and a pinned box, then the d=2 entropy run."""

    name = "count-entropy"
    lattices = [("torus", 2, 8), ("box", 2, 3)]

    def patches(self, counts):
        return common_patches(counts) + [
            (cli, "count_colorings", "oracle.transfer",
             lambda _n, a, k: _count(counts, "oracle.transfer_slab_states",
                                     _slab_states(a[0]))),
            (cli, "topological_entropy_estimate", "entropy.strip", None),
            (cli, "max_entropy_gap_check", "entropy.gap", None),
            (entropy, "restriction_distribution", "entropy.restriction",
             lambda res, a, k: _count(counts, "entropy.ring_patterns", len(res.ring_counts))),
            (entropy, "extendable_colorings", "entropy.extendable",
             lambda ext, a, k: _count(counts, "entropy.extendable_total", ext.total)),
        ]


WORKLOADS = {w.name: w for w in (MixingZ24, TorpidZ44, PeierlsBox, CountEntropy)}
