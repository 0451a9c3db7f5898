"""Batch front door: deterministic experiment commands with JSON reports.

``main`` is the one place that parses and finishes.  ``CMD @FILE`` reads
FILE as one flag token per line (``--n=2``), and later tokens win.  Each
``cmd_*`` returns an ``Outcome``; ``main`` writes its ``report.json``
(stable byte-for-byte under replay; its ``config`` is every declared flag
but the caps, ``--workers`` and ``--out``), its sidecar files and a
``meta.json`` with the timestamp, the build stamp and the command's meta
fields (for ``mixing``: state, move and orbit counts, cap use, the
imbalance histogram, each start's crossing time and lumped block count,
the float walks stepped and the exact fallbacks; for ``conductance``: the
imbalance histogram; for ``torpid-demo``: each chain's acceptance share
and first sign-flip sweep) and ``time_s`` (each ``stage``'s seconds), then
prints its one stdout line.  Exit codes: 0 ok, 2 invalid config, 3 cap
refusal, 4 property violation detected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .coloring import (
    DEFAULT_RHO,
    OddBoundaryZero,
    imbalance,
    odd_boundary_pinned,
    phase_coloring,
)
from .cutset import build_box_cutset, check_family_scope, select_family, verify_properties
from .dynamics import ChainSpec, run_chain
from .errors import CapExceeded, ColoringError, PropertyViolation
from .lattice import LatticeKind, LatticeSpec, Parity, build_lattice, shift_order
from .oracle import (
    ENUM_CAP,
    ITER_CAP,
    STATE_CAP,
    conductance_bound,
    count_colorings,
    enumerate_colorings,
    influence_ratio,
    orbit_representatives,
    transition_matrix,
    tv_mixing_time,
)
from .peierls import bound_report, exact_approximation, flow_out_total
from .entropy import max_entropy_gap_check, topological_entropy_estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4


@cache
def build_id() -> str:
    """Version plus the git state of the package's own checkout, not the
    cwd's; asked of git once per process."""
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        git = desc.stdout.strip() if desc.returncode == 0 else ""
    except Exception:
        git = ""
    return f"potts3-{__version__}" + (f"+{git}" if git else "")


def rat(fr) -> dict:
    fr = Fraction(fr)
    return {"rational": f"{fr.numerator}/{fr.denominator}", "approx": float(fr)}


def parse_rho(text: str) -> Fraction:
    """A rational rho strictly between 0 and 1, the imbalance classes' scope."""
    try:
        if "/" in text:
            num, den = text.split("/")
            rho = Fraction(int(num), int(den))
        else:
            rho = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"rho must be a rational like 11/50: {exc}")
    if not 0 < rho < 1:
        raise argparse.ArgumentTypeError(f"rho must lie strictly between 0 and 1, got {rho}")
    return rho


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# stage name -> seconds spent in it by the running command; main clears it
_stages: dict[str, float] = {}


@contextmanager
def stage(name: str):
    """Add the time spent in the block (or, as a decorator, the call) to stage ``name``."""
    start = time.perf_counter()
    yield
    _stages[name] = _stages.get(name, 0.0) + time.perf_counter() - start


def _lattice_from_args(args):
    kind = LatticeKind.TORUS if args.kind == "torus" else LatticeKind.BOX
    return build_lattice(LatticeSpec(kind, args.d, args.n))


def write_report(outdir: Path, payload: dict, files: dict[str, str] | None = None,
                 meta: dict | None = None):
    """Write ``files`` (name -> text), then report.json and meta.json (the
    timestamp and build stamp plus ``meta``).  Each goes to a temporary
    sibling first and is moved into place, so a failed write leaves the
    previous file whole."""
    outdir.mkdir(parents=True, exist_ok=True)
    texts = {
        **(files or {}),
        "report.json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
        "meta.json": json.dumps(
            {"written_at": time.time(), "build": build_id(), **(meta or {})}
        ) + "\n",
    }
    for name, text in texts.items():
        tmp = outdir / f".{name}.tmp"
        try:
            tmp.write_text(text)
            os.replace(tmp, outdir / name)
        finally:
            tmp.unlink(missing_ok=True)


# parsed names a report leaves out of its config: the caps and the pool size
# only bound the work, --out places it, argparse adds the rest
UNRECORDED = frozenset({"state_cap", "enum_cap", "workers", "out", "command", "func"})


def _header(args) -> dict:
    """A report's ``command`` and its ``config``: every flag the command
    declares except ``UNRECORDED``, with rho as its rational string."""
    config = {k: str(v) if isinstance(v, Fraction) else v
              for k, v in vars(args).items() if k not in UNRECORDED}
    return {"command": args.command, "config": config}


class Outcome(NamedTuple):
    """A command's report fields, stdout line, sidecar files (name -> text),
    meta fields and whether every property it checked held."""

    fields: dict
    stdout: object
    files: dict[str, str] | None = None
    meta: dict | None = None
    ok: bool = True


# -- commands ----------------------------------------------------------------


@stage("count")
def cmd_enumerate(args) -> Outcome:
    lat = _lattice_from_args(args)
    bc = OddBoundaryZero() if args.odd_boundary_zero else None
    stats = {}
    count = count_colorings(lat, args.q, bc, state_cap=args.state_cap, stats=stats)
    return Outcome({"count": count, "provenance": "exact"}, count,
                   meta=stats | {"cap_use": {"state": stats["peak_states"] / args.state_cap}})


def _torus_states(args, cap):
    """The torus, its proper colorings as color bytes (no Coloring object outlives the call),
    refused past ``cap`` (none is a config error), and their imbalance histogram, ascending."""
    lat = _lattice_from_args(args)
    found = list(enumerate_colorings(lat, args.q, cap=cap))
    if not found:
        raise ColoringError(f"{lat} has no proper {args.q}-coloring")
    states = [chi.colors for chi in found]
    zeros = np.frombuffer(b"".join(states), dtype=np.uint8).reshape(len(states), lat.nv) == 0
    imbalances, counts = np.unique(zeros @ (1 - 2 * np.array(lat.parities)), return_counts=True)
    return lat, states, dict(zip(imbalances.tolist(), counts.tolist()))


def _bound_fields(states, cond) -> dict:
    """The fields ``mixing`` and ``conductance`` share: the state count and
    the bottleneck bound π(A)/(8π(M)) with its parts."""
    return {
        "n_states": len(states),
        "pi_A": rat(cond.pi_a),
        "pi_M": rat(cond.pi_m),
        "bound": rat(cond.bound) if cond.bound is not None else None,
        "provenance": "exact",
    }


def cmd_mixing(args) -> Outcome:
    with stage("list"):
        lat, states, hist = _torus_states(args, args.state_cap)
    with stage("matrix"):
        P = transition_matrix(states, lat, args.q)
    with stage("checks"):
        checks = {
            "stochastic": P.row_sums_ok(),
            "symmetric": P.is_symmetric(),
            "uniform_stationary": P.uniform_is_stationary(),
            "connected": P.is_connected(),
        }
    with stage("tv"):
        # a disconnected chain never mixes: no TV crossing to look for
        mix = tv_mixing_time(P, starts=args.starts) if checks["connected"] else None
    with stage("bound"):
        tau = mix.tau if mix else None
        cond = conductance_bound(hist, lat, args.rho, tau=tau)
        fields = _bound_fields(states, cond) | {
            "checks": checks,
            "tau_exact": tau,
            "t_star": mix.t_star if mix else None,
            "worst_start": mix.worst_start if mix else None,
            "classes": {
                "even_heavy": cond.n_even_heavy,
                "balanced": cond.n_balanced,
                "odd_heavy": cond.n_odd_heavy,
            },
            "bound_holds": cond.bound_holds,
        }
        meta = {
            "states": len(states),
            "moves": len(P.cols),
            "cap_use": {"state": len(states) / args.state_cap},
            "imbalance_histogram": hist,
        }
        if mix:
            orbits = (len(mix.per_start_t_star) if args.starts == "orbits"
                      else len(orbit_representatives(P.states, lat, args.q)))
            meta["cap_use"]["iter"] = mix.t_star / ITER_CAP
            meta |= {
                "orbits": orbits,
                "per_start_t_star": mix.per_start_t_star,
                "exact_fallbacks": mix.exact_fallbacks,
                "lumped_states": mix.lumped_states,
                "float_walks": mix.float_walks,
            }
        ok = all(checks.values()) and (cond.bound_holds in (True, None))
        line = json.dumps({"tau": tau, "bound": fields["bound"], "ok": ok})
        return Outcome(fields, line, meta=meta, ok=ok)


@stage("bound")
def cmd_conductance(args) -> Outcome:
    lat, states, hist = _torus_states(args, args.enum_cap)
    cond = conductance_bound(hist, lat, args.rho)
    fields = _bound_fields(states, cond) | {"unbounded": cond.unbounded}
    meta = {"imbalance_histogram": hist, "cap_use": {"enum": len(states) / args.enum_cap}}
    return Outcome(fields, json.dumps(fields["bound"]), meta=meta)


@stage("ratio")
def cmd_influence(args) -> Outcome:
    rep = influence_ratio(args.d, args.n, cap=args.enum_cap)
    fields = {
        "v0": list(rep.v0),
        "total": rep.total,
        "pinned": rep.pinned,
        "ratio": rat(rep.ratio),
        "histogram": {str(k): v for k, v in rep.histogram.items()},
        "per_size_ratio": {str(k): rat(v) for k, v in rep.per_size_ratio.items()},
        "provenance": "exact",
    }
    return Outcome(fields, json.dumps(fields["ratio"]),
                   meta={"cap_use": {"enum": rep.pinned / args.enum_cap}})


@stage("sweep")
def cmd_cutsets(args) -> Outcome:
    lat = _lattice_from_args(args)
    if lat.kind is LatticeKind.TORUS:
        check_family_scope(lat)   # before any listing: out of scope exits 2, never 3
        anchor, bc = None, None
    else:
        origin = (0,) * lat.d
        anchor, bc = lat.index(origin), odd_boundary_pinned(origin)
    lines = []
    violation = False
    chi_id = -1   # the last listed coloring's index
    for chi_id, chi in enumerate(enumerate_colorings(lat, 3, bc, cap=args.enum_cap)):
        cuts = select_family(chi).cutsets if anchor is None else [build_box_cutset(chi, anchor)]
        for cut in cuts:
            repo = verify_properties(cut, chi, anchor)
            w_even, w_odd = cut.region_parts()
            props = {
                "p1": repo.p1_anchored,
                "p2": repo.p2_boundary_parity,
                "p3": repo.p3_zero_free_moat,
                "p4": repo.p4_interior_zero_support,
                "p5": repo.p5_region_closure,
                "identity": repo.size_identity,
                "p8a": repo.p8a_isoperimetry,
            }
            violation |= not repo.all_hold()
            lines.append(json.dumps({
                "chi_id": chi_id,
                "size": cut.size,
                "W": cut.region.bit_count(),
                "W_E": w_even.bit_count(),
                "W_O": w_odd.bit_count(),
                "parity": cut.seed_parity.name.lower(),
                "interior_size": cut.region.bit_count(),   # int γ = W
                "properties": props,
            }, sort_keys=True) + "\n")
    return Outcome({
        "cutsets": len(lines),
        "all_properties_hold": not violation,
        "provenance": "exact",
    }, len(lines), files={"cutsets.jsonl": "".join(lines)},
        meta={"cap_use": {"enum": (chi_id + 1) / args.enum_cap}}, ok=not violation)


@stage("sweep")
def cmd_flow_check(args) -> Outcome:
    lat = _lattice_from_args(args)
    v0 = lat.index((0,) * lat.d)
    lines = []
    bound_rows = ["chi_id,s,nu,bound,ratio,nu_le_bound\n"]
    all_ok = True
    for chi_id, chi in enumerate(
        enumerate_colorings(lat, 3, odd_boundary_pinned((0,) * lat.d), cap=args.enum_cap)
    ):
        cut = build_box_cutset(chi, v0)
        approx = exact_approximation(cut)
        for s in shift_order(lat.d):
            # builds every image once and raises PropertyViolation unless
            # each reconstructs to chi, so the round trip holds past this line
            total = flow_out_total(chi, cut, approx, s, explicit_cap=math.inf)
            layer, c_set, d_set = total.sets
            closed_ok = total.closed_form == 1 and total.agrees
            all_ok &= closed_ok
            lines.append(json.dumps({
                "chi_id": chi_id,
                "s": s,
                "W_s": layer.bit_count(),
                "C": c_set.bit_count(),
                "D": d_set.bit_count(),
                "nu_total": f"{total.explicit.numerator}/{total.explicit.denominator}",
                "closed_form_ok": closed_ok,
                "roundtrip_ok": True,
            }, sort_keys=True) + "\n")
            rep = bound_report(chi, total.image, cut, approx, s)
            if rep.status == "ok":
                bound_rows.append(
                    f"{chi_id},{s},{float(rep.nu):.6g},{rep.b_value:.6g},"
                    f"{rep.ratio:.6g},{rep.nu_le_b}\n"
                )
    return Outcome({
        "pairs": len(lines),
        "all_ok": all_ok,
        "provenance": "exact",
    }, len(lines), files={
        "flow.jsonl": "".join(lines),
        "bounds.csv": "".join(bound_rows),
    }, meta={"cap_use": {"enum": len(lines) / (2 * lat.d) / args.enum_cap}}, ok=all_ok)


@stage("chain")
def cmd_sample(args) -> Outcome:
    lat = _lattice_from_args(args)
    spec = ChainSpec(q=args.q, seed=args.seed, stream=0)
    chi0 = phase_coloring(lat, Parity.EVEN, 1, args.q)
    final, traj = run_chain(spec, chi0, args.steps, thin=args.thin, rho=args.rho)
    name = f"chain_seed{args.seed}_{traj.chi0_id[:12]}.csv"
    return Outcome({
        "final_imbalance": imbalance(final),
        "records": len(traj.points),
        "provenance": "simulated",
    }, name, files={name: traj.to_csv()})


def _torpid_chain(task):
    """Worker: run one chain from the even phase; ``pool.map`` and the
    serial loop both return the results in stream order.  ``build_lattice``
    builds the lattice once per process, and forked workers inherit it."""
    d, n, seed, stream, sweeps, rho = task
    lat = build_lattice(LatticeSpec(LatticeKind.TORUS, d, n))
    spec = ChainSpec(q=3, seed=seed, stream=stream)
    chi0 = phase_coloring(lat, Parity.EVEN, 1, 3)
    final, traj = run_chain(spec, chi0, sweeps * lat.nv, thin=lat.nv, rho=rho)
    start_sign = 1 if traj.points[0].imbalance > 0 else -1
    first_flip = next(
        (p.step // lat.nv for p in traj.points if p.imbalance * start_sign < 0), None
    )
    telemetry = {
        "stream": stream,
        "acceptance": traj.accepted / (sweeps * lat.nv) if sweeps else None,
        "first_flip_sweep": first_flip,
    }
    return stream, traj.chi0_id, traj.to_csv(), imbalance(final), telemetry


def cmd_torpid_demo(args) -> Outcome:
    with stage("chains"):
        chi0 = phase_coloring(_lattice_from_args(args), Parity.EVEN, 1, 3)
        tasks = [
            (args.d, args.n, args.seed, chain, args.sweeps, args.rho)
            for chain in range(args.chains)
        ]
        if args.workers > 1:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(min(args.workers, args.chains)) as pool:
                results = pool.map(_torpid_chain, tasks)
        else:
            results = [_torpid_chain(t) for t in tasks]
    with stage("summary"):
        csvs = {f"chain{stream:03d}_seed{args.seed}_{chi0_id[:8]}.csv": csv_text
                for stream, chi0_id, csv_text, _, _ in results}
        finals_sorted = sorted(final_imb for _, _, _, final_imb, _ in results)
        telemetry = [chain for *_, chain in results]
        flips = sum(chain["first_flip_sweep"] is not None for chain in telemetry)
        qtile = lambda f: finals_sorted[min(len(finals_sorted) - 1, int(f * len(finals_sorted)))]
        fields = {
            "sign_flip_fraction": flips / args.chains,
            "imbalance_quantiles": {
                "min": finals_sorted[0],
                "q25": qtile(0.25),
                "median": qtile(0.5),
                "q75": qtile(0.75),
                "max": finals_sorted[-1],
            },
            "start_imbalance": imbalance(chi0),
            "provenance": "simulated",
        }
        line = json.dumps({"sign_flip_fraction": fields["sign_flip_fraction"]})
        return Outcome(fields, line, files=csvs, meta={"chains": telemetry})


def cmd_entropy(args) -> Outcome:
    with stage("strip"):
        sizes = [int(x) for x in args.sizes.split(",")]
        if args.m is not None and args.d != 2:
            raise ColoringError(f"restriction distribution needs d=2, not d={args.d}")
        topo = topological_entropy_estimate(args.d, sizes)
        fields = {
            "per_site": topo.per_site,
            "aitken_passes": topo.passes,
            "estimate": topo.estimate,
            "spread": topo.spread,
            "provenance": "exact counts, float extrapolation",
        }
    with stage("gap"):
        ok = True
        if args.m is not None:
            gap = max_entropy_gap_check(args.m, args.n_window)
            # the float entropy floor is left out: the exact max-prob bound implies it
            ok = (gap.max_prob_bound_holds and gap.ring_mass_bound_holds
                  and gap.support_extendable and gap.n_depends_on_ring_only)
            fields["gap_check"] = {
                "m": gap.m,
                "n": gap.n,
                "boundary": gap.boundary_size,
                "c3_prime": gap.c3_prime,
                "pinned_ring_count": gap.pinned_ring_count,
                "entropy_nats": gap.entropy_nats,
                "entropy_floor": gap.entropy_floor,
                "entropy_floor_holds": gap.entropy_floor_holds,
                "max_prob": rat(gap.max_prob),
                "max_prob_bound": rat(gap.max_prob_bound),
                "max_prob_bound_holds": gap.max_prob_bound_holds,
                "ring_mass_bound_holds": gap.ring_mass_bound_holds,
            }
    return Outcome(fields, json.dumps({"estimate": topo.estimate, "spread": topo.spread}), ok=ok)


# -- argument plumbing ---------------------------------------------------------


def _add_command(sub, name, func, help, *flags, torus=False, kinds=("box", "torus")):
    """Declare a command with exactly the flags its ``cmd_*`` reads, plus
    --out.  ``torus`` picks the torus defaults of --kind and --n; ``kinds``
    are the lattice kinds the command runs on."""
    declared = {
        "kind": dict(choices=kinds, default="torus" if torus else "box"),
        "d": dict(type=int, default=2),
        "n": dict(type=int, default=4 if torus else 2),
        "q": dict(type=positive_int, default=3),
        "rho": dict(type=parse_rho, default=DEFAULT_RHO),
        "seed": dict(type=int, default=0),
        "enum-cap": dict(type=positive_int, default=ENUM_CAP),
        "state-cap": dict(type=positive_int, default=STATE_CAP),
        "workers": dict(type=positive_int, default=os.cpu_count() or 1,
                        help="worker pool size for parallel sweeps"),
        "odd-boundary-zero": dict(action="store_true"),
        "starts": dict(choices=("orbits", "all"), default="orbits"),
        "steps": dict(type=int, default=10000),
        "thin": dict(type=positive_int, default=None),
        "chains": dict(type=positive_int, default=32),
        "sweeps": dict(type=int, default=4000),
        "sizes": dict(default="2,3,4,5,6,7,8"),
        "m": dict(type=int, default=None),
        "n-window": dict(type=int, default=1),
    }
    # no abbreviations: a flag, in argv or in an @FILE, is read only under its full name
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in flags:
        p.add_argument(f"--{flag}", **declared[flag])
    p.add_argument("--out", default="runs/latest")
    p.set_defaults(func=func)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="potts3", description=__doc__, fromfile_prefix_chars="@")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_command(sub, "enumerate", cmd_enumerate, "count colorings under a boundary condition",
                 "kind", "d", "n", "q", "state-cap", "odd-boundary-zero")
    _add_command(sub, "mixing", cmd_mixing, "exact mixing time + conductance on a torus",
                 "kind", "d", "n", "q", "rho", "state-cap", "starts",
                 torus=True, kinds=("torus",))
    _add_command(sub, "conductance", cmd_conductance,
                 "imbalance classes and the bottleneck bound",
                 "kind", "d", "n", "q", "rho", "enum-cap", torus=True, kinds=("torus",))
    _add_command(sub, "influence", cmd_influence,
                 "|C_3^O(v0)| / |C_3^O| with size histogram", "d", "n", "enum-cap")
    _add_command(sub, "cutsets", cmd_cutsets, "dump cutsets with verified properties",
                 "kind", "d", "n", "enum-cap")
    _add_command(sub, "flow-check", cmd_flow_check, "flow conservation + reconstruction sweep",
                 "kind", "d", "n", "enum-cap", kinds=("box",))
    _add_command(sub, "sample", cmd_sample, "run one Metropolis chain, emit trajectory CSV",
                 "kind", "d", "n", "q", "rho", "seed", "steps", "thin", torus=True)
    _add_command(sub, "torpid-demo", cmd_torpid_demo, "many chains from the even phase; summary",
                 "kind", "d", "n", "rho", "seed", "workers", "chains", "sweeps",
                 torus=True, kinds=("torus",))
    _add_command(sub, "entropy", cmd_entropy, "per-site log-count sequence and gap checks",
                 "d", "sizes", "m", "n-window")
    return ap


def main(argv=None) -> int:
    """Parse, run one command, then write its report, print its line and
    map its checks to an exit code; a command that raises writes nothing."""
    try:
        try:
            args = make_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on bad flags and unreadable @FILEs
            return int(exc.code or 0)
        _stages.clear()
        with stage("command"):
            outcome = args.func(args)
        meta = (outcome.meta or {}) | {"time_s": dict(_stages)}
        write_report(Path(args.out), _header(args) | outcome.fields, outcome.files, meta)
        print(outcome.stdout)
        return EXIT_OK if outcome.ok else EXIT_VIOLATION
    except CapExceeded as exc:
        print(f"error: cap refusal: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PropertyViolation as exc:
        print(f"error: property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
