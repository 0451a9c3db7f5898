"""Batch front door: deterministic experiment commands with JSON reports.

Every command writes ``report.json`` (stable byte-for-byte under replay)
plus a ``meta.json`` sidecar holding the timestamp and the build stamp (and,
for ``mixing``, the state, move and orbit counts, the share of each cap
used, each start's crossing time and lumped block count, the distinct
float walks stepped, and the starts decided by the exact fallback; for
``torpid-demo``, each chain's acceptance share and first sweep with a sign
flip); trajectory commands add one CSV per chain.  Exit codes: 0 ok, 2 invalid
config, 3 cap refusal, 4 property violation detected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache, lru_cache
from pathlib import Path

from . import __version__, peierls
from .coloring import (
    DEFAULT_RHO,
    OddBoundaryZero,
    Parity,
    imbalance,
    odd_boundary_pinned,
    phase_coloring,
)
from .cutset import build_box_cutset, select_family, verify_properties
from .dynamics import ChainSpec, run_chain
from .errors import CapExceeded, ColoringError, PropertyViolation
from .lattice import LatticeKind, LatticeSpec, build_lattice, shift_order
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
from .peierls import (
    bound_report,
    exact_approximation,
    flow_out_total,
    flow_sets,
)
from .entropy import max_entropy_gap_check, topological_entropy_estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4

# cutsets, flows and the influence ratio are the q = 3 theory: --q takes only 3
Q3_COMMANDS = ("influence", "cutsets", "flow-check")


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


def _config_of(args, fields) -> dict:
    return {k: getattr(args, k) for k in fields}


# -- commands ----------------------------------------------------------------


def cmd_enumerate(args) -> int:
    lat = _lattice_from_args(args)
    bc = OddBoundaryZero() if args.odd_boundary_zero else None
    stats = {}
    count = count_colorings(lat, args.q, bc, state_cap=args.state_cap, stats=stats)
    write_report(Path(args.out), {
        "command": "enumerate",
        "config": _config_of(args, ("kind", "d", "n", "q", "odd_boundary_zero")),
        "count": count,
        "provenance": "exact",
    }, meta=stats | {"cap_use": {"state": stats["peak_states"] / args.state_cap}})
    print(count)
    return EXIT_OK


def _torus_states(args, cap):
    """The torus and its proper colorings, refused past ``cap``; having none
    is a config error."""
    lat = _lattice_from_args(args)
    states = list(enumerate_colorings(lat, args.q, cap=cap))
    if not states:
        raise ColoringError(f"{lat} has no proper {args.q}-coloring")
    return lat, states


def cmd_mixing(args) -> int:
    lat, states = _torus_states(args, args.state_cap)
    P = transition_matrix(states, lat, args.q)
    checks = {
        "stochastic": P.row_sums_ok(),
        "symmetric": P.is_symmetric(),
        "uniform_stationary": P.uniform_is_stationary(),
        "connected": P.is_connected(),
    }
    # a disconnected chain never mixes: no TV crossing to look for
    mix = tv_mixing_time(P, starts=args.starts) if checks["connected"] else None
    tau = mix.tau if mix else None
    cond = conductance_bound(states, args.rho, tau=tau)
    payload = {
        "command": "mixing",
        "config": _config_of(args, ("kind", "d", "n", "q", "starts")) | {"rho": str(args.rho)},
        "n_states": len(states),
        "checks": checks,
        "tau_exact": tau,
        "t_star": mix.t_star if mix else None,
        "worst_start": mix.worst_start if mix else None,
        "classes": {
            "even_heavy": cond.n_even_heavy,
            "balanced": cond.n_balanced,
            "odd_heavy": cond.n_odd_heavy,
        },
        "pi_A": rat(cond.pi_a),
        "pi_M": rat(cond.pi_m),
        "bound": rat(cond.bound) if cond.bound is not None else None,
        "bound_holds": cond.bound_holds,
        "provenance": "exact",
    }
    meta = {
        "states": len(states),
        "moves": len(P.cols),
        "cap_use": {"state": len(states) / args.state_cap},
    }
    if mix:
        orbits = (mix.starts_used if args.starts == "orbits"
                  else orbit_representatives(P.states, lat, args.q))
        meta["cap_use"]["iter"] = mix.t_star / ITER_CAP
        meta |= {
            "orbits": len(orbits),
            "per_start_t_star": mix.per_start_t_star,
            "exact_fallbacks": mix.exact_fallbacks,
            "lumped_states": mix.lumped_states,
            "float_walks": mix.float_walks,
        }
    write_report(Path(args.out), payload, meta=meta)
    ok = all(checks.values()) and (cond.bound_holds in (True, None))
    print(json.dumps({"tau": tau, "bound": payload["bound"], "ok": ok}))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_conductance(args) -> int:
    _, states = _torus_states(args, args.enum_cap)
    cond = conductance_bound(states, args.rho)
    payload = {
        "command": "conductance",
        "config": _config_of(args, ("kind", "d", "n", "q")) | {"rho": str(args.rho)},
        "n_states": len(states),
        "pi_A": rat(cond.pi_a),
        "pi_M": rat(cond.pi_m),
        "bound": rat(cond.bound) if cond.bound is not None else None,
        "unbounded": cond.unbounded,
        "provenance": "exact",
    }
    write_report(Path(args.out), payload)
    print(json.dumps(payload["bound"]))
    return EXIT_OK


def cmd_influence(args) -> int:
    rep = influence_ratio(args.d, args.n, cap=args.enum_cap)
    payload = {
        "command": "influence",
        "config": _config_of(args, ("d", "n")),
        "v0": list(rep.v0),
        "total": rep.total,
        "pinned": rep.pinned,
        "ratio": rat(rep.ratio),
        "histogram": {str(k): v for k, v in rep.histogram.items()},
        "per_size_ratio": {str(k): rat(v) for k, v in rep.per_size_ratio.items()},
        "provenance": "exact",
    }
    write_report(Path(args.out), payload)
    print(json.dumps(payload["ratio"]))
    return EXIT_OK


def cmd_cutsets(args) -> int:
    lat = _lattice_from_args(args)
    if lat.kind is LatticeKind.TORUS:
        anchor, bc = None, None
    else:
        origin = (0,) * lat.d
        anchor, bc = lat.index(origin), odd_boundary_pinned(origin)
    lines = []
    violation = False
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
                "parity": cut.seed_parity.value,
                "interior_size": cut.interior.bit_count(),
                "properties": props,
            }, sort_keys=True) + "\n")
    write_report(Path(args.out), {
        "command": "cutsets",
        "config": _config_of(args, ("kind", "d", "n")),
        "cutsets": len(lines),
        "all_properties_hold": not violation,
        "provenance": "exact",
    }, files={"cutsets.jsonl": "".join(lines)})
    print(len(lines))
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_flow_check(args) -> int:
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
            layer, c_set, d_set = flow_sets(cut, approx, s)
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
            # the last image of the family, the one with S = W^s
            image = peierls._repair(chi, cut.region, s, layer, layer)
            rep = bound_report(chi, image, cut, approx, s)
            if rep.status == "ok":
                bound_rows.append(
                    f"{chi_id},{s},{float(rep.nu):.6g},{rep.b_value:.6g},"
                    f"{rep.ratio:.6g},{rep.nu_le_b}\n"
                )
    write_report(Path(args.out), {
        "command": "flow-check",
        "config": _config_of(args, ("kind", "d", "n")),
        "pairs": len(lines),
        "all_ok": all_ok,
        "provenance": "exact",
    }, files={
        "flow.jsonl": "".join(lines),
        "bounds.csv": "".join(bound_rows),
    })
    print(len(lines))
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_sample(args) -> int:
    lat = _lattice_from_args(args)
    spec = ChainSpec(q=args.q, seed=args.seed, stream=0)
    chi0 = phase_coloring(lat, Parity.EVEN, 1, args.q)
    final, traj = run_chain(spec, chi0, args.steps, thin=args.thin, rho=args.rho)
    name = f"chain_seed{args.seed}_{traj.chi0_id[:12]}.csv"
    write_report(Path(args.out), {
        "command": "sample",
        "config": _config_of(args, ("kind", "d", "n", "q", "seed", "steps", "thin")),
        "final_imbalance": imbalance(final),
        "records": len(traj.points),
        "provenance": "simulated",
    }, files={name: traj.to_csv()})
    print(name)
    return EXIT_OK


@lru_cache(maxsize=None)
def _even_start(lat):
    """The even-phase start of every torpid chain on ``lat``."""
    return phase_coloring(lat, Parity.EVEN, 1, 3)


def _torpid_chain(task):
    """Worker: run one chain; results merge by stream index.  The lattice and
    its start are built once per process: forked workers inherit both."""
    d, n, seed, stream, sweeps, rho = task
    lat = build_lattice(LatticeSpec(LatticeKind.TORUS, d, n))
    spec = ChainSpec(q=3, seed=seed, stream=stream)
    final, traj = run_chain(spec, _even_start(lat), sweeps * lat.nv, thin=lat.nv, rho=rho)
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


def cmd_torpid_demo(args) -> int:
    chi0 = _even_start(_lattice_from_args(args))
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
    results.sort(key=lambda r: r[0])  # by stream index: merge order-independent of scheduling
    csvs = {}
    finals = []
    telemetry = []
    for stream, chi0_id, csv_text, final_imb, chain in results:
        csvs[f"chain{stream:03d}_seed{args.seed}_{chi0_id[:8]}.csv"] = csv_text
        finals.append(final_imb)
        telemetry.append(chain)
    flips = sum(chain["first_flip_sweep"] is not None for chain in telemetry)
    finals_sorted = sorted(finals)
    qtile = lambda f: finals_sorted[min(len(finals_sorted) - 1, int(f * len(finals_sorted)))]
    payload = {
        "command": "torpid-demo",
        "config": _config_of(args, ("kind", "d", "n", "chains", "sweeps", "seed"))
        | {"rho": str(args.rho)},
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
    write_report(Path(args.out), payload, files=csvs, meta={"chains": telemetry})
    print(json.dumps({"sign_flip_fraction": payload["sign_flip_fraction"]}))
    return EXIT_OK


def cmd_entropy(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
    if args.m is not None and args.d != 2:
        raise ColoringError(f"restriction distribution is implemented for d=2, not d={args.d}")
    topo = topological_entropy_estimate(args.d, sizes)
    payload = {
        "command": "entropy",
        "config": _config_of(args, ("d", "sizes", "m", "n_window")),
        "per_site": topo.per_site,
        "aitken_passes": topo.passes,
        "estimate": topo.estimate,
        "spread": topo.spread,
        "provenance": "exact counts, float extrapolation",
    }
    ok = True
    if args.m is not None:
        gap = max_entropy_gap_check(args.m, args.n_window)
        # the float entropy floor is left out: the exact max-prob bound implies it
        ok = (gap.max_prob_bound_holds and gap.ring_mass_bound_holds
              and gap.support_extendable and gap.n_depends_on_ring_only)
        payload["gap_check"] = {
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
    write_report(Path(args.out), payload)
    print(json.dumps({"estimate": topo.estimate, "spread": topo.spread}))
    return EXIT_OK if ok else EXIT_VIOLATION


# -- argument plumbing ---------------------------------------------------------


def _add_command(sub, name, func, help, *flags, torus=False, kinds=("box", "torus")):
    """Declare a command with exactly the flags its ``cmd_*`` reads, plus
    --out and --config.  ``torus`` picks the torus defaults of --kind and
    --n; ``kinds`` are the lattice kinds the command runs on."""
    declared = {
        "kind": dict(choices=kinds, default="torus" if torus else "box"),
        "d": dict(type=int, default=2),
        "n": dict(type=int, default=4 if torus else 2),
        "q": dict(type=positive_int, default=3, choices=(3,) if name in Q3_COMMANDS else None),
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
    # no abbreviations: a flag or config key is read only under its full name
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in flags:
        p.add_argument(f"--{flag}", **declared[flag])
    p.add_argument("--out", default="runs/latest")
    p.add_argument("--config", default=None, help="key=value lines read as flags; flags win")
    p.set_defaults(func=func)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="potts3", description=__doc__)
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
                 "|C_3^O(v0)| / |C_3^O| with size histogram", "d", "n", "q", "enum-cap")
    _add_command(sub, "cutsets", cmd_cutsets, "dump cutsets with verified properties",
                 "kind", "d", "n", "q", "enum-cap")
    _add_command(sub, "flow-check", cmd_flow_check, "flow conservation + reconstruction sweep",
                 "kind", "d", "n", "q", "enum-cap", kinds=("box",))
    _add_command(sub, "sample", cmd_sample, "run one Metropolis chain, emit trajectory CSV",
                 "kind", "d", "n", "q", "rho", "seed", "steps", "thin", torus=True)
    _add_command(sub, "torpid-demo", cmd_torpid_demo, "many chains from the even phase; summary",
                 "kind", "d", "n", "rho", "seed", "workers", "chains", "sweeps",
                 torus=True, kinds=("torus",))
    _add_command(sub, "entropy", cmd_entropy, "per-site log-count sequence and gap checks",
                 "d", "sizes", "m", "n-window")
    return ap


def _with_config(ap, args, argv: list[str]) -> list[str]:
    """``argv`` with each ``key=value`` line of ``args.config`` inserted as
    ``--key=value`` right after the command name, so the flags given on the
    command line come later and win.  A switch takes true/1/yes or
    false/0/no."""
    defaults = vars(ap.parse_args([args.command]))
    tokens = []
    for line in Path(args.config).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if not isinstance(defaults.get(key.replace("-", "_")), bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise ValueError(f"{key} is a switch: true or false, got {value!r}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = make_parser()
    try:
        try:
            args = ap.parse_args(argv)
            if args.config:
                args = ap.parse_args(_with_config(ap, args, argv))
        except SystemExit as exc:  # argparse exits 2 on bad flags
            return int(exc.code or 0)
        return args.func(args)
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
