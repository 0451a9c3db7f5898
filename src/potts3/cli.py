"""Batch front door: deterministic experiment commands with JSON reports.

Every command writes ``report.json`` (stable byte-for-byte under replay)
plus a ``meta.json`` sidecar holding the timestamp; trajectory commands add
one CSV per chain.  Exit codes: 0 ok, 2 invalid config, 3 cap refusal,
4 property violation detected.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
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
from .errors import CapExceeded, ColoringError, LatticeError, PropertyViolation
from .lattice import LatticeKind, LatticeSpec, build_lattice, shift_order
from .oracle import (
    ENUM_CAP,
    STATE_CAP,
    conductance_bound,
    count_colorings,
    enumerate_colorings,
    influence_ratio,
    transition_matrix,
    tv_mixing_time,
)
from .peierls import (
    bound_report,
    exact_approximation,
    flow_out_total,
    flow_sets,
    membership_subset,
    phi_family,
    reconstruct,
)
from .entropy import max_entropy_gap_check, topological_entropy_estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4


def build_id() -> str:
    """Version plus the git state of the package's own checkout, not the cwd's."""
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
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"rho must be a rational like 11/50: {exc}")


def _lattice_from_args(args):
    kind = LatticeKind.TORUS if args.kind == "torus" else LatticeKind.BOX
    return build_lattice(LatticeSpec(kind, args.d, args.n))


def write_report(outdir: Path, payload: dict, csvs: dict[str, str] | None = None):
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"build": build_id(), **payload}
    (outdir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    (outdir / "meta.json").write_text(
        json.dumps({"written_at": time.time()}) + "\n"
    )
    for name, text in (csvs or {}).items():
        (outdir / name).write_text(text)


def _config_of(args, fields) -> dict:
    return {k: getattr(args, k) for k in fields if hasattr(args, k)}


def _require_q3(args):
    """Cutsets, flows and the influence ratio are the q = 3 theory."""
    if args.q != 3:
        raise ColoringError(f"{args.command} is defined for q = 3, got --q {args.q}")


# -- commands ----------------------------------------------------------------


def cmd_enumerate(args) -> int:
    lat = _lattice_from_args(args)
    bc = OddBoundaryZero() if args.odd_boundary_zero else None
    count = count_colorings(lat, args.q, bc, cap=args.enum_cap, state_cap=args.state_cap)
    write_report(Path(args.out), {
        "command": "enumerate",
        "config": _config_of(args, ("kind", "d", "n", "q", "odd_boundary_zero")),
        "count": count,
        "provenance": "exact",
    })
    print(count)
    return EXIT_OK


def cmd_mixing(args) -> int:
    lat = _lattice_from_args(args)
    if lat.kind is not LatticeKind.TORUS:
        raise LatticeError("mixing analysis runs on tori")
    states = list(enumerate_colorings(lat, args.q, cap=args.enum_cap))
    P = transition_matrix(states, lat, args.q, cap=args.state_cap)
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
    write_report(Path(args.out), payload)
    ok = all(checks.values()) and (cond.bound_holds in (True, None))
    print(json.dumps({"tau": tau, "bound": payload["bound"], "ok": ok}))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_conductance(args) -> int:
    lat = _lattice_from_args(args)
    if lat.kind is not LatticeKind.TORUS:
        raise LatticeError("conductance classes live on tori")
    states = list(enumerate_colorings(lat, args.q, cap=args.enum_cap))
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
    _require_q3(args)
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
    _require_q3(args)
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
            }, sort_keys=True))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "cutsets.jsonl").write_text("\n".join(lines) + "\n")
    write_report(out, {
        "command": "cutsets",
        "config": _config_of(args, ("kind", "d", "n")),
        "cutsets": len(lines),
        "all_properties_hold": not violation,
        "provenance": "exact",
    })
    print(len(lines))
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_flow_check(args) -> int:
    _require_q3(args)
    lat = _lattice_from_args(args)
    if lat.kind is not LatticeKind.BOX:
        raise LatticeError("flow-check runs on boxes")
    v0 = lat.index((0,) * lat.d)
    lines = []
    bound_rows = ["chi_id,s,nu,bound,ratio,nu_le_bound"]
    all_ok = True
    for chi_id, chi in enumerate(
        enumerate_colorings(lat, 3, odd_boundary_pinned((0,) * lat.d), cap=args.enum_cap)
    ):
        cut = build_box_cutset(chi, v0)
        approx = exact_approximation(cut)
        for s in shift_order(lat.d):
            total = flow_out_total(chi, cut, approx, s, explicit_cap=args.explicit_cap)
            layer, c_set, d_set = flow_sets(cut, approx, s)
            roundtrip = True
            last_image = None
            for _subset, chi_p in phi_family(chi, cut.region, s):
                if reconstruct(chi_p, cut.region, s) != chi:
                    roundtrip = False
                    break
                membership_subset(chi, chi_p, cut.region, s)
                last_image = chi_p
            closed_ok = total.closed_form == 1 and total.agrees in (True, None)
            all_ok &= closed_ok and roundtrip
            lines.append(json.dumps({
                "chi_id": chi_id,
                "s": s,
                "W_s": layer.bit_count(),
                "C": c_set.bit_count(),
                "D": d_set.bit_count(),
                "nu_total": "1/1" if total.explicit is None else
                            f"{total.explicit.numerator}/{total.explicit.denominator}",
                "closed_form_ok": closed_ok,
                "roundtrip_ok": roundtrip,
            }, sort_keys=True))
            if last_image is not None:
                rep = bound_report(chi, last_image, cut, approx, s)
                if rep.status == "ok":
                    bound_rows.append(
                        f"{chi_id},{s},{float(rep.nu):.6g},{rep.b_value:.6g},"
                        f"{rep.ratio:.6g},{rep.nu_le_b}"
                    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "flow.jsonl").write_text("\n".join(lines) + "\n")
    (out / "bounds.csv").write_text("\n".join(bound_rows) + "\n")
    write_report(out, {
        "command": "flow-check",
        "config": _config_of(args, ("kind", "d", "n")),
        "pairs": len(lines),
        "all_ok": all_ok,
        "provenance": "exact",
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
    }, csvs={name: traj.to_csv()})
    print(name)
    return EXIT_OK


def _torpid_chain(task):
    """Worker: run one chain; results merge by stream index."""
    d, n, seed, stream, sweeps, rho = task
    lat = build_lattice(LatticeSpec(LatticeKind.TORUS, d, n))
    chi0 = phase_coloring(lat, Parity.EVEN, 1, 3)
    spec = ChainSpec(q=3, seed=seed, stream=stream)
    final, traj = run_chain(spec, chi0, sweeps * lat.nv, thin=lat.nv, rho=rho)
    start_sign = 1 if traj.points[0].imbalance > 0 else -1
    flipped = any(p.imbalance * start_sign < 0 for p in traj.points)
    return stream, traj.chi0_id, traj.to_csv(), imbalance(final), flipped


def cmd_torpid_demo(args) -> int:
    lat = _lattice_from_args(args)
    if lat.kind is not LatticeKind.TORUS:
        raise LatticeError("torpid-demo runs on tori")
    chi0 = phase_coloring(lat, Parity.EVEN, 1, 3)
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
    results.sort()  # by stream index: merge order-independent of scheduling
    csvs = {}
    finals = []
    flips = 0
    for stream, chi0_id, csv_text, final_imb, flipped in results:
        csvs[f"chain{stream:03d}_seed{args.seed}_{chi0_id[:8]}.csv"] = csv_text
        finals.append(final_imb)
        flips += flipped
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
    write_report(Path(args.out), payload, csvs=csvs)
    print(json.dumps({"sign_flip_fraction": payload["sign_flip_fraction"]}))
    return EXIT_OK


def cmd_entropy(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
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
    if args.m is not None:
        gap = max_entropy_gap_check(args.m, args.n_window, d=args.d)
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
    ok = payload.get("gap_check", {}).get("max_prob_bound_holds", True) and \
        payload.get("gap_check", {}).get("ring_mass_bound_holds", True)
    return EXIT_OK if ok else EXIT_VIOLATION


# -- argument plumbing ---------------------------------------------------------


def _add_common(p, torus_default=False):
    p.add_argument("--kind", choices=("box", "torus"),
                   default="torus" if torus_default else "box")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=4 if torus_default else 2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--rho", type=parse_rho, default=DEFAULT_RHO)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/latest")
    p.add_argument("--enum-cap", type=int, default=ENUM_CAP, dest="enum_cap")
    p.add_argument("--state-cap", type=int, default=STATE_CAP, dest="state_cap")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="worker pool size for parallel sweeps")
    p.add_argument("--config", default=None, help="key=value defaults file; flags win")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="potts3", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count colorings under a boundary condition")
    _add_common(p)
    p.add_argument("--odd-boundary-zero", action="store_true", dest="odd_boundary_zero")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mixing", help="exact mixing time + conductance on a torus")
    _add_common(p, torus_default=True)
    p.add_argument("--starts", default="orbits", help='"orbits" or "all"')
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("conductance", help="imbalance classes and the bottleneck bound")
    _add_common(p, torus_default=True)
    p.set_defaults(func=cmd_conductance)

    p = sub.add_parser("influence", help="|C_3^O(v0)| / |C_3^O| with size histogram")
    _add_common(p)
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("cutsets", help="dump cutsets with verified properties")
    _add_common(p)
    p.set_defaults(func=cmd_cutsets)

    p = sub.add_parser("flow-check", help="flow conservation + reconstruction sweep")
    _add_common(p)
    p.add_argument("--explicit-cap", type=int, default=20, dest="explicit_cap")
    p.set_defaults(func=cmd_flow_check)

    p = sub.add_parser("sample", help="run one Metropolis chain, emit trajectory CSV")
    _add_common(p, torus_default=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--thin", type=int, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("torpid-demo", help="many chains from the even phase; summary")
    _add_common(p, torus_default=True)
    p.add_argument("--chains", type=int, default=32)
    p.add_argument("--sweeps", type=int, default=4000)
    p.set_defaults(func=cmd_torpid_demo)

    p = sub.add_parser("entropy", help="per-site log-count sequence and gap checks")
    _add_common(p)
    p.add_argument("--sizes", default="2,3,4,5,6,7,8")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n-window", type=int, default=1, dest="n_window")
    p.set_defaults(func=cmd_entropy)

    return ap


def _apply_config_file(ap, argv):
    # first pass: find --config; load key=value pairs as defaults (flags win)
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    path = Path(known.config)
    if not path.exists():
        raise FileNotFoundError(f"config file {path} not found")
    defaults = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        defaults[key.strip().replace("-", "_")] = value.strip()
    for action in ap._subparsers._group_actions[0].choices.values():  # noqa: SLF001
        coerced = {}
        for key, value in defaults.items():
            for act in action._actions:  # noqa: SLF001
                if act.dest == key:
                    if act.type is not None:
                        coerced[key] = act.type(value)
                    elif isinstance(act.const, bool) or isinstance(act.default, bool):
                        coerced[key] = value.lower() in ("1", "true", "yes")
                    else:
                        coerced[key] = value
        action.set_defaults(**coerced)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = make_parser()
    try:
        _apply_config_file(ap, argv)
        try:
            args = ap.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on bad flags
            return int(exc.code or 0)
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: cap refusal: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PropertyViolation as exc:
        print(f"error: property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
