from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

import potts3
from potts3 import cli, entropy, peierls, topological_entropy_estimate
from potts3.cli import build_id, main, make_parser, write_report


def run(args):
    return main(args)


def test_invalid_rho_is_config_error(tmp_path, capsys):
    rc = run(["mixing", "--rho", "not-a-number", "--out", str(tmp_path)])
    assert rc == 2


def test_mixing_small_ring(tmp_path):
    out = tmp_path / "mix"
    rc = run(["mixing", "--kind", "torus", "--d", "1", "--n", "4",
              "--rho", "11/50", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] == {
        "stochastic": True, "symmetric": True,
        "uniform_stationary": True, "connected": True,
    }
    assert report["n_states"] == 18
    assert report["tau_exact"] >= 0
    assert report["bound_holds"] in (True, None)
    assert "build" not in report
    meta = json.loads((out / "meta.json").read_text())
    assert "build" in meta
    assert meta["exact_fallbacks"] == []
    assert max(meta["per_start_t_star"].values()) == report["t_star"]
    assert (meta["states"], meta["moves"]) == (18, 48)
    assert meta["orbits"] == len(meta["per_start_t_star"])
    assert meta["lumped_states"].keys() == meta["per_start_t_star"].keys()
    assert all(1 <= k <= 18 for k in meta["lumped_states"].values())
    assert meta["cap_use"] == {"state": 18 / 20000, "iter": report["t_star"] / 100000}
    # the literal sweep reports the same orbit count and a block count per
    # state, and its starts share the orbit representatives' walks
    rc = run(["mixing", "--kind", "torus", "--d", "1", "--n", "4", "--starts", "all",
              "--out", str(tmp_path / "all")])
    assert rc == 0
    every = json.loads((tmp_path / "all" / "meta.json").read_text())
    assert every["orbits"] == meta["orbits"]
    assert len(every["lumped_states"]) == 18
    assert every["float_walks"] == meta["float_walks"] == 2


def test_mixing_disconnected_chain_is_a_violation(tmp_path):
    # two states on the 4-ring with q = 2 and no legal move between them
    rc = run(["mixing", "--kind", "torus", "--d", "1", "--n", "4", "--q", "2",
              "--out", str(tmp_path)])
    assert rc == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["checks"]["connected"] is False
    assert report["tau_exact"] is None
    assert report["t_star"] is None
    assert report["worst_start"] is None
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert not {"per_start_t_star", "lumped_states", "float_walks"} & meta.keys()
    assert (meta["states"], meta["moves"]) == (2, 0)


@pytest.mark.parametrize("argv", [
    ["cutsets", "--kind", "box", "--d", "1"],
    ["flow-check", "--d", "1"],
    ["influence", "--d", "1"],
    ["cutsets", "--q", "4"],
    ["cutsets", "--kind", "torus", "--d", "1", "--n", "4", "--q", "4"],
    ["flow-check", "--q", "4"],
    ["influence", "--q", "4"],
    ["torpid-demo", "--chains", "0", "--sweeps", "1", "--workers", "1"],
    ["torpid-demo", "--q", "4"],
    ["influence", "--kind", "torus"],
    ["entropy", "--n", "5"],
    ["mixing", "--kind", "box"],
    ["flow-check", "--kind", "torus"],
    ["mixing", "--starts", "some"],
    ["sample", "--thin", "0", "--steps", "10"],
    ["mixing", "--kind", "torus", "--d", "1", "--n", "4", "--q", "1"],
    ["mixing", "--kind", "torus", "--d", "1", "--n", "4", "--q", "0"],
    ["conductance", "--d", "1", "--n", "4", "--q", "1"],
    ["enumerate", "--q", "-1"],
    ["entropy", "--d", "4", "--sizes", "1,1,1"],
    ["entropy", "--d", "3", "--sizes", "1,1,1", "--m", "2"],
    ["entropy", "--d", "3", "--m", "3"],
    ["entropy", "--d", "2", "--sizes", "2,3,4", "--m", "2", "--n-window", "2"],
    ["entropy", "--d", "2", "--sizes", "0,1,2"],
    ["entropy", "--d", "2", "--sizes", "1,1,1"],
    ["entropy", "--d", "2", "--sizes", "3,2,1"],
    ["enumerate", "--d", "1", "--n", "1", "--state-cap", "0"],
    ["conductance", "--d", "1", "--n", "4", "--enum-cap", "0"],
    ["influence", "--d", "1", "--n", "1"],
    ["torpid-demo", "--workers", "0"],
    ["torpid-demo", "--workers", "-2"],
    ["mixing", "--rho", "2"],
    ["conductance", "--rho", "0"],
    ["sample", "--rho", "1"],
    ["torpid-demo", "--rho", "7"],
])
def test_inputs_outside_scope_are_config_errors(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2


# the flags each command reads, besides --out and --config
FLAGS = {
    "enumerate": {"kind", "d", "n", "q", "state_cap", "odd_boundary_zero"},
    "mixing": {"kind", "d", "n", "q", "rho", "state_cap", "starts"},
    "conductance": {"kind", "d", "n", "q", "rho", "enum_cap"},
    "influence": {"d", "n", "q", "enum_cap"},
    "cutsets": {"kind", "d", "n", "q", "enum_cap"},
    "flow-check": {"kind", "d", "n", "q", "enum_cap"},
    "sample": {"kind", "d", "n", "q", "rho", "seed", "steps", "thin"},
    "torpid-demo": {"kind", "d", "n", "rho", "seed", "workers", "chains", "sweeps"},
    "entropy": {"d", "sizes", "m", "n_window"},
}


def test_each_command_declares_only_the_flags_it_reads():
    ap = make_parser()
    for cmd, flags in FLAGS.items():
        got = set(vars(ap.parse_args([cmd]))) - {"command", "func"}
        assert got == flags | {"out", "config"}, cmd


@pytest.mark.parametrize("command,lines", [
    ("conductance", "rho=abc\n"),
    ("enumerate", "kind=cube\n"),
    ("enumerate", "seed=3\n"),
    ("enumerate", "odd-boundary-zero=maybe\n"),
])
def test_bad_config_lines_are_config_errors(tmp_path, command, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_is_a_config_error(tmp_path):
    rc = run(["enumerate", "--config", str(tmp_path / "absent.cfg"),
              "--out", str(tmp_path / "o")])
    assert rc == 2


def test_directory_as_config_file_is_a_config_error(tmp_path, capsys):
    rc = run(["enumerate", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err


def test_existing_file_as_out_dir_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = run(["enumerate", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err


def test_failed_write_keeps_previous_report(tmp_path, monkeypatch):
    write_report(tmp_path, {"run": 1})
    before = (tmp_path / "report.json").read_bytes()
    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError):
        write_report(tmp_path, {"run": 2})
    monkeypatch.undo()
    assert (tmp_path / "report.json").read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["meta.json", "report.json"]


def test_build_id_ignores_callers_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(potts3.__file__).resolve().parent)
    build_id.cache_clear()
    stamp = build_id()
    monkeypatch.chdir(tmp_path)
    build_id.cache_clear()
    assert build_id() == stamp


def test_two_runs_ask_git_once(tmp_path, monkeypatch):
    gits = []
    real_run = cli.subprocess.run
    monkeypatch.setattr(cli.subprocess, "run",
                        lambda cmd, **kw: gits.append(cmd) or real_run(cmd, **kw))
    build_id.cache_clear()
    for name in ("a", "b"):
        assert run(["enumerate", "--kind", "box", "--d", "2", "--n", "1",
                    "--out", str(tmp_path / name)]) == 0
    assert [cmd[0] for cmd in gits] == ["git"]


def test_entropy_wide_strip_refuses_before_listing(tmp_path, monkeypatch):
    # a width-14 strip has 3·2^13 = 24,576 states, past STATE_CAP; the count
    # is closed-form, so no strip (not even the narrow ones) is listed
    def no_listing(*args, **kwargs):
        raise AssertionError("a strip was listed")

    monkeypatch.setattr(entropy, "_assignments", no_listing)
    rc = run(["entropy", "--d", "2", "--sizes", "2,3,14", "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "report.json").exists()
    # width 13 (12,288 states) is the widest that passes the cap
    monkeypatch.setattr(entropy, "_strip_per_site", lambda w: 1 / w)
    assert topological_entropy_estimate(2, [11, 12, 13]).per_site == [1 / 11, 1 / 12, 1 / 13]


def test_conductance_z24(tmp_path, capsys):
    rc = run(["conductance", "--d", "2", "--n", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rational"] == "329/676"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_states"] == 2970
    assert report["pi_A"]["rational"] == "658/1485"
    assert report["pi_M"]["rational"] == "169/1485"
    assert report["bound"]["rational"] == "329/676"
    assert report["unbounded"] is False


def test_flow_check_box(tmp_path):
    out = tmp_path / "flow"
    rc = run(["flow-check", "--kind", "box", "--d", "2", "--n", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "flow.jsonl").read_text().strip().split("\n")
    assert len(lines) == 32 * 4
    for line in lines:
        rec = json.loads(line)
        assert rec["closed_form_ok"] and rec["roundtrip_ok"]
        assert rec["C"] + rec["D"] == rec["W_s"]
    bounds = (out / "bounds.csv").read_text().strip().split("\n")
    assert bounds[0] == "chi_id,s,nu,bound,ratio,nu_le_bound"
    assert len(bounds) == 32 * 4 + 1


def test_flow_check_box_is_frozen_and_builds_each_image_once(tmp_path, monkeypatch):
    calls = {"_repair": 0, "reconstruct": 0}
    for name in calls:
        def counted(*args, _real=getattr(peierls, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(peierls, name, counted)
    rc = run(["flow-check", "--kind", "box", "--d", "2", "--n", "2", "--out", str(tmp_path)])
    assert rc == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("report.json", "flow.jsonl", "bounds.csv")}
    assert digests == {
        "report.json": "3bfcc42c5565d43e866a31224d7f7749516d97292bdc5c6990855a7029878428",
        "flow.jsonl": "800bfeb63d08fd68286b1db56a14556dd236b4ff1179f9956d82009ca64db4a9",
        "bounds.csv": "0d2790f608303d71101a3df5c2b9ea4fb3671888f122256e5c1070096db0358b",
    }
    # the 128 (chi, s) pairs hold 1024 images: each is built and reconstructed
    # once by the explicit flow sum; the bound's image adds one repair per
    # pair, and the bound reads its nu without rebuilding that image
    assert calls == {"_repair": 1024 + 128, "reconstruct": 1024}


def test_flow_check_image_that_does_not_reconstruct_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(peierls, "reconstruct", lambda chi_p, region, s: chi_p)
    rc = run(["flow-check", "--kind", "box", "--d", "2", "--n", "2", "--out", str(tmp_path)])
    assert rc == 4
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv,name,key", [
    (["flow-check", "--kind", "box", "--d", "3", "--n", "1"], "flow.jsonl", "pairs"),
    (["cutsets", "--kind", "box", "--d", "2", "--n", "1"], "cutsets.jsonl", "cutsets"),
])
def test_no_records_write_an_empty_jsonl(tmp_path, argv, name, key):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())[key] == 0
    assert (tmp_path / name).read_bytes() == b""


def test_cutsets_box_and_torus(tmp_path):
    out = tmp_path / "cuts"
    rc = run(["cutsets", "--kind", "box", "--d", "2", "--n", "2", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_properties_hold"]

    out2 = tmp_path / "cuts-t"
    rc = run(["cutsets", "--kind", "torus", "--d", "1", "--n", "4", "--out", str(out2)])
    assert rc == 0


def test_enumerate_and_influence(tmp_path):
    out = tmp_path / "enum"
    rc = run(["enumerate", "--kind", "box", "--d", "2", "--n", "1",
              "--odd-boundary-zero", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["count"] == 32

    out2 = tmp_path / "infl"
    rc = run(["influence", "--d", "2", "--n", "1", "--out", str(out2)])
    assert rc == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["ratio"]["rational"] == "0/1"


def test_enumerate_meta_reports_peak_states(tmp_path, capsys):
    # the box's frontier peaks at 4 states; Z^2_6's largest slab seed holds
    # 107, past its 66 slab colorings; neither touches report.json or stdout
    for argv, count, peak in [
        (["--kind", "box", "--d", "2", "--n", "1", "--odd-boundary-zero"], 32, 4),
        (["--kind", "torus", "--d", "2", "--n", "6", "--state-cap", "1000"], 16448400, 107),
    ]:
        out = tmp_path / argv[1]
        assert run(["enumerate", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{count}\n"
        assert json.loads((out / "report.json").read_text()).keys() == \
            {"command", "config", "count", "provenance"}
        meta = json.loads((out / "meta.json").read_text())
        assert meta.keys() == {"written_at", "build", "peak_states", "cap_use"}
        cap = 1000 if "--state-cap" in argv else 20000
        assert (meta["peak_states"], meta["cap_use"]) == (peak, {"state": peak / cap})


def test_cap_refusal_exit_code(tmp_path, capsys):
    # slab colorings over the state cap, which the refusal names
    rc = run(["enumerate", "--kind", "torus", "--d", "2", "--n", "4",
              "--state-cap", "1", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "state cap 1" in capsys.readouterr().err
    # 22,784 frontier states over the default state cap: refused at once,
    # with no enumeration of its ~1.5e19 colorings
    start = time.perf_counter()
    rc = run(["enumerate", "--kind", "box", "--d", "3", "--n", "2",
              "--odd-boundary-zero", "--out", str(tmp_path / "y")])
    assert rc == 3
    assert time.perf_counter() - start < 1.0


def test_slab_orbit_keys_past_int64_exit_3(tmp_path, capsys):
    # the 64-site slab's orbit keys would need 2^64: a refusal, not a crash
    rc = run(["enumerate", "--kind", "torus", "--d", "2", "--n", "64", "--q", "2",
              "--out", str(tmp_path)])
    assert rc == 3
    assert "2^63" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mixing", "--d", "2", "--n", "6"],
    ["conductance", "--d", "2", "--n", "6"],
    ["cutsets", "--kind", "torus", "--d", "2", "--n", "6"],
    ["influence", "--d", "2", "--n", "4"],
])
def test_listing_past_its_cap_is_refused_before_it_starts(tmp_path, argv):
    # each has more colorings than its cap (16,448,400 on Z^2_6); the exact
    # count refuses before the first coloring is listed
    start = time.perf_counter()
    assert run(argv + ["--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 2.0


def test_replay_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["torpid-demo", "--kind", "torus", "--d", "2", "--n", "4",
            "--chains", "2", "--sweeps", "3", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    for f in sorted(a.glob("chain*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_worker_pool_result_independent_of_pool_size(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w2"
    args = ["torpid-demo", "--kind", "torus", "--d", "2", "--n", "4",
            "--chains", "4", "--sweeps", "3", "--seed", "11"]
    assert run(args + ["--workers", "1", "--out", str(a)]) == 0
    assert run(args + ["--workers", "2", "--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    for f in sorted(a.glob("chain*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()
    meta_a, meta_b = (json.loads((o / "meta.json").read_text()) for o in (a, b))
    assert meta_a["chains"] == meta_b["chains"]


@pytest.mark.parametrize("sweeps", [0, 40])
def test_torpid_demo_chain_telemetry(tmp_path, sweeps):
    from potts3 import ChainSpec, phase_coloring, run_chain, torus

    assert run(["torpid-demo", "--d", "2", "--n", "4", "--chains", "3", "--sweeps",
                str(sweeps), "--seed", "5", "--workers", "1", "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 3 + 2   # no file beyond the CSVs, report, meta
    report = json.loads((tmp_path / "report.json").read_text())
    chains = json.loads((tmp_path / "meta.json").read_text())["chains"]
    assert [c["stream"] for c in chains] == [0, 1, 2]
    flipped = [c["first_flip_sweep"] is not None for c in chains]
    assert report["sign_flip_fraction"] == sum(flipped) / 3
    lat = torus(2, 4)
    for c in chains:
        _final, traj = run_chain(ChainSpec(seed=5, stream=c["stream"]), phase_coloring(lat),
                                 sweeps * lat.nv)
        flips = [p.step // lat.nv for p in traj.points if p.imbalance < 0]
        assert c["first_flip_sweep"] == (flips[0] if flips else None)
        assert c["acceptance"] == (traj.accepted / (sweeps * lat.nv) if sweeps else None)
    if sweeps:
        assert all(0 < c["acceptance"] < 1 for c in chains) and any(flipped)


def test_config_file_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=1\nd=2\nkind=box\nodd-boundary-zero=true\n")
    out = tmp_path / "cfg-out"
    rc = run(["enumerate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["count"] == 32

    # explicit flag beats the config file
    out2 = tmp_path / "cfg-out2"
    rc = run(["enumerate", "--config", str(cfg), "--n", "2", "--out", str(out2)])
    assert rc == 0
    assert json.loads((out2 / "report.json").read_text())["count"] == 13888


def test_mixing_z24_full(tmp_path):
    # the flagship run: exact tau and the conductance bound on Z^2_4
    out = tmp_path / "mix24"
    rc = run(["mixing", "--kind", "torus", "--d", "2", "--n", "4",
              "--q", "3", "--rho", "11/50", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["tau_exact"] == 492
    assert rep["bound"]["rational"] == "329/676"
    assert rep["bound_holds"] is True
    assert rep["pi_A"]["rational"] == "658/1485"
    assert all(rep["checks"].values())
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["states"], meta["moves"], meta["orbits"]) == (2970, 21888, 22)
    assert sum(meta["lumped_states"].values()) == 11559
    assert meta["float_walks"] == 16
    assert meta["cap_use"] == {"state": 2970 / 20000, "iter": 493 / 100000}


def test_entropy_command(tmp_path):
    out = tmp_path / "ent"
    rc = run(["entropy", "--d", "2", "--sizes", "2,3,4,5", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["per_site"]) == 4


@pytest.mark.parametrize("check", ["support_extendable", "n_depends_on_ring_only"])
def test_entropy_failed_structural_check_exits_4(tmp_path, monkeypatch, check):
    real = cli.max_entropy_gap_check

    def broken(m, n):
        gap = real(m, n)
        setattr(gap, check, False)
        return gap

    monkeypatch.setattr(cli, "max_entropy_gap_check", broken)
    out = tmp_path / "ent"
    rc = run(["entropy", "--d", "2", "--sizes", "2,3,4", "--m", "2", "--out", str(out)])
    assert rc == 4
    rep = json.loads((out / "report.json").read_text())
    assert rep["gap_check"]["max_prob_bound_holds"] and rep["gap_check"]["ring_mass_bound_holds"]


def test_sample_writes_csv(tmp_path):
    out = tmp_path / "samp"
    rc = run(["sample", "--kind", "torus", "--d", "2", "--n", "4",
              "--steps", "64", "--thin", "16", "--seed", "5", "--out", str(out)])
    assert rc == 0
    csvs = list(Path(out).glob("chain_*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "step,imbalance,zero_even,zero_odd,class"
