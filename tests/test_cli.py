from __future__ import annotations

import json
from pathlib import Path

import pytest

import potts3
from potts3.cli import build_id, main


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
    assert "build" in report


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


@pytest.mark.parametrize("argv", [
    ["cutsets", "--kind", "box", "--d", "1"],
    ["flow-check", "--d", "1"],
    ["influence", "--d", "1"],
    ["cutsets", "--q", "4"],
    ["cutsets", "--kind", "torus", "--d", "1", "--n", "4", "--q", "4"],
    ["flow-check", "--q", "4"],
    ["influence", "--q", "4"],
])
def test_inputs_outside_scope_are_config_errors(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2


def test_build_id_ignores_callers_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(Path(potts3.__file__).resolve().parent)
    stamp = build_id()
    monkeypatch.chdir(tmp_path)
    assert build_id() == stamp


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


def test_cap_refusal_exit_code(tmp_path):
    # choke both routes: slab states over the state cap, enumeration over
    # the enumeration cap
    rc = run(["enumerate", "--kind", "torus", "--d", "2", "--n", "4",
              "--enum-cap", "10", "--state-cap", "1", "--out", str(tmp_path / "x")])
    assert rc == 3


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


def test_config_file_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=1\nd=2\nkind=box\nodd-boundary-zero=true\n")
    out = tmp_path / "cfg-out"
    rc = run(["enumerate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["count"] == 32

    # explicit flag beats the config file
    out2 = tmp_path / "cfg-out2"
    rc = run(["enumerate", "--config", str(cfg), "--n", "1", "--kind", "box",
              "--out", str(out2)])
    assert rc == 0


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


def test_entropy_command(tmp_path):
    out = tmp_path / "ent"
    rc = run(["entropy", "--d", "2", "--sizes", "2,3,4,5", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    assert len(rep["per_site"]) == 4


def test_sample_writes_csv(tmp_path):
    out = tmp_path / "samp"
    rc = run(["sample", "--kind", "torus", "--d", "2", "--n", "4",
              "--steps", "64", "--thin", "16", "--seed", "5", "--out", str(out)])
    assert rc == 0
    csvs = list(Path(out).glob("chain_*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "step,imbalance,zero_even,zero_odd,class"
