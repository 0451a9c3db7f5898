from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

import potts3
from potts3 import cli, cutset, entropy, peierls
from potts3.cli import build_id, main, make_parser, write_report
from potts3.entropy import topological_entropy_estimate

from claims import torus_imbalance_histogram


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


@pytest.mark.parametrize("command,code", [("mixing", 4), ("conductance", 0)])
def test_listing_a_long_ring_keeps_the_exit_contract(tmp_path, capsys, command, code):
    # the 1000-ring's two q = 2 colorings are listed by a backtracker with no
    # recursion depth; they are frozen, so mixing finds the chain disconnected
    assert run([command, "--d", "1", "--n", "1000", "--q", "2", "--out", str(tmp_path)]) == code
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["n_states"], report["bound"]) == (2, None)


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
    ["entropy", "--d", "3", "--sizes", "1,2,3"],
    ["enumerate", "--kind", "torus", "--odd-boundary-zero"],
    # Z^d_2 is d-regular, so no cutset family can meet the size identity;
    # it is refused before the listing's cap is checked
    ["cutsets", "--kind", "torus", "--d", "3", "--n", "2"],
    ["cutsets", "--kind", "torus", "--d", "3", "--n", "2", "--enum-cap", "1"],
    ["entropy", "--d", "2", "--m", "2", "--n-window", "-1"],
    ["entropy", "--sizes", "2,a,4"],
    ["entropy", "--sizes", ""],
])
def test_inputs_outside_scope_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    # one error: line, after argparse's usage lines for a flag it refuses
    err = capsys.readouterr().err
    assert sum("error: " in line for line in err.splitlines()) == 1 and "Traceback" not in err


def test_a_defect_is_not_a_config_error(tmp_path, monkeypatch):
    # exit 2 means the input: a bare ValueError from the program raises
    def defect(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_enumerate", defect)
    with pytest.raises(ValueError, match="boom"):
        run(["enumerate", "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


# the flags each command reads, besides --out
FLAGS = {
    "enumerate": {"kind", "d", "n", "q", "state_cap", "odd_boundary_zero"},
    "mixing": {"kind", "d", "n", "q", "rho", "state_cap", "starts"},
    "conductance": {"kind", "d", "n", "q", "rho", "enum_cap"},
    "influence": {"d", "n", "enum_cap"},
    "cutsets": {"kind", "d", "n", "enum_cap"},
    "flow-check": {"kind", "d", "n", "enum_cap"},
    "sample": {"kind", "d", "n", "q", "rho", "seed", "steps", "thin"},
    "torpid-demo": {"kind", "d", "n", "rho", "seed", "workers", "chains", "sweeps"},
    "entropy": {"d", "sizes", "m", "n_window"},
}


def test_each_command_declares_only_the_flags_it_reads():
    ap = make_parser()
    for cmd, flags in FLAGS.items():
        got = set(vars(ap.parse_args([cmd]))) - {"command", "func"}
        assert got == flags | {"out"}, cmd


TINY = {
    "enumerate": ["--kind", "box", "--d", "1", "--n", "1"],
    "mixing": ["--d", "1", "--n", "4"],
    "conductance": ["--d", "1", "--n", "4"],
    "influence": ["--d", "2", "--n", "2"],
    "cutsets": ["--d", "2", "--n", "2"],
    "flow-check": ["--d", "2", "--n", "2"],
    "sample": ["--steps", "8"],
    "torpid-demo": ["--chains", "1", "--sweeps", "1", "--workers", "1"],
    "entropy": ["--d", "1", "--sizes", "1,2,3"],
}


def _report_bytes(out, cmd, *extra):
    assert run([cmd, *TINY[cmd], *extra, "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


def test_report_config_is_every_declared_flag_but_the_bounds(tmp_path):
    for cmd, flags in FLAGS.items():
        report = json.loads(_report_bytes(tmp_path / cmd, cmd))
        assert report["command"] == cmd
        assert set(report["config"]) == flags - {"state_cap", "enum_cap", "workers"}, cmd
    sample = json.loads((tmp_path / "sample" / "report.json").read_text())
    assert sample["config"]["rho"] == "11/50"
    # the caps only bound the work: raising one past its default keeps every byte
    for cmd, cap in (("enumerate", "state_cap"), ("conductance", "enum_cap")):
        raised = str(2 * vars(make_parser().parse_args([cmd]))[cap])
        got = _report_bytes(tmp_path / f"{cmd}-raised", cmd, "--" + cap.replace("_", "-"), raised)
        assert got == (tmp_path / cmd / "report.json").read_bytes(), cmd


# sha256 of each command's TINY run: its stdout, report.json and every
# sidecar file; meta.json holds a timestamp, so only its keys are frozen
FROZEN = {
    "enumerate": ({
        "stdout": "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164",
        "report.json": "191cdcab3c72335bd8c977bf635b03cd4f81e3735e9254ef83de8d45f53b747d",
    }, {"build", "cap_use", "peak_states", "time_s", "written_at"}),
    "mixing": ({
        "stdout": "cb0504d8558ab9af1c79168313e6d0f99a23297fc63012913698df1872edf9da",
        "report.json": "aa9830a3809f57f2c0b53a91f7e7fc86c95ff19470af86a1a61f9a85657b4702",
    }, {"build", "cap_use", "exact_fallbacks", "float_walks", "imbalance_histogram",
        "lumped_states", "moves", "orbits", "per_start_t_star", "states", "time_s",
        "written_at"}),
    "conductance": ({
        "stdout": "f51e9945d8b9d54cab4229e9c89a541ac2641e487655bbe1824efc7b4396087d",
        "report.json": "604fa93c65de7b9c81657d35d89e874d4eb483ecc6a2c7bc0ba712bf93271811",
    }, {"build", "cap_use", "imbalance_histogram", "time_s", "written_at"}),
    "influence": ({
        "stdout": "10482b8baaf4c20b77faa83b6df1623204a73b968687726d936de926e71ab9c1",
        "report.json": "9b47c6bea8df67ec43be904a53cb3cec69695b15269969a7790f0a664cd4bba9",
    }, {"build", "cap_use", "time_s", "written_at"}),
    "cutsets": ({
        "stdout": "2115cdb6bfcfb008eb2bab2bb79347cb064a48e4e7c4115ccbe4469c787bb6c4",
        "cutsets.jsonl": "f542f81dba28c17b10428435e9c798e01c8632b8228149dc25d05d58ebf63b1d",
        "report.json": "122d31fb74abf160d3dc7a1336d15823f967539aae1304dc1f0029ab06830c24",
    }, {"build", "cap_use", "time_s", "written_at"}),
    "flow-check": ({
        "stdout": "56292515f7d3a7110811eb8de26b3f75f82a0766aa5a1fd66ebcfcb84fe6d5ff",
        "bounds.csv": "0d2790f608303d71101a3df5c2b9ea4fb3671888f122256e5c1070096db0358b",
        "flow.jsonl": "800bfeb63d08fd68286b1db56a14556dd236b4ff1179f9956d82009ca64db4a9",
        "report.json": "3bfcc42c5565d43e866a31224d7f7749516d97292bdc5c6990855a7029878428",
    }, {"build", "cap_use", "time_s", "written_at"}),
    "sample": ({
        "stdout": "ca4fe36b21e33547bf2b7633f952631f0c1f8f9629de132c936b03fb56ed59b2",
        "chain_seed0_000100010100.csv": "51d1636ec0bc004a0da16e2d630386920ad072440645c0b0fa9206013b13ee3e",
        "report.json": "59e59130164a52e11e1055f2fd7cbed071964c34c70bda4058466c4be31392a2",
    }, {"build", "time_s", "written_at"}),
    "torpid-demo": ({
        "stdout": "40137cb3e3fca1e0c33d2e15a97b7c964f65161013a54f8c81dca2d7b8f38c73",
        "chain000_seed0_00010001.csv": "2ebbdc1e3c6305afe1582ace0485d5eaa34954f639b272ea3de3fe3428a2384c",
        "report.json": "4e56414a4a223a514b1598878a1bc7497d5fa03e0d81ce04894cd7692a62efb4",
    }, {"build", "chains", "time_s", "written_at"}),
    "entropy": ({
        "stdout": "912fb3baea94440f422707a18c7ee683c4df85de068a067dd6b457a500f4516d",
        "report.json": "51d085dccbdc5198722b2a1e361b0814de849396101916c9020e2d124a28f123",
    }, {"build", "time_s", "written_at"}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_command_keeps_its_bytes(tmp_path, capsys):
    for cmd, (digests, meta_keys) in FROZEN.items():
        out = tmp_path / cmd
        assert run([cmd, *TINY[cmd], "--out", str(out)]) == 0, cmd
        got = {"stdout": _sha(capsys.readouterr().out.encode())}
        got |= {f.name: _sha(f.read_bytes()) for f in out.iterdir() if f.name != "meta.json"}
        assert got == digests, cmd
        assert json.loads((out / "meta.json").read_text()).keys() == meta_keys, cmd


# each command's stages, in the order it runs them; time_s adds "command"
STAGES = {
    "enumerate": ["count"],
    "mixing": ["list", "matrix", "checks", "tv", "bound"],
    "conductance": ["bound"],
    "influence": ["ratio"],
    "cutsets": ["sweep"],
    "flow-check": ["sweep"],
    "sample": ["chain"],
    "torpid-demo": ["chains", "summary"],
    "entropy": ["strip", "gap"],
}


def test_every_command_times_its_stages(tmp_path, capsys):
    # one process runs them all, so a stage left over from an earlier call
    # would show; a phase a run skips (TINY entropy has no --m) still has its stage
    for cmd, stages in STAGES.items():
        out = tmp_path / cmd
        assert run([cmd, *TINY[cmd], "--out", str(out)]) == 0, cmd
        time_s = json.loads((out / "meta.json").read_text())["time_s"]
        assert list(time_s) == stages + ["command"], cmd
        assert 0 <= sum(time_s[s] for s in stages) <= time_s["command"], cmd


def test_listing_commands_report_their_enum_cap_use(tmp_path, capsys):
    # the colorings each command listed, read from its report: box(2, 2)
    # has one cutset and 2d = 4 flow pairs per coloring
    listed = {
        "conductance": lambda r: r["n_states"],
        "influence": lambda r: r["pinned"],
        "cutsets": lambda r: r["cutsets"],
        "flow-check": lambda r: r["pairs"] // 4,
    }
    for cmd, count in listed.items():
        out = tmp_path / cmd
        assert run([cmd, *TINY[cmd], "--enum-cap", "1000", "--out", str(out)]) == 0, cmd
        report = json.loads((out / "report.json").read_text())
        meta = json.loads((out / "meta.json").read_text())
        assert meta["cap_use"] == {"enum": count(report) / 1000} != {"enum": 0}, cmd
    # on a torus a coloring has several cutsets, and each coloring counts once
    out = tmp_path / "torus"
    assert run(["cutsets", "--kind", "torus", "--d", "2", "--n", "4", "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["cap_use"] == {"enum": 2970 / 10_000_000}


def _flag_file(tmp_path, text):
    path = tmp_path / "run.args"
    path.write_text(text)
    return f"@{path}"


@pytest.mark.parametrize("command,lines", [
    # key=value is not a flag token
    ("conductance", "rho=abc\n"),
    ("enumerate", "kind=cube\n"),
    ("enumerate", "seed=3\n"),
    ("enumerate", "odd-boundary-zero=maybe\n"),
    # a bad value, a flag the command does not read, a switch given a value,
    # two tokens on one line
    ("conductance", "--rho=abc\n"),
    ("enumerate", "--kind=cube\n"),
    ("enumerate", "--seed=3\n"),
    ("enumerate", "--odd-boundary-zero=maybe\n"),
    ("enumerate", "--n 2\n"),
])
def test_bad_config_lines_are_config_errors(tmp_path, capsys, command, lines):
    out = tmp_path / "o"
    assert run([command, _flag_file(tmp_path, lines), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the file was read, and argparse names the bad token
    last = err.splitlines()[-1]
    assert ": error: " in last and lines.split("=")[0].strip("-\n") in last and "@" not in last
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = run(["enumerate", f"@{tmp_path / 'absent.args'}", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "No such file" in err and "Traceback" not in err


def test_directory_as_config_file_is_a_config_error(tmp_path, capsys):
    rc = run(["enumerate", f"@{tmp_path}", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    # argparse's usage line, then its one error line
    assert err.startswith("usage: potts3 ") and "Traceback" not in err
    assert err.splitlines()[-1].startswith("potts3: error: ") and "Is a directory" in err


def test_existing_file_as_out_dir_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = run(["enumerate", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("target", ["mkdir", "replace"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch, target):
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(tmp_path / "o"))

    if target == "mkdir":
        monkeypatch.setattr(Path, "mkdir", denied)
    else:
        monkeypatch.setattr(os, "replace", denied)
    rc = run(["enumerate", "--kind", "box", "--d", "1", "--n", "1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("report.json"))


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


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS])
@pytest.mark.parametrize("target", [(Path, "write_text"), (os, "replace")],
                         ids=["write_text", "replace"])
def test_any_failed_write_is_a_config_error(tmp_path, capsys, monkeypatch, code, target):
    # a full disk or a read-only file system, at either step of a file's write
    argv = ["enumerate", "--kind", "box", "--d", "1", "--out"]
    assert run(argv + [str(tmp_path / "old"), "--n", "2"]) == 0
    before = (tmp_path / "old" / "report.json").read_bytes()

    def failed(*args, **kwargs):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(*target, failed)
    capsys.readouterr()
    for out in ("new", "old"):
        assert run(argv + [str(tmp_path / out), "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert not list((tmp_path / "new").iterdir())
    assert (tmp_path / "old" / "report.json").read_bytes() == before


def test_help_describes_the_tool_not_its_internals():
    text = " ".join(make_parser().format_help().split())
    assert ("Exact counts, mixing times, cutset, repair-map and entropy bounds, and Metropolis "
            "chains for proper 3-colorings of Z^d boxes and tori; each command writes "
            "report.json, meta.json and its sidecar files into --out.") in text
    assert not any(word in text for word in ("Outcome", "cmd_", "stage"))


def test_cutsets_lines_need_a_key_per_report_field(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_PROPERTIES", cutset._PROPERTIES + ("p9",))
    with pytest.raises(ValueError, match="zip"):
        cli.cmd_cutsets(make_parser().parse_args(["cutsets", "--out", str(tmp_path)]))


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
    # meta's histogram is the graded transfer's, imbalance ascending
    hist = json.loads((tmp_path / "meta.json").read_text())["imbalance_histogram"]
    assert [(int(k), v) for k, v in hist.items()] == list(torus_imbalance_histogram(4).items())


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
    calls = {"_repair": 0, "reconstruct": 0, "_q_masks": 0}
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
    # once by the explicit flow sum; the bound takes the sum's last image and
    # reads its nu without rebuilding it.  Each pair builds its Q-masks twice:
    # once for the flow sum's sets, once for the bound's Q-sets, C and D
    assert calls == {"_repair": 1024, "reconstruct": 1024, "_q_masks": 256}


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


# each cutsets.jsonl property key and the CutsetReport field it carries
LINE_PROPERTY = {
    "p1": "p1_anchored", "p2": "p2_boundary_parity", "p3": "p3_zero_free_moat",
    "p4": "p4_interior_zero_support", "p5": "p5_region_closure",
    "identity": "size_identity", "p8a": "p8a_isoperimetry", "two_layer": "two_layer",
}


def _line_verdicts(out):
    lines = [json.loads(line) for line in (out / "cutsets.jsonl").read_text().splitlines()]
    assert lines and all(line["properties"].keys() == LINE_PROPERTY.keys() for line in lines)
    return {all(v for v in line["properties"].values() if v is not None) for line in lines}


def test_cutsets_lines_carry_every_property(tmp_path, monkeypatch):
    # a line's non-null properties AND to the verdict, so none may be missing
    assert sorted(LINE_PROPERTY.values()) == sorted(cutset._PROPERTIES)
    assert run(["cutsets", "--d", "2", "--n", "2", "--out", str(tmp_path / "ok")]) == 0
    assert json.loads((tmp_path / "ok" / "report.json").read_text())["all_properties_hold"]
    assert _line_verdicts(tmp_path / "ok") == {True}
    # a cutset that fails only its two-layer property fails its line and the run
    real = cli.verify_properties
    monkeypatch.setattr(cli, "verify_properties",
                        lambda *a: dataclasses.replace(real(*a), two_layer=False))
    assert run(["cutsets", "--d", "2", "--n", "2", "--out", str(tmp_path / "bad")]) == 4
    assert not json.loads((tmp_path / "bad" / "report.json").read_text())["all_properties_hold"]
    assert _line_verdicts(tmp_path / "bad") == {False}


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
        assert meta.keys() == {"written_at", "build", "peak_states", "cap_use", "time_s"}
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


@pytest.mark.parametrize("affinity", [True, False])
def test_worker_pool_is_capped_at_usable_cpus(tmp_path, monkeypatch, affinity):
    # no real pool starts: the fake one records its size and maps in-process
    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: type("Ctx", (), {"Pool": SerialPool}))
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    args = ["torpid-demo", "--chains", "3", "--sweeps", "2", "--seed", "3"]
    assert run(args + ["--workers", "5000", "--out", str(tmp_path / "many")]) == 0
    assert sizes == [2]
    # one worker runs serially, with no pool, and writes the same bytes
    assert run(args + ["--workers", "1", "--out", str(tmp_path / "one")]) == 0
    assert sizes == [2]
    for f in sorted((tmp_path / "one").iterdir()):
        if f.name != "meta.json":
            assert f.read_bytes() == (tmp_path / "many" / f.name).read_bytes(), f.name


@pytest.mark.parametrize("sweeps", [0, 40])
def test_torpid_demo_chain_telemetry(tmp_path, sweeps):
    from potts3.coloring import phase_coloring
    from potts3.dynamics import ChainSpec, run_chain
    from potts3.lattice import torus

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
    flags = _flag_file(tmp_path, "--n=1\n--d=2\n--kind=box\n--odd-boundary-zero\n")
    counts = {}
    # later tokens win: a flag after the file overrides it, one before does not
    for name, argv in (("file", [flags]), ("after", [flags, "--n", "2"]),
                       ("before", ["--n", "2", flags])):
        out = tmp_path / name
        assert run(["enumerate", *argv, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["odd_boundary_zero"] is True
        counts[name] = report["count"]
    assert counts == {"file": 32, "after": 13888, "before": 32}


# blocks of each Z^2_4 orbit representative's lumped walk
Z24_LUMPED = {
    0: 75, 1: 420, 4: 756, 8: 756, 9: 464, 11: 912, 25: 200, 38: 258, 39: 699,
    41: 1191, 44: 699, 45: 534, 46: 1191, 51: 912, 57: 420, 60: 220, 61: 534,
    123: 162, 125: 387, 240: 162, 249: 387, 263: 220,
}


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
    # how τ was reached: each start's lumped block count, no exact fallback
    assert {int(s): k for s, k in meta["lumped_states"].items()} == Z24_LUMPED
    assert sum(Z24_LUMPED.values()) == 11559
    assert meta["exact_fallbacks"] == []
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
