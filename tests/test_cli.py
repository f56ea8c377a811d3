"""Command-line interface: subcommands, file formats, config precedence,
exit codes, and report determinism."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metaplectic import (
    cross_wigner,
    gaussian,
    generating_to_json,
    Grid,
    hermite_function,
    load_phase,
    load_sampled,
    matrix_to_json,
    PhaseFunction,
    PhaseGrid,
    rotation,
    rotation_generating,
    save_phase,
    save_sampled,
    SampledFunction,
)
from metaplectic.cli import build_parser, main

HBAR = 1.0

SUBCOMMANDS = ["symplectic", "indices", "apply", "wigner", "phase-apply",
               "moyal", "s0", "asymptotic", "demo-rotation", "verify"]


@pytest.fixture()
def workdir(tmp_path):
    grid = Grid(n=1, N=512, X=12.0)
    f = gaussian(grid, HBAR)
    h1 = hermite_function(1, grid, HBAR)
    save_sampled(str(tmp_path / "f.csv"), f)
    save_sampled(str(tmp_path / "h1.csv"), h1)
    w = rotation_generating(math.pi / 2)
    (tmp_path / "w.json").write_text(json.dumps(generating_to_json(w)))
    wd = generating_to_json(w)
    wd["m"] = 0
    (tmp_path / "word.json").write_text(json.dumps([wd]))
    (tmp_path / "s.json").write_text(
        json.dumps(matrix_to_json(rotation(math.pi / 2).entries)))
    save_phase(str(tmp_path / "F.csv"), cross_wigner(f, f))
    return tmp_path


def test_parser_covers_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0]))]
    choices = set(actions[0].choices.keys())
    assert choices == set(SUBCOMMANDS)


def test_sampled_round_trip(tmp_path):
    grid = Grid(n=1, N=256, X=10.0)
    f = hermite_function(2, grid, HBAR)
    path = str(tmp_path / "h2.csv")
    save_sampled(path, f)
    g = load_sampled(path)
    assert g.grid == f.grid
    np.testing.assert_allclose(g.values, f.values, rtol=0, atol=0)


def test_phase_round_trip(tmp_path):
    grid = Grid(n=1, N=256, X=10.0)
    F = cross_wigner(gaussian(grid, HBAR), hermite_function(1, grid, HBAR))
    path = str(tmp_path / "F.csv")
    save_phase(path, F)
    G = load_phase(path)
    assert G.grid == F.grid
    np.testing.assert_allclose(G.values, F.values, rtol=0, atol=0)


def _phase_512():
    rng = np.random.default_rng(0)
    parts = [rng.standard_normal((512, 512)) * 10.0 ** rng.integers(-300, 300, (512, 512))
             for _ in range(2)]
    return PhaseFunction(PhaseGrid(n=1, N=512, X=12.0, N_p=512, P_max=20.0), HBAR,
                         parts[0] + 1j * parts[1])


def _special_values():
    floats = np.resize([0.0, -0.0, 5e-324, -1.5e-300, 1e308], 16)
    return SampledFunction(Grid(n=1, N=8, X=1.0), HBAR, floats.view(complex),
                           check_tails=False)


@pytest.mark.parametrize("make, save, load", [
    (_phase_512, save_phase, load_phase),
    (lambda: gaussian(Grid(n=2, N=16, X=10.0), 0.7), save_sampled, load_sampled),
    (_special_values, save_sampled, load_sampled),
], ids=["phase-512", "sampled-n2", "special-values"])
def test_csv_bytes_match_savetxt(tmp_path, make, save, load):
    f = make()
    path = tmp_path / "f.csv"
    save(str(path), f)
    written = path.read_bytes()
    flat = f.values.ravel()
    expected = io.BytesIO()
    expected.write(written.split(b"\n", 1)[0] + b"\n")
    np.savetxt(expected, np.column_stack([flat.real, flat.imag]), delimiter=",", fmt="%.17g")
    assert written == expected.getvalue()
    np.testing.assert_array_equal(load(str(path)).values, f.values)


def test_symplectic_cayley_subcommand(workdir):
    out = workdir / "m.json"
    rc = main(["symplectic", "--op", "cayley",
               "--input", str(workdir / "s.json"), "--output", str(out)])
    assert rc == 0
    m = json.loads(out.read_text())
    np.testing.assert_allclose(
        np.array(m["entries"]).reshape(2, 2), 0.5 * np.eye(2), atol=1e-12)


def test_symplectic_det_subcommand(workdir, capsys):
    rc = main(["symplectic", "--op", "det-s-minus-i",
               "--input", str(workdir / "w.json")])
    assert rc == 0
    val = json.loads(capsys.readouterr().out)["value"]
    assert abs(val - 2.0) < 1e-12


def test_symplectic_det_accepts_matrix_input(workdir, capsys):
    rc = main(["symplectic", "--op", "det-s-minus-i",
               "--input", str(workdir / "s.json")])
    assert rc == 0
    val = json.loads(capsys.readouterr().out)["value"]
    assert abs(val - 2.0) < 1e-12


def test_malformed_json_exits_cleanly(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"n": 1}\n')
    rc = main(["symplectic", "--op", "cayley", "--input", str(bad)])
    assert rc == 2
    rc = main(["indices", "--input", str(bad), "--branch", "0"])
    assert rc == 2
    capsys.readouterr()


def test_indices_subcommand(workdir, capsys):
    rc = main(["indices", "--input", str(workdir / "w.json"), "--branch", "0"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["m"] == 0
    assert rep["nu"] == 3
    assert rep["inertia"] == 1
    assert rep["signature"] == -1


def test_apply_factored_vs_bochner(workdir):
    g1 = workdir / "g1.csv"
    g2 = workdir / "g2.csv"
    assert main(["apply", "--word", str(workdir / "word.json"),
                 "--method", "factored", "--in", str(workdir / "f.csv"),
                 "--out", str(g1)]) == 0
    assert main(["apply", "--word", str(workdir / "word.json"),
                 "--method", "bochner", "--in", str(workdir / "f.csv"),
                 "--out", str(g2)]) == 0
    a, b = load_sampled(str(g1)), load_sampled(str(g2))
    assert np.max(np.abs(a.values - b.values)) < 1e-3


def test_wigner_and_moyal_subcommands(workdir, capsys):
    wout = workdir / "W01.csv"
    assert main(["wigner", "--f", str(workdir / "f.csv"),
                 "--g", str(workdir / "h1.csv"), "--out", str(wout)]) == 0
    assert main(["moyal", "--f", str(wout), "--g", str(wout)]) == 0
    rep = json.loads(capsys.readouterr().out)
    # Moyal: ||W(phi0, h1)||^2 = (2 pi hbar)^{-1}
    assert abs(rep["re"] - 1.0 / (2 * math.pi * HBAR)) < 1e-6
    assert abs(rep["im"]) < 1e-10


def test_phase_apply_subcommand(workdir):
    gout = workdir / "G.csv"
    assert main(["phase-apply", "--word", str(workdir / "word.json"),
                 "--form", "s1", "--in", str(workdir / "F.csv"),
                 "--out", str(gout)]) == 0
    F = load_phase(str(workdir / "F.csv"))
    G = load_phase(str(gout))
    # the ground-state auto-Wigner is rotation invariant up to branch phase
    assert abs(G.norm() - F.norm()) / F.norm() < 1e-4


def test_s0_subcommand(workdir, capsys):
    assert main(["s0", "--psi", str(workdir / "h1.csv"),
                 "--window", "hermite:0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["window_id"] == "hermite:0"
    assert rep["norm_value"] > 1.0
    assert rep["truncation_estimate"] < 1e-8


def test_s0_high_order_hermite_window(workdir):
    # h_200 reaches past X = 12: s0 warns at the grid edge and still answers
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", "s0", "--psi", str(workdir / "f.csv"),
         "--window", "hermite:200"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "BandwidthExceededWarning" in proc.stderr
    assert json.loads(proc.stdout)["window_id"] == "hermite:200"


def test_asymptotic_subcommand(workdir, capsys):
    rc = main(["asymptotic", "--alpha", str(2 * math.pi / 3),
               "--hbar-list", "0.1,0.05", "--z", "0.7,-0.4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "hbar,abs_leading,abs_quadrature,relative_error"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    errs = [float(r[3]) for r in rows]
    assert 0.3 < errs[1] / errs[0] < 0.7


def test_demo_rotation_subcommand(workdir, capsys):
    outdir = workdir / "demo"
    rc = main(["demo-rotation", "--alpha", str(math.pi / 2),
               "--outdir", str(outdir)])
    assert rc == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert abs(summary["cayley_diagonal_computed"] - 0.5) < 1e-12
    assert abs(summary["det_s_minus_i"] - 2.0) < 1e-12
    assert summary["wigner_covariance_error"] < 1e-4
    for name in ("input.csv", "output.csv", "wigner_input.csv",
                 "wigner_output.csv"):
        assert (outdir / name).exists()


def test_verify_core_green(capsys):
    assert main(["verify", "--suite", "core"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_passed"] is True


def test_verify_deterministic(workdir):
    a = workdir / "repA.json"
    b = workdir / "repB.json"
    assert main(["verify", "--suite", "indices", "--seed", "42",
                 "--output", str(a)]) == 0
    assert main(["verify", "--suite", "indices", "--seed", "42",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_flag_precedence(workdir, capsys, monkeypatch):
    cfile = workdir / "conf.txt"
    cfile.write_text("N = 256\nseed = 7\n")
    monkeypatch.setenv("METAPLECTIC_CONFIG", str(cfile))
    assert main(["verify", "--suite", "core"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["grid"]["N"] == 256
    assert rep["seed"] == 7
    # explicit flag beats the config file
    assert main(["--N", "128", "verify", "--suite", "core"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["grid"]["N"] == 128
    # the truncation radius is fixed in code, so its old flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["--r-factor", "4", "verify", "--suite", "core"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["bochner_tol", "tol_eig", "r_factor",
                                 "cutoff_fraction"])
def test_config_file_cannot_loosen_verify_tolerances(workdir, capsys, key):
    # verify tolerances and the eigenvalue and truncation settings are fixed
    # in code, so a config key naming one is rejected as unknown instead of
    # turning a failing check into a pass
    cfile = workdir / "loose.txt"
    cfile.write_text(f"{key} = 1\n")
    assert main(["--config", str(cfile), "verify", "--suite", "operators"]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_exit_code_numerical_domain(workdir, capsys):
    rc = main(["asymptotic", "--alpha", "0.0", "--hbar-list", "0.1",
               "--z", "0,0"])
    assert rc == 3


def test_header_missing_key_is_a_usage_error(workdir, capsys):
    # exit 2 (bad input), not a KeyError traceback with exit 1 (failed verify)
    for name, cmd in (("f.csv", ["wigner", "--out", str(workdir / "W.csv"), "--f"]),
                      ("F.csv", ["moyal", "--g", str(workdir / "F.csv"), "--f"])):
        lines = (workdir / name).read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["hbar"]
        bad = workdir / f"nohbar_{name}"
        bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert main(cmd + [str(bad)]) == 2
        assert "header is missing key 'hbar'" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["symplectic", "--op", "cayley", "--input", "list.json"],
    ["symplectic", "--op", "det-s-minus-i", "--input", "list.json"],
    ["wigner", "--out", "W.csv", "--f", "list.csv"],
    ["apply", "--in", "f.csv", "--out", "g.csv", "--word", "list.json"],
], ids=["cayley", "det-s-minus-i", "wigner", "apply"])
def test_non_object_json_is_a_usage_error(workdir, capsys, monkeypatch, cmd):
    # exit 2 (bad input), not a TypeError traceback with exit 1 (failed verify)
    monkeypatch.chdir(workdir)
    (workdir / "list.json").write_text("[1, 2]\n")
    payload = (workdir / "f.csv").read_text().split("\n", 1)[1]
    (workdir / "list.csv").write_text("[1, 2]\n" + payload)
    assert main(cmd) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("name, bad, cmd", [
    ("matrix.json", '{"n": null, "entries": [1, 0, 0, 1]}',
     ["symplectic", "--op", "cayley", "--input", "matrix.json"]),
    ("gen.json", '{"n": null, "P": [[0]], "L": [[1]], "Q": [[0]]}',
     ["symplectic", "--op", "det-s-minus-i", "--input", "gen.json"]),
    ("word.json", '[{"P": [[0]], "L": [[1]], "Q": [[0]], "m": null}]',
     ["apply", "--in", "f.csv", "--out", "g.csv", "--word", "word.json"]),
    ("header.csv", '{"n": 1, "N": null, "X": 12.0, "hbar": 1.0}',
     ["wigner", "--out", "W.csv", "--f", "header.csv"]),
], ids=["matrix", "generating", "word", "csv-header"])
def test_wrong_field_type_is_a_usage_error(workdir, capsys, monkeypatch, name, bad, cmd):
    # exit 2 (bad input), not a TypeError traceback with exit 1 (failed verify)
    monkeypatch.chdir(workdir)
    if name.endswith(".csv"):
        bad += "\n" + (workdir / "f.csv").read_text().split("\n", 1)[1]
    (workdir / name).write_text(bad + "\n")
    assert main(cmd) == 2
    assert "has a field of the wrong type" in capsys.readouterr().err


def test_exit_code_bad_file(workdir):
    rc = main(["symplectic", "--op", "cayley",
               "--input", str(workdir / "missing.json")])
    assert rc == 2
