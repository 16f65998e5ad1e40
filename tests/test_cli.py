import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tgkit import catalog, cli
from tgkit.cli import canonical_json, parse_algebra_file, parse_builtin, run
from tgkit.config import DEFAULT
from tgkit.coord_engine import MAX_GRID
from tgkit.errors import AlgebraFileError, BadParams


def _json_out(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------------ parsing

def test_parse_builtin_forms():
    assert parse_builtin("sl2") == ("sl2", {})
    assert parse_builtin("sl2:1,2") == ("sl2", {"a": 1, "b": 2})
    assert parse_builtin("sl2:0.5,b=2") == ("sl2", {"a": 0.5, "b": 2})
    assert parse_builtin("twisted-h2:kappa=2,chart=cartesian") == \
        ("twisted-h2", {"kappa": 2, "chart": "cartesian"})
    with pytest.raises(BadParams):
        parse_builtin("sl2:1,2,3")
    with pytest.raises(BadParams):
        parse_builtin("sl2:1,a=2")


def test_algebra_file_position_in_errors():
    base = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 1]}]}

    def err(data):
        with pytest.raises(AlgebraFileError) as e:
            parse_algebra_file(data)
        return str(e.value)

    msg = err({**base, "brackets": base["brackets"] * 2})
    assert "brackets[1]" in msg and "duplicate pair (0, 1)" in msg
    msg = err({**base, "brackets": [{"i": 1, "j": 0, "coeffs": [0, 0, 1]}]})
    assert "need i < j" in msg
    msg = err({**base, "gram": [[1, 0], [0, 1]]})
    assert "gram must be 3x3" in msg
    msg = err({**base, "frobenius": 1})
    assert "unknown keys: ['frobenius']" in msg
    msg = err({"dim": 3, "brackets": [{"i": 0, "j": 5, "coeffs": [0, 0, 1]}]})
    assert "out of range" in msg
    assert "dim" in err({"brackets": []})


# ----------------------------------------------------------------- commands

def test_tg_check_certified_subspace(capsys):
    code = run(["tg-check", "--builtin", "sl2", "--subspace", "0,1,0;0,0,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok: true" in out
    assert "exit: 0" in out


def test_tg_check_failure_still_reports(capsys):
    code, rep = _json_out(capsys, ["tg-check", "--builtin", "sl2",
                                   "--subspace", "1,0,0;0,1,0"])
    assert code == 2
    assert rep["result"]["ok"] is False
    assert rep["result"]["witness"]["kind"] == "bracket"
    assert rep["result"]["residual"] > 0.1


def test_classify_circle_normal(capsys):
    code, rep = _json_out(capsys, ["classify", "--builtin", "nonhomo",
                                   "--normal", "0,0,0,1"])
    assert code == 0
    assert rep["case_tag"] == "CircleNormal"
    assert rep["result"]["frenet"]["order"] == 1
    assert abs(rep["result"]["frenet"]["curvatures"][0] - 2.0) < 1e-12
    assert np.abs(np.array(rep["result"]["character_hint"])
                  - [2.0, 0, 0, 0]).max() < 1e-12


def test_classify_helix_recovers_parameters(capsys):
    code, rep = _json_out(capsys, ["classify", "--builtin", "sl2:1,2",
                                   "--normal", "1,0,0"])
    assert code == 0
    assert rep["case_tag"] == "HelixOrderTwo"
    assert rep["result"]["helix"]["recovered_a"] == 1.0
    assert rep["result"]["helix"]["recovered_b"] == 2.0


def test_classify_helix_on_a_nearly_degenerate_killing_form(capsys):
    # sl2(1, 1e-4) is a genuine sl2(a, b) whose Killing form is nearly
    # degenerate; the helix certificate does not gate the Killing form
    code, rep = _json_out(capsys, ["classify", "--builtin", "sl2:1,0.0001",
                                   "--normal", "1,0,0"])
    assert code == 0
    assert rep["case_tag"] == "HelixOrderTwo"
    assert rep["result"]["helix"]["recovered_a"] == 1.0
    assert rep["result"]["helix"]["recovered_b"] == 1e-4


def test_classify_rejects_non_tg_normal(capsys):
    code, rep = _json_out(capsys, ["classify", "--builtin", "heisenberg",
                                   "--normal", "0,0,1"])
    assert code == 2
    assert rep["result"]["ok"] is False


def test_frenet_command(capsys):
    code, rep = _json_out(capsys, ["frenet", "--builtin", "sl2:1,2",
                                   "--normal", "1,0,0"])
    assert code == 0
    assert rep["result"]["order"] == 2
    assert rep["result"]["curvatures"] == [4.0, 2.0]


def test_curvature_command(capsys):
    code, rep = _json_out(capsys, ["curvature", "--builtin", "heisenberg"])
    assert code == 0
    diag = rep["result"]["coordinate_plane_sectionals"]
    assert np.abs(np.array(diag) - [-0.75, 0.25, 0.25]).max() < 1e-12
    assert rep["result"]["pairs"] == [[0, 1], [0, 2], [1, 2]]


def test_info_command(capsys):
    code, rep = _json_out(capsys, ["info", "--builtin", "sl2:1,1.5"])
    assert code == 0
    assert rep["result"]["dim"] == 3
    assert rep["residuals"]["jacobi"] < 1e-12
    code2 = run(["info", "--builtin", "hyperbolic2"])
    assert code2 == 0
    assert "chart" in capsys.readouterr().out


def test_info_builds_a_builtin_algebra_once_before_admission(monkeypatch, capsys):
    from tgkit import lie_core
    calls = []
    init = lie_core.MetricLieAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lie_core.MetricLieAlgebra, "__init__", counting_init)
    assert run(["info", "--builtin", "sl2"]) == 0
    # the catalog admits the builtin under the run's tolerances, once
    assert len(calls) == 1


def test_search_deterministic_output(capsys):
    code, rep = _json_out(capsys, ["search", "--builtin", "sl2"])
    first = canonical_json(rep)
    assert code == 0
    code, rep2 = _json_out(capsys, ["search", "--builtin", "sl2"])
    assert canonical_json(rep2) == first
    assert rep["result"]["count"] == 2
    normals = np.array(rep["result"]["normals"])
    d = np.sqrt(5.0)
    assert np.abs(normals[0] - [1 / d, 2 / d, 0.0]).max() < 1e-9
    assert np.abs(normals[1] - [1.0, 0.0, 0.0]).max() < 1e-9
    assert max(rep["result"]["residuals"]) < 1e-9
    assert rep["result"]["continuum"] is False


def test_search_abelian_continuum(capsys):
    code, rep = _json_out(capsys, ["search", "--builtin", "abelian"])
    assert code == 0
    assert rep["result"]["continuum"] is True


def test_search_continuum_is_a_component_whatever_continuum_minima(capsys):
    # a kernel sphere is a continuum whatever the sample count: abelian:3 is
    # one certified 3-dim component and no isolated normal
    code, rep = _json_out(capsys, ["search", "--builtin", "abelian:3", "--tol",
                                   "continuum_minima=100"])
    assert code == 0
    result = rep["result"]
    assert result["continuum"] is True and result["count"] == 0
    comp, = result["components"]
    assert comp["kind"] == "kernel_sphere" and len(comp["basis"]) == 3
    assert comp["residual"] <= rep["tolerances_used"]["search_residual"]


def test_verify_single_entry(capsys):
    code, rep = _json_out(capsys, ["verify", "heisenberg"])
    assert code == 0
    assert rep["result"]["ok"] is True
    (entry,) = rep["result"]["entries"]
    assert entry["name"] == "heisenberg"
    assert all(row["ok"] for row in entry["checks"])


@pytest.mark.parametrize("entry", ["sl2:c=3", "nonhomo:x=1", "heisenberg:a=1",
                                   "abelian:kappa=2", "hyperbolic2:n=5",
                                   "twisted-h2:chart=cartesian", "euclidean:a=1"])
def test_verify_rejects_parameters_its_ledger_does_not_read(entry, capsys):
    assert run(["verify", entry]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tgkit: error:") and "unknown parameters" in err


def test_verify_accepts_the_parameters_its_ledger_reads(capsys):
    for entry in ("sl2:a=1,b=0.5", "abelian:n=2", "euclidean:n=1"):
        assert run(["verify", entry]) == 0, entry
    capsys.readouterr()


@pytest.mark.parametrize("entry", ["sl2:1,0.001", "sl2:1,1e-5", "sl2:-1,1", "sl2:1,-1",
                                   "sl2:-2,-0.5", "twisted-h2:-1", "twisted-h2:-0.5"])
def test_verify_small_and_negative_parameters(entry, capsys):
    # small b leaves the Killing form nearly degenerate; a negative parameter
    # flips a sign the Frenet curvatures, which are norms, do not see
    code, rep = _json_out(capsys, ["verify", entry])
    assert code == 0, entry
    assert all(row["ok"] for row in rep["result"]["entries"][0]["checks"]), entry


@pytest.mark.parametrize("argv", [["info", "--builtin", "sl2", "--tol", "jacobi=nan"],
                                  ["verify", "--tol", "tg_residual=inf"],
                                  ["verify", "sl2", "--tol", "spd_min_eig=-inf"]])
def test_non_finite_tolerances_exit_1(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tgkit: error:") and "must be finite" in err


def test_exact_ties_pass_every_tg_gate(capsys):
    # abelian: every TG residual is exactly 0, so tg_residual=0 is a tie,
    # which classify, tg-check and the verify ledger all pass
    argvs = (["classify", "--builtin", "abelian", "--normal", "1,0,0"],
             ["tg-check", "--builtin", "abelian", "--normal", "1,0,0"],
             ["verify", "abelian"])
    classify, tg_check, verify = (_json_out(capsys, argv + ["--tol", "tg_residual=0"])
                                  for argv in argvs)
    assert [code for code, _ in (classify, tg_check, verify)] == [0, 0, 0]
    assert classify[1]["case_tag"] == "GeodesicNormal"
    assert tg_check[1]["result"]["ok"] is True and tg_check[1]["result"]["residual"] == 0.0
    rows = {row["check"]: row for row in verify[1]["result"]["entries"][0]["checks"]}
    assert rows["all_hyperplanes_tg"]["ok"] and rows["all_hyperplanes_tg"]["residual"] == 0.0


def test_negative_and_out_of_range_tolerances_exit_1(tmp_path, capsys):
    # spd_min_eig=-1 would let an indefinite gram on to the Cholesky step,
    # and dedup_angle=10 would merge the two Borel sign classes of sl2
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps({"dim": 3, "gram": np.diag([1.0, -0.5, 1.0]).tolist()}))
    for argv, name in ((["info", "--algebra", str(path), "--tol", "spd_min_eig=-1"],
                        "spd_min_eig"),
                       (["search", "--builtin", "sl2", "--tol", "dedup_angle=10", "--json"],
                        "dedup_angle")):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tgkit: error: tolerances must be >= 0, dedup_angle <= pi/2: " \
                               f"['{name}']\n"
    # the bounds themselves are admitted
    assert run(["search", "--builtin", "sl2", "--tol", f"dedup_angle={np.pi / 2!r}",
                "--tol", "spd_min_eig=0"]) == 0


def test_verify_twisted_with_grid(capsys):
    code = run(["verify", "twisted-h2", "--tol", "grid=50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass] twisted-h2" in out


def _no_ledger(*args):
    raise AssertionError("ledger ran")


@pytest.mark.parametrize("grid", [1, 1001, 10**9])
def test_grid_outside_its_bound_exits_1_before_any_ledger_runs(grid, monkeypatch, capsys):
    monkeypatch.setitem(catalog.LEDGER, "twisted-h2", _no_ledger)
    assert run(["verify", "twisted-h2", "--tol", f"grid={grid}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tgkit: error:") and "grid must be an integer in [2, 1000]" in err
    assert cli._parse_tols([f"grid={MAX_GRID}"])[1] == MAX_GRID == 1000


def test_geodesic_csv_out(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code = run(["geodesic", "--builtin", "hyperbolic2", "--x0", "0.5,0.3",
                "--v0", "1,0", "--tmax", "1", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    raw = np.genfromtxt(path, delimiter=",", names=True)
    assert raw.dtype.names == ("t", "x1", "x2", "v1", "v2")
    assert abs(raw[-1]["x1"] - 1.5) < 1e-8


def test_out_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run(["tg-check", "--builtin", "sl2", "--normal", "1,0,0",
                "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    rep = json.loads(path.read_text())
    assert rep["result"]["ok"] is True
    assert len(rep["input_digest"]) == 64
    assert "tg_residual" in rep["tolerances_used"]


def test_unwritable_out_exits_1_with_a_message(tmp_path, capsys):
    # a missing directory, a directory, and a trajectory into a missing directory
    info = ["info", "--builtin", "sl2"]
    geodesic = ["geodesic", "--builtin", "hyperbolic2", "--x0", "0.5,0.3",
                "--v0", "1,0", "--tmax", "0.05"]
    for argv, out in ((info, tmp_path / "missing" / "report.json"), (info, tmp_path),
                      (geodesic, tmp_path / "missing" / "traj.csv")):
        assert run(argv + ["--out", str(out)]) == 1, (argv, out)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tgkit: error: ") and captured.err.count("\n") == 1
    assert run(info + ["--out", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err == "tgkit: error: --out .csv only applies to geodesic\n"
    assert not (tmp_path / "report.csv").exists()


def test_digest_depends_on_input(capsys):
    _, a = _json_out(capsys, ["info", "--builtin", "sl2:1,1"])
    _, b = _json_out(capsys, ["info", "--builtin", "sl2:1,1"])
    _, c = _json_out(capsys, ["info", "--builtin", "sl2:1,2"])
    assert a["input_digest"] == b["input_digest"]
    assert a["input_digest"] != c["input_digest"]


def test_cached_grammar_parses_as_fresh_parsers(monkeypatch, capsys):
    # a bad argv, a good one, then two --tol overrides in one process
    argvs = [["verify", "--bogus"], ["info", "--builtin", "sl2", "--json"],
             ["info", "--builtin", "sl2", "--tol", "jacobi=1e-6", "--json"],
             ["info", "--builtin", "sl2", "--tol", "bracket_table=1e-7", "--json"]]

    def runs():
        return [(run(argv),) + tuple(capsys.readouterr()) for argv in argvs]

    cached = runs()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert runs() == cached
    assert [code for code, _, _ in cached] == [1, 0, 0, 0]
    # the first override does not leak into the next call
    last = json.loads(cached[3][1])["tolerances_used"]
    assert (last["jacobi"], last["bracket_table"]) == (DEFAULT.jacobi, 1e-7)


def test_tol_override_reflected(capsys):
    code, rep = _json_out(capsys, ["tg-check", "--builtin", "sl2", "--normal",
                                   "1,0,0", "--tol", "tg_residual=1e-3"])
    assert code == 0
    assert rep["tolerances_used"]["tg_residual"] == 1e-3


def test_tol_overrides_keep_their_field_type(capsys):
    argv = ["info", "--builtin", "sl2", "--json", "--tol"]
    assert run(argv + ["continuum_minima=100"]) == 0
    assert '"continuum_minima":100,' in capsys.readouterr().out
    assert run(argv + ["jacobi=1"]) == 0
    assert '"jacobi":1.0,' in capsys.readouterr().out
    for bad in ("continuum_minima=20.5", "continuum_minima=nan", "continuum_minima=inf"):
        assert run(argv + [bad]) == 1, bad
        assert "integral values: ['continuum_minima']" in capsys.readouterr().err
    # an integer literal past float range is a bad value, not a traceback
    assert run(argv + ["jacobi=1" + "0" * 400]) == 1
    assert "bad tolerance value" in capsys.readouterr().err


def test_search_residual_override_honoured(capsys):
    # both sl2 normals certify near 1e-16, far above the override
    code, rep = _json_out(capsys, ["search", "--builtin", "sl2:1,1",
                                   "--tol", "search_residual=1e-40"])
    assert code == 0
    assert rep["tolerances_used"]["search_residual"] == 1e-40
    assert rep["result"]["count"] == 0


# -------------------------------------------------------------- error paths

def test_input_errors_exit_1(capsys):
    cases = [
        ["info", "--builtin", "so3"],
        ["classify", "--builtin", "sl2", "--normal", "1,0"],
        ["classify", "--builtin", "sl2", "--normal", "0,0,0"],
        ["tg-check", "--builtin", "sl2"],
        ["frenet", "--builtin", "sl2", "--normal", "one,0,0"],
        ["tg-check", "--builtin", "sl2", "--normal", "1,0,0",
         "--tol", "bogus=1"],
        ["tg-check", "--builtin", "sl2", "--normal", "1,0,0",
         "--tol", "tg_residual=abc"],
        ["geodesic", "--builtin", "sl2", "--x0", "0,0,0", "--v0", "1,0,0"],
        ["verify", "so3"],
        ["info"],
        ["geodesic", "--x0", "1,0", "--v0", "0,1"],
        ["info", "--builtin", "abelian:n=x"],
        ["verify", "euclidean:n=inf"],
    ]
    for argv in cases:
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("tgkit: error:"), argv


def test_extreme_verify_params_exit_1_or_fail_a_row(capsys):
    # a truncated Frenet orbit and an overflowing kappa used to raise
    # IndexError and OverflowError
    for name in ("sl2:1e-200,1", "twisted-h2:1e154", "twisted-h2:1e200"):
        code = run(["verify", name, "--json"])
        captured = capsys.readouterr()
        assert code in (1, 2), name
        if code == 1:
            assert captured.err.startswith("tgkit: error:"), name
        else:
            checks = json.loads(captured.out)["result"]["entries"][0]["checks"]
            assert not all(c["ok"] for c in checks), name


def _cli_stderr(argv):
    """(exit code, stderr) of tgkit argv in a fresh interpreter, where numpy
    warnings reach stderr as a user sees them."""
    out = subprocess.run([sys.executable, "-m", "tgkit.cli"] + argv,
                         capture_output=True, text=True)
    return out.returncode, out.stderr


def test_extreme_kappa_verify_keeps_stderr_quiet():
    # 1e154 overflows the twisting ODE terms and fails a row; 1e200 also
    # overflows kappa^2, which the ledger needs, and is refused up front
    code, err = _cli_stderr(["verify", "twisted-h2:1e154"])
    assert code == 2
    assert "Warning" not in err and err == ""
    code, err = _cli_stderr(["verify", "twisted-h2:1e200"])
    assert code == 1
    assert "Warning" not in err
    assert err == "tgkit: error: twisted-h2: kappa^2 is not finite for kappa = 1e+200\n"


def test_overflowing_spray_prints_only_the_gram_error():
    # the partials at the second stage are finite but huge, so the spray
    # overflows before a later gram turns non-finite
    code, err = _cli_stderr(["geodesic", "--builtin", "twisted-h2:1e200",
                             "--x0", "0,1,0", "--v0", "1,0,0"])
    assert code == 1
    assert err.startswith("tgkit: error: gram not finite at [")
    assert err.count("\n") == 1 and err.endswith("]\n")


def test_overflowing_sl2_params_name_a_and_b():
    # 1e200 squared is past the double range; the curvature needs it
    code, err = _cli_stderr(["verify", "sl2:1e200,1"])
    assert code == 1
    assert err == ("tgkit: error: sl2 needs a^2, b^2 and ab finite, "
                   "got a = 1e+200, b = 1.0\n")


@pytest.mark.parametrize("start", [["--x0", "1000,0", "--v0", "0,1"],
                                   ["--x0", "700,0", "--v0", "1,0", "--tmax", "20"]])
def test_overflowing_chart_point_exits_1_quietly(start, capsys):
    # sinh(1000) and sinh(700)^2 are past the double range
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["geodesic", "--builtin", "hyperbolic2"] + start)
    assert code == 1
    assert [str(w.message) for w in caught] == []
    r = start[1].split(",")[0]
    assert capsys.readouterr().err == f"tgkit: error: gram not finite at [{r}.0, 0.0]\n"


@pytest.mark.parametrize("argv", [
    ["tg-check", "--builtin", "sl2", "--normal", "1e200,0,0"],
    ["classify", "--builtin", "sl2", "--normal", "1e200,0,0"],
    ["frenet", "--builtin", "sl2", "--normal", "1e200,0,0"],
    ["geodesic", "--builtin", "hyperbolic2", "--x0", "1,0.5", "--v0", "1e200,0"],
    ["geodesic", "--builtin", "euclidean", "--x0", "1,0.5", "--v0", "1e308,1e308"]])
def test_overflowing_input_length_is_named_quietly(argv, capsys):
    # |T|^2 or |v0|^2 is past the double range: one stderr line, no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    assert code == 1
    assert [str(w.message) for w in caught] == []
    what = "initial velocity" if argv[0] == "geodesic" else "normal vector"
    assert capsys.readouterr().err == f"tgkit: error: {what} length overflows float range\n"


@pytest.mark.parametrize("builtin, x0, v0", [("hyperbolic2", "0.05,0", "-1,0"),
                                              ("hyperbolic2", "0.1,0", "-1,0"),
                                              ("twisted-h2", "0,0.05,0", "0,-1,0")])
def test_stage_on_the_polar_axis_gates_its_gram_first(builtin, x0, v0, capsys):
    # a stage lands exactly on r = 0, where the closed-form spray divides by
    # sinh r; its singular gram is reported, not the division
    code = run(["geodesic", "--builtin", builtin, "--x0", x0, f"--v0={v0}",
                "--step", "0.1", "--tmax", "1"])
    assert code == 1
    zeros = ", ".join(["0.0"] * len(x0.split(",")))
    assert capsys.readouterr().err == f"tgkit: error: gram not positive definite at [{zeros}]\n"


def test_negative_search_seed_exits_1(capsys):
    assert run(["search", "--builtin", "sl2", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("tgkit: error: --seed")


def test_geodesic_without_builtin_names_the_option_it_takes(capsys):
    assert run(["geodesic", "--x0", "1,0", "--v0", "0,1"]) == 1
    assert capsys.readouterr().err == "tgkit: error: geodesic needs --builtin NAME\n"
    assert run(["info"]) == 1
    assert "give --builtin NAME or --algebra FILE" in capsys.readouterr().err


def test_huge_builtin_dimensions_exit_1(capsys):
    for argv in (["info", "--builtin", "abelian:100000"],
                 ["geodesic", "--builtin", "euclidean:1000000000", "--x0", "0", "--v0", "1"]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("tgkit: error: dimension") and "supported range" in err, argv


# options each subcommand used to accept without reading them
DROPPED_OPTIONS = {
    "info": ("--subspace", "--normal", "--seed"),
    "curvature": ("--subspace", "--normal", "--seed"),
    "tg-check": ("--seed",),
    "frenet": ("--subspace", "--seed"),
    "classify": ("--subspace", "--seed"),
    "search": ("--subspace", "--normal"),
    "geodesic": ("--algebra", "--subspace", "--normal", "--seed"),
    "verify": ("--subspace", "--normal", "--seed"),
}


def test_options_a_subcommand_does_not_read_exit_1(capsys):
    values = {"--subspace": "1,0,0;0,1,0", "--normal": "1,0,0", "--seed": "1",
              "--algebra": "sl2.json"}
    for cmd, flags in DROPPED_OPTIONS.items():
        head = [cmd, "sl2"] if cmd == "verify" else [cmd, "--builtin", "sl2"]
        for flag in flags:
            assert run(head + [flag, values[flag]]) == 1, (cmd, flag)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("tgkit: error: unrecognized arguments"), (cmd, flag)
    assert sum(map(len, DROPPED_OPTIONS.values())) == 20


def test_algebra_file_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "coeffs": [0.1, 0, 2]},
                     {"i": 0, "j": 2, "coeffs": [2, -2, 0]},
                     {"i": 1, "j": 2, "coeffs": [0, -2, 0]}]}))
    assert run(["info", "--algebra", str(bad)]) == 1
    assert "jacobi" in capsys.readouterr().err.lower()
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert run(["info", "--algebra", str(notjson)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert run(["info", "--algebra", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("data, message", [
    ([1, 2], "top level must be a JSON object"),
    ({"dim": 1}, "dim must be an integer in [2, 8], got 1"),
    ({"dim": 3, "basis": ["x", "y"]}, "basis must be 3 strings"),
    ({"dim": 3, "brackets": [[0, 1]]}, "brackets[0] must be an object"),
    ({"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 1], "k": 2}]},
     "brackets[0] has unknown keys: ['k']"),
    ({"dim": 3, "brackets": [{"i": 0, "j": 1}]}, "brackets[0] missing key 'coeffs'"),
    ({"dim": 3, "brackets": [{"i": 0.0, "j": 1, "coeffs": [0, 0, 1]}]},
     "brackets[0]: i, j must be integers"),
    ({"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 1]}]},
     "brackets[0]: coeffs must be 3 numbers"),
])
def test_each_algebra_file_refusal_exits_1_with_its_message(data, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["info", "--algebra", str(path)]) == 1
    assert capsys.readouterr() == ("", f"tgkit: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["tg-check", "--builtin", "sl2", "--subspace", ";"], "empty subspace"),
    (["info", "--builtin", "sl2", "--tol", "jacobi"], "--tol expects NAME=VALUE, got 'jacobi'"),
])
def test_empty_subspace_and_bare_tol_exit_1_with_their_message(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"tgkit: error: {message}\n")


def test_options_that_exclude_each_other_exit_1(tmp_path, capsys):
    # both options of a pair is a usage error, never a silent choice of one
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 2]}]}))
    both = ["--algebra", str(path), "--builtin", "sl2"]
    argvs = [[cmd] + both for cmd in ("info", "curvature", "search")]
    argvs += [[cmd] + both + ["--normal", "1,0,0"] for cmd in ("tg-check", "frenet", "classify")]
    argvs.append(["tg-check", "--builtin", "sl2", "--subspace", "0,1,0;0,0,1",
                  "--normal", "1,0,0"])
    for argv in argvs:
        assert run(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err, argv


def test_non_finite_algebra_file_exits_1(tmp_path, capsys):
    for key, data in (
            ("structure constants", {"dim": 2, "brackets": [
                {"i": 0, "j": 1, "coeffs": [float("nan"), 0]}]}),
            ("gram", {"dim": 2, "brackets": [], "gram": [[1, 0], [0, float("inf")]]})):
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))
        assert run(["info", "--algebra", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tgkit: error:")
        assert key in captured.err and "NaN or inf" in captured.err


def test_overflowing_constants_exit_1_with_one_line(tmp_path, capsys):
    # sl2(1, 1) scaled to 2e200: the Jacobi sum overflows, quietly
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "coeffs": [0, 0, 2e200]}, {"i": 0, "j": 2, "coeffs": [2e200, -2e200, 0]},
        {"i": 1, "j": 2, "coeffs": [0, -2e200, 0]}]}))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(["info", "--algebra", str(path)]) == 1
    assert seen == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("tgkit: error: Jacobi sum overflows float range "
                            "(max|c| = 2.000e+200)\n")


def test_non_finite_vectors_exit_1(capsys):
    for argv in (["classify", "--builtin", "sl2", "--normal", "1,nan,0"],
                 ["tg-check", "--builtin", "sl2", "--subspace", "nan,1,0;0,0,1"],
                 ["frenet", "--builtin", "sl2", "--normal", "inf,0,0"]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("tgkit: error:") and "NaN or inf" in err, argv


def test_removed_tolerance_names_exit_1(capsys):
    for name in ("speed_drift", "sff_flat", "geodesic_axis", "anchor_exclusion",
                 "subspace_rank"):
        assert run(["info", "--builtin", "sl2", "--tol", f"{name}=1"]) == 1, name
        assert "unknown tolerance names" in capsys.readouterr().err


def test_classify_codazzi_gate_exits_2(capsys):
    code, rep = _json_out(capsys, ["classify", "--builtin", "nonhomo",
                                   "--normal", "0,4e-10,0,1"])
    assert code == 2
    assert rep["result"]["ok"] is False
    assert set(rep["residuals"]) == {"codazzi_residual"}
    assert rep["residuals"]["codazzi_residual"] > rep["tolerances_used"]["codazzi"]


def _perturbed_sl2_file(tmp_path, eps):
    # sl2(1,1) with an E1 component eps in [E1,E2]: Jacobi residual 2 eps
    path = tmp_path / f"sl2_{eps}.json"
    path.write_text(json.dumps({
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "coeffs": [eps, 0, 2]},
                     {"i": 0, "j": 2, "coeffs": [2, -2, 0]},
                     {"i": 1, "j": 2, "coeffs": [0, -2, 0]}]}))
    return str(path)


def test_admission_honours_tolerance_overrides(tmp_path, capsys):
    near = _perturbed_sl2_file(tmp_path, 1.5e-11)
    assert run(["info", "--algebra", near]) == 0
    assert run(["info", "--algebra", near, "--tol", "jacobi=1e-13"]) == 1
    far = _perturbed_sl2_file(tmp_path, 1.5e-9)
    assert run(["info", "--algebra", far]) == 1
    assert run(["info", "--algebra", far, "--tol", "jacobi=1e-8"]) == 0
    for argv in (["info", "--builtin", "sl2"], ["verify", "sl2"],
                 ["verify", "nonhomo"], ["verify", "heisenberg"],
                 ["verify", "abelian"]):
        assert run(argv + ["--tol", "spd_min_eig=2"]) == 1, argv
        assert "not positive definite" in capsys.readouterr().err
    capsys.readouterr()


def test_geodesic_unbounded_work_exits_1(capsys):
    # refused before any trajectory array is allocated
    base = ["geodesic", "--builtin", "hyperbolic2", "--x0", "1,0", "--v0", "0.1,0"]
    for extra, msg in ((["--tmax", "1e9", "--step", "1e-9"], "exceeds the limit"),
                       (["--tmax", "nan"], "must be finite"),
                       (["--tmax", "1", "--step", "inf"], "must be finite")):
        assert run(base + extra) == 1, extra
        err = capsys.readouterr().err
        assert err.startswith("tgkit: error:") and msg in err, extra


def test_algebra_file_happy_path(tmp_path, capsys):
    good = tmp_path / "sl2.json"
    good.write_text(json.dumps({
        "dim": 3, "basis": ["E1", "E2", "E3"],
        "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 2]},
                     {"i": 0, "j": 2, "coeffs": [2, -2, 0]},
                     {"i": 1, "j": 2, "coeffs": [0, -2, 0]}]}))
    code, rep = _json_out(capsys, ["classify", "--algebra", str(good),
                                   "--normal", "1,0,0"])
    assert code == 0
    assert rep["case_tag"] == "HelixOrderTwo"
    assert rep["result"]["helix"]["recovered_a"] == 1.0
    assert rep["result"]["helix"]["recovered_b"] == 1.0


# ------------------------------------------------------------ console script

def test_console_script():
    exe = shutil.which("tgkit")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "tgkit.cli"]
    out = subprocess.run(cmd + ["tg-check", "--builtin", "sl2",
                                "--subspace", "0,1,0;0,0,1"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "exit: 0" in out.stdout
