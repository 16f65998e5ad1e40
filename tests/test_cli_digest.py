"""The CLI digest's comparison rule on canned digests, and its seeded inputs;
no command runs."""
import copy
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

DIGEST = {
    "verify sl2 --json": {"exit": 0, "stdout": '{"ok":true}\n', "stderr": ""},
    "search --algebra sl2-rot-0.json --json": {"exit": 0, "stdout": '{"count":2}\n',
                                               "stderr": ""},
    "info --builtin nope --json": {"exit": 1, "stdout": "",
                                   "stderr": "tgkit: error: no builtin named 'nope'\n"},
}


def test_equal_digests_agree():
    assert cli_digest.compare(DIGEST, copy.deepcopy(DIGEST)) == []


def test_each_field_and_each_missing_argv_is_a_difference():
    b = copy.deepcopy(DIGEST)
    b["verify sl2 --json"]["stdout"] = '{"ok":false}\n'
    b["info --builtin nope --json"]["exit"] = 2
    assert cli_digest.compare(DIGEST, b) == ["verify sl2 --json", "info --builtin nope --json"]
    b = copy.deepcopy(DIGEST)
    b["search --algebra sl2-rot-0.json --json"]["stderr"] = "warning\n"
    del b["verify sl2 --json"]
    extra = "frenet --algebra sl2-rot-0.json --normal=1,0,0 --json"
    b[extra] = b.pop("info --builtin nope --json")
    assert cli_digest.compare(DIGEST, b) == [
        "verify sl2 --json", "search --algebra sl2-rot-0.json --json",
        "info --builtin nope --json", extra]


def test_compare_exits_1_on_a_difference(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(DIGEST))
    b.write_text(json.dumps(DIGEST))
    assert cli_digest.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "3 argvs, 0 differ\n"
    changed = copy.deepcopy(DIGEST)
    changed["verify sl2 --json"]["exit"] = 2
    b.write_text(json.dumps(changed))
    assert cli_digest.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "verify sl2 --json\n3 argvs, 1 differ\nverify exit 1\n"


def test_field_counts_name_each_differing_json_path_per_subcommand(tmp_path, capsys):
    def classify(lam, cod, extra=None):
        out = {"command": "classify", "residuals": {"codazzi_residual": cod, "tg_residual": 0.0},
               "result": {"eigenvalue_lambda": lam, "frenet": {"curvatures": [2.0, cod]}}}
        return {"exit": 0, "stdout": json.dumps(dict(out, **(extra or {}))) + "\n", "stderr": ""}
    a = {"classify --normal=1,0,0 --json": classify(1.0, 0.0),
         "classify --normal=0,1,0 --json": classify(None, 1e-12),
         "classify --normal=0,0,1 --json": classify(None, 2e-12),
         "verify": {"exit": 0, "stdout": "ok\n", "stderr": ""}}
    b = copy.deepcopy(a)
    b["classify --normal=1,0,0 --json"] = classify(1.0 + 2e-16, 3e-17)
    b["classify --normal=0,1,0 --json"] = classify(None, 5e-13, {"ok": True})
    b["verify"] = {"exit": 1, "stdout": "failed\n", "stderr": "x\n"}
    b["info --json"] = a["verify"]
    assert cli_digest.field_counts(a, b) == {
        ("classify", ".residuals.codazzi_residual"): 2,
        ("classify", ".result.frenet.curvatures[]"): 2,
        ("classify", ".result.eigenvalue_lambda"): 1, ("classify", ".ok"): 1,
        ("verify", "exit"): 1, ("verify", "stdout"): 1, ("verify", "stderr"): 1,
        ("info", "record"): 1}
    assert cli_digest.field_counts(a, copy.deepcopy(a)) == {}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert cli_digest.main(["--compare", str(pa), str(pb)]) == 1
    assert capsys.readouterr().out.splitlines()[-9:] == [
        "5 argvs, 4 differ",
        "classify .ok 1", "classify .residuals.codazzi_residual 2",
        "classify .result.eigenvalue_lambda 1", "classify .result.frenet.curvatures[] 2",
        "info record 1", "verify exit 1", "verify stderr 1", "verify stdout 1"]


def test_algebra_files_are_seeded_and_labelled_once():
    files = cli_digest.algebra_files()
    assert json.dumps(files) == json.dumps(cli_digest.algebra_files())
    labels = [label for label, _, _ in files]
    # rot and spd per base and seed, then the abelian:3 SPD file and the
    # general-basis sl2 + R^2 file
    assert len(labels) == len(set(labels)) == 2 * len(cli_digest.BASES) * len(cli_digest.SEEDS) + 2
    assert labels[-2:] == ["abelian3-spd.json", "sl2+R2-general.json"]
    for _, data, sub in files:
        assert len(sub.split(";")) == 2
        assert all(len(v.split(",")) == data["dim"] for v in sub.split(";"))


def test_fixed_files_are_fixed_and_labelled_apart():
    files = cli_digest.fixed_files()
    assert json.dumps(files) == json.dumps(cli_digest.fixed_files())
    labels = [label for label, _, _ in files + cli_digest.algebra_files()]
    assert len(labels) == len(set(labels))
    coeffs = [x for b in files[1][1]["brackets"] for x in b["coeffs"]]
    assert max(map(abs, coeffs)) == 2e200
