"""The census digest's comparison rule, on canned digests; no census runs."""
import copy
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "census_digest.py"
_SPEC = importlib.util.spec_from_file_location("census_digest", _PATH)
census_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census_digest)

DIGEST = {"seeds": [0], "ops": [
    {"seed": 0, "index": 0, "kind": "catalog", "base": "sl2", "count": 2,
     "continuum": False, "tags": ["HelixOrderTwo", "HelixOrderTwo"],
     "normals": [[0.4472135954999579, 0.8944271909999159, 0.0], [1.0, 0.0, 0.0]]},
    {"seed": 0, "index": 1, "kind": "catalog", "base": "heisenberg", "count": 0,
     "continuum": False, "tags": [], "normals": []},
]}


def _changed(edit):
    b = copy.deepcopy(DIGEST)
    edit(b["ops"][0])
    return census_digest.compare(DIGEST, b)


def test_equal_digests_and_round_off_agree():
    assert census_digest.compare(DIGEST, copy.deepcopy(DIGEST)) == []

    def nudge(op):
        op["normals"][1][1] = 1e-10
    assert _changed(nudge) == []


def test_each_census_field_is_compared():
    def move(op):
        op["normals"][0][2] = 2e-9

    def tag(op):
        op["tags"][1] = "GeodesicNormal"

    def flag(op):
        op["continuum"] = True

    def drop(op):
        op["count"], op["normals"], op["tags"] = 1, op["normals"][:1], op["tags"][:1]
    assert _changed(move) == ["seed 0 op 0 (catalog sl2): normal 0 differs by 2.000e-09"]
    assert _changed(tag) == ["seed 0 op 0 (catalog sl2): tags ['HelixOrderTwo', 'HelixOrderTwo']"
                             " vs ['HelixOrderTwo', 'GeodesicNormal']"]
    assert _changed(flag) == ["seed 0 op 0 (catalog sl2): continuum False vs True"]
    assert [m.split(":")[1].split()[0] for m in _changed(drop)] == ["count", "tags"]


def test_different_inputs_are_one_mismatch():
    b = copy.deepcopy(DIGEST)
    b["seeds"] = [1]
    assert len(census_digest.compare(DIGEST, b)) == 1
