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
    # a kernel plane of R^3 under the gram diag(1, 1, 4): its projector
    {"seed": 0, "index": 2, "kind": "spd", "base": "abelian", "count": 0,
     "continuum": True, "tags": [], "normals": [],
     "components": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]]},
]}


def _changed(edit, op=0):
    b = copy.deepcopy(DIGEST)
    edit(b["ops"][op])
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


def test_component_spans_are_compared():
    def nudge(op):
        op["components"][0][0][1] = 1e-10

    def tilt(op):
        op["components"][0][2][2] = 2e-9

    def drop(op):
        op["components"] = []
    where = "seed 0 op 2 (spd abelian)"
    assert _changed(nudge, 2) == []
    assert _changed(tilt, 2) == [f"{where}: component 0 span differs by 2.000e-09"]
    assert _changed(drop, 2) == [f"{where}: components 1 vs 0"]


def test_sampled_normals_in_a_component_are_set_aside():
    # a digest from before components were reported: the multistart printed
    # samples of the kernel plane, gram-unit, which match the component;
    # a sample off the plane stays an isolated normal
    def sampled(op):
        del op["components"]
        op["count"], op["tags"] = 2, ["GeodesicNormal"] * 2
        op["normals"] = [[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]

    def off_plane(op):
        sampled(op)
        op["normals"][1] = [0.0, 0.0, 0.5]
    assert _changed(sampled, 2) == []
    assert [m.split(":")[1].split()[0] for m in _changed(off_plane, 2)] == ["count", "tags"]


def test_different_inputs_are_one_mismatch():
    b = copy.deepcopy(DIGEST)
    b["seeds"] = [1]
    assert len(census_digest.compare(DIGEST, b)) == 1
