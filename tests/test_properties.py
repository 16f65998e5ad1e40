"""Property tests over random points of the catalog charts."""
import numpy as np
import pytest

from tgkit import catalog
from tgkit.coord_engine import _spray, christoffel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# chart and a map from the unit cube into a region of its domain
CHARTS = {
    "hyperbolic2": (catalog.hyperbolic_plane(),
                    lambda c: np.array([0.2 + 2.8 * c[0], 2 * np.pi * c[1]])),
    "twisted-h2-polar": (catalog.catalog_lookup("twisted-h2", {"kappa": 1.5}),
                         lambda c: np.array([2 * np.pi * c[0], 0.2 + 2.8 * c[1],
                                             2 * np.pi * c[2]])),
    "twisted-h2-cartesian": (catalog.twisted_h2_cartesian(1.5),
                             lambda c: np.array([2 * np.pi * c[0], 3 * c[1] - 1.5,
                                                 3 * c[2] - 1.5])),
    "nonhomo": (catalog.nonhomo_metric(), lambda c: 4 * np.asarray(c) - 2),
    "euclidean": (catalog.euclidean_metric(3), lambda c: 4 * np.asarray(c[:3]) - 2),
}

unit = st.floats(0.0, 1.0)
speed = st.floats(-3.0, 3.0)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(name=st.sampled_from(sorted(CHARTS)),
       cube=st.lists(unit, min_size=4, max_size=4),
       vel=st.lists(speed, min_size=4, max_size=4))
def test_spray_is_minus_christoffel_of_v_v(name, cube, vel):
    CM, to_chart = CHARTS[name]
    x = to_chart(cube)
    v = np.array(vel[:CM.dim])
    G = christoffel(CM, x)
    want = -np.einsum('kij,i,j->k', G, v, v)
    got = _spray(CM.gram(x), CM.partials(x), v)
    # relative to the size of the terms, |Gamma| |v|^2
    assert np.abs(got - want).max() <= 1e-12 * np.abs(G).max() * (v @ v)
