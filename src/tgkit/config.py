"""Central tolerance record.

Every numerical gate in the package reads its threshold from a Tolerances
instance so that CLI overrides reach all engines through one object.
"""
from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Tolerances:
    # construction gates
    jacobi: float = 1e-9                # Lie algebra admission
    onb: float = 1e-12                  # Q^T G Q = I check
    spd_min_eig: float = 0.0            # gram eigenvalues must exceed this

    # connection / curvature identities
    torsion: float = 1e-12
    metric_compat: float = 1e-13        # entry-wise, exact as assembled
    r_symmetry: float = 1e-10
    bianchi: float = 1e-10
    operator_symmetric: float = 1e-12
    operator_reconstruct: float = 1e-10
    degenerate_plane: float = 1e-12     # Gram determinant floor for sectional

    # totally geodesic certification
    tg_residual: float = 1e-9
    unit_norm: float = 1e-10
    codazzi: float = 1e-9

    # Frenet / helix
    eps_k: float = 1e-8                 # zero threshold for curvatures
    eps_k_warn: float = 1e-10           # [eps_k_warn, eps_k) flags borderline
    frenet_recursion: float = 1e-9
    bracket_table: float = 1e-9
    ideal: float = 1e-9
    sl2_match: float = 1e-8
    eigen_membership: float = 1e-8      # wedge eigen-space membership

    # hyperplane search
    search_residual: float = 1e-10
    dedup_angle: float = 1e-4
    continuum_minima: int = 20          # multistart fallback: more normals flag a continuum

    # coordinate engine
    fd_vs_exact: float = 1e-6
    speed_reject: float = 1e-4
    ode_residual: float = 1e-10
    eikonal: float = 1e-12
    leaf_frenet: float = 1e-3
    leaf_k3: float = 1e-4
    sff_leaf: float = 1e-7
    cross_engine: float = 1e-6

    def replace(self, **kw) -> "Tolerances":
        return dataclasses.replace(self, **kw)


DEFAULT = Tolerances()
