"""Hand-assembled reference systems, independent of the library code paths,
and the meshes with excluded nodes that several test modules share."""

import numpy as np

from plapsolve import DiscreteFunction, build_mesh, punctured_box, strip

# a punctured 3D box and a 4D strip capped over two of its axes
STACKED_MESHES = {
    "punctured_3d": lambda: build_mesh(
        punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [9, 9, 9]
    ),
    "capped_4d_strip": lambda: build_mesh(
        strip([(0.0, 1.0)], 3, 1.5), [5, 5, 7, 5], singular_cap_radius=0.45, singular_axes=(1, 2)
    ),
}


def embed(mesh, bump):
    """A sampled bump, its support box and box-shaped values, as the
    whole-mesh function it stands for."""
    box, values = bump
    whole = np.zeros(mesh.shape)
    whole[box] = values
    return DiscreteFunction(mesh, whole)


def wide_system_1d(n):
    """1D operator matching the nodal-gradient discretization on (0, 1):
    A = G^T diag(w) G with centered interior and one-sided edge stencils,
    trapezoidal weights w."""
    x = np.linspace(0.0, 1.0, n)
    h = x[1] - x[0]
    G = np.zeros((n, n))
    G[0, 0], G[0, 1] = -1 / h, 1 / h
    G[-1, -2], G[-1, -1] = -1 / h, 1 / h
    for i in range(1, n - 1):
        G[i, i - 1], G[i, i + 1] = -0.5 / h, 0.5 / h
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    A = G.T @ np.diag(w) @ G
    return x, h, w, A
