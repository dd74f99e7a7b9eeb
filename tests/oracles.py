"""Hand-assembled reference systems, independent of the library code paths,
and the meshes with excluded nodes that several test modules share."""

import numpy as np
import scipy.sparse as sp

from plapsolve import DiscreteFunction, box, build_mesh, strip

# a punctured 3D box and a 4D strip capped over two of its axes
STACKED_MESHES = {
    "punctured_3d": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.3
    ),
    "capped_4d_strip": lambda: build_mesh(
        strip([(0.0, 1.0)], 3, 1.5), [5, 5, 7, 5], singular_cap_radius=0.45, singular_axes=(1, 2)
    ),
}


def embed(mesh, bump):
    """A sampled bump, its support box and box-shaped values, as the
    whole-mesh function it stands for."""
    support, values = bump
    whole = np.zeros(mesh.shape)
    whole[support] = values
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


def reference_grad_op(mesh):
    """The stacked ``(dims * n_nodes, n_nodes)`` whole-grid difference
    operator as a sorted CSR matrix, assembled axis by axis: row
    ``a * n_nodes + i`` is the axis-``a`` derivative at node ``i``, centered
    where both neighbors are non-excluded, one-sided where one is missing or
    excluded, and zero at excluded nodes.  ``Mesh.grad``'s operator is its
    free columns."""
    nd, shape, n = mesh.domain.dims, mesh.shape, mesh.n_nodes
    exc = mesh.excluded_mask.reshape(shape)
    ops = []
    for axis in range(nd):
        h = mesh.spacing[axis]
        idx = np.arange(n).reshape(shape)

        def axsl(s):
            sl = [slice(None)] * nd
            sl[axis] = s
            return tuple(sl)

        left_nbr = np.full(shape, -1, dtype=np.int64)
        left_nbr[axsl(slice(1, None))] = idx[axsl(slice(0, -1))]
        right_nbr = np.full(shape, -1, dtype=np.int64)
        right_nbr[axsl(slice(0, -1))] = idx[axsl(slice(1, None))]
        left_ok = np.zeros(shape, dtype=bool)
        left_ok[axsl(slice(1, None))] = ~exc[axsl(slice(0, -1))]
        right_ok = np.zeros(shape, dtype=bool)
        right_ok[axsl(slice(0, -1))] = ~exc[axsl(slice(1, None))]

        active = ~exc
        centered = (active & left_ok & right_ok).ravel()
        fwd = (active & ~left_ok & right_ok).ravel()
        bwd = (active & left_ok & ~right_ok).ravel()
        idx, left_nbr, right_nbr = idx.ravel(), left_nbr.ravel(), right_nbr.ravel()
        rows = [idx[centered], idx[centered], idx[fwd], idx[fwd], idx[bwd], idx[bwd]]
        cols = [right_nbr[centered], left_nbr[centered], right_nbr[fwd], idx[fwd], idx[bwd], left_nbr[bwd]]
        vals = [
            np.full(centered.sum(), 0.5 / h),
            np.full(centered.sum(), -0.5 / h),
            np.full(fwd.sum(), 1.0 / h),
            np.full(fwd.sum(), -1.0 / h),
            np.full(bwd.sum(), 1.0 / h),
            np.full(bwd.sum(), -1.0 / h),
        ]
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        ops.append(mat)
    op = sp.vstack(ops, format="csr")
    op.sort_indices()
    return op
