"""Simple reference implementations that the fast code in src/ is held to.

Each function here is the plain form of a fast path and is kept only so that
differential tests can compare the two on the same inputs.
"""

import numpy as np

from collapse_lab.tree_process import PoissonTree, _poisson_cdf, _poisson_counts


def sample_tree_per_layer(c: float, depth: int, rng: np.random.Generator) -> PoissonTree:
    """`sample_tree` with one draw per layer: rng.random(layer size), then np.repeat."""
    cdf = _poisson_cdf(float(c))
    parents = [np.array([-1], dtype=np.int64)]
    offsets = [0, 1]
    layer_start = 0
    layer_size = 1
    for _ in range(depth):
        counts = _poisson_counts(cdf, rng, layer_size)
        n_next = int(counts.sum())
        if n_next == 0:
            break
        node_ids = np.arange(layer_start, layer_start + layer_size, dtype=np.int64)
        parents.append(np.repeat(node_ids, counts))
        layer_start += layer_size
        layer_size = n_next
        offsets.append(layer_start + layer_size)
    parent = np.concatenate(parents)
    return PoissonTree(
        parent=parent,
        n_children=np.bincount(parent[1:], minlength=len(parent)),
        layer_offsets=np.array(offsets, dtype=np.int64),
    )
