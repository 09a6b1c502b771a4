"""Sparse undirected graphs with tombstone deletion and a seeded Erdos-Renyi sampler.

Vertices are integer ids in [0, n).  Removing a vertex marks it dead and strips
it from its neighbors' adjacency; ids are never reused, so removal logs stay
stable across arbitrarily long deletion sequences.

Reproducibility contract (stated here and in the README so another
implementation can replicate streams exactly):

* generator: NumPy ``PCG64``, instantiated as ``Generator(PCG64(seed))``.
* per-trial derivation: ``trial_seed = mix_seed(base_seed, trial_index)``
  where ``mix_seed`` adds ``trial_index * 0x9E3779B97F4A7C15`` mod 2^64 and
  applies the splitmix64 finalizer (shift-xor-multiply chain below).
* edge sampling: vertex pairs (u, v) with u < v are enumerated in row-major
  order; consecutive uniform draws U map to geometric gaps
  ``floor(log1p(-U) / log1p(-p))`` and the pairs landed on become edges.
  The edge set is a pure function of (n, p, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 finalizer round: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the sub-stream seed for trial `index` from a base seed."""
    return splitmix64((base_seed + index * _GOLDEN) & _MASK64)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


@dataclass(frozen=True)
class GraphParams:
    """Sampling parameters: size, edge probability, seed.

    Use `from_c` for the c/n parametrization; seeds are reduced mod 2^64.
    """

    n: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {self.p}")
        object.__setattr__(self, "seed", self.seed & _MASK64)

    @classmethod
    def from_c(cls, n: int, c: float, seed: int) -> "GraphParams":
        if c < 0:
            raise ValueError(f"mean-degree constant must be >= 0, got {c}")
        if n <= 0:
            raise ValueError(f"vertex count must be positive for c-form, got {n}")
        p = c / n
        if p > 1.0:
            raise ValueError(f"c={c} exceeds n={n}, giving p={p} > 1")
        return cls(n=n, p=p, seed=seed)


class AdjacencyGraph:
    """Undirected graph on [0, n) with alive flags and per-vertex neighbor sets.

    Neighbor sets hold alive vertices only and stay symmetric under every
    operation.  The public `neighbors` accessor returns a sorted list;
    `neighbor_view` exposes the internal set for read-only use on hot paths
    (do not mutate it).
    """

    __slots__ = ("n", "_alive", "_adj", "_alive_count", "_non_isolated")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self._alive = bytearray([1]) * n if n else bytearray()
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._alive_count = n
        self._non_isolated = 0

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    # -- basic accessors ----------------------------------------------------

    def is_alive(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self._alive[v])

    def _require_alive(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex id {v} out of range [0, {self.n})")
        if not self._alive[v]:
            raise ValueError(f"vertex {v} is dead")

    def alive_ids(self) -> Iterator[int]:
        """Alive vertex ids in ascending order."""
        alive = self._alive
        return (v for v in range(self.n) if alive[v])

    def alive_count(self) -> int:
        return self._alive_count

    def non_isolated_count(self) -> int:
        """Alive vertices with at least one neighbor."""
        return self._non_isolated

    def degree(self, v: int) -> int:
        self._require_alive(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        self._require_alive(v)
        return sorted(self._adj[v])

    def neighbor_view(self, v: int) -> AbstractSet[int]:
        """Internal neighbor set of an alive vertex; treat as read-only."""
        self._require_alive(v)
        return self._adj[v]

    def is_closed_nbhd_subset(self, u: int, w: int) -> bool:
        """Whether N[u] is contained in N[w] (both vertices alive)."""
        self._require_alive(u)
        self._require_alive(w)
        if u == w:
            return True
        nu = self._adj[u]
        if u not in self._adj[w]:
            return False
        # w in N(u) and w not in N(w): containment reduces to N(u)\{w} within N(w).
        return len(nu & self._adj[w]) == len(nu) - 1

    def edge_count(self) -> int:
        return sum(len(self._adj[v]) for v in range(self.n) if self._alive[v]) // 2

    def max_degree(self) -> int:
        return max((len(self._adj[v]) for v in range(self.n) if self._alive[v]), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Alive edges (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            if self._alive[u]:
                for v in sorted(self._adj[u]):
                    if v > u:
                        yield (u, v)

    # -- mutation -----------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        self._require_alive(u)
        self._require_alive(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} rejected")
        au, av = self._adj[u], self._adj[v]
        if v in au:
            return
        if not au:
            self._non_isolated += 1
        if not av:
            self._non_isolated += 1
        au.add(v)
        av.add(u)

    def remove_vertex(self, v: int) -> None:
        """Tombstone v and strip it from all neighbor sets."""
        self._require_alive(v)
        nv = self._adj[v]
        if nv:
            self._non_isolated -= 1
        for u in nv:
            au = self._adj[u]
            au.discard(v)
            if not au:
                self._non_isolated -= 1
        nv.clear()
        self._alive[v] = 0
        self._alive_count -= 1

    def copy(self) -> "AdjacencyGraph":
        g = AdjacencyGraph.__new__(AdjacencyGraph)
        g.n = self.n
        g._alive = bytearray(self._alive)
        g._adj = [set(s) for s in self._adj]
        g._alive_count = self._alive_count
        g._non_isolated = self._non_isolated
        return g


def _pair_index_to_uv(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map row-major linear pair indices to (u, v) with u < v.

    Row u starts at offset S(u) = u*n - u*(u+1)/2.  The float solve is
    corrected by integer fix-up passes, keeping the map exact well past 10^6.
    A pass that finds nothing to fix certifies every row; if none does, the
    map raises instead of returning unverified rows.  Each pass first clamps
    rows into [0, n-2], so an index outside [0, n(n-1)/2) is moved back and
    forth and never certified.
    """
    b = 2 * n - 1
    # far past the last pair the root is NaN; the passes below raise for it
    with np.errstate(invalid="ignore"):
        u = ((b - np.sqrt(np.float64(b) * b - 8.0 * idx.astype(np.float64))) // 2).astype(np.int64)

    def start(row: np.ndarray) -> np.ndarray:
        return row * n - (row * (row + 1)) // 2

    for _ in range(3):  # float error is at most a row or two
        np.clip(u, 0, n - 2, out=u)
        too_high = start(u) > idx
        u[too_high] -= 1
        too_low = start(u + 1) <= idx
        u[too_low] += 1
        if not (too_high.any() or too_low.any()):
            break
    else:
        raise ArithmeticError(f"pair-index row solve did not settle within 3 passes at n={n}")
    v = idx - start(u) + u + 1
    return u, v


def sample_er(params: GraphParams) -> AdjacencyGraph:
    """Sample G(n, p) by geometric gap skipping over the n(n-1)/2 pairs.

    Expected O(n + m) work.  Deterministic in params.seed; p in {0, 1} does
    not consume randomness at all.
    """
    n, p = params.n, params.p
    g = AdjacencyGraph(n)
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0 or p == 0.0:
        return g
    if p == 1.0:
        idx = np.arange(total_pairs, dtype=np.int64)
    else:
        rng = rng_from_seed(params.seed)
        log_q = math.log1p(-p)
        pos = -1
        chunks: list[np.ndarray] = []
        while pos < total_pairs:
            want = int((total_pairs - pos) * p * 1.25) + 32
            gaps = np.floor(np.log1p(-rng.random(want)) / log_q)
            # inf guard: a uniform draw of exactly 0 gives gap 0; draws near 1 give huge
            # but finite gaps, so positions just overshoot total_pairs and stop the scan.
            positions = pos + np.cumsum(gaps.astype(np.int64) + 1)
            inside = positions < total_pairs
            if inside.all():
                chunks.append(positions)
                pos = int(positions[-1])
            else:
                chunks.append(positions[inside])
                break
        idx = np.concatenate(chunks)

    us, vs = _pair_index_to_uv(idx, n)
    adj = g._adj
    for u, v in zip(us.tolist(), vs.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    g._non_isolated = sum(1 for s in adj if s)
    return g
