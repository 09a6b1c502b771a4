"""Sparse undirected graphs with tombstone deletion and a seeded Erdos-Renyi sampler.

Vertices are integer ids in [0, n).  A graph's edges come from its
constructor and are laid out once as CSR (compressed sparse row) rows by
`csr_rows`, which the array scan in `collapse_engine` uses too; after that
the graph only loses vertices.  Removing a vertex clears its alive flag and
lowers its neighbors' degrees; ids are never reused, so removal logs stay
stable across arbitrarily long deletion sequences.

Reproducibility contract (stated here and in the README so another
implementation can replicate streams exactly); every rule that must match
numpy's generator bit for bit lives in this module:

* generator: NumPy ``PCG64``, instantiated as ``Generator(PCG64(seed))``;
  ``pcg64_states`` derives the starting states of many seeds at once, and
  ``fill_rows`` draws each state's stream into a row.
* per-trial derivation: ``trial_seed = mix_seed(base_seed, trial_index)``
  where ``mix_seed`` adds ``trial_index * 0x9E3779B97F4A7C15`` mod 2^64 and
  applies the splitmix64 finalizer (shift-xor-multiply chain below);
  ``mix_seeds`` does so for many trial indices at once, in uint64 lanes.
* bounded integers: ``bounded_draws(rng)(k)`` is ``int(rng.integers(k))``.
* edge sampling: vertex pairs (u, v) with u < v are enumerated in row-major
  order; consecutive uniform draws U map to geometric gaps
  ``floor(log1p(-U) / log1p(-p))`` and the pairs landed on become edges.
  Each landed index is mapped back to its pair by an exact integer search
  of the row starts.  The edge set is a pure function of (n, p, seed).

`sample_edges(n, p, seed)` is that stream as two numpy arrays; it refuses
n < 0 and p outside [0, 1], and `rng_from_seed` takes the seed mod 2^64.
`sample_er(n, p, seed)` is the `AdjacencyGraph` of those arrays, handed
to the constructor's builder as they are.  Each
array stage holds about its own output: the sampler one index buffer, which
becomes vs, `csr_rows` one key array, and the graph one copy of the rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections.abc import Callable, Iterable
from typing import Iterator, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int | np.ndarray) -> int | np.ndarray:
    """One splitmix64 finalizer round: avalanche a 64-bit int, or each lane of a uint64 array."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the sub-stream seed for trial `index` from a base seed."""
    return splitmix64((base_seed + index * _GOLDEN) & _MASK64)


def mix_seeds(base_seed: int, indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """`mix_seed(base_seed, i)` for each index i in [0, 2^64), as uint64 lanes.

    The lanes wrap mod 2^64, so masking the base first gives mix_seed's sum.
    """
    lanes = np.asarray(indices, dtype=np.uint64) * np.uint64(_GOLDEN)
    lanes += np.uint64(base_seed & _MASK64)
    return splitmix64(lanes)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_WORD = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _seed_hash(v: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    # numpy SeedSequence's 32-bit hash of the words v under the running constant h
    h_next = (h * mult) & 0xFFFFFFFF
    v = ((v ^ np.uint64(h)) * np.uint64(h_next)) & _WORD
    return v ^ (v >> np.uint64(16)), h_next


def _mulhi(x: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of each x * m, from 32-bit limbs so no product overflows."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x0, x1 = x & _WORD, x >> _32
    p01, p10 = x0 * m1, x1 * m0
    mid = (x0 * m0 >> _32) + (p01 & _WORD) + (p10 & _WORD)
    return x1 * m1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """The PCG64 state `rng_from_seed` starts from, for each seed of a uint64 array.

    Column i is (state high, state low, inc high, inc low) as uint64 words.
    SeedSequence(s) hashes the seed's 32-bit words (zero-padded to 4) into a
    pool, mixes the pool and hashes out the halves of (initstate, initseq);
    PCG64 sets inc = 2 initseq + 1 and state = (initstate + inc) * multiplier
    + inc mod 2^128, done here on 64-bit halves with explicit carries.
    """
    pool, h = [seeds & _WORD, seeds >> _32, 0 * seeds, 0 * seeds], 0x43B0D7E5
    for k in range(4):
        pool[k], h = _seed_hash(pool[k], h, 0x931E8875)
    for src, dst in itertools.permutations(range(4), 2):
        w, h = _seed_hash(pool[src], h, 0x931E8875)
        mixed = (np.uint64(0xCA01F9DD) * pool[dst] - np.uint64(0x4973F715) * w) & _WORD
        pool[dst] = mixed ^ (mixed >> np.uint64(16))
    words, h = pool + pool, 0x8B51F9DD  # 8 output words cycle over the pool
    for k in range(8):
        words[k], h = _seed_hash(words[k], h, 0x58F38DED)
    init_hi, init_lo, seq_hi, seq_lo = (words[k] | (words[k + 1] << _32) for k in (0, 2, 4, 6))
    del pool, words  # a chunk's hash arrays are most of its memory: free them for the step
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    lo = init_lo + inc_lo
    hi = init_hi + inc_hi + (lo < init_lo)  # a wrapped low word carries 1
    # (hi, lo) * multiplier mod 2^128: the full low product, and the cross products' low words
    hi = _mulhi(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    lo *= np.uint64(_PCG_MULT_LO)
    state_lo = lo + inc_lo
    return np.stack((hi + inc_hi + (state_lo < lo), state_lo, inc_hi, inc_lo))


@functools.cache
def _row_filler() -> tuple[np.random.Generator, dict]:
    """`fill_rows`' generator and the state dict it sets, made on first use."""
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {}}
    return np.random.Generator(np.random.PCG64(0)), state


def fill_rows(states: np.ndarray, out: np.ndarray) -> None:
    """Fill row i of `out` with the doubles PCG64 gives from column i of `states`.

    One generator, made on the first call and kept, takes each state in
    turn, set from the column's halves through one reused state dict, and
    fills that row.  Every row sets the whole state, so no call sees what
    an earlier one left.
    """
    rng, state = _row_filler()
    bit_generator, pcg = rng.bit_generator, state["state"]
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, *states.tolist(), strict=True):
        pcg["state"], pcg["inc"] = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        bit_generator.state = state
        rng.random(out=row)


_WORDS = 1024  # 32-bit words per numpy call
_MASK32 = 0xFFFFFFFF


def bounded_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """Return `below(k)`, which gives the value `int(rng.integers(k))` would give.

    For 1 <= k <= 2^32 numpy draws `integers(k)` from its 32-bit stream by
    Lemire's multiply-and-reject rule (D. Lemire, "Fast Random Integer
    Generation in an Interval", ACM TOMACS 2019): m = w*k for the next word w,
    drawn again while m mod 2^32 < (2^32 - k) mod k, and the value is m >> 32;
    k = 1 gives 0 and takes no word.  Above 2^32 numpy switches to 64-bit
    words, so such a k raises, as does k < 1.  `integers(0, 2**32,
    dtype=np.uint32)` returns the same 32-bit stream in order, a half-word the
    generator already holds first, so the rule applied here gives numpy's
    values at one numpy call per 1024 words.  `words` fetches a batch only
    when the last is used up, so the generator ends advanced by whole batches.
    """

    def fetch() -> list[int]:
        return rng.integers(0, 2**32, size=_WORDS, dtype=np.uint32).tolist()

    words = itertools.chain.from_iterable(iter(fetch, None))

    def below(k: int) -> int:
        if not 1 <= k <= 2**32:
            raise ValueError(f"bound must lie in [1, 2^32], got {k}")
        if k == 1:
            return 0
        for w in words:
            m = w * k
            # the threshold (2^32 - k) mod k is below k, so only a low word below k needs it
            if (low := m & _MASK32) >= k or low >= (2**32 - k) % k:
                return m >> 32

    return below


class AdjacencyGraph:
    """Undirected graph on [0, n): CSR rows, alive flags and live degrees.

    `AdjacencyGraph(n, edges)` takes pairs or an (m, 2) integer array; it
    refuses an id outside [0, n) or a self-loop, and a repeated edge counts
    once.  v's row `_dst[_start[v]:_start[v + 1]]` lists its neighbors
    ascending and never changes: copies share it.  `remove_vertex` clears v's
    flag and lowers its alive neighbors' degrees, so a vertex's neighbors are
    the alive entries of its whole row, and a removed vertex has degree 0.
    The flags are a `bytearray` and the degrees an `array` of the ids' type,
    so numpy can view and write both in place.  `_sig` holds the row
    signatures of `collapse_engine`'s scan once it has built them; like the
    rows, they never change, and copies share them.
    """

    __slots__ = ("n", "_alive", "_deg", "_dst", "_start", "_sig")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        pairs = pairs.reshape(-1, 2)
        self._lay_out(n, pairs[:, 0], pairs[:, 1])

    def _lay_out(self, n: int, us: np.ndarray, vs: np.ndarray) -> None:
        """Check the edges (us[i], vs[i]) and lay out their rows: the one builder of a graph."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if us.size and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= n):
            i = np.flatnonzero((us < 0) | (us >= n) | (vs < 0) | (vs >= n))[0]
            bad = us[i] if not 0 <= us[i] < n else vs[i]
            raise ValueError(f"vertex id {bad} out of range [0, {n})")
        if (us == vs).any():
            raise ValueError(f"self-loop at vertex {us[us == vs][0]} rejected")
        dst, start = csr_rows(n, us, vs)
        self.n = n
        self._alive = bytearray([1]) * n
        self._dst, self._start = _as_array(dst), _as_array(start)
        self._deg = _as_array(np.diff(start).astype(dst.dtype))
        self._sig = None

    # -- basic accessors ----------------------------------------------------

    def _require_alive(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex id {v} out of range [0, {self.n})")
        if not self._alive[v]:
            raise ValueError(f"vertex {v} is dead")

    def _live(self, v: int) -> Sequence[int]:
        """v's alive neighbors, ascending, from its whole row."""
        start = self._start
        row = self._dst[start[v]:start[v + 1]]
        if self._deg[v] == len(row):
            return row
        alive = self._alive
        return [u for u in row if alive[u]]

    def alive_ids(self) -> Iterator[int]:
        """Alive vertex ids in ascending order."""
        return itertools.compress(range(self.n), self._alive)

    def alive_count(self) -> int:
        return self._alive.count(1)

    def degree(self, v: int) -> int:
        self._require_alive(v)
        return self._deg[v]

    def neighbor_view(self, v: int) -> set[int]:
        """A new set of the alive neighbors of an alive vertex."""
        self._require_alive(v)
        return set(self._live(v))

    def non_isolated_count(self) -> int:
        """Alive vertices with at least one neighbor: a removed vertex has degree 0."""
        return int(np.count_nonzero(np.frombuffer(self._deg, dtype=self._deg.typecode)))

    def edge_count(self) -> int:
        return sum(self._deg) // 2

    def max_degree(self) -> int:
        return int(np.frombuffer(self._deg, dtype=self._deg.typecode).max(initial=0))

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The alive edges (u, v), u < v, ascending, as two arrays."""
        dst = np.frombuffer(self._dst, dtype=self._dst.typecode)
        src = np.repeat(np.arange(self.n, dtype=dst.dtype), np.diff(self._start))
        alive = np.frombuffer(self._alive, dtype=bool)
        keep = (src < dst) & alive[src] & alive[dst]
        return src[keep], dst[keep]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Alive edges (u, v) with u < v, in ascending order."""
        us, vs = self._edge_arrays()
        return zip(us.tolist(), vs.tolist())

    # -- mutation -----------------------------------------------------------

    def remove_vertex(self, v: int) -> None:
        """Clear v's flag and lower its alive neighbors' degrees."""
        deg = self._deg
        for u in self.neighbor_view(v):
            deg[u] -= 1
        deg[v] = 0
        self._alive[v] = 0

    def copy(self) -> "AdjacencyGraph":
        g = AdjacencyGraph.__new__(AdjacencyGraph)
        g.n, g._dst, g._start, g._sig = self.n, self._dst, self._start, self._sig
        g._alive = bytearray(self._alive)
        g._deg = self._deg[:]
        return g


def _as_array(x: np.ndarray) -> array:
    """An `array` of x's type holding a copy of x: one copy, no bytes object between."""
    a = array(x.dtype.char)
    a.frombytes(memoryview(x).cast("B"))
    return a


def csr_rows(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dst, start): the CSR rows of the edges (us[i], vs[i]), either way round.

    v's neighbors, ascending, fill dst[start[v]:start[v + 1]].  Ids are int32
    where n allows.  The rows come from one int64 key array, v*n + w per
    entry, sorted in place: it reaches 10^14 at n = 10^7, and it is freed on
    return.  The row sizes are counted from us and vs; a repeat goes by a
    mask on the sorted keys, made only when one exists: numpy 2.4's
    `np.unique` hashes, several times slower.
    """
    keys = np.concatenate((us, vs), dtype=np.int64)
    start = np.zeros(n + 1, dtype=np.int64)  # row v's size at v + 1, then the running sum
    start[1:] = np.bincount(keys, minlength=n)
    keys *= n
    keys[: len(us)] += vs
    keys[len(us) :] += us
    keys.sort()
    repeat = keys[1:] == keys[:-1]
    if repeat.any():
        start[1:] -= np.bincount(keys[1:][repeat] // n, minlength=n)
        keys = keys[np.concatenate(([True], ~repeat))]
    del repeat
    dst = np.empty(len(keys), dtype=np.int32 if n < 2**31 else np.int64)
    np.remainder(keys, n, out=dst, casting="unsafe")
    return dst, np.cumsum(start, out=start)


def _split_pairs(idx: np.ndarray, n: int) -> np.ndarray:
    """Turn the row-major pair indices idx into their columns v in place; return their rows u.

    Row u holds the pairs (u, u+1) .. (u, n-1) and starts at the exact int64
    offset S(u) = u*n - u*(u+1)/2, the sum of the lengths n-1 .. n-u of the
    rows above it.  An index lies in the last row whose start does not exceed
    it, found by binary search over S(0) .. S(n-2).  Indices outside
    [0, n(n-1)/2) belong to no row and raise.  The indices go in blocks of
    _CHUNK, so the n-1 starts and the rows are the only new arrays of their size.
    """
    total = n * (n - 1) // 2
    if idx.size and not (0 <= idx.min() and idx.max() < total):
        raise ArithmeticError(f"pair index outside [0, {total}) at n={n}")
    starts = np.arange(n, 1, -1, dtype=np.int64)  # the row lengths, summed in place
    starts[0] = 0
    np.cumsum(starts, out=starts)
    us = np.empty_like(idx)
    for a in range(0, len(idx), _CHUNK):
        v, u = idx[a : a + _CHUNK], us[a : a + _CHUNK]
        u[:] = np.searchsorted(starts, v, side="right") - 1
        v -= starts[u]
        v += u + 1
    return us


_CHUNK = 2**16  # uniforms per draw, and pair indices per block of `_split_pairs`


def _edge_capacity(total_pairs: int, p: float) -> int:
    """The sampler's first buffer: the mean edge count plus 6 standard deviations."""
    return int(total_pairs * p + 6 * math.sqrt(total_pairs * p)) + 64


def sample_edges(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the edges of G(n, p) by geometric gap skipping over the n(n-1)/2 pairs.

    Returns int64 arrays (us, vs) with us < vs, in ascending row-major order.
    Expected O(n + m log n) work.  Deterministic in the seed, taken mod 2^64;
    p in {0, 1} does not consume randomness at all.  The uniforms come _CHUNK
    at a time; the landed indices fill one buffer (doubled in the rare sample
    past `_edge_capacity`), which becomes vs in place.  The peak is the output
    and the row starts: 11 MiB under tracemalloc at `phase-sparse`'s size,
    for 8.8 MiB of output.
    """
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p == 1.0:
        idx = np.arange(total_pairs, dtype=np.int64)
    else:
        rng = rng_from_seed(seed)
        log_q = math.log1p(-p)
        idx = np.empty(_edge_capacity(total_pairs, p), dtype=np.int64)
        m, pos = 0, -1
        while pos < total_pairs:
            want = min(int((total_pairs - pos) * p * 1.25) + 32, _CHUNK)
            # floor(log1p(-U) / log_q), computed in place on the draw buffer.
            # inf guard: a uniform draw of exactly 0 gives gap 0; draws near 1 give huge
            # but finite gaps, so positions just overshoot total_pairs and stop the scan.
            # Capped at total_pairs, which ends the scan just the same, so that tiny p
            # cannot push a gap past 2^63 (or, for subnormal p, to inf) before the cast.
            gaps = rng.random(want)
            np.negative(gaps, out=gaps)
            np.log1p(gaps, out=gaps)
            with np.errstate(over="ignore"):
                gaps /= log_q
            np.floor(gaps, out=gaps)
            np.minimum(gaps, total_pairs, out=gaps)
            positions = gaps.astype(np.int64)
            positions += 1
            np.cumsum(positions, out=positions)
            positions += pos
            k = int(np.searchsorted(positions, total_pairs))  # positions ascend
            if m + k > len(idx):
                idx = np.resize(idx, max(m + k, 2 * len(idx)))
            idx[m : m + k] = positions[:k]
            m += k
            pos = int(positions[-1])
        idx = idx[:m]
    return _split_pairs(idx, n), idx


def sample_er(n: int, p: float, seed: int) -> AdjacencyGraph:
    """An `AdjacencyGraph` holding the edges of `sample_edges(n, p, seed)`."""
    g = AdjacencyGraph.__new__(AdjacencyGraph)
    g._lay_out(n, *sample_edges(n, p, seed))
    return g
