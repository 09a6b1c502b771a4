"""Layer spans for an in-process collapse-lab run, recorded from outside the program.

The tracer wraps the public functions that `experiments_cli` calls into each
layer, on the module (or class) attribute the CLI looks up at call time, so
nothing under `src/` changes.  Each call records a span: name, start, end and
parent (the span open when it started).  Spans and counters stay in memory;
the caller writes them out once, at the end of the run.

Self time is a span's duration minus the part of it its children cover.  Every
span opens inside `experiments_cli.main`, so the layers' self times plus the
CLI's own self time add up to the duration of `main`.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graph_core", "collapse_engine", "tree_process", "theory")
MAIN = "experiments_cli.main"


class Tracer:
    """In-memory span and counter store; `wrap` makes a traced callable."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn timed as span `name`; count(counts, args, result) runs after the span."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)  # reserved, so children get later indices
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the block; restore all on exit, errors included."""
    saved = []
    try:
        for owner, attr, value in targets:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- counters recorded at the layer boundaries ---------------------------------


def _count_edges(counts, args, g):
    counts["graph_core.edges"] += g.edge_count()


def _count_scan(counts, args, result):
    counts["collapse_engine.dominated_set.vertices_in"] += args[0].alive_count()
    counts["collapse_engine.dominated_set.hits"] += len(result)


def _count_epoch1(counts, args, trace):
    counts["collapse_engine.epoch1.removed"] += trace.removed_total()


def _count_epoch2(counts, args, trace):
    counts["collapse_engine.epoch2.steps"] += trace.steps


def _count_nodes(counts, args, tree):
    counts["tree_process.nodes"] += tree.size


def instrument(tracer: Tracer, cli, engine, graph_core, tree, theory) -> list[tuple]:
    """(owner, attribute, traced callable) for every layer entry the CLI reaches.

    An entry the program no longer has is skipped, and its metrics read 0.
    """
    specs = [
        (cli, "sample_er", "graph_core.sample_er", _count_edges),
        (getattr(graph_core, "AdjacencyGraph", None), "max_degree", "graph_core.max_degree", None),
        (engine, "count_dominated_pairs", "collapse_engine.count_dominated_pairs", None),
        (engine, "has_universal_vertex", "collapse_engine.has_universal_vertex", None),
        (engine, "run_epoch1", "collapse_engine.run_epoch1", _count_epoch1),
        (engine, "prune_phase", "collapse_engine.prune_phase", None),
        (engine, "dominated_set", "collapse_engine.dominated_set", _count_scan),
        (engine, "run_epoch2", "collapse_engine.run_epoch2", _count_epoch2),
        (cli, "estimate_gamma", "tree_process.estimate_gamma", None),
        (tree, "sample_tree", "tree_process.sample_tree", _count_nodes),
        (tree, "rng_from_seed", "tree_process.rng_from_seed", None),
    ]
    for name, fn in inspect.getmembers(theory, inspect.isfunction):
        if fn.__module__ == theory.__name__ and not name.startswith("_"):
            specs.append((theory, name, f"theory.{name}", None))
    return [
        (owner, attr, tracer.wrap(name, vars(owner)[attr], count))
        for owner, attr, name, count in specs
        if owner is not None and attr in vars(owner)
    ]


# -- span arithmetic ----------------------------------------------------------------


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run; layers the workload never reaches read 0."""
    counts = defaultdict(int, counts)
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_s in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_s

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    ge, ce, tp = "graph_core", "collapse_engine", "tree_process"
    return {
        f"{ge}.sample_er.s": total[f"{ge}.sample_er"],
        f"{ge}.sample_er.calls": calls[f"{ge}.sample_er"],
        f"{ge}.edges": counts[f"{ge}.edges"],
        f"{ge}.sample_er.edges_per_s": ratio(counts[f"{ge}.edges"], total[f"{ge}.sample_er"]),
        f"{ge}.max_degree.s": total[f"{ge}.max_degree"],
        f"{ge}.self_s": layer_self[ge],
        f"{ce}.run_epoch1.s": total[f"{ce}.run_epoch1"],
        f"{ce}.prune_phase.s": total[f"{ce}.prune_phase"],
        f"{ce}.prune_phase.calls": calls[f"{ce}.prune_phase"],
        f"{ce}.prune_phase.self_s": own[f"{ce}.prune_phase"],
        f"{ce}.dominated_set.s": total[f"{ce}.dominated_set"],
        f"{ce}.dominated_set.calls": calls[f"{ce}.dominated_set"],
        f"{ce}.dominated_set.vertices_in": counts[f"{ce}.dominated_set.vertices_in"],
        f"{ce}.dominated_set.hits": counts[f"{ce}.dominated_set.hits"],
        f"{ce}.dominated_set.hit_ratio": ratio(
            counts[f"{ce}.dominated_set.hits"], counts[f"{ce}.dominated_set.vertices_in"]
        ),
        f"{ce}.epoch1.removed": counts[f"{ce}.epoch1.removed"],
        f"{ce}.epoch1.removed_per_s": ratio(
            counts[f"{ce}.epoch1.removed"], total[f"{ce}.run_epoch1"]
        ),
        f"{ce}.run_epoch2.s": total[f"{ce}.run_epoch2"],
        f"{ce}.run_epoch2.self_s": own[f"{ce}.run_epoch2"],
        f"{ce}.epoch2.steps": counts[f"{ce}.epoch2.steps"],
        # the delete-and-recheck loop only: the pool's initial scan is a dominated_set span
        f"{ce}.epoch2.us_per_step": ratio(
            own[f"{ce}.run_epoch2"], counts[f"{ce}.epoch2.steps"], 1e6
        ),
        f"{ce}.count_dominated_pairs.s": total[f"{ce}.count_dominated_pairs"],
        f"{ce}.has_universal_vertex.s": total[f"{ce}.has_universal_vertex"],
        f"{ce}.self_s": layer_self[ce],
        f"{tp}.estimate_gamma.s": total[f"{tp}.estimate_gamma"],
        f"{tp}.estimate_gamma.self_s": own[f"{tp}.estimate_gamma"],
        f"{tp}.sample_tree.s": total[f"{tp}.sample_tree"],
        f"{tp}.sample_tree.calls": calls[f"{tp}.sample_tree"],
        f"{tp}.nodes": counts[f"{tp}.nodes"],
        f"{tp}.rng_from_seed.s": total[f"{tp}.rng_from_seed"],
        f"{tp}.us_per_tree": ratio(
            total[f"{tp}.estimate_gamma"], calls[f"{tp}.sample_tree"], 1e6
        ),
        f"{tp}.self_s": layer_self[tp],
        # theory spans only nest inside other theory spans, so the layer's self
        # time is the time covered by its outermost calls
        "theory.s": layer_self["theory"],
        f"{MAIN}.s": total[MAIN],
        "experiments_cli.self_s": own[MAIN],
    }


def layer_sum_gap(m: dict[str, float]) -> float:
    """|sum of layer self times + CLI self time - main|; rounding error only."""
    parts = [m[f"{layer}.self_s"] for layer in LAYERS if layer != "theory"]
    parts += [m["theory.s"], m["experiments_cli.self_s"]]
    return abs(sum(parts) - m[f"{MAIN}.s"])
