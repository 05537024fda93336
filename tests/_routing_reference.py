"""Reference enumerator for the routing tests: the generator DFS over
``graph.adj`` that ``repro.routing.paths`` used before its integer kernel.

It walks networkx adjacency with node labels, carries the on-path set as a
Python set and re-checks "some target still off the path" with a set
comparison per descent.  Slow, but every step is visible, which is what an
oracle is for: the tests compare the library's kernel against it for exact
path order, every node and link mask and ``count_paths``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro._typing import AnyGraph, Node, Path
from repro.exceptions import PathExplosionError, RoutingError
from repro.failures.universe import canonical_link
from repro.routing.mechanisms import RoutingMechanism
from repro.utils.bitset import mask_from_indices


def iter_simple_paths(
    graph: AnyGraph,
    source: Node,
    targets: Iterable[Node],
    cutoff: Optional[int],
) -> Iterator[Path]:
    """Yield all simple paths from ``source`` to any of ``targets``.

    A native iterative multi-target DFS: one traversal per source covers
    every target, so path prefixes shared between targets are walked only
    once — and, unlike ``networkx.all_simple_paths``, the on-path node set is
    carried explicitly, the generator emits tuples directly, and no wrapper
    generators sit between the traversal and the caller.  Paths from a node
    to itself are excluded (the DLP/cycle cases are handled by the callers).

    ``cutoff`` limits the path length in *edges* (``None`` = unlimited).
    The traversal descends into a child only while some target lies outside
    the current path, matching the classic pruning of the networkx
    implementation; emission order is depth-first in adjacency order — i.e.
    lexicographic in the path's adjacency-index vector.
    """
    target_set = {t for t in targets if t != source}
    if not target_set:
        return
    if source not in graph:
        raise RoutingError(f"source node {source!r} is not in the graph")
    adjacency = graph.adj
    max_nodes = graph.number_of_nodes() if cutoff is None else cutoff + 1
    if max_nodes < 2:
        return  # no room for even a 1-edge path (cutoff <= 0 / trivial graph)
    path: List[Node] = [source]
    on_path = {source}
    stack: List[Iterator[Node]] = [iter(adjacency[source])]
    while stack:
        descended = False
        for child in stack[-1]:
            if child in on_path:
                continue
            if child in target_set:
                yield tuple(path) + (child,)
            if len(path) < max_nodes - 1 and not target_set <= on_path | {child}:
                path.append(child)
                on_path.add(child)
                stack.append(iter(adjacency[child]))
                descended = True
                break
        if not descended:
            stack.pop()
            on_path.discard(path.pop())


def monitor_cycles(
    graph: AnyGraph, anchor: Node, cutoff: Optional[int]
) -> Iterator[Path]:
    """Yield simple cycles through ``anchor`` as closed node tuples.

    Used by CAP/CAP⁻ for paths that start and end at the same monitor node.
    A cycle is represented by its node sequence starting and ending at the
    anchor, e.g. ``(a, b, c, a)``.
    """
    if graph.is_directed():
        for successor in graph.successors(anchor):
            if successor == anchor:
                continue
            for path in iter_simple_paths(graph, successor, {anchor}, cutoff):
                yield (anchor,) + path
    else:
        # Dedup by the canonical *edge* set, not the node set: two genuinely
        # different simple cycles can visit the same nodes in different orders
        # (e.g. (a,b,c,d,a) vs (a,c,b,d,a) in K4) and must both be kept, while
        # a pure reversal traverses the same undirected edges and is
        # suppressed.  A simple cycle never repeats an undirected edge, so a
        # frozenset of unordered endpoint pairs is a faithful canonical form.
        seen: set = set()
        for neighbour in graph.neighbors(anchor):
            for path in iter_simple_paths(graph, neighbour, {anchor}, cutoff):
                if len(path) < 3:
                    # (neighbour, anchor) would retrace the same edge.
                    continue
                cycle = (anchor,) + path
                key = frozenset(
                    frozenset(pair) for pair in zip(cycle, cycle[1:])
                )
                if key not in seen:
                    seen.add(key)
                    yield cycle


def generate_measurement_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism,
    cutoff: Optional[int],
) -> Iterator[Path]:
    """Yield the measurement paths of ``P(G|χ)`` in canonical order, deduped.

    The CSP family needs no dedup: paths from different sources differ in
    their first node, and the multi-target DFS emits each simple path from
    one source exactly once.  Duplicates can only arise inside the CAP/CAP⁻
    cycle and self-path families, so the ``seen`` set is scoped there — the
    (usually much larger) CSP family is streamed straight through without
    hashing every tuple.
    """
    placement.validate(graph)

    # Simple input -> output paths with distinct endpoints (all mechanisms).
    # One multi-target traversal per source; see iter_simple_paths.
    for source in sorted(placement.inputs, key=repr):
        yield from iter_simple_paths(graph, source, placement.outputs, cutoff)

    if mechanism.allows_cycles or mechanism.allows_dlp:
        seen: set = set()
        if mechanism.allows_cycles:
            # Paths that start and end on the same node which is both an input
            # and an output node: monitor-anchored simple cycles (>= 2 edges).
            for anchor in sorted(placement.dlp_candidates, key=repr):
                for cycle in monitor_cycles(graph, anchor, cutoff):
                    if cycle not in seen:
                        seen.add(cycle)
                        yield cycle
        if mechanism.allows_dlp:
            # Degenerate loop paths: the single-node loop m·(vv)·M.
            for anchor in sorted(placement.dlp_candidates, key=repr):
                loop = (anchor, anchor)
                if loop not in seen:
                    seen.add(loop)
                    yield loop


def reference_enumeration(
    graph,
    placement,
    mechanism="CSP",
    cutoff: Optional[int] = None,
    max_paths: int = 5_000_000,
) -> Tuple[Tuple[tuple, ...], Dict[object, int]]:
    """``(paths, node -> P(v) mask)`` of ``P(G|χ)``, one index per path hop.

    Raises :class:`PathExplosionError` past ``max_paths`` paths and
    :class:`RoutingError` on an empty family, like ``enumerate_paths``.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    nodes = tuple(sorted(graph.nodes, key=repr))
    paths: List[tuple] = []
    index_lists: Dict[object, List[int]] = {node: [] for node in nodes}
    for path in generate_measurement_paths(graph, placement, mechanism, cutoff):
        paths.append(path)
        if len(paths) > max_paths:
            raise PathExplosionError(f"more than max_paths={max_paths}")
        touched = path[:-1] if path[0] == path[-1] else path
        for node in touched:
            index_lists[node].append(len(paths) - 1)
    if not paths:
        raise RoutingError("no measurement path exists for this placement")
    return tuple(paths), {
        node: mask_from_indices(indices) for node, indices in index_lists.items()
    }


def reference_link_masks(graph, paths) -> Dict[tuple, int]:
    """``link -> mask`` over the full edge set of ``graph``, one index per
    traversed pair (degenerate loop probes traverse no link)."""
    directed = graph.is_directed()
    index_lists: Dict[tuple, List[int]] = {
        canonical_link(u, v, directed): [] for u, v in graph.edges()
    }
    for index, path in enumerate(paths):
        for u, v in zip(path, path[1:]):
            if u != v:
                index_lists[canonical_link(u, v, directed)].append(index)
    return {link: mask_from_indices(indices) for link, indices in index_lists.items()}
