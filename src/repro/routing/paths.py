"""Measurement-path enumeration and the :class:`PathSet` container.

The identifiability machinery never looks at a path beyond the *set of
elements it touches*, so :class:`PathSet` stores, for every node ``v``, the
bitmask of indices of paths crossing ``v`` (``P(v)`` in the paper) — and, for
every link ``(u, v)``, the bitmask of paths traversing it.  Unions over
element sets — ``P(U)`` — are then single bitwise ORs.  All heavy
identifiability queries go through the
:class:`~repro.engine.signatures.SignatureEngine` exposed by
:meth:`PathSet.engine`, which interns the masks of one
:class:`~repro.failures.FailureUniverse` (nodes by default; links and
shared-risk link groups via :meth:`PathSet.universe`) once per backend and
shares them across the core, tomography and experiment layers.

One DFS kernel
--------------

Every simple-path search in this module runs through :func:`_dfs`, an
integer-indexed iterative DFS.  :class:`_IndexedGraph` relabels the topology
once per call to ``0..n-1`` in node-universe (``repr``) order and keeps each
adjacency list in ``graph.adj`` insertion order; on-path and target flags
are ``bytearray`` rows, and the "some target is still off the path" prune is
a count of the targets on the path.  The kernel serves :func:`enumerate_paths`
(label tuples plus node intervals), :func:`count_paths` (counting only) and
the monitor-anchored cycles of the CAP/CAP⁻ closed family
(:func:`_monitor_cycles`).

The kernel emits a path before descending past its last node and walks the
adjacency lists in order, so within one source paths come out in
lexicographic order of their adjacency-index vectors.  Path order therefore
follows the graph's adjacency order, not just its edge set: two graphs with
equal edges inserted in different orders enumerate the same paths in
different orders, and :class:`~repro.engine.cache.PathSetCache` keys on
adjacency order for that reason.  A topology delta is never patched into an
existing path set — :meth:`Scenario.evolve
<repro.api.scenario.Scenario.evolve>` derives the post-delta spec and
enumerates it through the cache.

The node masks are built from *prefix intervals*: in depth-first emission
order, the paths through a node on the DFS stack are one contiguous index
range ``[k at push, k at pop)``, and a target reached as a leaf adds
``[k, k + 1)``.  The kernel records those ranges per node and
:func:`_masks_from_spans` packs each mask once, so no index is ever stored
per path hop and the path tuples are never re-scanned.  The link universe
(every edge of the graph) is captured at enumeration, but the link masks are
derived lazily from the stored paths on the first link query
(:meth:`PathSet._derive_links`): recording arc intervals in the kernel would
tax every node-only run.  Directly-constructed path sets derive their node
table from their paths.

Enumeration per mechanism
-------------------------

* **CSP** — all simple paths from every input node to every *different*
  output node (one multi-target kernel traversal per source).
* **CAP⁻** — the CSP paths, plus (a) simple paths from an input node back to
  itself when that node is also an output node, i.e. monitor-anchored simple
  cycles of length >= 2, and (b) simple paths between identical input/output
  nodes routed through the graph.  Walks with repeated interior nodes add no
  new *touch-sets* beyond unions of these (every closed walk decomposes into
  simple cycles and every open walk contains a simple path with the same
  endpoints), so for identifiability this finite family is a faithful
  representative of CAP⁻; DESIGN.md §3 records this substitution.
* **CAP** — CAP⁻ plus the degenerate loop paths (single-node paths) for the
  nodes attached to both an input and an output monitor.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro._typing import AnyGraph, Node, Path
from repro.exceptions import PathExplosionError, RoutingError
from repro.failures.universe import (
    FailureUniverse,
    Link,
    build_universe,
    canonical_link,
    normalize_groups,
    srlg_universe_from_canonical,
)
from repro.monitors.placement import MonitorPlacement
from repro.routing.mechanisms import RoutingMechanism
from repro.utils.bitset import (
    bit_indices,
    bits_of,
    mask_from_bytes,
    mask_from_indices,
    masks_from_paths,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine sits above)
    from repro.engine.signatures import SignatureEngine

#: Paths longer than this (in nodes) are never enumerated unless the caller
#: raises the cutoff explicitly.  ``None`` means "no limit".
DEFAULT_CUTOFF: Optional[int] = None

#: Hard guard against path explosion; the paper itself stops at ~5e6 paths.
DEFAULT_MAX_PATHS = 5_000_000


@dataclass(frozen=True)
class PathSet:
    """An immutable set of measurement paths over a node universe.

    Attributes
    ----------
    nodes:
        The node universe ``V`` whose identifiability is studied (all nodes of
        the topology, monitor-attached or not — monitors are external).
    paths:
        The measurement paths, each an ordered node tuple.
    """

    nodes: Tuple[Node, ...]
    paths: Tuple[Path, ...]
    #: Precomputed ``node -> P(v)`` masks.  Left empty (the default) they are
    #: derived from ``paths``; the enumerator passes the masks it accumulated
    #: during its single traversal so the paths are never re-scanned.
    _node_masks: Dict[Node, int] = field(repr=False, compare=False, default_factory=dict)
    _engines: Dict[object, "SignatureEngine"] = field(
        repr=False, compare=False, default_factory=dict
    )
    #: Whether the underlying topology is directed (decides how links are
    #: canonicalised: directed links keep their orientation, undirected ones
    #: are repr-ordered).  ``None`` — the default for directly-constructed
    #: path sets — is treated as undirected.
    directed: Optional[bool] = field(default=None, compare=False)
    #: The link universe and its ``link -> mask`` table.  The enumerator
    #: passes the full edge set of the graph (untraversed links keep an empty
    #: mask, so they count as uncovered); directly-constructed path sets
    #: derive the links appearing in their paths lazily on first use.  The
    #: masks themselves are always derived lazily from the stored paths —
    #: one scan of the consecutive node pairs, memoised per path set — so
    #: node-only workloads never pay for the link table.
    _links: Optional[Tuple[Link, ...]] = field(repr=False, compare=False, default=None)
    _link_masks: Optional[Dict[Link, int]] = field(
        repr=False, compare=False, default=None
    )
    _universes: Dict[object, FailureUniverse] = field(
        repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self._node_masks:
            if len(self._node_masks) != len(set(self.nodes)) or any(
                node not in self._node_masks for node in self.nodes
            ):
                raise RoutingError(
                    "precomputed node masks must cover exactly the node universe"
                )
        else:
            try:
                masks = masks_from_paths(self.nodes, self.paths)
            except ValueError as exc:
                raise RoutingError(str(exc)) from exc
            object.__setattr__(self, "_node_masks", masks)
        if self._link_masks is not None:
            if self._links is None or (
                len(self._link_masks) != len(set(self._links))
                or any(link not in self._link_masks for link in self._links)
            ):
                raise RoutingError(
                    "precomputed link masks must cover exactly the link universe"
                )
        object.__setattr__(self, "_engines", {})
        object.__setattr__(self, "_universes", {})

    # -- basic accessors ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    @property
    def n_paths(self) -> int:
        """Number of measurement paths ``|P|`` (reported in Tables 3-5)."""
        return len(self.paths)

    @property
    def node_universe(self) -> FrozenSet[Node]:
        """The node set ``V`` as a frozenset."""
        return frozenset(self.nodes)

    def approximate_nbytes(self) -> int:
        """A cheap estimate of this path set's resident size in bytes.

        Counts the dominant stores — the per-node path masks (big-int bytes)
        and the path tuples (one pointer per hop plus tuple overhead) — and,
        when already derived, the link-mask table.  Used by cache byte
        accounting; deliberately an estimate, not ``sys.getsizeof`` truth.
        """
        total = 0
        for mask in self._node_masks.values():
            total += 32 + (mask.bit_length() + 7) // 8
        for path in self.paths:
            total += 56 + 8 * len(path)
        if self._link_masks:
            for mask in self._link_masks.values():
                total += 32 + (mask.bit_length() + 7) // 8
        return total

    def paths_through(self, node: Node) -> int:
        """Bitmask of ``P(v)``, the indices of paths crossing ``node``."""
        try:
            return self._node_masks[node]
        except KeyError as exc:
            raise RoutingError(f"{node!r} is not in the node universe") from exc

    def paths_through_set(self, nodes: Iterable[Node]) -> int:
        """Bitmask of ``P(U) = ∪_{u in U} P(u)``."""
        mask = 0
        for node in nodes:
            mask |= self.paths_through(node)
        return mask

    def path_indices_through(self, node: Node) -> Tuple[int, ...]:
        """The indices (not the bitmask) of paths crossing ``node``."""
        return tuple(bits_of(self.paths_through(node)))

    def touched_nodes(self) -> FrozenSet[Node]:
        """Nodes crossed by at least one measurement path."""
        return frozenset(node for node, mask in self._node_masks.items() if mask)

    def uncovered_nodes(self) -> FrozenSet[Node]:
        """Nodes crossed by no measurement path (these force µ = 0)."""
        return frozenset(node for node, mask in self._node_masks.items() if not mask)

    # -- link universe -------------------------------------------------------
    def _derive_links(self) -> None:
        """Build the ``link -> mask`` table from the stored paths (memoised).

        One scan over the consecutive node pairs of every path.  When the
        enumerator provided the link universe (the full edge set of its
        graph), masks are accumulated against it and untraversed links keep
        an empty mask — they are *uncovered* elements; directly-constructed
        path sets fall back to the links their paths traverse.  Deferred to
        the first link-universe query, so node-only consumers never pay.
        """
        directed = bool(self.directed)
        if self._links is not None:
            index_lists: Dict[Link, List[int]] = {link: [] for link in self._links}
            # Canonical lookup for both traversal orientations, so the scan
            # below costs one dict access per edge (no repr-based ordering).
            canon: Dict[Tuple[Node, Node], List[int]] = {}
            for (u, v), indices in index_lists.items():
                canon[(u, v)] = indices
                if not directed:
                    canon[(v, u)] = indices
            for index, path in enumerate(self.paths):
                for pair in zip(path, path[1:]):
                    if pair[0] == pair[1]:
                        continue  # degenerate loop probes traverse no link
                    indices = canon.get(pair)
                    if indices is None:
                        raise RoutingError(
                            f"path {index} traverses {pair!r} which is outside "
                            "the link universe"
                        )
                    indices.append(index)
            links = self._links
        else:
            discovered: Dict[Link, List[int]] = {}
            for index, path in enumerate(self.paths):
                for u, v in zip(path, path[1:]):
                    if u == v:
                        continue
                    link = canonical_link(u, v, directed)
                    discovered.setdefault(link, []).append(index)
            links = tuple(sorted(discovered, key=repr))
            index_lists = discovered
        masks = {link: mask_from_indices(index_lists[link]) for link in links}
        object.__setattr__(self, "_links", links)
        object.__setattr__(self, "_link_masks", masks)

    @property
    def links(self) -> Tuple[Link, ...]:
        """The link universe, in canonical order.

        Enumerator-built path sets carry every edge of their topology (so a
        link no path traverses is *uncovered*, forcing µ = 0 over the link
        universe, exactly like an uncovered node); directly-constructed sets
        fall back to the links their paths traverse.
        """
        if self._links is None:
            self._derive_links()
        assert self._links is not None
        return self._links

    def paths_through_link(self, link: Link) -> int:
        """Bitmask of the paths traversing ``link`` (either orientation when
        the path set is undirected)."""
        if self._link_masks is None:
            self._derive_links()
        assert self._link_masks is not None
        pair = tuple(link)
        if len(pair) != 2:
            raise RoutingError(f"{link!r} is not a (u, v) link")
        key = canonical_link(pair[0], pair[1], bool(self.directed))
        try:
            return self._link_masks[key]
        except KeyError as exc:
            raise RoutingError(f"{link!r} is not in the link universe") from exc

    def paths_through_links(self, links: Iterable[Link]) -> int:
        """Bitmask of ``P(L) = ∪_{l in L} P(l)`` over links."""
        mask = 0
        for link in links:
            mask |= self.paths_through_link(link)
        return mask

    # -- failure universes ---------------------------------------------------
    def universe(
        self,
        kind: str = "node",
        groups: Optional[Mapping[str, Iterable[Iterable[Node]]]] = None,
    ) -> FailureUniverse:
        """The :class:`~repro.failures.FailureUniverse` of the given kind.

        Universes are memoised per content fingerprint (``groups`` included
        for SRLGs — normalised first, so a repeated SRLG request costs only
        the validation pass, not the mask unions), so every consumer of the
        same kind shares one instance — and, through :meth:`engine`, one
        interned signature store.
        """
        if kind == "srlg" and groups is not None:
            canonical = normalize_groups(self, groups)
            cached = self._universes.get(("srlg", canonical))
            if cached is not None:
                return cached
            universe: FailureUniverse = srlg_universe_from_canonical(self, canonical)
        else:
            if kind in ("node", "link") and not groups:
                cached = self._universes.get((kind,))
                if cached is not None:
                    return cached
            universe = build_universe(self, kind, groups)
        return self._universes.setdefault(universe.fingerprint, universe)

    # -- identifiability primitives ----------------------------------------
    def separates(self, first: Iterable[Node], second: Iterable[Node]) -> bool:
        """True when ``P(U) △ P(W) ≠ ∅`` for ``U = first`` and ``W = second``.

        This is the separation predicate at the heart of Definition 2.1: some
        measurement path touches exactly one of the two node sets.
        """
        return self.paths_through_set(first) != self.paths_through_set(second)

    def separating_paths(
        self, first: Iterable[Node], second: Iterable[Node]
    ) -> Tuple[Path, ...]:
        """The paths witnessing separation (those in the symmetric difference)."""
        diff = self.paths_through_set(first) ^ self.paths_through_set(second)
        return tuple(self.paths[i] for i in bits_of(diff))

    # -- signature engine ---------------------------------------------------
    def engine(
        self,
        backend=None,
        compress: Optional[bool] = None,
        universe: Optional[FailureUniverse | str] = None,
    ) -> "SignatureEngine":
        """The :class:`~repro.engine.signatures.SignatureEngine` over one of
        this path set's failure universes (node masks by default).

        Engines are memoised per (universe fingerprint, normalised backend
        spec, compression flag), so every consumer of the same
        :class:`PathSet` — the identifiability core, the tomography layer,
        the experiment drivers — shares one interned signature store per
        universe.  ``backend`` follows :func:`repro.engine.select_backend`
        semantics: ``None`` defers to the global policy, a name forces that
        backend, and a :class:`~repro.engine.backends.SignatureBackend`
        instance is used as-is (not memoised).  An ``"auto"`` spec is kept
        symbolic here and resolved by the engine against the width it
        actually operates on — the compressed column count — so this route
        and a direct :meth:`SignatureEngine.from_pathset` pick the same
        backend.  ``compress`` follows
        :func:`repro.engine.select_compression`: ``None`` defers to the
        global policy (on), and an explicit boolean forces/disables the
        duplicate-column collapse for this engine.  ``universe`` is ``None``
        (node mode), a kind name (``"node"``/``"link"``), or a
        :class:`~repro.failures.FailureUniverse` built over this path set
        (the only way to reach SRLG mode, which needs its groups).
        """
        # Imported lazily: the engine layer sits above routing.
        from repro.engine.backends import SignatureBackend, normalize_backend_spec
        from repro.engine.compress import compression_enabled
        from repro.engine.signatures import SignatureEngine

        if universe is None or isinstance(universe, str):
            universe = self.universe(universe or "node")
        else:
            # A universe built over a different path set would silently
            # compute over foreign masks AND poison the fingerprint-keyed
            # memo below for every later caller — refuse it outright.
            universe.check_built_over(self)
        if compress is None:
            compress = compression_enabled()
        elements, masks = universe.elements, universe.masks
        if isinstance(backend, SignatureBackend):
            return SignatureEngine(
                elements, masks, len(self.paths), backend, compress
            )
        from repro.engine.backends import NUMPY_MIN_PATHS, numpy_available

        name = normalize_backend_spec(backend)
        if name == "auto" and (
            not numpy_available() or len(self.paths) < NUMPY_MIN_PATHS
        ):
            # Below the numpy threshold the compressed width is too (it can
            # only shrink), so "auto" is decidable without building the plan.
            name = "python"
        if universe.owner is not self:
            # A hand-built (owner-less) universe passed the width check, but
            # its fingerprint says nothing about its content — memoising it
            # would poison the cache for the canonical universe of the same
            # kind.  Build an un-memoised engine instead.
            return SignatureEngine(elements, masks, len(self.paths), name, compress)
        key = (universe.fingerprint, name, bool(compress))
        cached = self._engines.get(key)
        if cached is None:
            cached = SignatureEngine(
                elements, masks, len(self.paths), name, compress
            )
        if key not in self._engines:
            self._engines[key] = cached
            # Alias the concrete backend name so a later explicit request
            # (e.g. engine("python") after a policy-default engine()) shares
            # this instance instead of re-interning the signatures.
            self._engines.setdefault(
                (universe.fingerprint, cached.backend.name, bool(compress)), cached
            )
        return cached

    def restrict_to_paths(self, indices: Sequence[int]) -> "PathSet":
        """A new :class:`PathSet` over the same universe with a subset of paths.

        ``indices`` selects (and orders) the paths of the restriction; each
        index must be in ``range(n_paths)`` and appear at most once —
        anything else raises :class:`~repro.exceptions.RoutingError`.  The
        restricted node masks are obtained by *column selection* from this
        path set's masks (bit ``j`` of the new ``P(v)`` is bit
        ``indices[j]`` of the old one) instead of re-scanning the selected
        path tuples.
        """
        indices = list(indices)
        n = len(self.paths)
        seen: set = set()
        for index in indices:
            if not 0 <= index < n:
                raise RoutingError(
                    f"path index {index} out of range for {n} paths"
                )
            if index in seen:
                raise RoutingError(f"duplicate path index {index}")
            seen.add(index)
        selected = tuple(self.paths[i] for i in indices)
        # Walk each parent mask's set bits once (byte-table extraction) and
        # remap the surviving columns, instead of testing every selected
        # index against every node mask with O(|P|)-cost big-int shifts.
        remap = {original: j for j, original in enumerate(indices)}
        lookup = remap.get

        def _select(mask: int) -> int:
            return mask_from_indices(
                [j for i in bit_indices(mask) if (j := lookup(i)) is not None]
            )

        masks = {node: _select(mask) for node, mask in self._node_masks.items()}
        # Column-select the link table too when the parent has one, so the
        # restriction keeps the full link universe (including untraversed
        # links) instead of re-deriving only the links its paths touch.
        links = self._links
        link_masks = (
            {link: _select(mask) for link, mask in self._link_masks.items()}
            if self._link_masks is not None
            else None
        )
        return PathSet(
            self.nodes,
            selected,
            masks,
            directed=self.directed,
            _links=links,
            _link_masks=link_masks,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"PathSet(|V|={len(self.nodes)}, |P|={len(self.paths)}, "
            f"uncovered={len(self.uncovered_nodes())})"
        )


class _PathOverflow(Exception):
    """Raised by :func:`_dfs` when an emission would pass its ``limit``.

    Private: the entry points re-raise it as :class:`PathExplosionError`
    naming the caller's ``max_paths`` (the kernel only sees the local bound
    of one search, such as one monitor-cycle DFS).
    """


def _explosion(max_paths: int) -> PathExplosionError:
    return PathExplosionError(
        f"more than max_paths={max_paths} measurement paths; "
        "increase the cap or use a smaller topology"
    )


def _check_limits(cutoff: Optional[int], max_paths: int) -> None:
    """Reject a routing limit of the wrong type at the library boundary.

    ``cutoff`` is ``None`` or an int (a non-positive one is legal and admits
    no path); ``max_paths`` is an int ``>= 1``.  Bools are refused for both:
    ``True`` would otherwise pass as ``1``.
    """
    if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, int)):
        raise RoutingError(
            f"routing cutoff must be an int number of edges or None, got {cutoff!r}"
        )
    if isinstance(max_paths, bool) or not isinstance(max_paths, int) or max_paths < 1:
        raise RoutingError(f"routing max_paths must be an int >= 1, got {max_paths!r}")


class _IndexedGraph:
    """A topology relabelled to ``0..n-1`` for the DFS kernel.

    ``labels[i]`` is node ``i`` (repr order, the node-universe order of
    :class:`PathSet`), ``index`` maps back, and ``adj[i]`` lists the
    neighbour indices of node ``i`` in ``graph.adj`` insertion order — the
    order the emission-order invariant (see :func:`_dfs`) is stated in.
    """

    __slots__ = ("labels", "index", "adj", "directed")

    def __init__(self, graph: AnyGraph, labels: Optional[Tuple[Node, ...]] = None) -> None:
        if labels is None:
            labels = tuple(sorted(graph.nodes, key=repr))
        index = {node: i for i, node in enumerate(labels)}
        adjacency = graph.adj
        self.labels = labels
        self.index = index
        self.adj = [[index[v] for v in adjacency[u]] for u in labels]
        self.directed = bool(graph.is_directed())

    def flags(self, nodes: Iterable[Node]) -> bytearray:
        """A 0/1 byte per node index, set for the members of ``nodes``."""
        row = bytearray(len(self.labels))
        index = self.index
        for node in nodes:
            position = index.get(node)
            if position is not None:
                row[position] = 1
        return row


def _max_nodes(indexed: _IndexedGraph, cutoff: Optional[int]) -> int:
    """The most nodes a path of at most ``cutoff`` edges may hold."""
    return len(indexed.labels) if cutoff is None else cutoff + 1


def _dfs(
    adj: List[List[int]],
    labels: Sequence[Node],
    source: int,
    is_target: bytearray,
    n_targets: int,
    on_path: bytearray,
    max_nodes: int,
    k: int,
    limit: int,
    paths: Optional[List[Path]] = None,
    spans: Optional[List["array[int]"]] = None,
    prefix: Tuple[Node, ...] = (),
) -> int:
    """The simple-path DFS: every path from ``source`` to a target node.

    The one traversal behind every enumeration in this module.  ``k`` is the
    index of the next emitted path and the return value is the index after
    the last one; emitting index ``limit`` or beyond raises
    :class:`_PathOverflow` before the path is built.  ``is_target`` and
    ``on_path`` are 0/1 byte rows over node indices: the caller clears the
    source from the targets, counts them in ``n_targets`` and passes an
    all-zero ``on_path``; both rows are restored on return.  A path holds at most ``max_nodes`` nodes, not
    counting ``prefix``, a label tuple prepended to every emitted path.

    With ``paths`` the label tuples are appended to it; with ``spans`` the
    paths through each node are recorded as prefix intervals: depth-first
    emission makes every path through a stack node one contiguous index
    range ``[k at push, k at pop)``, and a target reached as a leaf gets
    ``[k, k + 1)``.  ``spans[v]`` receives flat ``lo, hi`` pairs in
    increasing order.  With neither, paths are only counted.

    The traversal descends into a child only while some target is still off
    the path (an O(1) count of targets on the path), and walks ``adj`` in
    order, emitting a path before descending past its last node — so within
    one source, paths come out in lexicographic order of their
    adjacency-index vectors.  That order is the canonical path order of
    :func:`enumerate_paths`; it depends on the adjacency order of the graph,
    not only on its edge set, which is why the path-set cache keys on
    adjacency order.
    """
    if n_targets < 1 or max_nodes < 2:
        return k
    emit = paths is not None
    record = spans is not None
    append = paths.append if paths is not None else None
    path = [*prefix, labels[source]]
    trail = [source]
    starts = [k]
    deepest = max_nodes - 1
    hits = 0
    on_path[source] = 1
    stack = [iter(adj[source])]
    while stack:
        room = len(trail) < deepest
        fork = room and n_targets - hits > 1
        for child in stack[-1]:
            if on_path[child]:
                continue
            if is_target[child]:
                if k >= limit:
                    raise _PathOverflow
                if emit:
                    append((*path, labels[child]))
                k += 1
                if not fork:
                    if record:
                        spans[child].extend((k - 1, k))
                    continue
                hits += 1
                starts.append(k - 1)
            elif room:
                starts.append(k)
            else:
                continue
            trail.append(child)
            on_path[child] = 1
            if emit:
                path.append(labels[child])
            stack.append(iter(adj[child]))
            break
        else:
            stack.pop()
            node = trail.pop()
            on_path[node] = 0
            hits -= is_target[node]
            start = starts.pop()
            if emit:
                path.pop()
            if record and k > start:
                spans[node].extend((start, k))
    return k


def _simple_paths(
    indexed: _IndexedGraph,
    source: Node,
    targets: Iterable[Node],
    cutoff: Optional[int],
    prefix: Tuple[Node, ...] = (),
    limit: int = sys.maxsize,
) -> List[Path]:
    """All simple paths from ``source`` to any of ``targets``, as label
    tuples in :func:`_dfs` emission order (``prefix`` prepended).

    Paths from a node to itself are excluded.  ``cutoff`` limits the path
    length in *edges* (``None`` = unlimited).  At most ``limit`` paths are
    emitted before :class:`_PathOverflow`.
    """
    start = indexed.index.get(source)
    if start is None:
        raise RoutingError(f"source node {source!r} is not in the graph")
    is_target = indexed.flags(set(targets) - {source})
    paths: List[Path] = []
    _dfs(
        indexed.adj,
        indexed.labels,
        start,
        is_target,
        is_target.count(1),
        bytearray(len(indexed.labels)),
        _max_nodes(indexed, cutoff),
        0,
        limit,
        paths=paths,
        prefix=prefix,
    )
    return paths


def _monitor_cycles(
    indexed: _IndexedGraph, anchor: Node, cutoff: Optional[int], limit: int = sys.maxsize
) -> List[Path]:
    """Simple cycles through ``anchor`` as closed node tuples.

    Used by CAP/CAP⁻ for paths that start and end at the same monitor node.
    A cycle is represented by its node sequence starting and ending at the
    anchor, e.g. ``(a, b, c, a)``; ``cutoff`` bounds the edges after the
    first hop.  In an undirected graph a cycle and its reversal traverse the
    same edges, so only the orientation emitted first is kept: the one whose
    first hop comes before its last hop in the anchor's adjacency order (two
    different simple cycles never share an edge set, so nothing else is
    dropped).  Each DFS emits at most ``limit`` raw paths.
    """
    labels = indexed.labels
    start = indexed.index[anchor]
    neighbours = [labels[v] for v in indexed.adj[start] if v != start]
    rank = {node: i for i, node in enumerate(neighbours)}
    cycles: List[Path] = []
    for first, neighbour in enumerate(neighbours):
        for cycle in _simple_paths(
            indexed, neighbour, (anchor,), cutoff, prefix=(anchor,), limit=limit
        ):
            # Undirected: (anchor, neighbour, anchor) retraces one edge.
            if indexed.directed or (len(cycle) > 3 and first < rank[cycle[-2]]):
                cycles.append(cycle)
    return cycles


def _closed_family(
    indexed: _IndexedGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism,
    cutoff: Optional[int],
    budget: int,
) -> List[Path]:
    """The CAP/CAP⁻ paths that start and end on one node, in canonical order.

    Monitor-anchored simple cycles (CAP⁻ and CAP), then the degenerate loop
    paths ``(v, v)`` (CAP only), anchors in repr order.  The tuples are
    pairwise distinct (every closed path starts at its anchor and cycles
    have at least three nodes), so no dedup set is needed.  More than
    ``budget`` paths raise :class:`_PathOverflow`; one raw cycle DFS may
    emit ``budget + 1`` paths, since each emission beyond the kept ones
    (at most one retraced edge per neighbour) is the reversal of a kept
    cycle from an earlier neighbour.
    """
    closed: List[Path] = []
    anchors = sorted(placement.dlp_candidates, key=repr)
    if mechanism.allows_cycles:
        for anchor in anchors:
            closed.extend(_monitor_cycles(indexed, anchor, cutoff, budget + 1))
            if len(closed) > budget:
                raise _PathOverflow
    if mechanism.allows_dlp:
        closed.extend((anchor, anchor) for anchor in anchors)
    if len(closed) > budget:
        raise _PathOverflow
    return closed


def _measurement_paths(
    indexed: _IndexedGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism,
    cutoff: Optional[int],
    max_paths: int,
    paths: Optional[List[Path]] = None,
    spans: Optional[List["array[int]"]] = None,
) -> int:
    """Run the measurement paths of ``P(G|χ)`` through the kernel, in
    canonical order, and return how many there are.

    The open family — simple input→output paths with distinct endpoints,
    one multi-target DFS per input in repr order — is appended to
    ``paths`` and recorded into ``spans`` when given; the closed CAP/CAP⁻
    family follows, each of its paths adding one-index intervals for the
    nodes it touches.  More than ``max_paths`` paths raise
    :class:`PathExplosionError`.
    """
    adj, labels = indexed.adj, indexed.labels
    is_target = indexed.flags(placement.outputs)
    n_outputs = is_target.count(1)
    on_path = bytearray(len(labels))
    max_nodes = _max_nodes(indexed, cutoff)
    k = 0
    try:
        for source in sorted(placement.inputs, key=repr):
            start = indexed.index[source]
            own = is_target[start]
            is_target[start] = 0
            k = _dfs(
                adj, labels, start, is_target, n_outputs - own, on_path,
                max_nodes, k, max_paths, paths, spans,
            )
            is_target[start] = own
        closed = _closed_family(indexed, placement, mechanism, cutoff, max_paths - k)
    except _PathOverflow:
        raise _explosion(max_paths) from None
    if paths is not None:
        paths.extend(closed)
    if spans is not None:
        index = indexed.index
        for offset, cycle in enumerate(closed, start=k):
            for node in cycle[:-1]:
                spans[index[node]].extend((offset, offset + 1))
    return k + len(closed)


def _masks_from_spans(spans: Sequence["array[int]"]) -> List[int]:
    """Pack each node's ``lo, hi`` interval pairs into its ``P(v)`` mask.

    A node's intervals are disjoint, so its mask is ``Σ 2**hi − Σ 2**lo``:
    the ``lo`` and ``hi`` ends are scattered into two 0/1 ``bytearray`` rows,
    each packed once by :func:`~repro.utils.bitset.mask_from_bytes`, and one
    big-int subtraction fills every interval.  Pairs arrive in increasing
    order, so the last ``hi`` bounds both rows.
    """
    masks: List[int] = []
    for pairs in spans:
        if not pairs:
            masks.append(0)
            continue
        width = pairs[-1] + 1
        lows, highs = bytearray(width), bytearray(width)
        bounds = iter(pairs)
        for lo, hi in zip(bounds, bounds):
            lows[lo] = 1
            highs[hi] = 1
        masks.append(mask_from_bytes(highs) - mask_from_bytes(lows))
    return masks


def enumerate_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> PathSet:
    """Enumerate the measurement paths ``P(G|χ)`` under a routing mechanism.

    The graph is relabelled once to ``0..n-1`` (node-universe order) and
    every input runs through the integer DFS kernel :func:`_dfs`.  The node
    masks ``P(v)`` come from the same traversal as *prefix intervals*: the
    paths through a node on the DFS stack form one contiguous index range,
    so the kernel records one ``[lo, hi)`` pair per push instead of one
    index per path hop, and each mask is packed once at the end
    (:func:`_masks_from_spans`).  The path tuples are never re-scanned.
    Link masks stay lazy (:meth:`PathSet._derive_links`): recording arc
    intervals in the kernel would tax every node-only run.

    Parameters
    ----------
    graph:
        The topology (directed or undirected networkx graph).
    placement:
        The monitor placement ``χ = (m, M)``.
    mechanism:
        One of :class:`RoutingMechanism` (or its string name).  Default CSP.
    cutoff:
        Optional maximum path length in *edges*; ``None`` enumerates all.
        A non-int raises :class:`RoutingError`; a non-positive one admits no
        path (hence also :class:`RoutingError`).
    max_paths:
        Guard against explosion, an int ``>= 1``; :class:`PathExplosionError`
        is raised when more paths than this would be enumerated (the paper's
        own exhaustive search stops around 5·10⁶ paths).

    Returns
    -------
    PathSet
        The measurement paths over the full node set of ``graph``.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    _check_limits(cutoff, max_paths)
    placement.validate(graph)
    node_universe = tuple(sorted(graph.nodes, key=repr))
    directed = bool(graph.is_directed())
    # The link universe is the *full* edge set of the graph (canonicalised),
    # so an edge no path traverses is an uncovered failure element.  Only the
    # universe is captured here; the per-link masks derive from the stored
    # paths on first link-universe query (PathSet._derive_links).
    link_universe = tuple(
        sorted(
            {canonical_link(u, v, directed) for u, v in graph.edges()}, key=repr
        )
    )
    indexed = _IndexedGraph(graph, node_universe)
    paths: List[Path] = []
    spans = [array("q") for _ in node_universe]
    _measurement_paths(indexed, placement, mechanism, cutoff, max_paths, paths, spans)
    if not paths:
        raise RoutingError(
            "no measurement path exists for this placement under "
            f"{mechanism.value}; identifiability would be undefined"
        )
    masks = dict(zip(node_universe, _masks_from_spans(spans)))
    return PathSet(
        node_universe,
        tuple(paths),
        masks,
        directed=directed,
        _links=link_universe,
    )


def path_length_histogram(pathset: PathSet) -> Dict[int, int]:
    """Histogram ``length (in edges) -> count`` of the measurement paths.

    Useful for the reporting layer and the routing-cost discussion of
    Section 9 (fewer/shorter paths means cheaper probing).
    """
    histogram: Dict[int, int] = {}
    for path in pathset.paths:
        length = max(len(path) - 1, 0)
        histogram[length] = histogram.get(length, 0) + 1
    return dict(sorted(histogram.items()))


def count_paths(
    graph: AnyGraph,
    placement: MonitorPlacement,
    mechanism: RoutingMechanism | str = RoutingMechanism.CSP,
    cutoff: Optional[int] = DEFAULT_CUTOFF,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> int:
    """``|P(G|χ)|`` (as in Tables 3-5), counted by the enumeration kernel.

    The open family is only counted — no :class:`PathSet`, no tuples, no
    intervals; the (small) closed CAP/CAP⁻ family is built and counted.
    Semantics match :func:`enumerate_paths` exactly: the same limit checks
    and :class:`PathExplosionError` guard apply, and an empty path family
    raises :class:`RoutingError`.
    """
    mechanism = RoutingMechanism.parse(mechanism)
    _check_limits(cutoff, max_paths)
    placement.validate(graph)
    count = _measurement_paths(
        _IndexedGraph(graph), placement, mechanism, cutoff, max_paths
    )
    if count == 0:
        raise RoutingError(
            "no measurement path exists for this placement under "
            f"{mechanism.value}; identifiability would be undefined"
        )
    return count
