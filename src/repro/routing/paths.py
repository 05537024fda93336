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
the scoped searches of :meth:`PathSet.apply_delta` (:func:`_simple_paths`
with a forbidden set, :func:`_paths_through_edge`, :func:`_monitor_cycles`).

The kernel emits a path before descending past its last node and walks the
adjacency lists in order, so within one source paths come out in
lexicographic order of their adjacency-index vectors.  That emission-order
invariant lives in :func:`_dfs`; :meth:`PathSet.apply_delta` sorts its merged
survivors and additions by the same vectors to reproduce from-scratch order.

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

import hashlib
import sys
from array import array
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
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
class PathSetDelta:
    """A routing-level topology/placement delta for :meth:`PathSet.apply_delta`.

    All node values are the *decoded* graph nodes (the same objects the graph
    holds); links are ``(u, v)`` endpoint pairs in either orientation for
    undirected topologies.  The node universe itself is fixed — adding or
    removing nodes requires a fresh enumeration.
    """

    add_links: Tuple[Tuple[Node, Node], ...] = ()
    remove_links: Tuple[Tuple[Node, Node], ...] = ()
    add_inputs: Tuple[Node, ...] = ()
    remove_inputs: Tuple[Node, ...] = ()
    add_outputs: Tuple[Node, ...] = ()
    remove_outputs: Tuple[Node, ...] = ()

    def is_noop(self) -> bool:
        """True when the delta changes nothing."""
        return not (
            self.add_links
            or self.remove_links
            or self.add_inputs
            or self.remove_inputs
            or self.add_outputs
            or self.remove_outputs
        )


@dataclass(frozen=True)
class PathEvolution:
    """How an evolved :class:`PathSet` relates to its parent.

    Stashed (compare-excluded) on the path sets :meth:`PathSet.apply_delta`
    returns, so downstream layers — :meth:`PathSet.engine`'s dirty-row
    re-interning, the evolve-keyed :class:`~repro.engine.cache.PathSetCache`
    entries — can tell *what changed* without re-deriving it.

    Attributes
    ----------
    parent:
        The pre-delta path set.
    survivors:
        ``old path index -> new path index`` for every path present in both
        families (positions change because the evolved family is emitted in
        canonical from-scratch order).
    added:
        New-family indices of paths absent from the parent, ascending.
    removed:
        Parent indices of paths absent from the new family, ascending.
    links_changed:
        Whether the link universe itself changed (links added or removed).
    """

    parent: "PathSet"
    survivors: Mapping[int, int]
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    links_changed: bool


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
            # An evolved path set first tries to patch its parent's engine
            # for the same (universe, backend, compression) — re-interning
            # only the rows the delta dirtied — and falls back to a full
            # build when the parent has no matching engine to patch.
            cached = self._engine_from_evolution(universe, name, bool(compress))
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

    # -- delta/evolution plumbing -------------------------------------------
    @property
    def evolution(self) -> Optional[PathEvolution]:
        """The :class:`PathEvolution` linking this path set to the parent it
        was evolved from by :meth:`apply_delta` (``None`` for fresh sets)."""
        return getattr(self, "_evolution", None)

    def _engine_from_evolution(
        self, universe: FailureUniverse, name: object, compress: bool
    ) -> Optional["SignatureEngine"]:
        """Patch the parent's engine for ``universe`` instead of building one.

        Returns ``None`` whenever the incremental route is unavailable — no
        evolution record, compression off, no matching parent engine, or a
        patched plan that degenerates — so :meth:`engine` can fall back to
        the full construction.  When it succeeds, the result is structurally
        identical to a fresh :class:`SignatureEngine` (same plan, same packed
        rows, same keys): only rows whose elements the delta dirtied are
        re-interned from their masks, every other row is translated from the
        parent's packed signature by a class-index remap.
        """
        evolution = self.evolution
        if evolution is None or not compress:
            return None
        parent = evolution.parent
        parent_engine = parent._engines.get((universe.fingerprint, name, compress))
        if parent_engine is None or parent_engine.compression is None:
            return None
        touch_inputs = self._delta_touch_inputs(evolution, universe, parent_engine)
        if touch_inputs is None:
            return None
        added_touch, dirty, element_remap = touch_inputs
        from repro.engine.signatures import SignatureEngine
        from repro.exceptions import IdentifiabilityError

        try:
            return SignatureEngine.from_delta(
                parent_engine,
                universe.elements,
                universe.masks,
                len(self.paths),
                name,
                survivors=evolution.survivors,
                added=added_touch,
                dirty=dirty,
                element_remap=element_remap,
            )
        except IdentifiabilityError:
            return None

    def _delta_touch_inputs(
        self,
        evolution: PathEvolution,
        universe: FailureUniverse,
        parent_engine: "SignatureEngine",
    ) -> Optional[Tuple[List[Tuple[int, Tuple[int, ...]]], Set[Node], Optional[Dict[int, int]]]]:
        """The universe-specific ingredients of an incremental re-intern.

        Returns ``(added_touch, dirty, element_remap)``: for every added
        path, its ascending element-position touch key in the *new* element
        order; the set of (new-universe) elements touched by any removed or
        added path, whose rows must be re-interned; and the old→new element
        position remap when the element list itself changed (``None`` when
        identical).  ``None`` as a whole means this universe kind has no
        incremental route.
        """
        kind = universe.kind
        position = {element: i for i, element in enumerate(universe.elements)}
        directed = bool(self.directed)
        if kind == "node":

            def elements_of(path: Path) -> Set[Node]:
                touched = path[:-1] if path[0] == path[-1] else path
                return set(touched)

        elif kind == "link":

            def elements_of(path: Path) -> Set[Node]:
                return {
                    canonical_link(u, v, directed)
                    for u, v in zip(path, path[1:])
                    if u != v
                }

        elif kind == "srlg":
            membership: Dict[Link, Tuple[str, ...]] = {}
            for group_name, members in universe.groups or ():
                for link in members:
                    membership[link] = membership.get(link, ()) + (group_name,)

            def elements_of(path: Path) -> Set[Node]:
                groups: Set[Node] = set()
                for u, v in zip(path, path[1:]):
                    if u != v:
                        groups.update(
                            membership.get(canonical_link(u, v, directed), ())
                        )
                return groups

        else:  # pragma: no cover - future universe kinds opt in explicitly
            return None

        added_touch: List[Tuple[int, Tuple[int, ...]]] = []
        for new_index in evolution.added:
            elements = elements_of(self.paths[new_index])
            added_touch.append(
                (new_index, tuple(sorted(position[e] for e in elements)))
            )
        dirty: Set[Node] = set()
        parent_paths = evolution.parent.paths
        for old_index in evolution.removed:
            for element in elements_of(parent_paths[old_index]):
                if element in position:  # removed links vanish with their paths
                    dirty.add(element)
        for new_index in evolution.added:
            dirty.update(elements_of(self.paths[new_index]))
        old_elements = parent_engine.elements
        element_remap: Optional[Dict[int, int]] = None
        if tuple(old_elements) != tuple(universe.elements):
            element_remap = {}
            for old_position, element in enumerate(old_elements):
                new_position = position.get(element)
                if new_position is not None:
                    element_remap[old_position] = new_position
        return added_touch, dirty, element_remap

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

    def fingerprint(self) -> str:
        """A stable content digest of this path set (memoised).

        Covers directedness, the node universe, the link universe and the
        ordered path family — everything that determines every downstream
        artefact (masks, universes, engines).  Used by
        :class:`~repro.engine.cache.PathSetCache` to key evolved path sets
        by (parent fingerprint, delta fingerprint) so chains of deltas hit
        the cache.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256(
            repr((bool(self.directed), self.nodes, self.links, self.paths)).encode()
        ).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def apply_delta(
        self,
        graph: AnyGraph,
        placement: MonitorPlacement,
        mechanism: RoutingMechanism | str,
        delta: PathSetDelta,
        cutoff: Optional[int] = DEFAULT_CUTOFF,
        max_paths: int = DEFAULT_MAX_PATHS,
    ) -> "PathSet":
        """Evolve this path set under a topology/placement delta.

        ``graph`` and ``placement`` are the **post-delta** topology and
        monitor placement (the caller applies the delta to its own graph;
        this method only needs to know *what* changed).  The result is
        bit-identical — paths, order, masks, link universe — to
        ``enumerate_paths(graph, placement, mechanism, cutoff, max_paths)``,
        but only the paths the delta can affect are re-enumerated:

        * paths traversing a removed link, starting at a removed input or
          ending at a removed output are dropped;
        * new paths are found by three scoped searches — from each added
          input to every output, from the kept inputs to the added outputs,
          and through each added link via a two-segment composition
          (prefix to the link's tail avoiding its head, the link itself,
          then a suffix DFS forbidden from re-entering the prefix);
        * the cycle/loop families (CAP/CAP⁻ only) are re-emitted by
          :func:`_closed_family` — they are cheap, and the orientation kept
          for an undirected cycle depends on the post-delta adjacency order;
        * every untouched path *survives* and its mask columns are remapped
          instead of re-scanned.

        Exactness of the ordering relies on the emission-order invariant of
        the kernel :func:`_dfs`: within one source, paths are emitted in
        lexicographic order of their adjacency-index vectors (the DFS emits
        before it descends and walks adjacency in insertion order), so
        sorting the merged open family by (source rank, adjacency-index
        vector over the post-delta graph) reproduces the from-scratch order
        without re-running the full DFS.

        The returned path set carries a :class:`PathEvolution` record
        (``.evolution``) linking it to this parent, which
        :meth:`engine` uses to patch the parent's signature engines instead
        of re-interning every row.
        """
        mechanism = RoutingMechanism.parse(mechanism)
        _check_limits(cutoff, max_paths)
        directed = bool(graph.is_directed())
        if bool(self.directed) != directed:
            raise RoutingError(
                "apply_delta cannot change graph directedness; re-enumerate"
            )
        if tuple(sorted(graph.nodes, key=repr)) != self.nodes:
            raise RoutingError(
                "apply_delta keeps the node universe fixed; node additions or "
                "removals need a fresh enumeration"
            )
        placement.validate(graph)

        removed_links = {
            canonical_link(u, v, directed) for u, v in delta.remove_links
        }
        added_links = {canonical_link(u, v, directed) for u, v in delta.add_links}
        old_links = set(self._links) if self._links is not None else set(self.links)
        missing = removed_links - old_links
        if missing:
            raise RoutingError(
                f"cannot remove links absent from the universe: {sorted(missing, key=repr)}"
            )
        clashing = added_links & old_links
        if clashing:
            raise RoutingError(
                f"cannot add links already in the universe: {sorted(clashing, key=repr)}"
            )
        new_link_set = {canonical_link(u, v, directed) for u, v in graph.edges()}
        if new_link_set != (old_links - removed_links) | added_links:
            raise RoutingError(
                "the supplied graph does not match the delta applied to this "
                "path set's link universe"
            )
        removed_inputs = set(delta.remove_inputs)
        added_inputs = set(delta.add_inputs)
        removed_outputs = set(delta.remove_outputs)
        added_outputs = set(delta.add_outputs)
        if added_inputs - placement.inputs or removed_inputs & placement.inputs:
            raise RoutingError(
                "the supplied placement does not reflect the delta's input edits"
            )
        if added_outputs - placement.outputs or removed_outputs & placement.outputs:
            raise RoutingError(
                "the supplied placement does not reflect the delta's output edits"
            )

        # 1. Open-family survivors: old simple input→output paths that avoid
        #    every removed link and keep both endpoints monitored.
        survivors: List[Tuple[int, Path]] = []
        old_closed_index: Dict[Path, int] = {}
        for index, path in enumerate(self.paths):
            if path[0] == path[-1]:
                # Closed families are re-emitted below; identical tuples are
                # matched back to their old columns as survivors.
                old_closed_index[path] = index
                continue
            if path[0] in removed_inputs or path[-1] in removed_outputs:
                continue
            if removed_links and any(
                canonical_link(u, v, directed) in removed_links
                for u, v in zip(path, path[1:])
            ):
                continue
            survivors.append((index, path))

        # 2. Open-family additions: every post-delta path missing from the
        #    old family starts at an added input, ends at an added output, or
        #    traverses an added link (the old enumeration was exhaustive over
        #    everything else).  The three searches overlap; the set dedups.
        #    Each search emits distinct post-delta paths, so one that passes
        #    max_paths on its own already proves the explosion.
        indexed = _IndexedGraph(graph, self.nodes)
        additions: Set[Path] = set()
        kept_inputs = placement.inputs - added_inputs
        try:
            for source in added_inputs:
                additions.update(
                    _simple_paths(
                        indexed, source, placement.outputs, cutoff, limit=max_paths
                    )
                )
            if added_outputs:
                for source in kept_inputs:
                    additions.update(
                        _simple_paths(
                            indexed, source, added_outputs, cutoff, limit=max_paths
                        )
                    )
            for tail, head in added_links:
                if tail == head:
                    continue  # a self-loop joins the universe but carries no path
                orientations = (
                    ((tail, head),) if directed else ((tail, head), (head, tail))
                )
                for a, b in orientations:
                    for source in kept_inputs:
                        additions.update(
                            _paths_through_edge(
                                indexed, source, placement.outputs, a, b, cutoff,
                                max_paths,
                            )
                        )
            if len(survivors) + len(additions) > max_paths:
                raise _PathOverflow
            # 3. Closed families (CAP/CAP⁻): re-emitted in canonical order —
            #    surviving cycles are matched back to their old columns by
            #    tuple identity below.
            closed = _closed_family(
                indexed,
                placement,
                mechanism,
                cutoff,
                max_paths - len(survivors) - len(additions),
            )
        except _PathOverflow:
            raise _explosion(max_paths) from None

        # 4. Order the merged open family exactly as a fresh enumeration
        #    would: grouped by source in repr order, lexicographic in the
        #    adjacency-index vector within one source.
        adjacency = graph.adj
        positions = {
            u: {v: i for i, v in enumerate(adjacency[u])} for u in graph.nodes
        }
        source_rank = {
            source: rank
            for rank, source in enumerate(sorted(placement.inputs, key=repr))
        }

        def order_key(path: Path) -> List[int]:
            u = path[0]
            vector = [source_rank[u]]
            for v in path[1:]:
                vector.append(positions[u][v])
                u = v
            return vector

        open_family: List[Tuple[List[int], Optional[int], Path]] = [
            (order_key(path), index, path) for index, path in survivors
        ]
        open_family.extend((order_key(path), None, path) for path in additions)
        open_family.sort(key=lambda item: item[0])

        total = len(open_family) + len(closed)
        if total == 0:
            raise RoutingError(
                "no measurement path exists for this placement under "
                f"{mechanism.value}; identifiability would be undefined"
            )

        new_paths: List[Path] = [item[2] for item in open_family]
        survivors_map: Dict[int, int] = {}
        added_indices: List[int] = []
        for new_index, (_, old_index, _path) in enumerate(open_family):
            if old_index is None:
                added_indices.append(new_index)
            else:
                survivors_map[old_index] = new_index
        for offset, path in enumerate(closed):
            new_index = len(new_paths)
            new_paths.append(path)
            old_index = old_closed_index.get(path)
            if old_index is None:
                added_indices.append(new_index)
            else:
                survivors_map[old_index] = new_index

        # 5. Masks by column remap + scatter: surviving columns move to their
        #    new positions, added paths scatter their touched elements.
        node_extras: Dict[Node, List[int]] = {}
        for new_index in added_indices:
            path = new_paths[new_index]
            touched = path[:-1] if path[0] == path[-1] else path
            for node in touched:
                node_extras.setdefault(node, []).append(new_index)
        lookup = survivors_map.get

        def _remap(mask: int, extra: Optional[List[int]]) -> int:
            indices = [j for i in bit_indices(mask) if (j := lookup(i)) is not None]
            if extra:
                indices.extend(extra)
            return mask_from_indices(indices)

        node_masks = {
            node: _remap(mask, node_extras.get(node))
            for node, mask in self._node_masks.items()
        }

        # 6. The link universe changes only when links actually changed; the
        #    memoised link masks are remapped (never re-derived) when the
        #    parent had already paid for them.
        links_changed = bool(removed_links or added_links)
        if links_changed or self._links is None:
            new_links: Tuple[Link, ...] = tuple(sorted(new_link_set, key=repr))
        else:
            new_links = self._links
        link_masks: Optional[Dict[Link, int]] = None
        if self._link_masks is not None:
            link_extras: Dict[Link, List[int]] = {}
            for new_index in added_indices:
                path = new_paths[new_index]
                for u, v in zip(path, path[1:]):
                    if u != v:
                        link_extras.setdefault(
                            canonical_link(u, v, directed), []
                        ).append(new_index)
            old_link_masks = self._link_masks
            link_masks = {}
            for link in new_links:
                old_mask = old_link_masks.get(link)
                if old_mask is None:
                    link_masks[link] = mask_from_indices(link_extras.get(link, []))
                else:
                    link_masks[link] = _remap(old_mask, link_extras.get(link))

        removed_indices = tuple(
            index for index in range(len(self.paths)) if index not in survivors_map
        )
        result = PathSet(
            self.nodes,
            tuple(new_paths),
            node_masks,
            directed=directed,
            _links=new_links,
            _link_masks=link_masks,
        )
        object.__setattr__(
            result,
            "_evolution",
            PathEvolution(
                parent=self,
                survivors=survivors_map,
                added=tuple(added_indices),
                removed=removed_indices,
                links_changed=links_changed,
            ),
        )
        return result

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
    of one scoped search).
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
    source (and any node it forbids) from the targets, counts them in
    ``n_targets``, and sets forbidden nodes in ``on_path``; both rows are
    restored on return.  A path holds at most ``max_nodes`` nodes, not
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
    adjacency-index vectors.  :meth:`PathSet.apply_delta` relies on that
    invariant to merge scoped searches into from-scratch order.
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
    forbidden: Iterable[Node] = (),
    prefix: Tuple[Node, ...] = (),
    limit: int = sys.maxsize,
) -> List[Path]:
    """All simple paths from ``source`` to any of ``targets``, as label
    tuples in :func:`_dfs` emission order (``prefix`` prepended).

    Paths from a node to itself are excluded.  ``cutoff`` limits the path
    length in *edges* (``None`` = unlimited).  ``forbidden`` nodes are never
    visited and never count as targets; a forbidden source yields nothing.
    At most ``limit`` paths are emitted before :class:`_PathOverflow`.
    """
    start = indexed.index.get(source)
    if start is None:
        raise RoutingError(f"source node {source!r} is not in the graph")
    blocked = set(forbidden)
    if source in blocked:
        return []
    is_target = indexed.flags(set(targets) - blocked - {source})
    paths: List[Path] = []
    _dfs(
        indexed.adj,
        indexed.labels,
        start,
        is_target,
        is_target.count(1),
        indexed.flags(blocked),
        _max_nodes(indexed, cutoff),
        0,
        limit,
        paths=paths,
        prefix=prefix,
    )
    return paths


def _paths_through_edge(
    indexed: _IndexedGraph,
    source: Node,
    targets: AbstractSet[Node],
    tail: Node,
    head: Node,
    cutoff: Optional[int],
    limit: int = sys.maxsize,
) -> List[Path]:
    """Simple ``source``→target paths traversing the edge ``tail→head``.

    The delta layer's scoped search for paths through one *added* link: every
    such path decomposes uniquely into a simple prefix from ``source`` to
    ``tail`` that avoids ``head`` (the path visits ``head`` only after the
    edge), the edge itself, and a simple suffix from ``head`` to a target
    avoiding every prefix node — so enumerating (prefix, suffix) pairs with
    the forbidden-set DFS finds each qualifying path exactly once.  For
    undirected graphs the caller invokes this twice, once per orientation.
    At most ``limit`` paths are returned before :class:`_PathOverflow`.
    """
    if source == head:
        return []  # the edge would re-enter the source: never simple
    if cutoff is not None and cutoff < 1:
        return []
    if source == tail:
        prefixes: List[Path] = [(tail,)]
    else:
        prefix_cutoff = None if cutoff is None else cutoff - 1
        prefixes = _simple_paths(indexed, source, (tail,), prefix_cutoff, (head,))
    found: List[Path] = []
    for prefix in prefixes:
        if head in targets:
            if len(found) >= limit:
                raise _PathOverflow
            found.append(prefix + (head,))
        remaining = None if cutoff is None else cutoff - len(prefix)
        if remaining is not None and remaining < 1:
            continue
        found.extend(
            _simple_paths(
                indexed, head, targets, remaining, prefix, prefix, limit - len(found)
            )
        )
    return found


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
