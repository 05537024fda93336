"""Seeded inputs of the four benchmark workloads.

Every input is a plain JSON document (a ``ScenarioSpec`` dict, a churn
``{"base", "deltas"}`` document, or a request list), so the program under
test receives only generated inputs and the same seed always yields the same
documents.  What each seed chooses is stated per workload in ``README.md``.

Boosted cells vary a lot in size with the Agrid edges a seed draws (a d-3
boosted Claranet has 5k to 20k measurement paths).  So that every seed asks
for about the same amount of work, boosted cells are drawn from the seeded
stream until their measurement paths reach a fixed *path budget*; the batch
is "the boosted cells worth N paths", not "K boosted cells".
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

DEFAULT_SEED = 2018

BATCH_WORKLOADS = ("boosted-localize", "grid-compile", "theorem-search")
WORKLOADS = BATCH_WORKLOADS + ("service-mix",)

#: Measurement paths of boosted cells per batch (see the module docstring).
BOOSTED_LOCALIZE_PATHS = 40_000
GRID_COMPILE_LINK_PATHS = 30_000
SERVICE_CELL_PATHS = 6_000
CHURN_BASE_PATHS = 5_000

PATH_TOLERANCE = 0.04
MAX_SKIPS = 8
NEAR_TOLERANCE = 0.15
NEAR_ATTEMPTS = 20

GRID_SIZES = (7, 8, 9)
HYPERGRIDS = ((2, 5), (4, 3), (3, 3), (2, 4))

#: The server's scenario cache holds fewer entries than the catalogue has
#: specs, so a pass pays some cold compiles.
SERVICE_CACHE_SIZE = 8
ANALYZE_REPEATS = 2
CHURN_STREAMS_PER_PASS = 2
CHURN_DELTAS = 2
#: Distinct churn documents; pass k streams the next ones of the pool, so
#: every pass sends fresh deltas until the pool wraps around.
CHURN_POOL = 6


def _spec(
    label: str,
    topology: Dict[str, Any],
    placement: Dict[str, Any],
    analyses: Sequence[str],
    seed: int,
    universe: Optional[Dict[str, Any]] = None,
    size: int = 1,
    trials: int = 10,
) -> Dict[str, Any]:
    return {
        "schema_version": 2,
        "label": label,
        "topology": topology,
        "placement": placement,
        "routing": {"mechanism": "CSP", "cutoff": None, "max_paths": None},
        "failures": {
            "model": "uniform",
            "size": size,
            "n_trials": trials,
            "universe": universe or {"kind": "node"},
        },
        "seed": seed,
        "analyses": [{"analysis": name, "params": {}} for name in analyses],
    }


def _boosted(net: str, dimension: int, seed: int, analyses: Sequence[str],
             universe: str = "node", size: int = 1) -> Dict[str, Any]:
    return _spec(
        f"{net} agrid d={dimension} seed={seed} ({universe})",
        {
            "name": "agrid",
            "params": {
                "base": {"name": net, "params": {}},
                "dimension": dimension,
                "selector": "uniform",
            },
        },
        {"strategy": "mdmp", "params": {"d": dimension}},
        analyses,
        seed,
        universe={"kind": universe},
        size=size,
    )


def _chi_g(topology: Dict[str, Any], label: str, analyses: Sequence[str],
           seed: int) -> Dict[str, Any]:
    return _spec(label, topology, {"strategy": "chi_g", "params": {}}, analyses, seed)


def count_spec_paths(document: Dict[str, Any], cap: Optional[int] = None) -> Optional[int]:
    """``|P(G|chi)|`` of a spec document, streamed without a path set;
    ``None`` as soon as the count passes ``cap``."""
    from repro import Scenario, ScenarioSpec
    from repro.exceptions import PathExplosionError
    from repro.routing.paths import DEFAULT_MAX_PATHS, count_paths

    scenario = Scenario(ScenarioSpec.from_dict(document))
    try:
        return count_paths(scenario.graph, scenario.placement, scenario.mechanism,
                           max_paths=DEFAULT_MAX_PATHS if cap is None else cap)
    except PathExplosionError:
        return None


def boosted_cells(
    rng: random.Random,
    nets: Sequence[str],
    path_budget: int,
    analyses: Sequence[str],
    universe: str = "node",
    size: int = 1,
) -> List[Dict[str, Any]]:
    """d-3 boosted cells from ``rng`` whose paths add up to ``path_budget`` within
    ``PATH_TOLERANCE``.  A cell that would overshoot the window is skipped;
    after ``MAX_SKIPS`` skips the batch stops short instead."""
    cells: List[Dict[str, Any]] = []
    total = skips = 0
    while total < path_budget * (1 - PATH_TOLERANCE) and skips < MAX_SKIPS:
        net = nets[(len(cells) + skips) % len(nets)]
        cell = _boosted(net, 3, rng.randrange(2**31), analyses, universe, size)
        paths = count_spec_paths(cell, int(path_budget * (1 + PATH_TOLERANCE)) - total)
        if paths is None:
            skips += 1
        else:
            cells.append(cell)
            total += paths
    return cells


def cell_near(rng: random.Random, net: str, target: int, analyses: Sequence[str],
              universe: str = "node", size: int = 1) -> Dict[str, Any]:
    """The first d-3 boosted cell of ``rng`` with ``target`` paths within
    ``NEAR_TOLERANCE``, or the closest of ``NEAR_ATTEMPTS`` draws."""
    best, best_gap = None, None
    for _ in range(NEAR_ATTEMPTS):
        cell = _boosted(net, 3, rng.randrange(2**31), analyses, universe, size)
        paths = count_spec_paths(cell, 2 * target)
        gap = abs((2 * target if paths is None else paths) - target)
        if best_gap is None or gap < best_gap:
            best, best_gap = cell, gap
        if gap <= target * NEAR_TOLERANCE:
            break
    return best


def batch_specs(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The spec batch of a batch workload, as ScenarioSpec documents."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "boosted-localize":
        specs = boosted_cells(
            rng, ("claranet", "eunetworks"), BOOSTED_LOCALIZE_PATHS,
            ("mu", "bounds", "localization", "measurement"), size=2,
        )
    elif workload == "grid-compile":
        specs = [
            _chi_g({"name": "directed_grid", "params": {"n": n}}, f"H_{n} chi_g",
                   ("mu",), seed)
            for n in GRID_SIZES
        ]
        specs += boosted_cells(
            rng, ("claranet", "eunetworks"), GRID_COMPILE_LINK_PATHS, ("mu",),
            universe="link",
        )
    elif workload == "theorem-search":
        specs = [
            _chi_g(
                {"name": "directed_hypergrid", "params": {"n": n, "d": d}},
                f"H_{{{n},{d}}} chi_g", ("mu", "truncated"), seed,
            )
            for n, d in HYPERGRIDS
        ]
        rng.shuffle(specs)
    else:
        raise ValueError(f"{workload!r} is not a batch workload")
    return specs


# -- service-mix ---------------------------------------------------------------

_ANALYSES = ("mu", "bounds", "localization", "measurement")


def _zoo(net: str, d: int, seed: int, universe: Optional[Dict[str, Any]] = None,
         analyses: Sequence[str] = _ANALYSES) -> Dict[str, Any]:
    kind = (universe or {"kind": "node"})["kind"]
    return _spec(
        f"{net} mdmp d={d} ({kind})",
        {"name": net, "params": {}},
        {"strategy": "mdmp", "params": {"d": d}},
        analyses,
        seed,
        universe=universe,
    )


def _zoo_edges(net: str) -> List[Tuple[str, str]]:
    from repro.topology import zoo

    return [tuple(edge) for edge in zoo.load(net).edges()]


def srlg_groups(edges: Sequence[Tuple[Any, Any]], rng: random.Random,
                n_groups: int = 4) -> Dict[str, List[List[Any]]]:
    """Disjoint SRLG groups of two links each, drawn from ``edges``."""
    chosen = rng.sample(list(edges), 2 * n_groups)
    return {
        f"conduit-{index}": [list(chosen[2 * index]), list(chosen[2 * index + 1])]
        for index in range(n_groups)
    }


def service_catalogue(seed: int) -> List[Dict[str, Any]]:
    """The specs the service-mix requests draw from (larger than the cache)."""
    rng = random.Random(f"service-mix:{seed}")
    spec_seed = rng.randrange(2**31)
    catalogue = [
        _zoo("claranet", 4, spec_seed),
        _zoo("eunetworks", 4, spec_seed, {"kind": "link"}),
        _zoo("dataxchange", 2, spec_seed),
        _zoo("getnet", 3, spec_seed),
        _zoo("gridnetwork", 2, spec_seed, {"kind": "link"}),
        _zoo("claranet", 3, spec_seed,
             {"kind": "srlg", "groups": srlg_groups(_zoo_edges("claranet"), rng)}),
    ]
    for net in ("claranet", "eunetworks"):
        for universe in ("node", "link"):
            catalogue.append(
                _boosted(net, 2, rng.randrange(2**31), _ANALYSES, universe)
            )
    # EuNetworks d-3 cells lie within a few thousand paths of the target;
    # the d-3 Claranet ones range over 5k-20k and would make passes unequal.
    for _ in range(2):
        catalogue.append(
            cell_near(rng, "eunetworks", SERVICE_CELL_PATHS, _ANALYSES, size=2))
        catalogue.append(cell_near(rng, "eunetworks", SERVICE_CELL_PATHS,
                                   ("mu", "bounds"), universe="link"))
    return catalogue


def _connected(nodes: Sequence[Any], links: Iterable[Tuple[Any, Any]]) -> bool:
    neighbours: Dict[Any, List[Any]] = {node: [] for node in nodes}
    for u, v in links:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen, frontier = {nodes[0]}, [nodes[0]]
    while frontier:
        for nxt in neighbours[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(nodes)


def churn_deltas(
    nodes: Sequence[Any],
    edges: Iterable[Tuple[Any, Any]],
    inputs: Iterable[Any],
    outputs: Iterable[Any],
    rng: random.Random,
    count: int,
) -> List[Dict[str, Any]]:
    """``count`` seeded deltas for an undirected graph: link flaps and joins.

    Each delta removes a present link whose loss keeps the graph connected,
    restores a link removed earlier, adds a link between two nodes that were
    never linked, or adds a monitor that is not yet placed.  The generator
    tracks the evolving state, so no delta removes a missing link, adds a
    present one, or places a placed monitor.
    """
    ordered = sorted(nodes, key=repr)
    present = {tuple(sorted(edge, key=repr)) for edge in edges}
    removed: List[Tuple[Any, Any]] = []
    monitors = set(inputs) | set(outputs)
    deltas: List[Dict[str, Any]] = []
    for step in range(count):
        absent = [
            (u, v)
            for i, u in enumerate(ordered)
            for v in ordered[i + 1:]
            if (u, v) not in present and (u, v) not in removed
        ]
        removable = [
            link for link in sorted(present, key=repr)
            if _connected(ordered, present - {link})
        ]
        free = [node for node in ordered if node not in monitors]
        kinds = [
            kind
            for kind, possible in (
                ("remove", bool(removable)),
                ("restore", bool(removed)),
                ("add", bool(absent)),
                ("join", bool(free)),
            )
            if possible
        ]
        kind = rng.choice(kinds)
        if kind == "remove":
            link = rng.choice(removable)
            present.discard(link)
            removed.append(link)
            delta: Dict[str, Any] = {"remove_links": [list(link)]}
        elif kind == "restore":
            link = removed.pop(rng.randrange(len(removed)))
            present.add(link)
            delta = {"add_links": [list(link)]}
        elif kind == "add":
            link = rng.choice(absent)
            present.add(link)
            delta = {"add_links": [list(link)]}
        else:
            node = rng.choice(free)
            monitors.add(node)
            delta = {rng.choice(("add_inputs", "add_outputs")): [node]}
        delta["label"] = f"step-{step + 1}-{kind}"
        deltas.append(delta)
    return deltas


def churn_document(seed: int, index: int) -> Dict[str, Any]:
    """One ``/v1/churn`` document: a boosted EuNetworks base of about
    ``CHURN_BASE_PATHS`` paths and seeded deltas."""
    from repro import Scenario, ScenarioSpec

    rng = random.Random(f"service-mix:churn:{seed}:{index}")
    base = cell_near(rng, "eunetworks", CHURN_BASE_PATHS, ("mu",))
    scenario = Scenario(ScenarioSpec.from_dict(base))
    deltas = churn_deltas(
        list(scenario.graph.nodes()),
        scenario.graph.edges(),
        scenario.placement.inputs,
        scenario.placement.outputs,
        rng,
        CHURN_DELTAS,
    )
    return {"base": base, "deltas": deltas}


def service_requests(seed: int, pass_index: int, catalogue_size: int) -> List[Tuple[str, int]]:
    """The requests of one pass, in seeded order: every catalogue spec
    ``ANALYZE_REPEATS`` times plus the churn slots, as ``("analyze", index)``
    / ``("churn", slot)``.  A spec's repeat hits the server's scenario cache
    only when few enough other specs came in between."""
    rng = random.Random(f"service-mix:order:{seed}:{pass_index}")
    requests = [("analyze", index) for index in range(catalogue_size)] * ANALYZE_REPEATS
    requests += [("churn", slot) for slot in range(CHURN_STREAMS_PER_PASS)]
    rng.shuffle(requests)
    return requests


def churn_for(pass_index: int, slot: int) -> int:
    """The churn-pool document streamed in ``slot`` of pass ``pass_index``."""
    return (pass_index * CHURN_STREAMS_PER_PASS + slot) % CHURN_POOL


def service_inputs(seed: int) -> Dict[str, Any]:
    """The catalogue and churn pool of the service-mix workload."""
    return {
        "catalogue": service_catalogue(seed),
        "churn": [churn_document(seed, index) for index in range(CHURN_POOL)],
    }
