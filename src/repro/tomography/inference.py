"""Failure-set inference from Boolean end-to-end measurements.

Given the measurement vector, the consistent failure sets are exactly the
solutions of the Boolean system of Equation (1).  :func:`consistent_sets`
finds them for every failure universe — nodes, links, SRLGs — on the
signature engine's rows rather than clause by clause: an element can fail
only if its row touches no healthy path, and a set of such elements explains
the observations iff its rows cover every failing path.  Under compression
this runs on the distinct path columns of the engine's
:class:`~repro.engine.compress.CompressionPlan`.  (The clause form in
:mod:`repro.tomography.boolean_system` is kept as the reference the tests
check this against.)  Identifiability is the statement that, among failure
sets of size at most k, the solution is unique — this module turns that
statement into an operational localiser and a report object used by the
examples and the what-if analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

import itertools

from repro._typing import MeasurementVector, Node
from repro.exceptions import IdentifiabilityError
from repro.engine.signatures import SignatureEngine
from repro.failures.universe import FailureUniverse
from repro.routing.paths import PathSet
from repro.tomography.boolean_system import measurement_vector


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of a localisation attempt.

    Attributes
    ----------
    consistent_sets:
        Every failure set of size ≤ ``max_failures`` consistent with the
        observations, in increasing size order.
    unique:
        True when exactly one consistent set exists — the failure is uniquely
        localised.
    localized_set:
        The unique consistent set when ``unique`` is true, else ``None``.
    max_failures:
        The size bound used for the search.
    """

    consistent_sets: Tuple[FrozenSet[Node], ...]
    max_failures: int

    @property
    def unique(self) -> bool:
        return len(self.consistent_sets) == 1

    @property
    def localized_set(self) -> Optional[FrozenSet[Node]]:
        return self.consistent_sets[0] if self.unique else None

    @property
    def ambiguity(self) -> int:
        """Number of consistent candidate failure sets (1 = unique)."""
        return len(self.consistent_sets)

    def contains_truth(self, true_failure_set: Iterable[Node]) -> bool:
        """Whether the true failure set is among the consistent candidates."""
        truth = frozenset(true_failure_set)
        return truth in self.consistent_sets


_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _observation_bytes(observations: Sequence[int], n_paths: int) -> bytes:
    """Validate an observation vector and return it as one 0/1 byte per path."""
    if len(observations) != n_paths:
        raise IdentifiabilityError(
            f"expected {n_paths} observations, got {len(observations)}"
        )
    try:
        raw = bytes(observations)
    except (TypeError, ValueError):
        raw = b""
    if len(raw) != n_paths or raw.translate(None, b"\x00\x01"):
        # Slow path: floats, wide-dtype numpy arrays, or a malformed vector.
        for bit in observations:
            if bit not in (0, 1):
                raise IdentifiabilityError(
                    f"observation must be 0 or 1, got {bit!r}"
                )
        raw = bytes(1 if bit else 0 for bit in observations)
    return raw


def consistent_sets(
    engine: SignatureEngine,
    observations: Sequence[int],
    max_failures: int,
    within: Optional[Iterable[Node]] = None,
) -> Tuple[FrozenSet[Node], ...]:
    """All element sets of size ≤ ``max_failures`` consistent with the
    observations: the solutions of Equation (1) over ``engine``'s universe.

    The localiser of every failure universe.  It runs on the engine's
    internal columns: under compression the observations are first folded
    onto the :class:`~repro.engine.compress.CompressionPlan` classes (a
    class whose paths disagree, or a failing path no element crosses, has
    no explanation, so the answer is ``()``).  A candidate is a row of
    :attr:`SignatureEngine.row_table` that touches the failing columns and
    none of the healthy ones, and a candidate set is consistent iff the union
    of its rows covers every failing column.  Sets are enumerated size
    ascending, ``repr``-sorted within a size.  ``within`` optionally
    restricts the candidate elements.
    """
    if max_failures < 0:
        raise IdentifiabilityError(
            f"max_failures must be >= 0, got {max_failures}"
        )
    columns = _observation_bytes(observations, engine.n_paths)
    if engine.compression is not None:
        columns = engine.compression.fold_observations(columns)
        if columns is None:
            return ()
    # Bit i of the mask is byte i of the columns (base-2 parse, linear time).
    failing = int(columns[::-1].translate(_ASCII_BITS), 2) if columns else 0
    healthy = ((1 << len(columns)) - 1) ^ failing
    candidates = [
        (element, row) for element, row in engine.row_table
        if row and not row & healthy
    ]
    if within is not None:
        allowed = frozenset(within)
        candidates = [item for item in candidates if item[0] in allowed]
    reachable = 0
    for _, row in candidates:
        reachable |= row
    if reachable != failing:
        return ()  # some failing column no candidate crosses
    solutions = []
    for size in range(0, max_failures + 1):
        for combo in itertools.combinations(candidates, size):
            covered = 0
            for _, row in combo:
                covered |= row
            if covered == failing:
                solutions.append(frozenset(element for element, _ in combo))
    return tuple(solutions)


def consistent_failure_sets(
    pathset: PathSet,
    observations: Sequence[int],
    max_failures: int,
    universe: Optional[Iterable[Node]] = None,
) -> Tuple[FrozenSet[Node], ...]:
    """All node failure sets of size ≤ ``max_failures`` consistent with the
    observations; ``universe`` optionally restricts the candidate nodes."""
    return consistent_sets(pathset.engine(), observations, max_failures, universe)


def localize_failures(
    pathset: PathSet,
    observations: Sequence[int],
    max_failures: int,
    universe: Optional[Iterable[Node]] = None,
) -> LocalizationResult:
    """Localise node failures and report uniqueness/ambiguity."""
    sets = consistent_failure_sets(pathset, observations, max_failures, universe)
    return LocalizationResult(consistent_sets=sets, max_failures=max_failures)


def consistent_element_sets(
    universe: FailureUniverse,
    observations: Sequence[int],
    max_failures: int,
) -> Tuple[FrozenSet[Node], ...]:
    """All element sets of size ≤ ``max_failures`` consistent with the
    observations, over an arbitrary failure universe.

    Runs :func:`consistent_sets` on the universe's engine (memoised on the
    owning path set; built afresh for a hand-built universe).
    """
    owner = universe.owner
    if isinstance(owner, PathSet):
        engine = owner.engine(universe=universe)
    else:
        engine = SignatureEngine.from_universe(universe)
    return consistent_sets(engine, observations, max_failures)


def localize_element_failures(
    universe: FailureUniverse,
    observations: Sequence[int],
    max_failures: int,
) -> LocalizationResult:
    """Localise failures over an arbitrary failure universe."""
    sets = consistent_element_sets(universe, observations, max_failures)
    return LocalizationResult(consistent_sets=sets, max_failures=max_failures)


def localization_is_unique(
    pathset: PathSet, failure_set: Iterable[Node], max_failures: Optional[int] = None
) -> bool:
    """Simulate a failure and check whether measurements localise it uniquely.

    ``max_failures`` defaults to ``len(failure_set)``, matching the semantics
    of k-identifiability: among failure sets no larger than the true one, the
    truth is the only consistent explanation.
    """
    failed = frozenset(failure_set)
    bound = len(failed) if max_failures is None else max_failures
    observations = measurement_vector(pathset, failed)
    result = localize_failures(pathset, observations, bound)
    return result.unique and result.localized_set == failed


def identifiability_implies_unique_localization(
    pathset: PathSet, failure_sets: Iterable[Iterable[Node]], k: int
) -> bool:
    """Operational restatement of Definition 2.1 used by tests and examples.

    If the universe is k-identifiable, then every failure set of size ≤ k is
    uniquely localised among candidates of size ≤ k.  This helper checks the
    conclusion for an explicit family of failure sets.
    """
    for failure_set in failure_sets:
        failed = frozenset(failure_set)
        if len(failed) > k:
            raise IdentifiabilityError(
                f"failure set {sorted(map(repr, failed))} exceeds the size bound k={k}"
            )
        if not localization_is_unique(pathset, failed, max_failures=k):
            return False
    return True
