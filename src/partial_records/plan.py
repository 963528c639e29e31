"""Comparison plans: increasing time indices with nested comparison sets.

A plan selects time indices n_1 < n_2 < ... < n_T from an i.i.d. sequence and
attaches to each a comparison set C(n_t) of strictly earlier indices.  A
record occurs at position t when the value at time n_t strictly exceeds every
value indexed by C(n_t).  The closed-form laws in this package hold under two
compatibility conditions:

  (a1)  C(n_1) < C(n_2) < ... < C(n_T)   (strict set inclusion)
  (a2)  n_{t-1} in C(n_t)                 for every t >= 2

which make the record events along the subsequence mutually independent with
P(record at t) = 1/c(n_t) where c(n_t) = |C(n_t)| + 1.

Validated plans are stored lazily: only the indices, the per-position
cardinalities, and the per-position *fresh* comparison indices (those not
implied by the previous set and (a2)) are kept, so a total-comparison plan on
j = 10^5 indices costs O(j) memory rather than O(j^2).  Plan files and
plan_hash use the same O(j) form: the indices and the fresh sets.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass

from .errors import (
    BadFirstIndex,
    EmptySelection,
    IndexOutOfRange,
    PlanValidationError,
    StateSpaceTooLarge,
)

# violation kinds reported by validate()
NOT_STRICTLY_INCREASING = "NotStrictlyIncreasingIndices"
SET_OUT_OF_RANGE = "SetOutOfRange"
NOT_NESTED = "NotNested"
MISSING_PREDECESSOR = "MissingPredecessor"


@dataclass(frozen=True)
class Violation:
    """One validation failure at a plan position (1-based)."""

    kind: str
    position: int
    detail: str

    def __str__(self):
        return f"[{self.kind}] position {self.position}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """Complete list of compatibility violations for a rejected plan."""

    violations: tuple[Violation, ...]

    def __post_init__(self):
        if not self.violations:
            raise ValueError("a validation report must carry at least one violation")

    def __str__(self):
        return "\n".join(str(v) for v in self.violations)

    def __len__(self):
        return len(self.violations)

    def kinds(self):
        return tuple(v.kind for v in self.violations)


@dataclass(frozen=True)
class ComparisonPlan:
    """Raw plan as supplied by the user, prior to compatibility validation.

    indices: the selected time indices (1-based positions in the sequence).
    comparison_sets: one set of earlier time indices per selected index.
    Construction only checks shape and that entries are integers (a float
    raises ValueError); semantic checks live in validate().
    """

    indices: tuple[int, ...]
    comparison_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        idx = tuple(_index(n, "an index") for n in self.indices)
        sets = tuple(map(_int_set, self.comparison_sets))
        if len(idx) != len(sets):
            raise ValueError(
                f"{len(idx)} indices but {len(sets)} comparison sets"
            )
        if len(idx) == 0:
            raise ValueError("a plan needs at least one index")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "comparison_sets", sets)

    @property
    def length(self):
        return len(self.indices)


@dataclass(frozen=True)
class ValidatedPlan:
    """A plan that passed compatibility validation, stored lazily.

    fresh_sets[t-1] holds the comparison indices first appearing at position
    t, i.e. C(n_t) minus C(n_{t-1}) minus {n_{t-1}}.  The full set C(n_t) is
    the union of all fresh sets up to t plus the earlier selected indices.
    """

    indices: tuple[int, ...]
    cardinalities: tuple[int, ...]
    fresh_sets: tuple[tuple[int, ...], ...]

    @property
    def length(self):
        return len(self.indices)

    @property
    def max_index(self):
        return self.indices[-1]

    def _check(self, t, what="position"):
        if not 1 <= t <= self.length:
            raise IndexOutOfRange(f"{what} {t} not in 1..{self.length}")

    def index(self, t):
        """Time index n_t at subsequence position t (1-based)."""
        self._check(t)
        return self.indices[t - 1]

    def cardinality(self, t):
        """c(n_t) = |C(n_t)| + 1, the record odds denominator at position t."""
        self._check(t)
        return self.cardinalities[t - 1]

    def comparison_set(self, t):
        """Materialize C(n_t).  Costs O(|C(n_t)|)."""
        self._check(t)
        members = set(self.indices[: t - 1])
        for fresh in self.fresh_sets[:t]:
            members.update(fresh)
        return frozenset(members)

    def drawn_indices(self, horizon=None):
        """All time indices a simulation must draw to resolve positions 1..horizon."""
        horizon = self.length if horizon is None else horizon
        self._check(horizon, "horizon")
        members = self.comparison_set(horizon) | {self.indices[horizon - 1]}
        return tuple(sorted(members))

    def to_comparison_plan(self):
        """Materialize every comparison set.  Costs O(sum of |C(n_t)|); a plan
        needing more than 20M set entries raises StateSpaceTooLarge."""
        total = sum(self.cardinalities) - self.length
        if total > 20_000_000:
            raise StateSpaceTooLarge(
                f"materializing this plan needs {total} set entries; keep it lazy"
            )
        sets = []
        members = set()
        for n, fresh in zip(self.indices, self.fresh_sets):
            members.update(fresh)
            sets.append(frozenset(members))
            members.add(n)
        return ComparisonPlan(self.indices, tuple(sets))


def _index(value, what):
    """value as an exact int: operator.index takes numpy integers and refuses
    floats, which int() would silently truncate; bools are refused too."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _int_set(s):
    """s as a frozenset of exact ints; one that already is one is kept as-is."""
    if type(s) is frozenset and set(map(type, s)) <= {int}:
        return s
    return frozenset(_index(n, "a comparison-set member") for n in s)


def _index_violations(t, n, prev, members):
    """Index rule at position t: n >= 1 exceeds its predecessor prev (None at
    t = 1), and every comparison index lies in 1..n-1."""
    violations = []
    if n < 1:
        violations.append(Violation(NOT_STRICTLY_INCREASING, t, f"index {n} is below 1"))
    elif prev is not None and n <= prev:
        violations.append(
            Violation(NOT_STRICTLY_INCREASING, t, f"index {n} does not exceed predecessor {prev}")
        )
    # min and max run at C speed; the scan only names the offending members
    if members and (min(members) < 1 or max(members) > n - 1):
        bad = sorted(e for e in members if not 1 <= e <= n - 1)
        violations.append(Violation(SET_OUT_OF_RANGE, t, f"elements {bad} outside 1..{n - 1}"))
    return violations


def _nesting_violations(t, prev, prev_set, cur_set):
    """Conditions (a1) and (a2) at position t >= 2, against position t-1."""
    violations = []
    if not prev_set < cur_set:
        violations.append(
            Violation(NOT_NESTED, t, f"C(n_{t}) must strictly contain C(n_{t - 1})")
        )
    if prev not in cur_set:
        violations.append(
            Violation(MISSING_PREDECESSOR, t, f"previous index {prev} missing from C(n_{t})")
        )
    return violations


def _fresh(new, prev):
    """C(n_t) minus what (a1) and (a2) imply, from new = C(n_t) - C(n_{t-1}):
    drop n_{t-1}."""
    return tuple(sorted(new - {prev}))


def validate(plan):
    """Check compatibility; return a ValidatedPlan or a complete ValidationReport.

    Total on syntactically well-formed plans: every failure mode is reported
    (all positions are scanned), never raised.  A ValidatedPlan is returned
    unchanged.
    """
    if isinstance(plan, ValidatedPlan):
        return plan
    idx = plan.indices
    sets = plan.comparison_sets
    prevs = (None, *idx[:-1])
    prev_sets = (frozenset(), *sets[:-1])
    news = tuple(map(frozenset.difference, sets, prev_sets))
    violations = []
    for t, (n, prev, cur) in enumerate(zip(idx, prevs, sets), start=1):
        violations += _index_violations(t, n, prev, cur)
    for t in range(2, len(idx) + 1):
        violations += _nesting_violations(t, prevs[t - 1], prev_sets[t - 1], sets[t - 1])
    if violations:
        return ValidationReport(tuple(violations))

    cardinalities = tuple(len(s) + 1 for s in sets)
    # strict nesting forces strictly increasing cardinalities
    assert all(a < b for a, b in zip(cardinalities, cardinalities[1:]))
    fresh = tuple(map(_fresh, news, prevs))
    return ValidatedPlan(idx, cardinalities, fresh)


def as_validated(plan):
    """Accept a ValidatedPlan as-is; validate a ComparisonPlan or raise."""
    result = validate(plan)
    if isinstance(result, ValidationReport):
        raise PlanValidationError(result)
    return result


def check_positions(vplan, positions):
    """Normalize a joint-event position selection.

    Requires a nonempty, strictly increasing tuple of 1-based positions
    within the plan.  Shared by the exact, oracle, simulation, and discrete
    layers so they agree on what a selection means.
    """
    positions = tuple(_index(t, "a position") for t in positions)
    if not positions:
        raise EmptySelection("select at least one position")
    for a, b in zip(positions, positions[1:]):
        if b <= a:
            raise EmptySelection(f"positions must be strictly increasing, got {positions}")
    for t in positions:
        if not 1 <= t <= vplan.length:
            raise IndexOutOfRange(f"position {t} not in 1..{vplan.length}")
    return positions


def total_comparison_plan(j):
    """The classical setup: every index 1..j compared against all predecessors.

    C(1) is empty (the first value is trivially a record), C(n) = {1..n-1},
    so c(n) = n and I_j is the j-th harmonic number.
    """
    j = _index(j, "j")
    if j < 1:
        raise IndexOutOfRange(f"need j >= 1, got {j}")
    indices = tuple(range(1, j + 1))
    cardinalities = indices
    fresh = ((),) * j
    return ValidatedPlan(indices, cardinalities, fresh)


def chained_plan(indices):
    """Each selected index compared against exactly the earlier selected ones.

    C(n_t) = {n_1, ..., n_{t-1}}, hence c(n_t) = t regardless of how the
    indices are spaced.  Requires n_1 = 1 so the first comparison set can be
    empty.  Every index that does not exceed its predecessor is reported, in
    one PlanValidationError.
    """
    indices = tuple(_index(n, "an index") for n in indices)
    if not indices:
        raise EmptySelection("need at least one index")
    if indices[0] != 1:
        raise BadFirstIndex(f"chained plans start at index 1, got {indices[0]}")
    return _plan_from_fresh(indices, [frozenset()] * len(indices))


def random_compatible_plan(rng, max_index=8, max_positions=None):
    """Draw a random plan satisfying (a1)/(a2) by construction.

    rng is a numpy Generator.  Indices are a random nonempty subset of
    1..max_index; each comparison set is the forced part (previous set plus
    previous index) plus a random selection of the remaining candidates.
    Fresh candidates join with probability 0.4 so small sets stay common.
    """
    max_index = _index(max_index, "max_index")
    if max_index < 1:
        raise IndexOutOfRange(f"need max_index >= 1, got {max_index}")
    if max_positions is not None:
        cap = min(_index(max_positions, "max_positions"), max_index)
    else:
        cap = max_index
    t_count = int(rng.integers(1, cap + 1))
    chosen = rng.choice(max_index, size=t_count, replace=False) + 1
    indices = tuple(int(n) for n in sorted(chosen))

    sets = []
    base = frozenset()  # the forced part of the next set
    for n in indices:
        pool = [e for e in range(1, n) if e not in base]
        extras = {e for e in pool if rng.random() < 0.4}
        sets.append(base | extras)
        base = sets[-1] | {n}
    return ComparisonPlan(indices, tuple(sets))


@dataclass(frozen=True)
class EventTerm:
    """One conjunct of a joint record query: the event at one position,
    optionally negated."""

    position: int
    negated: bool = False


@dataclass(frozen=True)
class EventQuery:
    """Conjunction of record events (and negations) at increasing positions."""

    terms: tuple[EventTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise EmptySelection("a query needs at least one term")
        for a, b in zip(terms, terms[1:]):
            if b.position <= a.position:
                raise EmptySelection("query positions must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def positive(cls, positions):
        return cls(tuple(EventTerm(_index(t, "a position")) for t in positions))

    def positions(self):
        return tuple(term.position for term in self.terms)


# ---------------------------------------------------------------------------
# JSON plan files.  The canonical form is what a ValidatedPlan stores, O(j)
# numbers for j positions: {"fresh": [[...], ...], "indices": [...]}, keys
# sorted and each fresh set sorted.  The full form
# {"comparison_sets": [[...], ...], "indices": [...]} is read too, because a
# hand-written plan may be incompatible and only that form can say how.

def plan_to_json_dict(plan):
    """The canonical dict of a plan; a ComparisonPlan is validated first."""
    vplan = as_validated(plan)
    return {"fresh": [list(f) for f in vplan.fresh_sets], "indices": list(vplan.indices)}


def _plan_from_fresh(indices, fresh):
    """The ValidatedPlan with C(n_t) = C(n_{t-1}) + {n_{t-1}} + fresh[t-1].

    A fresh member that is an earlier index or an earlier fresh member raises
    ValueError, so c(n_t) - 1 is the number of members the file lists for
    C(n_t).  Index-rule violations raise PlanValidationError, all of them.
    """
    if len(indices) != len(fresh):
        raise ValueError(f"{len(indices)} indices but {len(fresh)} fresh sets")
    if not indices:
        raise ValueError("a plan needs at least one index")
    seen = set()
    violations = []
    cardinalities = []
    prevs = (None, *indices[:-1])
    for t, (n, prev, members) in enumerate(zip(indices, prevs, fresh), start=1):
        if not seen.isdisjoint(members):
            raise ValueError(f"fresh[{t - 1}] repeats earlier members {sorted(seen & members)}")
        violations += _index_violations(t, n, prev, members)
        seen |= members
        seen.add(n)
        # n is not in C(n_t) unless an index rule failed, so |seen| = c(n_t)
        cardinalities.append(len(seen))
    if violations:
        raise PlanValidationError(ValidationReport(tuple(violations)))
    return ValidatedPlan(indices, tuple(cardinalities), tuple(map(tuple, map(sorted, fresh))))


def plan_from_json_dict(obj):
    """A ValidatedPlan from the canonical form, a ComparisonPlan from the full one."""
    if not isinstance(obj, dict):
        raise ValueError("plan file must hold a JSON object")
    if {"fresh", "comparison_sets"} <= set(obj):
        raise ValueError("plan object has both fresh and comparison_sets")
    key = "fresh" if "fresh" in obj else "comparison_sets"
    missing = {"indices", key} - set(obj)
    if missing:
        raise ValueError(f"plan object missing keys: {sorted(missing)}")
    indices = obj["indices"]
    sets = obj[key]
    # type(True) is bool, so exact-type checks reject booleans as integers
    if not isinstance(indices, list) or not set(map(type, indices)) <= {int}:
        raise ValueError("indices must be a list of integers")
    if not isinstance(sets, list):
        raise ValueError(f"{key} must be a list of lists")
    parsed = []
    for k, s in enumerate(sets):
        if not isinstance(s, list) or not set(map(type, s)) <= {int}:
            raise ValueError(f"{key}[{k}] must be a list of integers")
        members = frozenset(s)
        if len(members) != len(s):
            raise ValueError(f"{key}[{k}] has duplicate entries")
        parsed.append(members)
    if key == "fresh":
        return _plan_from_fresh(tuple(indices), parsed)
    return ComparisonPlan(tuple(indices), tuple(parsed))


def load_plan_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return plan_from_json_dict(obj)


def save_plan_file(plan, path):
    """Write the canonical form with ", " and ": " separators, plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(plan_to_json_dict(plan), sort_keys=True) + "\n")


def plan_hash(plan):
    """SHA-256 of the compact canonical JSON text (separators "," and ":")."""
    text = json.dumps(plan_to_json_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
