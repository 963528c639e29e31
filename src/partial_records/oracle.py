"""Independent verification oracles for record-event probabilities.

Two oracles, neither of which shares code paths with the closed forms it
checks:

* exact_joint / exact_joint_table count rank orderings of the k relevant
  indices.  For continuous i.i.d. values every ordering of distinct values
  is equally likely, so any record-event probability is (#orderings where
  the event holds) / k!, an exact rational.  The orderings are counted by
  their event code, the set of selected positions whose event holds, in one
  pass that places the relevant indices from the lowest rank up: the event
  at n_t holds when every member of C(n_t) is placed before n_t, so
  orderings that agree on the set placed so far and on the events decided
  so far merge into one state.  At most 3^k states, 59 049 at k = 10.

* exhaustive_discrete_joint enumerates every outcome of the relevant atoms
  of a discrete model and adds up the probabilities of outcomes where all
  selected strict-exceedance events hold.

The continuous laws with a cutoff are checked against a SciPy quadrature of
their defining recursion, which lives with the tests (tests/reference.py).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import StateSpaceTooLarge, TooManyIndices
from .plan import EventQuery, as_validated, check_positions

_INDEX_LIMIT = 10


def relevant_indices(plan, positions):
    """Sequence indices whose relative order decides the selected events."""
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    rel = set()
    for t in positions:
        rel.add(vplan.index(t))
        rel.update(vplan.comparison_set(t))
    return tuple(sorted(rel))


def _event_masks(vplan, positions, rel, values):
    """Per selected position, which columns of values (one row per relevant
    index) have the candidate strictly above every comparison value."""
    row = {idx: j for j, idx in enumerate(rel)}
    # ranks and atoms are >= 0, so an empty comparison set is always beaten
    tops = {frozenset(): np.full(values.shape[1], -1, dtype=values.dtype)}
    masks = []
    for t in positions:
        # start from the maximum over the largest earlier set inside this one
        cset = vplan.comparison_set(t)
        inner = max((s for s in tops if s <= cset), key=len)
        top = tops[inner].copy()
        for e in cset - inner:
            np.maximum(top, values[row[e]], out=top)
        tops[cset] = top
        masks.append(values[row[vplan.index(t)]] > top)
    return masks


def _code_counts(vplan, positions, max_indices):
    """Orderings of the relevant indices counted by event code.

    Returns (codes, counts): bit b of a code says the event at positions[b]
    holds, and counts[i] orderings have code codes[i]; the codes are
    distinct and the counts sum to k!.
    """
    rel = relevant_indices(vplan, positions)
    k = len(rel)
    cap = min(max_indices, _INDEX_LIMIT)
    if k > cap:
        raise TooManyIndices(f"{k} relevant indices exceeds cap {cap}")
    item = {idx: j for j, idx in enumerate(rel)}
    decides = {}  # candidate item -> (its code bit, its comparison set as a mask)
    for b, t in enumerate(positions):
        members = sum(1 << item[e] for e in vplan.comparison_set(t))
        decides[item[vplan.index(t)]] = (1 << (k + b), members)

    # a state's key is its placed set in the low k bits and its code above;
    # every count is at most k! <= 10!, so int64 sums are exact
    keys = np.zeros(1, dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    for _ in range(k):
        placed = keys & ((1 << k) - 1)
        grown, carried = [], []
        for j in range(k):
            free = placed & (1 << j) == 0
            key = keys[free] | (1 << j)
            if j in decides:
                bit, members = decides[j]
                key |= np.where(placed[free] & members == members, bit, 0)
            grown.append(key)
            carried.append(counts[free])
        keys = np.concatenate(grown)
        order = np.argsort(keys)
        keys, counts = keys[order], np.concatenate(carried)[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, counts = keys[starts], np.add.reduceat(counts, starts)
    return keys >> k, counts


def exact_joint(plan, query, max_indices=_INDEX_LIMIT):
    """Exact probability of a conjunction of (possibly negated) record events.

    query is an EventQuery or a sequence of positions.  Counts orderings of
    the relevant indices, so the union of the involved comparison sets must
    stay small.
    """
    if not isinstance(query, EventQuery):
        query = EventQuery.positive(query)
    positions = query.positions()
    codes, counts = _code_counts(as_validated(plan), positions, max_indices)
    want = sum(1 << b for b, term in enumerate(query.terms) if not term.negated)
    return Fraction(int(counts[codes == want].sum()), int(counts.sum()))


def exact_joint_table(plan, positions=None, max_indices=_INDEX_LIMIT):
    """Joint probability of every nonempty subset of the selected positions.

    One counting pass codes each ordering by the set of positions whose
    event it satisfies, then subset counts come from summing codes over
    supersets.  Returns {subset tuple: Fraction}.
    """
    vplan = as_validated(plan)
    if positions is None:
        positions = tuple(range(1, vplan.length + 1))
    positions = check_positions(vplan, positions)
    codes, by_code = _code_counts(vplan, positions, max_indices)

    bits = len(positions)
    counts = np.zeros(1 << bits, dtype=np.int64)
    counts[codes] = by_code
    for b in range(bits):
        bit = 1 << b
        for m in range(1 << bits):
            if not m & bit:
                counts[m] += counts[m | bit]

    total = int(by_code.sum())
    table = {}
    for m in range(1, 1 << bits):
        subset = tuple(positions[b] for b in range(bits) if m >> b & 1)
        table[subset] = Fraction(int(counts[m]), total)
    return table


def exhaustive_discrete_joint(plan, positions, model, max_outcomes=4_000_000):
    """Enumerate all atom assignments of a discrete model; an exact rational.

    The relevant indices each take one of the model's atoms independently;
    an outcome contributes its product probability when every selected
    position's value strictly exceeds all values in its comparison set.
    """
    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    rel = relevant_indices(vplan, positions)
    k = len(rel)
    atoms = model.atom_count
    outcomes = atoms**k
    if outcomes > max_outcomes:
        raise StateSpaceTooLarge(
            f"{atoms}^{k} = {outcomes} outcomes exceeds cap {max_outcomes}"
        )

    codes = np.arange(outcomes, dtype=np.int64)
    vals = np.empty((k, outcomes), dtype=np.int32)
    for j in range(k):
        vals[j] = (codes // atoms ** (k - 1 - j)) % atoms
    mask = np.logical_and.reduce(_event_masks(vplan, positions, rel, vals))

    # atom l weighs weights[l] / scale, so an outcome weighs its k weights'
    # product over scale^k; int64 holds every partial sum below 2^62
    scale = model.scale
    dtype = np.int64 if scale**k * outcomes < 2**62 else object
    total = np.prod(np.array(model.weights, dtype=dtype)[vals[:, mask]], axis=0).sum()
    return Fraction(int(total), scale**k)
