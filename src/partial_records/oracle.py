"""Independent verification oracles for record-event probabilities.

Two oracles, neither of which shares code paths with the closed forms it
checks:

* exact_joint / exact_joint_table enumerate rank orderings of the relevant
  indices.  For continuous i.i.d. values every ordering of distinct values
  is equally likely, so any record-event probability is (#orderings where
  the event holds) / k!, an exact rational.  The orderings are streamed in
  blocks of at most 8! that share their first k - 8 items, one int8 row per
  relevant index, so a block takes about 8!·k bytes (403 kB at k = 10) and
  the enumeration never holds the 36 MB table of all 10! orderings.

* exhaustive_discrete_joint enumerates every outcome of the relevant atoms
  of a discrete model and adds up the probabilities of outcomes where all
  selected strict-exceedance events hold.

The continuous laws with a cutoff are checked against a SciPy quadrature of
their defining recursion, which lives with the tests (tests/reference.py).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import StateSpaceTooLarge, TooManyIndices
from .plan import EventQuery, as_validated, check_positions

_PERM_CACHE: dict[int, np.ndarray] = {}
_PERM_LIMIT = 10
_BLOCK = 8  # orderings come in blocks of 8!, one per prefix of the other items


def _perm_table(k):
    """All orderings of k items as a (k!, k) array of ranks.

    Rows follow the lexicographic order of itertools.permutations.  The
    orderings of n items are, for each first item in turn, that item followed
    by the orderings of n - 1 items relabelled onto the remaining ones; the
    table is built that way, transposed, and returned as a column-major view
    so that each item's column is contiguous.
    """
    if k not in _PERM_CACHE:
        table = np.empty((0, 1), dtype=np.int8)  # the one ordering of no items
        for n in range(1, k + 1):
            block = table.shape[1]
            items = np.arange(n, dtype=np.int8)
            grown = np.empty((n, n * block), dtype=np.int8)
            for first in range(n):
                cols = slice(first * block, (first + 1) * block)
                grown[0, cols] = first
                grown[1:, cols] = np.delete(items, first)[table]
            table = grown
        _PERM_CACHE[k] = table.T
    return _PERM_CACHE[k]


def _ordering_blocks(k, max_indices=_PERM_LIMIT):
    """All k! orderings of k items in itertools.permutations order, as
    index-major (k, rows) int8 blocks of ranks: row j holds item j's rank.

    For k <= 8 the one block is the whole table.  Above that each block is
    one prefix of k - 8 items followed by the 8! orderings of the other 8,
    in ascending order; the block holds 8!·k bytes whatever k is.
    """
    if k > max_indices:
        raise TooManyIndices(f"{k} relevant indices exceeds requested cap {max_indices}")
    if k > _PERM_LIMIT:
        raise TooManyIndices(
            f"{k} relevant indices implies {k}! orderings; limit is {_PERM_LIMIT}"
        )
    if k <= _BLOCK:
        yield _perm_table(k).T
        return
    head = k - _BLOCK
    base = _perm_table(_BLOCK).T
    for prefix in itertools.permutations(range(k), head):
        block = np.empty((k, base.shape[1]), dtype=np.int8)
        block[:head] = np.reshape(prefix, (head, 1))
        # rank i of the other 8 becomes the i-th item not in the prefix:
        # each prefix item, in ascending order, bumps the ranks at or above it
        tail = block[head:]
        tail[...] = base
        for item in sorted(prefix):
            tail += tail >= item
        yield block


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


def exact_joint(plan, query, max_indices=_PERM_LIMIT):
    """Exact probability of a conjunction of (possibly negated) record events.

    query is an EventQuery or a sequence of positions.  Enumerates orderings
    of the relevant indices, so the union of the involved comparison sets must
    stay small.
    """
    if not isinstance(query, EventQuery):
        query = EventQuery.positive(query)
    vplan = as_validated(plan)
    positions = query.positions()
    rel = relevant_indices(vplan, positions)
    hits = 0
    for block in _ordering_blocks(len(rel), max_indices):
        combined = np.ones(block.shape[1], dtype=bool)
        for term, mask in zip(query.terms, _event_masks(vplan, positions, rel, block)):
            combined &= ~mask if term.negated else mask
        hits += int(np.count_nonzero(combined))
    return Fraction(hits, math.factorial(len(rel)))


def exact_joint_table(plan, positions=None, max_indices=_PERM_LIMIT):
    """Joint probability of every nonempty subset of the selected positions.

    One enumeration pass: each ordering is coded by the set of positions
    whose event it satisfies, then subset counts come from summing codes
    over supersets.  Returns {subset tuple: Fraction}.
    """
    vplan = as_validated(plan)
    if positions is None:
        positions = tuple(range(1, vplan.length + 1))
    positions = check_positions(vplan, positions)
    rel = relevant_indices(vplan, positions)

    # bits <= len(rel) <= _PERM_LIMIT, so every code fits in 16 bits
    bits = len(positions)
    counts = np.zeros(1 << bits, dtype=np.int64)
    for block in _ordering_blocks(len(rel), max_indices):
        code = np.zeros(block.shape[1], dtype=np.uint16)
        for b, mask in enumerate(_event_masks(vplan, positions, rel, block)):
            code |= mask.astype(np.uint16) << b
        counts += np.bincount(code, minlength=1 << bits)
    for b in range(bits):
        bit = 1 << b
        for m in range(1 << bits):
            if not m & bit:
                counts[m] += counts[m | bit]

    total = math.factorial(len(rel))
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
