"""Independent verification oracles for record-event probabilities.

Three oracles, none of which share code paths with the closed forms they
check:

* exact_joint / exact_joint_table enumerate rank orderings of the relevant
  indices.  For continuous i.i.d. values every ordering of distinct values
  is equally likely, so any record-event probability is (#orderings where
  the event holds) / k!, an exact rational.

* quadrature_bounded integrates the defining recursion for joint record
  events whose last value falls below x: level k conditions on the value z
  at the k-th selected position, multiplies the density f(z) by F(z) raised
  to the number of additional comparisons that must fall below z, and
  integrates the previous level against it.

* exhaustive_discrete_joint enumerates every outcome of the relevant atoms
  of a discrete model and adds up the probabilities of outcomes where all
  selected strict-exceedance events hold.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    BadParams,
    NegativeCutoff,
    QuadratureFailure,
    StateSpaceTooLarge,
    TooManyIndices,
)
from .plan import EventQuery, as_validated, check_positions

_PERM_CACHE: dict[int, np.ndarray] = {}
_PERM_LIMIT = 10


def _perm_table(k):
    """All orderings of k items as a (k!, k) array of ranks.

    Rows follow the lexicographic order of itertools.permutations.  The
    orderings of n items are, for each first item in turn, that item followed
    by the orderings of n - 1 items relabelled onto the remaining ones; the
    table is built that way, transposed, and returned as a column-major view
    so that each item's column is contiguous.
    """
    if k > _PERM_LIMIT:
        raise TooManyIndices(
            f"{k} relevant indices implies {k}! orderings; limit is {_PERM_LIMIT}"
        )
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
    """Per selected position, which rows of values (one column per relevant
    index) have the candidate strictly above every comparison value."""
    col = {idx: j for j, idx in enumerate(rel)}
    masks = []
    for t in positions:
        cand = values[:, col[vplan.index(t)]]
        members = [col[e] for e in sorted(vplan.comparison_set(t))]
        # ranks and atoms are >= 0, so an empty comparison set is always beaten
        masks.append(cand > values[:, members].max(axis=1, initial=-1))
    return masks


def _ordering_masks(vplan, positions, max_indices):
    """The event masks over all k! orderings of the k relevant indices, and k!."""
    rel = relevant_indices(vplan, positions)
    if len(rel) > max_indices:
        raise TooManyIndices(
            f"{len(rel)} relevant indices exceeds requested cap {max_indices}"
        )
    return _event_masks(vplan, positions, rel, _perm_table(len(rel))), math.factorial(len(rel))


def exact_joint(plan, query, max_indices=_PERM_LIMIT):
    """Exact probability of a conjunction of (possibly negated) record events.

    query is an EventQuery or a sequence of positions.  Enumerates orderings
    of the relevant indices, so the union of the involved comparison sets must
    stay small.
    """
    if not isinstance(query, EventQuery):
        query = EventQuery.positive(query)
    vplan = as_validated(plan)
    masks, total = _ordering_masks(vplan, query.positions(), max_indices)
    combined = np.ones(total, dtype=bool)
    for term, mask in zip(query.terms, masks):
        combined &= ~mask if term.negated else mask
    return Fraction(int(np.count_nonzero(combined)), total)


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
    masks, total = _ordering_masks(vplan, positions, max_indices)

    # bits <= len(rel) <= _PERM_LIMIT, so every code fits in 16 bits
    bits = len(positions)
    code = np.zeros(total, dtype=np.uint16)
    for b, mask in enumerate(masks):
        code |= mask.astype(np.uint16) << b
    counts = np.bincount(code, minlength=1 << bits).astype(np.int64)
    for b in range(bits):
        bit = 1 << b
        for m in range(1 << bits):
            if not m & bit:
                counts[m] += counts[m | bit]

    table = {}
    for m in range(1, 1 << bits):
        subset = tuple(positions[b] for b in range(bits) if m >> b & 1)
        table[subset] = Fraction(int(counts[m]), total)
    return table


def quadrature_bounded(plan, positions, x, density, tol=1e-10, max_cells=1 << 16):
    """Numerically integrate P(all selected events hold, last value < x).

    Builds the level functions B_k(z) on a uniform grid by cumulative
    Simpson integration, doubling the grid until two refinements agree to
    tol.  Independent of the closed-form product and of the record-value
    exponent c(n_t) it is used to check.  The first grid has 1024 cells, so
    max_cells below 2048 leaves nothing to compare it with and raises BadParams.
    """
    cells = 1024
    if max_cells < 2 * cells:
        raise BadParams(f"max_cells must be at least {2 * cells}, got {max_cells}")
    from scipy.integrate import cumulative_simpson

    vplan = as_validated(plan)
    positions = check_positions(vplan, positions)
    if x <= 0:
        raise NegativeCutoff(f"cutoff must be positive, got {x}")
    upper = min(float(x), density.support_upper)

    cards = [vplan.cardinality(t) for t in positions]
    previous = None
    while cells <= max_cells:
        z = np.linspace(0.0, upper, cells + 1)
        fs = np.asarray(density.pdf(z), dtype=float)
        cdfs = np.asarray(density.cdf(z), dtype=float)
        level = 1.0
        prev_card = 0
        for c in cards:
            integrand = np.power(cdfs, c - prev_card - 1) * fs * level
            level = cumulative_simpson(integrand, x=z, initial=0.0)
            prev_card = c
        value = float(level[-1])
        if previous is not None and abs(value - previous) < tol:
            return value
        previous = value
        cells *= 2
    raise QuadratureFailure(
        f"no convergence below {tol} within {max_cells} cells (last delta "
        f"{abs(value - previous):.3e})"
    )


def exhaustive_discrete_joint(plan, positions, model, max_outcomes=4_000_000):
    """Enumerate all atom assignments of a discrete model; exact when the
    model is.

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
    vals = np.empty((outcomes, k), dtype=np.int32)
    for j in range(k):
        vals[:, j] = (codes // atoms ** (k - 1 - j)) % atoms
    mask = np.logical_and.reduce(_event_masks(vplan, positions, rel, vals))

    # atom l weighs weights[l] / scale, so an outcome weighs its k weights'
    # product over scale^k; int64 holds every partial sum below 2^62
    scale = model.scale
    dtype = (np.int64 if scale**k * outcomes < 2**62 else object) if model.exact else float
    total = np.prod(np.array(model.weights, dtype=dtype)[vals[mask]], axis=1).sum()
    return Fraction(int(total), scale**k) if model.exact else float(total)
