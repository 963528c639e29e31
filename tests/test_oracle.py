"""The verification oracles themselves, pinned on hand-checkable cases."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr
from partial_records.oracle import _ordering_blocks, _perm_table


def test_permutation_oracle_trivial_cases(total5):
    # two exchangeable values: second is larger with probability 1/2
    assert pr.exact_joint(total5, (2,)) == Fraction(1, 2)
    # first value is always a record
    assert pr.exact_joint(total5, (1,)) == 1


def test_permutation_oracle_agrees_with_product(total5, partial_plan):
    table = pr.exact_joint_table(total5)
    for subset, prob in table.items():
        assert prob == pr.joint_record_prob(total5, subset)
    table = pr.exact_joint_table(partial_plan)
    assert table[(1, 2, 3)] == Fraction(1, 40)
    for subset, prob in table.items():
        assert prob == pr.joint_record_prob(partial_plan, subset)


def test_permutation_oracle_handles_negations(total5):
    # independence: P(no record at 2, record at 3) = (1/2)(1/3)
    q = pr.EventQuery((pr.EventTerm(2, negated=True), pr.EventTerm(3)))
    assert pr.exact_joint(total5, q) == Fraction(1, 6)
    # complement inside the table universe
    q_all = pr.EventQuery((pr.EventTerm(2, negated=True),))
    assert pr.exact_joint(total5, q_all) == Fraction(1, 2)


def test_relevant_indices_and_size_guard():
    plan = pr.total_comparison_plan(12)
    assert pr.relevant_indices(plan, (3,)) == (1, 2, 3)
    with pytest.raises(pr.TooManyIndices):
        pr.exact_joint(plan, (12,))  # 12 relevant indices > default cap


@pytest.mark.parametrize("k", range(1, 9))
def test_perm_table_matches_itertools_order(k):
    want = np.array(list(itertools.permutations(range(k))), dtype=np.int8)
    got = _perm_table(k)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, want)


def test_perm_table_edges():
    assert _perm_table(0).shape == (1, 0)
    assert [b.shape for b in _ordering_blocks(0)] == [(0, 1)]
    with pytest.raises(pr.TooManyIndices):
        next(_ordering_blocks(11))


def test_permutation_oracle_at_the_index_cap():
    plan = pr.total_comparison_plan(10)
    table = pr.exact_joint_table(plan, max_indices=10)
    assert len(table) == 1023
    for subset, prob in table.items():
        assert prob == pr.joint_record_prob(plan, subset)
    negated = (2, 5, 9)
    q = pr.EventQuery(
        tuple(pr.EventTerm(t, negated=t in negated) for t in (2, 3, 5, 7, 9, 10))
    )
    want = Fraction(1)
    for term in q.terms:
        p = Fraction(1, term.position)
        want *= 1 - p if term.negated else p
    assert pr.exact_joint(plan, q) == want


def test_ordering_blocks_concatenate_to_itertools_order():
    k = 9
    want = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(k))),
        dtype=np.int8,
        count=k * math.factorial(k),
    ).reshape(-1, k)
    blocks = [block.T for block in _ordering_blocks(k)]
    assert [b.shape for b in blocks] == [(math.factorial(8), k)] * k
    np.testing.assert_array_equal(np.concatenate(blocks), want)


def test_ordering_blocks_at_the_limit_are_90_ascending_blocks():
    # each column read as a base-10 number: strictly ascending over all 10!
    # permutation columns is exactly itertools.permutations order
    k = 10
    weights = 10 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    heads = list(itertools.permutations(range(k), 2))
    last, count = -1, 0
    for n, block in enumerate(_ordering_blocks(k)):
        assert block.dtype == np.int8 and block.shape == (k, math.factorial(8))
        assert np.all(np.bitwise_or.reduce(1 << block.astype(np.int16), axis=0) == 2**k - 1)
        np.testing.assert_array_equal(block[:2, 0], heads[n])
        codes = weights @ block.astype(np.int64)
        assert codes[0] > last and np.all(np.diff(codes) > 0)
        last, count = codes[-1], count + 1
    assert count == len(heads) == 90


@functools.lru_cache(maxsize=1)
def _all_orderings(k):
    """Every ordering of k items as one (k!, k) table, straight from itertools."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    return np.fromiter(flat, dtype=np.int8, count=k * math.factorial(k)).reshape(-1, k)


def _reference_masks(vplan, positions):
    """Per position, over the full table of orderings of the relevant indices,
    whether the candidate beats every member of its comparison set."""
    rel = pr.relevant_indices(vplan, positions)
    values = _all_orderings(len(rel))
    col = {idx: j for j, idx in enumerate(rel)}
    masks = []
    for t in positions:
        members = [col[e] for e in vplan.comparison_set(t)]
        top = values[:, members].max(axis=1, initial=-1)
        masks.append(values[:, col[vplan.index(t)]] > top)
    return masks, len(values)


def _random_plans():
    plans = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        raw = pr.random_compatible_plan(rng, max_index=(6, 7, 8, 9, 10)[seed % 5])
        plans.append((pr.as_validated(raw), rng))
    # the reference table is cached for one k at a time
    return sorted(plans, key=lambda p: len(pr.relevant_indices(p[0], range(1, p[0].length + 1))))


def test_permutation_oracle_equals_full_table_reference_on_random_plans():
    interleaved = multi_block = 0
    for vplan, rng in _random_plans():
        positions = tuple(range(1, vplan.length + 1))
        rel = pr.relevant_indices(vplan, positions)
        fresh = set(rel) - set(vplan.indices)
        interleaved += bool(fresh) and min(fresh) < max(vplan.indices)
        multi_block += len(rel) > 8
        masks, total = _reference_masks(vplan, positions)

        # orderings by the set of events they satisfy; a subset's joint
        # event holds on every set that contains it
        code = sum(mask.astype(np.int64) << b for b, mask in enumerate(masks))
        by_set = np.bincount(code, minlength=2 ** len(positions))
        sets = np.arange(len(by_set))
        table = pr.exact_joint_table(vplan, max_indices=10)
        assert len(table) == len(by_set) - 1
        for subset, prob in table.items():
            m = sum(1 << (t - 1) for t in subset)
            assert prob == Fraction(int(by_set[sets & m == m].sum()), total), subset

        negated = rng.random(len(positions)) < 0.5
        query = pr.EventQuery(tuple(pr.EventTerm(t, bool(n)) for t, n in zip(positions, negated)))
        hold = np.logical_and.reduce([~m if n else m for m, n in zip(masks, negated)])
        assert pr.exact_joint(vplan, query, max_indices=10) == Fraction(
            int(np.count_nonzero(hold)), total
        )
    assert interleaved >= 10 and multi_block >= 5


def test_permutation_oracle_memory_stays_within_a_block():
    # the whole 10! table and its masks would take about 100 MB
    plan = pr.total_comparison_plan(10)
    tracemalloc.start()
    try:
        pr.exact_joint_table(plan, max_indices=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_exhaustive_discrete_oracle_hand_case():
    # uniform m=2, three values on {0, 1/2, 1}: 27 outcomes, 9 have a record
    # at position 2 and again at 3 (strict chains), giving 1/27... the DP
    # result frozen below was first confirmed against this enumeration
    plan = pr.total_comparison_plan(3)
    model = pr.discretize(pr.uniform01(), 2)
    assert pr.exhaustive_discrete_joint(plan, (2, 3), model) == Fraction(1, 27)
    assert pr.exhaustive_discrete_joint(plan, (2,), model) == Fraction(1, 3)


def test_exhaustive_discrete_oracle_guard():
    plan = pr.total_comparison_plan(10)
    model = pr.discretize(pr.uniform01(), 32)
    with pytest.raises(pr.StateSpaceTooLarge):
        pr.exhaustive_discrete_joint(plan, tuple(range(1, 11)), model, max_outcomes=10_000)


def test_exhaustive_discrete_oracle_big_integer_path():
    # smoothstep at m = 64: the outcomes' weight products can pass int64, so
    # the enumeration sums Python integers; it must still equal the recursion
    plan = pr.total_comparison_plan(3)
    model = pr.discretize(pr.smoothstep_density(), 64)
    k = len(pr.relevant_indices(plan, (2, 3)))
    assert model.scale**k * model.atom_count**k >= 2**62
    got = pr.exhaustive_discrete_joint(plan, (2, 3), model)
    assert isinstance(got, Fraction)
    assert got == pr.joint_record_prob_discrete(plan, (2, 3), model)


def test_exhaustive_discrete_oracle_float_models():
    # tabulated densities have no polynomial pieces; their float samples are
    # exact dyadic rationals, so the oracle is exact on them too
    grid = np.linspace(0.0, 1.0, 51)
    tab = pr.tabulated_density(grid, 6 * grid * (1 - grid))
    model = pr.discretize(tab, 6)
    plan = pr.total_comparison_plan(3)
    got = pr.exhaustive_discrete_joint(plan, (2,), model)
    want = pr.joint_record_prob_discrete(plan, (2,), model)
    assert isinstance(got, Fraction)
    assert got == want
