"""Plan construction, validation, and the lazy representation."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import partial_records as pr
from partial_records.plan import (
    MISSING_PREDECESSOR,
    NOT_NESTED,
    NOT_STRICTLY_INCREASING,
    SET_OUT_OF_RANGE,
)


def test_total_comparison_plan_shape():
    p = pr.total_comparison_plan(5)
    assert p.indices == (1, 2, 3, 4, 5)
    assert p.cardinalities == (1, 2, 3, 4, 5)
    assert p.comparison_set(1) == frozenset()
    assert p.comparison_set(3) == {1, 2}
    assert p.comparison_set(5) == {1, 2, 3, 4}


def test_total_comparison_is_lazy_for_large_j():
    p = pr.total_comparison_plan(100_000)
    assert p.length == 100_000
    assert p.cardinality(100_000) == 100_000
    # fresh sets stay empty: every comparison index is implied by nesting
    assert all(f == () for f in p.fresh_sets)


def test_chained_plan_cardinalities_are_positions():
    p = pr.chained_plan([1, 3, 5, 7])
    assert p.indices == (1, 3, 5, 7)
    assert p.cardinalities == (1, 2, 3, 4)
    assert p.comparison_set(3) == {1, 3}
    assert p.comparison_set(4) == {1, 3, 5}


def test_chained_plan_matches_validate_of_the_full_form():
    for indices in ([1], [1, 2], [1, 3, 5, 9], range(1, 80, 2), [1, 10, 100, 10_000]):
        indices = tuple(indices)
        n = len(indices)
        want = pr.ValidatedPlan(indices, tuple(range(1, n + 1)), ((),) * n)
        assert pr.chained_plan(indices) == want
        sets = tuple(frozenset(indices[: t - 1]) for t in range(1, n + 1))
        assert pr.validate(pr.ComparisonPlan(indices, sets)) == want


def test_chained_plan_reports_every_violation():
    with pytest.raises(pr.PlanValidationError) as info:
        pr.chained_plan([1, 3, 2, 0])
    report = info.value.report
    assert [v.position for v in report.violations] == [3, 4]
    assert report.kinds() == (NOT_STRICTLY_INCREASING,) * 2


@pytest.mark.parametrize(
    "build, bad, good",
    [
        (pr.chained_plan, [1, 2.9, 3.5], np.arange(1, 4)),
        (lambda a: pr.ComparisonPlan(*a), ((1, 2.9), (set(), {1.7})), (np.arange(1, 3), (set(), {1}))),
        (lambda a: pr.ComparisonPlan(*a), ((1, 2), (set(), {1.7})), ((1, 2), (set(), {np.int32(1)}))),
        (pr.total_comparison_plan, 3.9, np.int64(3)),
    ],
    ids=["chained_plan", "ComparisonPlan-index", "ComparisonPlan-set", "total_comparison_plan"],
)
def test_plan_constructors_reject_non_integers_and_keep_numpy_integers(build, bad, good):
    # int() would truncate 2.9 to 2; the loader rejects such a file too
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)
    plan = build(good)
    assert set(map(type, plan.indices)) == {int}
    assert plan.indices == tuple(range(1, plan.length + 1))


_TEN = pr.total_comparison_plan(10)
_XS = np.linspace(0, 1, 51)
_TAB = pr.tabulated_density(_XS, 6 * _XS * (1 - _XS), name="tabulated smoothstep")


@pytest.mark.parametrize(
    "call, bad, good, expected",
    [
        (lambda t: pr.record_prob(_TEN, t), 2.9, np.int64(2), Fraction(1, 2)),
        (lambda ts: pr.joint_record_prob(_TEN, ts), (2.5, 3.7), np.arange(2, 4), Fraction(1, 6)),
        (lambda r: pr.record_time_pmf(_TEN, r).r, 2.7, np.int64(2), 2),
        (lambda t: pr.record_time_pmf(_TEN, 2, t).t_max, 5.5, np.int64(5), 5),
        (lambda j: pr.record_count_moments(_TEN, j).j, 4.5, np.int64(4), 4),
        (lambda j: pr.cumulative_intensity(_TEN, j), 4.5, np.int64(4), Fraction(25, 12)),
        (lambda ts: pr.EventQuery.positive(ts).positions(), (1.5, 3), (np.int8(1), 3), (1, 3)),
        (lambda n: pr.SimConfig(_TEN, pr.uniform01(), n, 1).resolved()[2], 10.7, np.int64(10), 10),
        (lambda h: pr.SimConfig(_TEN, pr.uniform01(), 5, 1, horizon=h).resolved()[1],
         7.5, np.int64(7), 7),
        (lambda r: pr.SimConfig(_TEN, pr.uniform01(), 5, 1, r_max=r).resolved()[4],
         1.5, np.int64(1), 1),
        (lambda c: pr.SimConfig(_TEN, pr.uniform01(), 5, 1, checkpoints=c).resolved()[5],
         (2.5,), (np.int64(2),), (2,)),
        (lambda m: pr.discretize(pr.uniform01(), m).m, 2.5, np.int64(2), 2),
        (lambda r: pr.lemma_checks(pr.uniform01(), 4, r=r)["cum_vs_cdf"].r, 1.5, np.int64(2), 2),
        # a tabulated density's grid is integers too, so r is checked the same way
        (lambda r: pr.lemma_checks(_TAB, 4, r=r)["cum_vs_cdf"].r, 1.5, np.int64(2), 2),
        (lambda k: pr.replay(pr.SimConfig(_TEN, pr.uniform01(), 5, 1), k).replication,
         2.7, np.int64(2), 2),
        (lambda n: max(pr.random_compatible_plan(np.random.default_rng(3), n).indices) <= 6,
         6.9, np.int64(6), True),
        (lambda t: len(pr.random_compatible_plan(np.random.default_rng(3), 8, t).indices) <= 2,
         2.5, np.int64(2), True),
    ],
    ids=[
        "record_prob", "joint_record_prob", "record_time_pmf-r", "record_time_pmf-t_max",
        "record_count_moments", "cumulative_intensity", "EventQuery.positive",
        "SimConfig-replications", "SimConfig-horizon", "SimConfig-r_max", "SimConfig-checkpoints",
        "discretize", "lemma_checks-r", "lemma_checks-r-float-grid",
        "replay", "random_compatible_plan-max_index", "random_compatible_plan-max_positions",
    ],
)
def test_integer_inputs_reject_floats_and_keep_numpy_integers(call, bad, good, expected):
    # one rule for every position, rank, horizon and size the package takes:
    # int() would truncate the float, operator.index refuses it
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)
    if np.ndim(good) == 0:  # a bool is an int subclass, but no index
        with pytest.raises(ValueError, match="must be an integer"):
            call(True)
    got = call(good)
    assert got == expected
    assert type(got) is type(expected)
    if isinstance(got, tuple):
        assert set(map(type, got)) == {int}


def test_chained_plan_must_start_at_one():
    with pytest.raises(pr.BadFirstIndex):
        pr.chained_plan([2, 3, 4])


def test_validate_accepts_handcrafted_compatible_plan(partial_plan):
    assert partial_plan.cardinalities == (2, 4, 5)
    assert partial_plan.comparison_set(2) == {1, 2, 3}


def test_validate_reports_every_violation():
    raw = pr.ComparisonPlan(
        (1, 3, 2),
        (frozenset(), frozenset({1}), frozenset({1, 3})),
    )
    report = pr.validate(raw)
    assert isinstance(report, pr.ValidationReport)
    kinds = report.kinds()
    assert NOT_STRICTLY_INCREASING in kinds
    assert SET_OUT_OF_RANGE in kinds


def test_validate_reports_index_rules_before_nesting_rules():
    raw = pr.ComparisonPlan((2, 0), (frozenset({1}), frozenset({1, 3})))
    assert pr.validate(raw).kinds() == (
        NOT_STRICTLY_INCREASING,
        SET_OUT_OF_RANGE,
        MISSING_PREDECESSOR,
    )


def test_validate_catches_broken_nesting_and_missing_predecessor():
    raw = pr.ComparisonPlan(
        (2, 4),
        (frozenset({1}), frozenset({2, 3})),
    )
    report = pr.validate(raw)
    kinds = report.kinds()
    assert NOT_NESTED in kinds  # {1} is not a subset of {2,3}
    assert MISSING_PREDECESSOR not in kinds  # 2 is present
    raw2 = pr.ComparisonPlan(
        (2, 4),
        (frozenset({1}), frozenset({1, 3})),
    )
    assert MISSING_PREDECESSOR in pr.validate(raw2).kinds()


def test_validate_rejects_self_comparison():
    raw = pr.ComparisonPlan((1,), (frozenset({1}),))
    report = pr.validate(raw)
    assert report.kinds() == (SET_OUT_OF_RANGE,)


def test_as_validated_raises_with_report():
    raw = pr.ComparisonPlan((3, 2), (frozenset(), frozenset({1})))
    with pytest.raises(pr.PlanValidationError) as info:
        pr.as_validated(raw)
    assert isinstance(info.value.report, pr.ValidationReport)


def test_fresh_sets_round_trip_through_materialization(partial_plan):
    raw = partial_plan.to_comparison_plan()
    again = pr.as_validated(raw)
    assert again == partial_plan


def test_cumulative_intensity_matches_hand_sum():
    p = pr.total_comparison_plan(10)
    # hand sum: H_10
    assert pr.cumulative_intensity(p, 10) == Fraction(7381, 2520)
    assert pr.cumulative_intensity(p, 3) == Fraction(11, 6)
    float_val = float(pr.cumulative_intensity(p, 10))
    assert abs(float_val - float(Fraction(7381, 2520))) < 1e-12


def test_cumulative_intensity_counts_only_reached_indices(partial_plan):
    # indices are (2,4,5); horizon 3 includes only the first position
    assert pr.cumulative_intensity(partial_plan, 3) == Fraction(1, 2)
    assert pr.cumulative_intensity(partial_plan, 5) == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 5)


def test_materializing_an_oversized_plan_raises_state_space_too_large():
    with pytest.raises(pr.StateSpaceTooLarge):
        pr.total_comparison_plan(7000).to_comparison_plan()
    # the hash reads the O(j) form, so no cap applies to it
    assert len(pr.plan_hash(pr.total_comparison_plan(100_000))) == 64


def test_random_compatible_plans_always_validate(rng):
    for _ in range(300):
        raw = pr.random_compatible_plan(rng, max_index=8)
        v = pr.validate(raw)
        assert isinstance(v, pr.ValidatedPlan)
        assert v.max_index <= 8


def test_event_query_rules():
    q = pr.EventQuery.positive((1, 3))
    assert q.positions() == (1, 3)
    with pytest.raises(pr.EmptySelection):
        pr.EventQuery(())


def test_check_positions_rules(total5):
    with pytest.raises(pr.EmptySelection):
        pr.check_positions(total5, ())
    with pytest.raises(pr.EmptySelection):
        pr.check_positions(total5, (3, 2))
    with pytest.raises(pr.IndexOutOfRange):
        pr.check_positions(total5, (6,))
    assert pr.check_positions(total5, (1, 5)) == (1, 5)


def test_json_round_trip(tmp_path, partial_plan):
    path = tmp_path / "plan.json"
    pr.save_plan_file(partial_plan, path)
    loaded = pr.load_plan_file(path)
    assert pr.as_validated(loaded) == partial_plan
    assert pr.plan_hash(loaded) == pr.plan_hash(partial_plan)


def test_json_rejects_malformed_input(tmp_path):
    cases = [
        {"indices": [1, 2]},  # missing sets
        {"indices": [1, "a"], "comparison_sets": [[], []]},
        {"indices": [1, 2], "comparison_sets": [[], [1, 1]]},  # duplicates
        {"indices": [1, 2], "comparison_sets": [[]]},  # length mismatch
    ]
    for obj in cases:
        with pytest.raises(ValueError):
            pr.plan_from_json_dict(obj)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        pr.load_plan_file(bad)


def _reference_dict(plan):
    """The canonical dict built the plain way, from materialized sets:
    fresh_t = C(n_t) - C(n_{t-1}) - {n_{t-1}}."""
    if isinstance(plan, pr.ValidatedPlan):
        sets = [plan.comparison_set(t) for t in range(1, plan.length + 1)]
        assert plan.to_comparison_plan().comparison_sets == tuple(sets)
    else:
        sets = plan.comparison_sets
    implied = [frozenset()] + [s | {n} for s, n in zip(sets, plan.indices)]
    return {
        "fresh": [sorted(s - known) for s, known in zip(sets, implied)],
        "indices": list(plan.indices),
    }


def test_file_and_hash_match_json_dumps_in_either_form(tmp_path, rng):
    plans = [pr.total_comparison_plan(j) for j in range(1, 61)]
    plans.append(pr.chained_plan([1, 3, 5, 9]))
    plans += [pr.random_compatible_plan(rng, max_index=14) for _ in range(200)]
    # random plans carry fresh members, also below n_{t-1}
    assert sum(any(pr.validate(p).fresh_sets[1:]) for p in plans[61:]) >= 100
    canonical, full = tmp_path / "canonical.json", tmp_path / "full.json"
    for plan in plans:
        vplan = pr.as_validated(plan)
        reference = _reference_dict(plan)
        compact = json.dumps(reference, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(compact.encode("utf-8")).hexdigest()
        pr.save_plan_file(plan, canonical)
        assert canonical.read_text(encoding="utf-8") == json.dumps(reference, sort_keys=True) + "\n"
        assert pr.plan_hash(plan) == digest
        assert pr.plan_to_json_dict(plan) == reference
        loaded = pr.load_plan_file(canonical)
        assert loaded == vplan
        assert pr.plan_hash(loaded) == digest
        sets = vplan.to_comparison_plan().comparison_sets
        full.write_text(json.dumps({"comparison_sets": list(map(sorted, sets)),
                                    "indices": reference["indices"]}))
        raw = pr.load_plan_file(full)
        assert isinstance(raw, pr.ComparisonPlan)
        assert pr.as_validated(raw) == vplan
        assert pr.plan_hash(raw) == digest


def test_plan_hash_digests_are_pinned():
    # every CLI output carries this digest as plan_hash
    assert pr.plan_hash(pr.total_comparison_plan(1500)) == (
        "52366850c7b3a1a0f332fb2aca826531d5e84aa4510dfbfd6122f6ad83b54236"
    )
    assert pr.plan_hash(pr.chained_plan([1, 3, 5, 9])) == (
        "e432fc255c5dd67ccd824f80de64304e00d9355f7f84d39b3c6f527063f83ed9"
    )


@pytest.mark.parametrize(
    "obj",
    [
        {"indices": [True], "comparison_sets": [[]]},
        {"indices": [2.0], "comparison_sets": [[]]},
        {"indices": [2], "comparison_sets": [[True]]},
        {"indices": [2], "comparison_sets": [[[1]]]},
        {"indices": [2], "comparison_sets": [["1"]]},
    ],
)
def test_json_rejects_non_integer_entries_with_value_error(obj):
    with pytest.raises(ValueError, match="must be a list of integers"):
        pr.plan_from_json_dict(obj)


@pytest.mark.parametrize(
    "indices, sets, expected",
    [
        ((5,), [{0, 1, 7}], "[SetOutOfRange] position 1: elements [0, 7] outside 1..4"),
        ((3, 5), [{1, 2}, {0, 1, 2, 3, 7}],
         "[SetOutOfRange] position 2: elements [0, 7] outside 1..4"),
        # an out-of-range member carried over from C(n_{t-1}) is reported again
        ((3, 5), [{1, 2, 9}, {1, 2, 3, 9}],
         "[SetOutOfRange] position 1: elements [9] outside 1..2\n"
         "[SetOutOfRange] position 2: elements [9] outside 1..4"),
        # a shrinking index re-checks the carried members against its smaller range
        ((5, 3), [{1, 4}, {1, 4, 5}],
         "[NotStrictlyIncreasingIndices] position 2: index 3 does not exceed predecessor 5\n"
         "[SetOutOfRange] position 2: elements [4, 5] outside 1..2"),
    ],
)
def test_validate_reports_every_out_of_range_element(indices, sets, expected):
    report = pr.validate(pr.ComparisonPlan(indices, tuple(map(frozenset, sets))))
    assert str(report) == expected
