"""N-pair models: joint probabilities, marginals, no-signalling checks."""

import gc
import json
from collections.abc import Iterator
from fractions import Fraction
from itertools import product
from math import prod
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macrobox import (
    ConstructionError,
    DomainError,
    ExplicitJoint,
    IndependentPairs,
    OUTCOMES,
    OutcomeAssignment,
    SettingAssignment,
    SignallingError,
    check_no_signalling,
    explicit_joint,
    explicit_joint_from_json,
    independent_pairs,
    macro_distribution_bruteforce,
    make_deterministic_box,
    make_isotropic_box,
    make_pr_box,
    marginal,
    marginal_correlator,
    validate_pairbox,
)
from macrobox.ensemble import (
    _as_law,
    _decoded,
    _joint_blocks,
    _json_runs,
    _marginal_count_law,
    _marginal_counts,
    _slot_shift,
    _swap_scan,
)
from tests.conftest import (
    cross_pair_signalling_table,
    explicit_from_box,
    mixed_completion_signalling_table,
    mixed_denominator_box,
    no_signalling_boxes,
    no_signalling_vertices,
    signalling_joint_table,
    signalling_pair_box,
)

F = Fraction


def _marginal_by_enumeration(model, slots, fill_a, fill_b):
    """Marginal law over the support scan under a fixed completion, its
    masked codes decoded into outcome tuples."""
    shifts = [_slot_shift(model.n, side, particle) for side, particle, _ in slots]
    return _as_law(*_decoded(*_marginal_counts(model, slots, fill_a, fill_b), shifts))


class TestIndependentPairs:
    def test_two_pair_product(self):
        model = independent_pairs(make_pr_box(), 2)
        p = model.joint_probability(SettingAssignment((0, 0), (0, 0)),
                                    OutcomeAssignment((1, 1), (1, 1)))
        assert p == F(1, 4)

    def test_cross_pair_marginal_is_uniform(self):
        model = independent_pairs(make_pr_box(), 2)
        dist = marginal(model, [("A", 0, 0), ("B", 1, 0)])
        assert dist == {key: F(1, 4) for key in product(OUTCOMES, repeat=2)}

    def test_single_pair_equals_box(self):
        box = make_isotropic_box(F(1, 3))
        model = independent_pairs(box, 1)
        for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
            p = model.joint_probability(SettingAssignment((i,), (j,)),
                                        OutcomeAssignment((x,), (y,)))
            assert p == box.prob(i, j, x, y)

    def test_rejects_zero_pairs(self):
        with pytest.raises(DomainError):
            independent_pairs(make_pr_box(), 0)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_rejects_a_pair_count_that_is_not_an_int(self, n):
        with pytest.raises(DomainError) as info:
            independent_pairs(make_pr_box(), n)
        assert str(info.value) == f"n must be an int, got {n!r}"

    def test_rejects_invalid_box(self):
        from macrobox import PairBox

        broken = PairBox(s_a=2, s_b=2,
                         table={k: v / 2 for k, v in make_pr_box().table.items()})
        with pytest.raises(ConstructionError):
            independent_pairs(broken, 2)


class TestJointProbability:
    def test_three_pairs_all_plus(self):
        model = independent_pairs(make_pr_box(), 3)
        p = model.joint_probability(SettingAssignment.uniform(3, 0, 0),
                                    OutcomeAssignment((1, 1, 1), (1, 1, 1)))
        assert p == F(1, 2) ** 3 == F(1, 8)

    def test_anticorrelated_setting_pair(self):
        model = independent_pairs(make_pr_box(), 1)
        p = model.joint_probability(SettingAssignment((1,), (1,)),
                                    OutcomeAssignment((1,), (1,)))
        assert p == 0

    def test_uniform_noise(self):
        model = independent_pairs(make_isotropic_box(0), 2)
        for oa in product(OUTCOMES, repeat=2):
            p = model.joint_probability(SettingAssignment((0, 1), (1, 0)),
                                        OutcomeAssignment(oa, (1, -1)))
            assert p == F(1, 16)

    def test_dimension_mismatch(self):
        model = independent_pairs(make_pr_box(), 2)
        with pytest.raises(DomainError):
            model.joint_probability(SettingAssignment((0,), (0, 0)),
                                    OutcomeAssignment((1, 1), (1, 1)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalization_exhaustive(self, n):
        model = independent_pairs(make_pr_box(), n)
        for sa in product(range(2), repeat=n):
            for sb in product(range(2), repeat=n):
                settings = SettingAssignment(sa, sb)
                total = sum(
                    model.joint_probability(settings, OutcomeAssignment(oa, ob))
                    for oa in product(OUTCOMES, repeat=n)
                    for ob in product(OUTCOMES, repeat=n))
                assert total == 1

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=4, max_value=6))
    def test_normalization_sampled(self, data, n):
        model = independent_pairs(make_pr_box(), n)
        sa = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        sb = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        settings_ = SettingAssignment(sa, sb)
        total = sum(
            model.joint_probability(settings_, OutcomeAssignment(oa, ob))
            for oa in product(OUTCOMES, repeat=n)
            for ob in product(OUTCOMES, repeat=n))
        assert total == 1


class TestExplicitJoint:
    def test_wrapped_box_matches_product_model(self):
        box = make_pr_box()
        wrapped = explicit_from_box(box, 1)
        model = independent_pairs(box, 1)
        for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
            s = SettingAssignment((i,), (j,))
            o = OutcomeAssignment((x,), (y,))
            assert wrapped.joint_probability(s, o) == model.joint_probability(s, o)

    def test_signalling_table_is_constructible(self):
        model = explicit_joint(1, 2, 2, signalling_joint_table())
        assert model.n == 1

    def test_empty_table_rejected(self):
        with pytest.raises(ConstructionError):
            explicit_joint(1, 2, 2, {})

    @pytest.mark.parametrize("sizes, message", [
        ((1.0, 1, 1), "n must be an int, got 1.0"),
        ((True, 1, 1), "n must be an int, got True"),
        ((1, 1.0, 1), "s_a must be an int, got 1.0"),
        ((1, 1, "1"), "s_b must be an int, got '1'"),
    ])
    def test_sizes_that_are_not_ints_rejected_before_the_walk(self, sizes, message):
        table = {((0,), (0,)): {((1,), (1,)): F(1)}}
        with pytest.raises(DomainError) as info:
            explicit_joint(*sizes, table)
        assert str(info.value) == message
        entries = [{"settings_a": [0], "settings_b": [0], "outcomes_a": [1],
                    "outcomes_b": [1], "p": "1"}]
        with pytest.raises(DomainError) as info:
            _joint_blocks(*sizes, _json_runs(sizes[0], entries))
        assert str(info.value) == message

    def test_bad_normalization_names_assignment(self):
        table = signalling_joint_table()
        table[((1,), (1,))] = {((1,), (1,)): F(1, 2)}
        with pytest.raises(ConstructionError, match=r"\(1,\).*\(1,\)"):
            explicit_joint(1, 2, 2, table)

    def test_json_loading(self):
        text = """
        {"n": 1, "s_a": 2, "s_b": 2, "entries": [
          {"settings_a": [0], "settings_b": [0], "outcomes_a": [1], "outcomes_b": [1], "p": "1/2"},
          {"settings_a": [0], "settings_b": [0], "outcomes_a": [-1], "outcomes_b": [-1], "p": "1/2"},
          {"settings_a": [0], "settings_b": [1], "outcomes_a": [1], "outcomes_b": [1], "p": "1/2"},
          {"settings_a": [0], "settings_b": [1], "outcomes_a": [-1], "outcomes_b": [-1], "p": "1/2"},
          {"settings_a": [1], "settings_b": [0], "outcomes_a": [1], "outcomes_b": [1], "p": "1/2"},
          {"settings_a": [1], "settings_b": [0], "outcomes_a": [-1], "outcomes_b": [-1], "p": "1/2"},
          {"settings_a": [1], "settings_b": [1], "outcomes_a": [1], "outcomes_b": [-1], "p": "1/2"},
          {"settings_a": [1], "settings_b": [1], "outcomes_a": [-1], "outcomes_b": [1], "p": "1/2"}
        ]}
        """
        model = explicit_joint_from_json(text)
        pr = independent_pairs(make_pr_box(), 1)
        for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
            s = SettingAssignment((i,), (j,))
            o = OutcomeAssignment((x,), (y,))
            assert model.joint_probability(s, o) == pr.joint_probability(s, o)

    def test_rejects_outcome_outside_plus_minus_one(self):
        # Half the mass on outcome 2 used to load and then vanish from every
        # enumeration, leaving distributions that sum to 1/2.
        table = {((i,), (j,)): {((1,), (1,)): F(1, 2), ((2,), (1,)): F(1, 2)}
                 for i in (0, 1) for j in (0, 1)}
        with pytest.raises(ConstructionError, match="outcomes must be"):
            explicit_joint(1, 2, 2, table)

    def test_rejects_setting_key_of_wrong_length(self):
        table = signalling_joint_table()
        table[((0, 0), (0,))] = {((1, 1), (1,)): F(1)}
        with pytest.raises(ConstructionError, match="n=1 settings"):
            explicit_joint(1, 2, 2, table)

    @pytest.mark.parametrize("key", [((2,), (0,)), ((0,), (-1,))])
    def test_rejects_setting_outside_range(self, key):
        table = signalling_joint_table()
        table[key] = {((1,), (1,)): F(1)}
        with pytest.raises(ConstructionError, match="outside s_a=2, s_b=2"):
            explicit_joint(1, 2, 2, table)

    def test_json_repeated_entries_are_summed(self):
        entries = [{"settings_a": [i], "settings_b": [j], "outcomes_a": [x],
                    "outcomes_b": [x], "p": p}
                   for i in (0, 1) for j in (0, 1) for x in (1, -1)
                   for p in ("1/4", "1/8", "1/8")]
        model = explicit_joint_from_json(json.dumps(
            {"n": 1, "s_a": 2, "s_b": 2, "entries": entries}))
        assert model.table[((1,), (0,))] == {((1,), (1,)): F(1, 2),
                                             ((-1,), (-1,)): F(1, 2)}

    @pytest.mark.parametrize("bad", [True, 1.0, [1, 2], None])
    def test_json_non_rational_p_rejected_after_parsed_values(self, bad):
        # The integer 1 and the text "1" are parsed before the bad value,
        # which compares equal to 1 in the first two cases.
        entries = [{"settings_a": [0], "settings_b": [0], "outcomes_a": [x],
                    "outcomes_b": [x], "p": p}
                   for x, p in ((1, 1), (-1, "1"), (1, bad))]
        with pytest.raises(ConstructionError, match="malformed joint-table entry"):
            explicit_joint_from_json(json.dumps(
                {"n": 1, "s_a": 1, "s_b": 1, "entries": entries}))

    def test_json_entries_must_be_a_list(self):
        with pytest.raises(ConstructionError, match="malformed joint-table JSON"):
            explicit_joint_from_json('{"n": 1, "s_a": 2, "s_b": 2, "entries": 5}')

    def test_json_missing_assignment_rejected(self):
        text = '{"n": 1, "s_a": 2, "s_b": 2, "entries": [' \
               '{"settings_a": [0], "settings_b": [0], ' \
               '"outcomes_a": [1], "outcomes_b": [1], "p": "1/1"}]}'
        with pytest.raises(ConstructionError):
            explicit_joint_from_json(text)


class TestMarginal:
    @pytest.mark.parametrize("build", [independent_pairs, explicit_from_box])
    def test_empty_and_one_slot_keys_are_tuples(self, build):
        model = build(make_isotropic_box(F(1, 3)), 2)
        assert marginal(model, []) == {(): F(1)}
        assert marginal(model, [("B", 1, 1)]) == {(1,): F(1, 2), (-1,): F(1, 2)}

    def test_same_pair_recovers_box(self):
        box = make_pr_box()
        model = independent_pairs(box, 2)
        dist = marginal(model, [("A", 0, 0), ("B", 0, 0)])
        for (x, y), p in dist.items():
            assert p == box.prob(0, 0, x, y)

    def test_cross_pair_uniform(self):
        model = independent_pairs(make_pr_box(), 2)
        dist = marginal(model, [("A", 0, 0), ("B", 1, 1)])
        assert all(p == F(1, 4) for p in dist.values())

    def test_same_side_uniform(self):
        model = independent_pairs(make_pr_box(), 2)
        dist = marginal(model, [("A", 0, 0), ("A", 1, 1)])
        assert all(p == F(1, 4) for p in dist.values())

    def test_factorizes_across_pairs(self):
        box = make_isotropic_box(F(2, 3))
        model = independent_pairs(box, 3)
        joint = marginal(model, [("A", 0, 1), ("B", 2, 0)])
        left = marginal(model, [("A", 0, 1)])
        right = marginal(model, [("B", 2, 0)])
        for (x, y), p in joint.items():
            assert p == left[(x,)] * right[(y,)]

    def test_permutation_covariance(self):
        box = make_isotropic_box(F(1, 2))
        model = independent_pairs(box, 3)
        reference = marginal(model, [("A", 0, 0), ("B", 1, 1)])
        for k, l in ((1, 2), (2, 0), (1, 0)):
            relabeled = marginal(model, [("A", k, 0), ("B", l, 1)])
            assert relabeled == reference

    def test_detects_signalling_completions(self, signalling_model):
        with pytest.raises(SignallingError) as err:
            marginal(signalling_model, [("A", 0, 0)])
        assert err.value.first != err.value.second

    def test_rejects_duplicate_slots(self):
        model = independent_pairs(make_pr_box(), 2)
        with pytest.raises(DomainError):
            marginal(model, [("A", 0, 0), ("A", 0, 1)])

    def test_rejects_bad_particle(self):
        model = independent_pairs(make_pr_box(), 2)
        with pytest.raises(DomainError):
            marginal(model, [("A", 2, 0)])

    @pytest.mark.parametrize("build", [independent_pairs, explicit_from_box])
    @pytest.mark.parametrize("slot", [("A", 0, 0.5), ("B", 1, True), ("A", 0.5, 0),
                                      ("B", False, 1)])
    def test_rejects_non_integer_particle_or_setting(self, build, slot):
        # A float or a bool is no index, as in boxes.json_int.
        with pytest.raises(DomainError, match="out of range"):
            marginal(build(make_pr_box(), 2), [slot])

    def test_enumeration_agrees_with_product_path(self):
        box = make_isotropic_box(F(3, 5))
        model = independent_pairs(box, 2)
        wrapped = explicit_from_box(box, 2)
        for spec in ([("A", 0, 0), ("B", 0, 1)],
                     [("A", 0, 1), ("A", 1, 0)],
                     [("A", 0, 0), ("A", 1, 1), ("B", 0, 0), ("B", 1, 1)]):
            fast = marginal(model, spec)
            slow = marginal(wrapped, spec)
            for key in set(fast) | set(slow):
                assert fast.get(key, F(0)) == slow.get(key, F(0))

    def test_correlator_of_single_slot_is_mean(self):
        model = independent_pairs(make_deterministic_box(1, -1, 1, 1), 2)
        assert marginal_correlator(model, [("A", 0, 1)]) == -1


class TestNoSignallingCheck:
    def test_pr_four_pairs_clean(self):
        report = check_no_signalling(independent_pairs(make_pr_box(), 4))
        assert report.ok

    def test_isotropic_three_pairs_clean(self):
        report = check_no_signalling(
            independent_pairs(make_isotropic_box(F(3, 4)), 3))
        assert report.ok

    def test_signalling_table_flagged(self, signalling_model):
        report = check_no_signalling(signalling_model)
        assert not report.ok
        violation = report.violations[0]
        assert violation.kind == "no-signalling"
        assert violation.where[0] == "B"  # Bob's setting moves Alice's marginal

    def test_wrapped_box_clean(self):
        report = check_no_signalling(explicit_from_box(make_pr_box(), 2))
        assert report.ok

    def test_cross_pair_steering_flagged(self):
        model = explicit_joint(2, 2, 2, cross_pair_signalling_table())
        report = check_no_signalling(model)
        assert not report.ok
        # swapping Alice particle 0's setting moves another particle's marginal
        assert any(v.where[0] == "A" and v.where[1] == 0
                   for v in report.violations)

    def test_joint_table_answer_is_the_swap_scan(self):
        model = explicit_joint(2, 2, 2, cross_pair_signalling_table())
        report = check_no_signalling(model)
        assert report == _swap_scan(model)
        assert any(v.where[:2] == ("A", 0) for v in report.violations)


class TestIntegerComparison:
    """The swap scan and the completion check compare integer count laws."""

    def test_mixed_denominators_agree(self):
        box = mixed_denominator_box()
        model = explicit_from_box(box, 2)
        scales = {model._support(SettingAssignment(sa, sb))[0]
                  for sa in product(range(2), repeat=2)
                  for sb in product(range(2), repeat=2)}
        assert scales == {4, 8, 16}  # the cross-multiplied branch runs
        assert check_no_signalling(model).ok
        product_model = independent_pairs(box, 2)
        for spec in ([("A", 0, 0)], [("B", 1, 1)], [("A", 0, 1), ("B", 1, 0)]):
            assert marginal(model, spec) == marginal(product_model, spec)

    # The reports of the Fraction comparison this scan replaced.
    SIGNALLING_REPORTS = {
        1: [(("B", 0, 0, 1, (context_a,), (0,)), F(1, 2)) for context_a in (0, 1)],
        2: [(("A", 0, 0, 1, (0, a1), (b0, b1)), F(-1, 8))
            for a1 in (0, 1) for b0 in (0, 1) for b1 in (0, 1)],
    }

    @pytest.mark.parametrize("table, n", [(signalling_joint_table(), 1),
                                          (cross_pair_signalling_table(), 2)])
    def test_signalling_reports_unchanged(self, table, n):
        report = check_no_signalling(explicit_joint(n, 2, 2, table))
        assert [(v.where, v.residual) for v in report.violations] == \
            self.SIGNALLING_REPORTS[n]
        for v in report.violations:
            side, particle, before, after = v.where[:4]
            assert v.kind == "no-signalling"
            assert v.detail == (f"marginal of the other particles changes when "
                                f"({side},{particle}) swaps setting {before} -> {after}")


class TestCompletionCheck:
    """``marginal`` compares the (0, 0) and (1, 1) completions only."""

    def test_mixed_completion_leak_passes_marginal(self):
        model = explicit_joint(2, 2, 2, mixed_completion_signalling_table())
        uniform = {(1,): F(1, 2), (-1,): F(1, 2)}
        assert marginal(model, [("B", 0, 0)]) == uniform
        slots = (("B", 0, 0),)
        assert _marginal_by_enumeration(model, slots, 0, 0) == uniform
        assert _marginal_by_enumeration(model, slots, 1, 1) == uniform
        assert _marginal_by_enumeration(model, slots, 0, 1) == {(1,): F(1)}

    def test_mixed_completion_leak_flagged_by_swap_scan(self):
        report = check_no_signalling(
            explicit_joint(2, 2, 2, mixed_completion_signalling_table()))
        assert not report.ok
        assert any(v.where[:2] == ("A", 0) for v in report.violations)
        assert any(v.where[:2] == ("B", 1) for v in report.violations)

    def test_listed_partner_exposes_the_leak(self):
        model = explicit_joint(2, 2, 2, mixed_completion_signalling_table())
        with pytest.raises(SignallingError) as exc:
            marginal(model, [("A", 0, 0), ("B", 0, 0)])
        assert exc.value.first != exc.value.second


def literal_law(model, settings_, key):
    """Reference: the law of key(outcomes) by the 4^N loop over ``_joint``."""
    n = model.n
    law = {}
    for combined in product(OUTCOMES, repeat=2 * n):
        p = model._joint(settings_, OutcomeAssignment(combined[:n], combined[n:]))
        if p != 0:
            law[key(combined)] = law.get(key(combined), F(0)) + p
    return law


def literal_marginal(model, spec, fill_a, fill_b):
    n = model.n
    alice, bob = [fill_a] * n, [fill_b] * n
    positions = []
    for side, particle, setting in spec:
        (alice if side == "A" else bob)[particle] = setting
        positions.append(particle if side == "A" else n + particle)
    return literal_law(model, SettingAssignment(tuple(alice), tuple(bob)),
                       lambda c: tuple(c[pos] for pos in positions))


def literal_swap_violations(model):
    """Reference swap scan: [(where, residual)] over the literal loop."""
    n = model.n
    found = []
    for side, s_count in (("A", model.s_a), ("B", model.s_b)):
        if s_count < 2:
            continue
        for particle in range(n):
            skip = particle if side == "A" else n + particle
            for context_a in product(range(model.s_a), repeat=n):
                for context_b in product(range(model.s_b), repeat=n):
                    context = list(context_a + context_b)
                    if context[skip] != 0:
                        continue
                    laws = []
                    for swapped in range(s_count):
                        context[skip] = swapped
                        laws.append(literal_law(
                            model, SettingAssignment(tuple(context[:n]), tuple(context[n:])),
                            lambda c: c[:skip] + c[skip + 1:]))
                    base = laws[0]
                    for swapped, other in enumerate(laws[1:], 1):
                        if other != base:
                            worst = max(set(base) | set(other),
                                        key=lambda k: abs(other.get(k, 0) - base.get(k, 0)))
                            found.append(((side, particle, 0, swapped, context_a, context_b),
                                          other.get(worst, 0) - base.get(worst, 0)))
    return found


class TestSupportKernel:
    """The sparse ``_support`` scan against the literal 4^N loop."""

    @staticmethod
    def assert_matches_literal(model):
        n = model.n
        for sa in product(range(model.s_a), repeat=n):
            for sb in product(range(model.s_b), repeat=n):
                settings_ = SettingAssignment(sa, sb)
                scale, support = model._support(settings_)
                if isinstance(model, IndependentPairs):
                    assert isinstance(support, Iterator)  # streamed, not listed
                kernel = [(c, w) for c, w in support]
                assert all(isinstance(w, int) and w > 0 for _, w in kernel)
                codes = [c for c, _ in kernel]
                assert all(isinstance(c, int) for c in codes) and codes == sorted(set(codes))
                # Bit 2n-1-k of a code is set when slot k's outcome is -1.
                # Same tuples in the same order: every tuple the kernel skips
                # has _joint equal to 0.
                decoded = [(tuple(-1 if c >> (2 * n - 1 - k) & 1 else 1 for k in range(2 * n)),
                            F(w, scale)) for c, w in kernel]
                assert decoded == list(literal_law(model, settings_, lambda c: c).items())
        for spec in ([("A", 0, 1)], [("B", n - 1, 1)], [("A", 0, 0), ("B", 0, 1)],
                     [("A", n - 1, 1), ("B", 0, 0)]):
            for fill in ((0, 0), (1, 1)):
                assert list(_marginal_by_enumeration(model, tuple(spec), *fill).items()) == \
                    list(literal_marginal(model, spec, *fill).items())
        report = check_no_signalling(model)
        assert [(v.where, v.residual) for v in report.violations] == \
            literal_swap_violations(model)
        for i, j in product(range(model.s_a), range(model.s_b)):
            dist = macro_distribution_bruteforce(model, i, j)
            literal = literal_law(model, SettingAssignment.uniform(n, i, j),
                                  lambda c: (sum(c[:n]), sum(c[n:])))
            assert {(x, y): p for x, y, p in dist.rows() if p != 0} == literal

    @settings(max_examples=12, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @example(box=make_pr_box(), n=3)
    @example(box=make_deterministic_box(1, -1, -1, 1), n=2)
    def test_no_signalling_boxes(self, box, n):
        self.assert_matches_literal(independent_pairs(box, n))
        self.assert_matches_literal(explicit_from_box(box, n))

    @pytest.mark.parametrize("table, n", [(signalling_joint_table(), 1),
                                          (cross_pair_signalling_table(), 2)])
    def test_signalling_tables(self, table, n):
        model = explicit_joint(n, 2, 2, table)
        assert not check_no_signalling(model).ok
        self.assert_matches_literal(model)


@st.composite
def shuffled_specs(draw, n):
    """A nonempty spec over distinct (side, particle) slots in any order, so
    Bob may come before Alice and particles may descend."""
    slots = [(side, particle) for side in ("A", "B") for particle in range(n)]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=min(4, 2 * n),
                           unique=True))
    return [(side, particle, draw(st.integers(0, 1))) for side, particle in chosen]


class TestMarginalOrder:
    """``marginal`` keys come in the order the literal 4^N loop meets them."""

    @settings(max_examples=40, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3),
           data=st.data())
    @example(box=make_pr_box(), n=2, data=None)
    def test_values_and_key_order_match_the_literal_loop(self, box, n, data):
        if data is None:
            # On the PR box the partner of Alice particle 0 fixes the first
            # support code of each key, so product(OUTCOMES) order over the
            # spec is not the literal order here.
            specs = [[("A", 1, 0), ("B", 0, 0)], [("B", 1, 1), ("A", 0, 0)],
                     [("B", 1, 0), ("A", 1, 1), ("A", 0, 0)]]
        else:
            specs = [data.draw(shuffled_specs(n)) for _ in range(3)]
        for build in (independent_pairs, explicit_from_box):
            model = build(box, n)
            for spec in specs:
                literal = literal_marginal(model, spec, 0, 0)
                assert list(marginal(model, spec).items()) == list(literal.items())


class TestSignallingTablesUnchanged:
    """The crafted signalling tables raise the same ``SignallingError``, with
    the same laws in the same key order."""

    @pytest.mark.parametrize("table, n, spec, first, second", [
        (signalling_joint_table(), 1, [("A", 0, 0)],
         [((1,), F(1, 2)), ((-1,), F(1, 2))], [((1,), F(1))]),
        (cross_pair_signalling_table(), 2, [("B", 1, 0)],
         [((1,), F(1, 2)), ((-1,), F(1, 2))], [((1,), F(1))]),
        (mixed_completion_signalling_table(), 2, [("A", 0, 0), ("B", 0, 0)],
         [((x, y), F(1, 4)) for x in OUTCOMES for y in OUTCOMES],
         [((1, 1), F(1, 2)), ((-1, 1), F(1, 2))]),
    ])
    def test_error_text_and_laws(self, table, n, spec, first, second):
        with pytest.raises(SignallingError) as exc:
            marginal(explicit_joint(n, 2, 2, table), spec)
        assert str(exc.value) == (
            f"marginal over {tuple(spec)} depends on the completion settings "
            f"(fill (0,0) vs (1,1)): the model signals")
        assert list(exc.value.first.items()) == first
        assert list(exc.value.second.items()) == second


def marginal_specs(n):
    """Single-slot, same-pair, cross-pair and three-slot specs for n pairs."""
    specs = [[("A", 0, 1)], [("B", n - 1, 0)], [("A", 0, 0), ("B", 0, 1)],
             [("A", n - 1, 1), ("B", 0, 0)]]
    if n >= 2:
        specs.append([("A", 0, 1), ("A", 1, 0), ("B", 1, 1)])
    return specs


class TestMemo:
    """The per-model memo behind ``marginal`` and ``_support``."""

    @settings(max_examples=10, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @example(box=make_pr_box(), n=3)
    def test_warm_marginals_match_fresh_model(self, box, n):
        for build in (independent_pairs, explicit_from_box):
            warm = build(box, n)
            for spec in marginal_specs(n):
                marginal(warm, spec)
            for spec in marginal_specs(n):
                assert marginal(warm, spec) == marginal(build(box, n), spec)

    def test_repeat_call_reads_the_memo(self, monkeypatch):
        from macrobox import ensemble

        calls = []
        original = ensemble._checked_marginal
        monkeypatch.setattr(ensemble, "_checked_marginal",
                            lambda *a: calls.append(a) or original(*a))
        model = explicit_from_box(make_isotropic_box(F(1, 3)), 2)
        first = marginal(model, [("A", 0, 1), ("B", 1, 0)])
        # Another spelling of the same slots is the same normalised key.
        again = marginal(model, (("A", 0, 1), ("B", 1, 0)))
        assert again == first and len(calls) == 1

    def test_mutating_a_result_does_not_leak(self):
        for model in (independent_pairs(make_pr_box(), 2),
                      explicit_from_box(make_pr_box(), 2)):
            spec = [("A", 0, 0), ("B", 0, 0)]
            first = marginal(model, spec)
            expected = dict(first)
            first[(1, 1)] = F(7)
            first.clear()
            assert marginal(model, spec) == expected

    def test_validation_runs_before_lookup(self):
        model = independent_pairs(make_pr_box(), 2)
        marginal(model, [("A", 0, 0)])
        for bad in ([("A", 2, 0)], [("A", 0, 2)], [("A", 0, 0), ("A", 0, 1)]):
            for _ in range(2):
                with pytest.raises(DomainError):
                    marginal(model, bad)

    @pytest.mark.parametrize("table, n, spec", [
        (signalling_joint_table(), 1, [("A", 0, 0)]),
        (cross_pair_signalling_table(), 2, [("B", 1, 0)]),
    ])
    def test_signalling_raises_on_every_call(self, table, n, spec):
        model = explicit_joint(n, 2, 2, table)
        for _ in range(3):
            with pytest.raises(SignallingError):
                marginal(model, spec)
        assert not any(key[0] == "marginal-counts" for key in model._memo)

    def test_memo_is_not_part_of_identity(self):
        warm = independent_pairs(make_pr_box(), 2)
        marginal(warm, [("A", 0, 0)])
        fresh = independent_pairs(make_pr_box(), 2)
        assert warm == fresh and repr(warm) == repr(fresh)
        assert "_memo" not in repr(explicit_from_box(make_pr_box(), 1))

    def test_support_blocks_are_held_from_construction(self):
        model = explicit_from_box(make_pr_box(), 1)
        settings_ = SettingAssignment((0,), (1,))
        stored_scale, stored = model._supports[((0,), (1,))]
        for _ in range(2):
            scale, support = model._support(settings_)
            # A view of the dict stored at construction, not a new scan.
            [viewed] = gc.get_referents(support)
            assert scale == stored_scale and viewed is stored
        assert model._memo == {}


class TestFrozenTables:
    def test_explicit_table_and_blocks_are_read_only(self):
        model = explicit_from_box(make_pr_box(), 1)
        key = ((0,), (0,))
        with pytest.raises(TypeError):
            model.table[key] = {}
        with pytest.raises(TypeError):
            model.table[key][((1,), (1,))] = F(1)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ConstructionError, match="sum to 1/2, not 1"):
            ExplicitJoint(n=1, s_a=1, s_b=1,
                          table={((0,), (0,)): {((1,), (1,)): F(1, 2)}})

    def test_direct_construction_holds_read_only_views(self):
        model = ExplicitJoint(n=1, s_a=2, s_b=2, table=signalling_joint_table())
        assert isinstance(model.table, MappingProxyType)
        assert all(isinstance(block, MappingProxyType) for block in model.table.values())
        assert model == explicit_joint(1, 2, 2, signalling_joint_table())

    def test_source_table_is_copied(self):
        table = signalling_joint_table()
        model = explicit_joint(1, 2, 2, table)
        table[((0,), (0,))][((1,), (1,))] = F(1)
        table[((0,), (0,))].clear()
        assert model.table[((0,), (0,))] == {((1,), (1,)): F(1, 2),
                                             ((-1,), (-1,)): F(1, 2)}


def pr_table():
    """The one-pair PR box as a plain joint table, block by block."""
    return {(sa, sb): dict(block) for (sa, sb), block in
            explicit_from_box(make_pr_box(), 1).table.items()}


def joint_json(model):
    """The JSON text of a joint table, as the loader reads it."""
    entries = [{"settings_a": list(sa), "settings_b": list(sb),
                "outcomes_a": list(oa), "outcomes_b": list(ob),
                "p": f"{p.numerator}/{p.denominator}"}
               for (sa, sb), block in model.table.items()
               for (oa, ob), p in block.items()]
    return json.dumps({"n": model.n, "s_a": model.s_a, "s_b": model.s_b,
                       "entries": entries})


class TestOnePassChecks:
    """Construction checks every block in one pass and still reports what a
    check-by-check pass would: outcome faults first, in table order, then
    the first failing setting assignment in ``product`` order."""

    NEGATIVE = {((1,), (1,)): F(3, 2), ((-1,), (-1,)): F(-1, 2)}

    def test_bad_outcome_beats_earlier_negative_entry(self):
        table = pr_table()
        table[((0,), (0,))] = self.NEGATIVE
        table[((1,), (1,))] = {((2,), (1,)): F(1)}
        with pytest.raises(ConstructionError) as info:
            explicit_joint(1, 2, 2, table)
        assert str(info.value) == "outcomes must be +1 or -1, got (2,);(1,) at settings (1,);(1,)"

    def test_missing_block_beats_later_negative_entry(self):
        table = pr_table()
        del table[((0,), (1,))]
        table[((1,), (0,))] = self.NEGATIVE
        with pytest.raises(ConstructionError) as info:
            explicit_joint(1, 2, 2, table)
        assert str(info.value) == "outcomes for setting assignment (0,);(1,) sum to 0, not 1"

    def test_negative_entry_beats_later_missing_block(self):
        table = pr_table()
        del table[((1,), (1,))]
        table[((0,), (1,))] = self.NEGATIVE
        with pytest.raises(ConstructionError) as info:
            explicit_joint(1, 2, 2, table)
        assert str(info.value) == \
            "negative probability -1/2 at settings (0,);(1,), outcomes (-1,);(-1,)"

    def test_product_order_not_table_order(self):
        table = dict(reversed(pr_table().items()))
        table[((1,), (1,))] = self.NEGATIVE
        table[((0,), (1,))] = {((1,), (1,)): F(1, 3)}
        with pytest.raises(ConstructionError) as info:
            explicit_joint(1, 2, 2, table)
        assert str(info.value) == "outcomes for setting assignment (0,);(1,) sum to 1/3, not 1"

    def test_first_entry_fault_of_a_block_wins(self):
        table = {((0, 0), (0, 0)): {((1, 1), (1,)): F(1), ((1, 1), (1, 1)): F(-1)}}
        with pytest.raises(ConstructionError) as info:
            explicit_joint(2, 1, 1, table)
        assert str(info.value) == "outcome tuple length mismatch at settings (0, 0);(0, 0)"

    def test_duplicate_outcome_keys_are_summed(self):
        # ``range(1, 2)`` and ``(1,)`` name the same outcome tuple: the block
        # sums the two values, as the JSON loader sums repeated entries.
        table = {((0,), (0,)): {((1,), (1,)): F(1, 2), (range(1, 2), (1,)): F(1, 2)}}
        model = explicit_joint(1, 1, 1, table)
        assert dict(model.table[((0,), (0,))]) == {((1,), (1,)): 1}

    def test_duplicate_outcome_key_sums_with_a_negative_value(self):
        table = {((0,), (0,)): {((1,), (1,)): F(-1, 2), (range(1, 2), (1,)): F(1, 2),
                                ((-1,), (-1,)): F(1, 2)}}
        with pytest.raises(ConstructionError) as info:
            explicit_joint(1, 1, 1, table)
        assert str(info.value) == "outcomes for setting assignment (0,);(0,) sum to 1/2, not 1"

    def test_duplicate_setting_keys_are_summed(self):
        table = {((0,), (0,)): {((1,), (1,)): F(1, 2)},
                 (range(0, 1), (0,)): {((-1,), (-1,)): F(1, 2)}}
        model = explicit_joint(1, 1, 1, table)
        assert list(model.table) == [((0,), (0,))]
        assert dict(model.table[((0,), (0,))]) == {((1,), (1,)): F(1, 2),
                                                   ((-1,), (-1,)): F(1, 2)}

    @pytest.mark.parametrize("field", ["settings_a", "settings_b", "outcomes_a", "outcomes_b"])
    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_json_non_integer_lists_rejected(self, field, bad):
        data = json.loads(joint_json(explicit_from_box(make_pr_box(), 1)))
        entry = next(e for e in data["entries"] if e[field] == [1])
        entry[field] = [bad]
        with pytest.raises(ConstructionError, match="malformed joint-table entry"):
            explicit_joint_from_json(json.dumps(data))

    @settings(max_examples=6, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @example(box=mixed_denominator_box(), n=3)
    def test_json_round_trip(self, box, n):
        model = explicit_from_box(box, n)
        assert explicit_joint_from_json(joint_json(model)) == model


def product_table(box, n):
    """``n`` copies of ``box`` as an explicit joint table, cell by cell and
    without validating the box, so signalling boxes can be wrapped too."""
    table = {}
    for sa in product(range(box.s_a), repeat=n):
        for sb in product(range(box.s_b), repeat=n):
            block = {}
            for oa in product(OUTCOMES, repeat=n):
                for ob in product(OUTCOMES, repeat=n):
                    p = prod((box.prob(*cell) for cell in zip(sa, sb, oa, ob)), start=F(1))
                    if p:
                        block[(oa, ob)] = p
            table[(sa, sb)] = block
    return explicit_joint(n, box.s_a, box.s_b, table)


def signed_sum(law):
    return sum((prod(outcomes) * p for outcomes, p in law.items()), F(0))


class TestProductMarginalCounts:
    """A product model's ``marginal`` and ``marginal_correlator``: the
    support scan of the pairs the spec names."""

    COMPLETIONS = ((0, 0), (1, 1), (0, 1), (1, 0))

    @settings(max_examples=12, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @example(box=make_pr_box(), n=3)
    @example(box=mixed_denominator_box(), n=2)
    def test_matches_support_scan_under_every_completion(self, box, n):
        model = independent_pairs(box, n)
        for spec in marginal_specs(n) + [[("B", 0, 1), ("A", 0, 0)]]:
            slots = tuple(spec)
            law = marginal(model, spec)
            _, counts = _marginal_count_law(model, slots)
            assert all(isinstance(c, int) and c > 0 for c in counts.values())
            for fill in self.COMPLETIONS:
                scan = _marginal_by_enumeration(model, slots, *fill)
                assert law == scan
                if fill == (0, 0):
                    # The full model's scan meets the keys in the same order.
                    assert list(law) == list(scan)

    @settings(max_examples=10, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @example(box=make_pr_box(), n=2)
    def test_correlator_is_the_signed_marginal_sum(self, box, n):
        for build in (independent_pairs, explicit_from_box):
            # Separate models, so neither reads the other's memo.
            by_correlator, by_marginal = build(box, n), build(box, n)
            for spec in marginal_specs(n):
                value = marginal_correlator(by_correlator, spec)
                assert isinstance(value, F)
                assert value == signed_sum(marginal(by_marginal, spec))

    def test_correlator_and_marginal_share_one_computation(self, monkeypatch):
        from macrobox import ensemble

        calls = []
        original = ensemble._checked_marginal
        monkeypatch.setattr(ensemble, "_checked_marginal",
                            lambda *a: calls.append(a) or original(*a))
        for model in (independent_pairs(make_isotropic_box(F(1, 3)), 2),
                      explicit_from_box(make_isotropic_box(F(1, 3)), 2)):
            calls.clear()
            spec = [("A", 0, 1), ("B", 1, 0)]
            value = marginal_correlator(model, spec)
            law = marginal(model, spec)
            assert marginal_correlator(model, spec) == value == signed_sum(law)
            assert len(calls) == 1

    def test_product_marginal_computes_one_completion(self, monkeypatch):
        # A product model's box is validated and read-only, so its (1, 1)
        # completion cannot differ; a joint table still computes both.
        from macrobox import ensemble

        calls = []
        original = ensemble._marginal_counts
        monkeypatch.setattr(ensemble, "_marginal_counts",
                            lambda m, s, a, b: calls.append((a, b)) or original(m, s, a, b))
        for build, fills in ((independent_pairs, [(0, 0)]),
                             (explicit_from_box, [(0, 0), (1, 1)])):
            calls.clear()
            model = build(make_pr_box(), 2)
            law = marginal(model, [("A", 0, 1), ("B", 1, 0)])
            assert law == {outcomes: F(1, 4) for outcomes in product(OUTCOMES, repeat=2)}
            assert calls == fills

    def test_product_marginal_scans_only_the_named_pairs(self, monkeypatch):
        box = make_isotropic_box(F(1, 3))
        model = independent_pairs(box, 200)
        scanned = []
        original = IndependentPairs._support
        monkeypatch.setattr(IndependentPairs, "_support",
                            lambda self, settings: scanned.append(settings)
                            or original(self, settings))
        law = marginal(model, [("A", 150, 1), ("B", 7, 0)])
        assert law == {(x, y): box.marginal_a(1, x) * box.marginal_b(0, y)
                       for x, y in product(OUTCOMES, repeat=2)}
        assert scanned
        assert all(len(s.alice) == len(s.bob) == 2 for s in scanned)
        scanned.clear()
        assert marginal(model, []) == {(): 1}
        assert scanned == []

    def test_correlator_raises_on_every_call_for_signalling_tables(self):
        model = explicit_joint(1, 2, 2, signalling_joint_table())
        for _ in range(3):
            with pytest.raises(SignallingError):
                marginal_correlator(model, [("A", 0, 0)])


class TestProductNoSignalling:
    """``check_no_signalling`` answers a product model from its box rows."""

    @settings(max_examples=12, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @example(box=mixed_denominator_box(), n=2)
    def test_box_report_matches_swap_scan(self, box, n):
        model = independent_pairs(box, n)
        report = check_no_signalling(model)
        assert report == _swap_scan(model) == _swap_scan(explicit_from_box(box, n))
        assert report.ok

    @pytest.mark.parametrize("box", no_signalling_vertices())
    @pytest.mark.parametrize("n", (1, 2))
    def test_vertices(self, box, n):
        model = independent_pairs(box, n)
        assert check_no_signalling(model) == _swap_scan(model)
        assert check_no_signalling(model).ok

    @pytest.mark.parametrize("steered", ("A", "B"))
    @pytest.mark.parametrize("n", (1, 2))
    def test_signalling_box_is_refused_and_scanned(self, steered, n):
        box = signalling_pair_box(steered)
        with pytest.raises(ConstructionError):
            IndependentPairs(box=box, n=n)
        with pytest.raises(ConstructionError):
            independent_pairs(box, n)
        # The swap scan of the same product, as a joint table, flags a swap
        # on exactly the side whose setting the box report says leaks.
        rows = validate_pairbox(box).violations
        assert rows and all(v.kind == "no-signalling" for v in rows)
        leaking = {"B" if v.where[0] == "A" else "A" for v in rows}
        scan = _swap_scan(product_table(box, n))
        assert {v.where[0] for v in scan.violations} == leaking

    def test_construction_checks_n(self):
        with pytest.raises(DomainError):
            IndependentPairs(box=make_pr_box(), n=0)

    def test_product_and_its_joint_table_pass(self):
        assert check_no_signalling(independent_pairs(make_pr_box(), 3)).ok
        assert check_no_signalling(explicit_from_box(make_pr_box(), 3)).ok


@pytest.mark.parametrize("entry", [("A", 0), ("A", 0, 0, 0), "A0", 5])
@pytest.mark.parametrize("law", [marginal, marginal_correlator])
def test_spec_entry_that_is_not_a_triple_rejected(law, entry):
    with pytest.raises(DomainError) as info:
        law(independent_pairs(make_pr_box(), 2), [entry])
    assert str(info.value) == (f"spec entry {entry!r} is not a "
                               f"(side, particle, setting) triple")
