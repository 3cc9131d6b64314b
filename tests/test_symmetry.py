"""Symmetrized distributions, JPDs and their closed-form cross-checks."""

import json
import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ConstructionError,
    DomainError,
    OUTCOMES,
    SignallingError,
    SymmetricJPD,
    chsh_value,
    effective_correlator,
    effective_pair,
    effective_quad,
    independent_pairs,
    jpd_averages,
    jpd_fluctuations,
    jpd_general,
    jpd_marginal,
    jpd_validity,
    make_deterministic_box,
    make_isotropic_box,
    make_pr_box,
    marginal,
    marginal_correlator,
    pair_correlation,
    pr_averages_high_events,
    pr_averages_jpd_closed_form,
    pr_averages_jpd_values,
    pr_effective_pair_probability,
    pr_quad_class,
    pr_quad_correlator,
    pr_quad_values,
)
from macrobox import explicit_joint, symmetry
from macrobox.symmetry import matching_assignment_count
from tests.conftest import (
    cross_pair_signalling_table,
    explicit_from_box,
    mixed_denominator_box,
    no_signalling_boxes,
    signalling_joint_table,
)

F = Fraction
SETTINGS = tuple(product((0, 1), repeat=2))


class TestMatchingCounts:
    @pytest.mark.parametrize("n,a,b", [(2, 1, 1), (3, 2, 1), (3, 2, 2),
                                       (4, 2, 2), (4, 3, 2), (5, 2, 3),
                                       (2, 3, 1), (3, 1, 4)])
    def test_counts_match_enumeration(self, n, a, b):
        # Oracle: enumerate every pair of injective maps and bucket by the
        # size of the induced particle-coincidence matching.
        observed = {}
        for sigma_a in permutations(range(n), a):
            for sigma_b in permutations(range(n), b):
                size = len(set(sigma_a) & set(sigma_b))
                observed[size] = observed.get(size, 0) + 1
        for m in range(min(a, b) + 1):
            matchings = math.comb(a, m) * math.comb(b, m) * math.factorial(m)
            expected = matchings * matching_assignment_count(n, m, a, b)
            assert observed.get(m, 0) == expected

    def test_total_assignments(self):
        for n, a, b in [(4, 2, 2), (5, 3, 2), (6, 4, 4)]:
            total = sum(
                math.comb(a, m) * math.comb(b, m) * math.factorial(m)
                * matching_assignment_count(n, m, a, b)
                for m in range(min(a, b) + 1))
            assert total == math.perm(n, a) * math.perm(n, b)


class TestEffectivePair:
    def test_pr_closed_form_small_n(self):
        for n in range(1, 9):
            model = independent_pairs(make_pr_box(), n)
            eff = effective_pair(model)
            for i, j in SETTINGS:
                for x, y in product(OUTCOMES, repeat=2):
                    assert eff.prob(i, j, x, y) == pr_effective_pair_probability(n, i, j, x, y)

    def test_pr_two_pair_values(self):
        eff = effective_pair(independent_pairs(make_pr_box(), 2))
        assert eff.prob(0, 0, 1, 1) == F(3, 8)
        assert eff.prob(1, 1, 1, 1) == F(1, 8)

    def test_pr_correlation_decays(self):
        for n in range(1, 7):
            eff = effective_pair(independent_pairs(make_pr_box(), n))
            for i, j in SETTINGS:
                assert pair_correlation(eff, i, j) == F((-1) ** (i * j), n)

    def test_definition_as_marginal_average(self):
        # Oracle: the literal (1/N^2) double sum over single-particle marginals.
        for box in (make_pr_box(), make_isotropic_box(F(1, 3))):
            n = 3
            model = independent_pairs(box, n)
            eff = effective_pair(model)
            for i, j in SETTINGS:
                acc = {key: F(0) for key in product(OUTCOMES, repeat=2)}
                for k in range(n):
                    for l in range(n):
                        for key, p in marginal(model, [("A", k, i), ("B", l, j)]).items():
                            acc[key] += p
                for (x, y), p in acc.items():
                    assert eff.prob(i, j, x, y) == p / (n * n)

    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_mixing_identity(self, box, n):
        # p_eff = ((N-1)/N) p_A (x) p_B + (1/N) p_pair, exactly.
        model = independent_pairs(box, n)
        eff = effective_pair(model)
        for i, j in SETTINGS:
            for x, y in product(OUTCOMES, repeat=2):
                mixed = (F(n - 1, n) * box.marginal_a(i, x) * box.marginal_b(j, y)
                         + F(1, n) * box.prob(i, j, x, y))
                assert eff.prob(i, j, x, y) == mixed

    def test_signalling_model_rejected(self, signalling_model):
        with pytest.raises(SignallingError):
            effective_pair(signalling_model)

    def test_explicit_wrapper_agrees(self):
        box = make_isotropic_box(F(2, 5))
        direct = effective_pair(independent_pairs(box, 2))
        wrapped = effective_pair(explicit_from_box(box, 2))
        assert direct.table == wrapped.table


class TestEffectiveQuad:
    def test_pr_three_pair_values(self):
        quad = effective_quad(independent_pairs(make_pr_box(), 3))
        assert quad.prob(0, 0, 1, -1, 1, -1) == F(1, 12)
        assert quad.prob(0, 0, 1, 1, -1, -1) == 0
        assert quad.prob(0, 0, 1, 1, 1, 1) == F(1, 6)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_pr_class_values(self, n):
        quad = effective_quad(independent_pairs(make_pr_box(), n))
        values = pr_quad_values(n)
        for i, j in SETTINGS:
            for xs in product(OUTCOMES, repeat=2):
                for ys in product(OUTCOMES, repeat=2):
                    label = pr_quad_class(i, j, xs, ys)
                    assert quad.prob(i, j, xs[0], xs[1], ys[0], ys[1]) == values[label]

    def test_class_roles_swap_at_last_setting(self):
        n = 5
        quad = effective_quad(independent_pairs(make_pr_box(), n))
        values = pr_quad_values(n)
        assert quad.prob(0, 0, 1, 1, 1, 1) == values["aligned_matching"]
        assert quad.prob(1, 1, 1, 1, 1, 1) == values["aligned_opposing"]
        assert quad.prob(1, 1, 1, 1, -1, -1) == values["aligned_matching"]

    def test_swap_symmetry(self):
        quad = effective_quad(independent_pairs(make_isotropic_box(F(1, 2)), 3))
        for i, j in SETTINGS:
            for x, xp, y, yp in product(OUTCOMES, repeat=4):
                p = quad.prob(i, j, x, xp, y, yp)
                assert p == quad.prob(i, j, xp, x, y, yp)
                assert p == quad.prob(i, j, x, xp, yp, y)

    def test_pr_quad_correlator(self):
        for n in range(2, 7):
            quad = effective_quad(independent_pairs(make_pr_box(), n))
            for i, j in SETTINGS:
                assert quad.quad_correlator(i, j) == pr_quad_correlator(n) == F(2, n * (n - 1))

    def test_needs_two_pairs(self):
        with pytest.raises(DomainError):
            effective_quad(independent_pairs(make_pr_box(), 1))

    def test_matches_literal_tuple_sum(self):
        # Oracle: the definition as a sum of four-slot marginals over ordered
        # distinct index pairs on each side.
        box = make_isotropic_box(F(1, 2))
        n = 3
        model = independent_pairs(box, n)
        quad = effective_quad(model)
        norm = (n * (n - 1)) ** 2
        for i, j in ((0, 0), (1, 1)):
            acc = {key: F(0) for key in product(OUTCOMES, repeat=4)}
            for k, l in permutations(range(n), 2):
                for m, o in permutations(range(n), 2):
                    spec = [("A", k, i), ("A", l, i), ("B", m, j), ("B", o, j)]
                    for key, p in marginal(model, spec).items():
                        acc[key] += p
            for (x, xp, y, yp), total in acc.items():
                assert quad.prob(i, j, x, xp, y, yp) == total / norm

    def test_explicit_wrapper_agrees(self):
        box = make_pr_box()
        direct = effective_quad(independent_pairs(box, 2))
        wrapped = effective_quad(explicit_from_box(box, 2))
        assert direct.table == wrapped.table

    def test_quad_pair_marginal_is_effective_pair(self):
        model = independent_pairs(make_pr_box(), 4)
        quad = effective_quad(model)
        eff = effective_pair(model)
        for i, j in SETTINGS:
            pair_marginal = {(x, y): F(0) for x in OUTCOMES for y in OUTCOMES}
            for x, xp, y, yp in product(OUTCOMES, repeat=4):
                pair_marginal[(x, y)] += quad.prob(i, j, x, xp, y, yp)
            for (x, y), p in pair_marginal.items():
                assert p == eff.prob(i, j, x, y)


class TestEffectiveCorrelator:
    def test_empty_product_is_one(self):
        model = independent_pairs(make_pr_box(), 3)
        assert effective_correlator(model, 0, 0, 0, 0) == 1

    def test_pr_quad_order(self):
        for n in range(2, 8):
            model = independent_pairs(make_pr_box(), n)
            for i, j in SETTINGS:
                assert effective_correlator(model, i, j, 2, 2) == F(2, n * (n - 1))

    def test_pr_same_side_pairs_vanish(self):
        model = independent_pairs(make_pr_box(), 4)
        assert effective_correlator(model, 0, 0, 2, 0) == 0
        assert effective_correlator(model, 1, 0, 0, 2) == 0

    def test_rejects_oversized_tuples(self):
        model = independent_pairs(make_pr_box(), 2)
        with pytest.raises(DomainError):
            effective_correlator(model, 0, 0, 3, 0)

    def test_matches_literal_average(self):
        # Oracle: average the product correlator over ordered distinct tuples.
        box = make_isotropic_box(F(2, 3))
        n = 4
        model = independent_pairs(box, n)
        for r, s in ((1, 1), (2, 1), (2, 2), (3, 2)):
            total = F(0)
            count = 0
            for ka in permutations(range(n), r):
                for kb in permutations(range(n), s):
                    spec = ([("A", k, 0) for k in ka] + [("B", l, 1) for l in kb])
                    total += marginal_correlator(model, spec)
                    count += 1
            assert effective_correlator(model, 0, 1, r, s) == total / count

    def test_deterministic_box_gives_unity(self):
        model = independent_pairs(make_deterministic_box(1, 1, 1, 1), 4)
        for r, s in ((1, 1), (2, 2), (3, 1)):
            assert effective_correlator(model, 0, 0, r, s) == 1


class TestAveragesJPD:
    def test_two_pair_values_and_split(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        high, low = pr_averages_jpd_values(2)
        assert (high, low) == (F(1, 8), F(0))
        events = pr_averages_high_events()
        for a_out, b_out, p in jpd.items():
            assert p == (high if (a_out, b_out) in events else low)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_closed_form(self, n):
        jpd = jpd_averages(independent_pairs(make_pr_box(), n))
        closed = pr_averages_jpd_closed_form(n)
        assert jpd.entries == closed.entries
        assert jpd.valid and closed.valid

    def test_three_pair_values(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 3))
        events = pr_averages_high_events()
        for a_out, b_out, p in jpd.items():
            assert p == (F(5, 48) if (a_out, b_out) in events else F(1, 48))

    def test_pair_marginal_value(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        dist = jpd_marginal(jpd, [("A", 0, 0), ("B", 0, 0)])
        assert dist[(1, 1)] == F(3, 8)

    def test_marginal_pattern(self):
        for n in (2, 3, 5):
            jpd = jpd_averages(independent_pairs(make_pr_box(), n))
            for i, j in SETTINGS:
                dist = jpd_marginal(jpd, [("A", i, 0), ("B", j, 0)])
                same = F(n + 1, 4 * n) if (i, j) != (1, 1) else F(n - 1, 4 * n)
                diff = F(n - 1, 4 * n) if (i, j) != (1, 1) else F(n + 1, 4 * n)
                assert dist[(1, 1)] == dist[(-1, -1)] == same
                assert dist[(1, -1)] == dist[(-1, 1)] == diff

    def test_single_pair_is_domain_error(self):
        with pytest.raises(DomainError):
            jpd_averages(independent_pairs(make_pr_box(), 1))

    def test_closed_form_negative_at_one_pair(self):
        jpd = pr_averages_jpd_closed_form(1)
        assert not jpd.valid
        verdict = jpd_validity(jpd)
        assert not verdict.valid
        assert verdict.total == 1
        assert {p for _, _, p in verdict.negatives} == {F(-1, 16)}

    def test_marginal_identities(self):
        boxes = [make_pr_box()] + [make_isotropic_box(e)
                                   for e in (0, F(1, 2), F(3, 4), 1)]
        for box in boxes:
            for n in (2, 3, 4):
                model = independent_pairs(box, n)
                jpd = jpd_averages(model)
                eff = effective_pair(model)
                for i, j in SETTINGS:
                    dist = jpd_marginal(jpd, [("A", i, 0), ("B", j, 0)])
                    for (x, y), p in dist.items():
                        assert p == eff.prob(i, j, x, y)

    def test_deterministic_boxes_valid(self):
        for outcomes in product(OUTCOMES, repeat=4):
            model = independent_pairs(make_deterministic_box(*outcomes), 3)
            assert jpd_averages(model).valid

    @given(box=no_signalling_boxes(), n=st.integers(min_value=2, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_entries_sum_to_one(self, box, n):
        jpd = jpd_averages(independent_pairs(box, n))
        assert jpd.total() == 1

    def test_generic_route_agrees(self):
        box = make_pr_box()
        fast = jpd_averages(independent_pairs(box, 2))
        slow = jpd_averages(explicit_from_box(box, 2))
        assert fast.entries == slow.entries


class TestFluctuationsJPD:
    def test_needs_four_pairs(self):
        with pytest.raises(DomainError):
            jpd_fluctuations(independent_pairs(make_pr_box(), 3))

    @pytest.mark.parametrize("n", (4, 5))
    def test_pr_valid_and_normalized(self, n):
        jpd = jpd_fluctuations(independent_pairs(make_pr_box(), n))
        assert len(jpd.entries) == 256
        assert jpd.total() == 1
        assert jpd.valid

    @pytest.mark.parametrize("n", (4, 5))
    def test_quad_marginals(self, n):
        model = independent_pairs(make_pr_box(), n)
        jpd = jpd_fluctuations(model)
        quad = effective_quad(model)
        for i, j in SETTINGS:
            dist = jpd_marginal(
                jpd, [("A", i, 0), ("A", i, 1), ("B", j, 0), ("B", j, 1)])
            for (x, xp, y, yp), p in dist.items():
                assert p == quad.prob(i, j, x, xp, y, yp)

    def test_pair_marginals(self):
        model = independent_pairs(make_pr_box(), 4)
        jpd = jpd_fluctuations(model)
        eff = effective_pair(model)
        for i, j in SETTINGS:
            dist = jpd_marginal(jpd, [("A", i, 0), ("B", j, 1)])
            for (x, y), p in dist.items():
                assert p == eff.prob(i, j, x, y)

    def test_same_setting_slot_symmetry(self):
        jpd = jpd_fluctuations(independent_pairs(make_isotropic_box(F(1, 2)), 4))
        for a_out, b_out, p in jpd.items():
            swapped_a = (a_out[1], a_out[0], a_out[2], a_out[3])
            assert jpd.entries[(swapped_a, b_out)] == p
            swapped_b = (b_out[0], b_out[1], b_out[3], b_out[2])
            assert jpd.entries[(a_out, swapped_b)] == p

    def test_isotropic_family_valid(self):
        for e in (0, F(1, 2), F(3, 4), 1):
            jpd = jpd_fluctuations(independent_pairs(make_isotropic_box(e), 4))
            assert jpd.valid
            assert jpd.total() == 1

    def test_noisy_box_marginals(self):
        model = independent_pairs(make_isotropic_box(F(1, 2)), 4)
        jpd = jpd_fluctuations(model)
        quad = effective_quad(model)
        eff = effective_pair(model)
        for i, j in SETTINGS:
            quad_m = jpd_marginal(
                jpd, [("A", i, 0), ("A", i, 1), ("B", j, 0), ("B", j, 1)])
            for (x, xp, y, yp), p in quad_m.items():
                assert p == quad.prob(i, j, x, xp, y, yp)
            pair_m = jpd_marginal(jpd, [("A", i, 0), ("B", j, 0)])
            for (x, y), p in pair_m.items():
                assert p == eff.prob(i, j, x, y)


class TestGeneralJPD:
    def test_one_copy_matches_averages(self):
        model = independent_pairs(make_pr_box(), 3)
        assert jpd_general(model, 1).entries == jpd_averages(model).entries

    def test_two_copies_match_fluctuations(self):
        model = independent_pairs(make_pr_box(), 4)
        assert jpd_general(model, 2).entries == jpd_fluctuations(model).entries

    def test_requires_enough_particles(self):
        model = independent_pairs(make_pr_box(), 5)
        with pytest.raises(DomainError, match="copies"):
            jpd_general(model, 3)

    def test_three_copy_quad_marginal(self):
        model = independent_pairs(make_pr_box(), 6)
        jpd = jpd_general(model, 3)
        assert jpd.total() == 1
        quad = effective_quad(model)
        dist = jpd_marginal(
            jpd, [("A", 0, 0), ("A", 0, 1), ("B", 0, 0), ("B", 0, 1)])
        for (x, xp, y, yp), p in dist.items():
            assert p == quad.prob(0, 0, x, xp, y, yp)

    def test_rejects_zero_copies(self):
        with pytest.raises(DomainError):
            jpd_general(independent_pairs(make_pr_box(), 4), 0)


class TestJPDMarginalAndValidity:
    def test_full_slot_marginal_is_identity(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        slots = ([("A", s, c) for s, c in jpd.slots("A")]
                 + [("B", s, c) for s, c in jpd.slots("B")])
        dist = jpd_marginal(jpd, slots)
        for (a_out, b_out), p in jpd.entries.items():
            assert dist[a_out + b_out] == p

    def test_unknown_slot_rejected(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        with pytest.raises(DomainError):
            jpd_marginal(jpd, [("A", 0, 5)])
        with pytest.raises(DomainError):
            jpd_marginal(jpd, [("C", 0, 0)])

    def test_duplicate_slot_rejected(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        with pytest.raises(DomainError):
            jpd_marginal(jpd, [("A", 0, 0), ("A", 0, 0)])

    def test_validity_report_clean(self):
        verdict = jpd_validity(jpd_averages(independent_pairs(make_pr_box(), 2)))
        assert verdict.valid
        assert verdict.total == 1
        assert not verdict.negatives


class TestJPDSerialization:
    def test_round_trip_bytes(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 3))
        text = jpd.to_json()
        again = SymmetricJPD.from_json(text)
        assert again.entries == jpd.entries
        assert again.to_json() == text

    def test_closed_form_round_trip(self):
        jpd = pr_averages_jpd_closed_form(1)
        again = SymmetricJPD.from_json(jpd.to_json())
        assert not again.valid
        assert again.entries == jpd.entries


    @staticmethod
    def one_slot_jpd_json(schema_copies=1, setting=0, events=("(+;+)", "(-;-)")):
        group = {"setting": setting, "copies": schema_copies}
        return json.dumps({"schema": {"alice": [group], "bob": [group]},
                           "entries": [{"outcomes": e, "p": "1/2"} for e in events],
                           "valid": True})

    def test_one_slot_jpd_loads(self):
        jpd = SymmetricJPD.from_json(self.one_slot_jpd_json())
        assert jpd.total() == 1 and jpd.valid

    @pytest.mark.parametrize("events", [("(+,+;+)", "(-;-)"), ("(+;+)", "(-;-,-)"),
                                        ("(+;+)", "(;-)")])
    def test_event_width_must_match_schema(self, events):
        with pytest.raises(ConstructionError, match="does not list 1 Alice and 1 Bob"):
            SymmetricJPD.from_json(self.one_slot_jpd_json(events=events))

    def test_event_listed_twice_rejected(self):
        with pytest.raises(ConstructionError, match="listed twice"):
            SymmetricJPD.from_json(self.one_slot_jpd_json(events=("(+;+)", "(+;+)")))

    @pytest.mark.parametrize("copies", [0, -1])
    def test_copies_below_one_rejected(self, copies):
        with pytest.raises(ConstructionError, match="copies >= 1"):
            SymmetricJPD.from_json(self.one_slot_jpd_json(
                schema_copies=copies, events=("(;)",)))

    @pytest.mark.parametrize("alice", [
        [{"setting": 0, "copies": 1}, {"setting": 0, "copies": 1}],
        [{"setting": 1, "copies": 1}, {"setting": 0, "copies": 1}],
        [{"setting": -1, "copies": 1}],
    ], ids=["repeated", "descending", "negative"])
    def test_schema_settings_must_be_nonnegative_and_ascending(self, alice):
        data = json.loads(self.one_slot_jpd_json())
        data["schema"]["alice"] = alice
        data["entries"] = [{"outcomes": "(" + ",".join("+" * len(alice)) + ";+)",
                            "p": "1"}]
        with pytest.raises(ConstructionError,
                           match="malformed jpd JSON: .*nonnegative and strictly ascending"):
            SymmetricJPD.from_json(json.dumps(data))

    @pytest.mark.parametrize("field, value", [("copies", 1.5), ("copies", True),
                                              ("copies", "1"), ("setting", 0.0)])
    def test_non_integer_schema_rejected(self, field, value):
        kwargs = {"schema_copies" if field == "copies" else field: value}
        with pytest.raises(ConstructionError, match="not an integer"):
            SymmetricJPD.from_json(self.one_slot_jpd_json(**kwargs))


class TestEffectiveChsh:
    def test_threshold(self):
        for n in range(1, 9):
            eff = effective_pair(independent_pairs(make_pr_box(), n))
            value = chsh_value(eff)
            assert value == F(4, n)
            if n == 1:
                assert value > 2
            elif n == 2:
                assert value == 2
            else:
                assert value < 2


def symmetric_laws(model):
    """Every symmetrised law of the memo tests that ``model.n`` allows."""
    laws = {"pair": effective_pair(model)}
    if model.n >= 2:
        laws["quad"] = effective_quad(model)
        laws["averages"] = jpd_averages(model)
    return laws


class TestSymmetrizedMemo:
    """The per-model memo behind ``_symmetrized_entries``."""

    @settings(max_examples=8, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    def test_warm_model_matches_fresh_model(self, box, n):
        for build in (independent_pairs, explicit_from_box):
            warm = build(box, n)
            symmetric_laws(warm)
            assert symmetric_laws(warm) == symmetric_laws(build(box, n))

    @pytest.mark.parametrize("build", [independent_pairs, explicit_from_box])
    def test_second_quad_does_no_new_work(self, monkeypatch, build):
        calls = []

        def counted(name):
            original = getattr(symmetry, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("marginal", "_symmetrized_product_entry"):
            monkeypatch.setattr(symmetry, name, counted(name))
        model = build(make_isotropic_box(F(1, 3)), 3)
        first = effective_quad(model)
        assert calls
        calls.clear()
        assert effective_quad(model) == first
        assert calls == []

    def test_mutating_returned_entries_does_not_leak(self):
        model = independent_pairs(make_pr_box(), 2)
        jpd = jpd_averages(model)
        expected = dict(jpd.entries)
        jpd.entries.clear()
        assert jpd_averages(model).entries == expected

    def test_slot_guard_runs_before_lookup(self):
        model = independent_pairs(make_pr_box(), 3)
        effective_quad(model)
        for _ in range(2):
            with pytest.raises(DomainError):
                jpd_fluctuations(model)

    @pytest.mark.parametrize("table, n", [(signalling_joint_table(), 1),
                                          (cross_pair_signalling_table(), 2)])
    def test_signalling_raises_on_every_call(self, table, n):
        model = explicit_joint(n, 2, 2, table)
        for _ in range(3):
            with pytest.raises(SignallingError):
                effective_pair(model)


class TestGenericEntries:
    """The integer route of ``_symmetrized_generic_entries``."""

    @staticmethod
    def mixture(first, second, weight, n):
        """``weight`` of ``first`` and the rest of ``second``, n pairs each,
        as one explicit joint table."""
        tables = [explicit_from_box(box, n).table for box in (first, second)]
        table = {}
        for key in tables[0]:
            block = {}
            for part, w in zip(tables, (weight, 1 - weight)):
                for outcomes, p in part[key].items():
                    block[outcomes] = block.get(outcomes, 0) + w * p
            table[key] = block
        return explicit_joint(n, 2, 2, table)

    @pytest.mark.parametrize("a_settings, b_settings",
                             [((0,), (1,)), ((0, 1), (1,)), ((1, 1), (0, 0)), ((), (0, 1))])
    def test_matches_fraction_sum_of_marginals(self, a_settings, b_settings):
        n = 3
        model = self.mixture(mixed_denominator_box(), make_isotropic_box(F(1, 3)), F(2, 5), n)
        block_lcms = {math.lcm(*(p.denominator for p in block.values()))
                      for block in model.table.values()}
        assert len(block_lcms) > 1
        expected = {(a_out, b_out): F(0)
                    for a_out in product(OUTCOMES, repeat=len(a_settings))
                    for b_out in product(OUTCOMES, repeat=len(b_settings))}
        for a_particles in permutations(range(n), len(a_settings)):
            for b_particles in permutations(range(n), len(b_settings)):
                spec = ([("A", k, s) for k, s in zip(a_particles, a_settings)]
                        + [("B", l, s) for l, s in zip(b_particles, b_settings)])
                for outcomes, p in marginal(model, spec).items():
                    expected[outcomes[:len(a_settings)], outcomes[len(a_settings):]] += p
        norm = math.perm(n, len(a_settings)) * math.perm(n, len(b_settings))
        entries = symmetry._symmetrized_generic_entries(model, a_settings, b_settings)
        assert list(entries) == list(expected)
        assert entries == {key: p / norm for key, p in expected.items()}

    def test_out_of_range_setting_raises_as_marginal_does(self):
        model = explicit_from_box(make_pr_box(), 2)
        with pytest.raises(DomainError, match="setting 2 out of range for side B"):
            effective_correlator(model, 0, 2, 1, 1)
