"""Symmetrized distributions, JPDs and their closed-form cross-checks."""

import functools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ConstructionError,
    DomainError,
    MacroboxError,
    OUTCOMES,
    SignallingError,
    SymmetricJPD,
    chsh_value,
    effective_correlator,
    effective_pair,
    effective_quad,
    format_event,
    independent_pairs,
    jpd_averages,
    jpd_fluctuations,
    jpd_general,
    jpd_marginal,
    jpd_validity,
    macro_distribution,
    make_deterministic_box,
    make_isotropic_box,
    make_pr_box,
    marginal,
    marginal_correlator,
    moment_report,
    pair_correlation,
    pr_averages_high_events,
    pr_averages_jpd_closed_form,
    pr_averages_jpd_values,
    pr_effective_pair_probability,
    pr_quad_class,
    pr_quad_correlator,
    pr_quad_values,
)
from macrobox import ensemble, explicit_joint, symmetry
from macrobox.symmetry import _matching_sum, parse_event
from tests.conftest import (
    cross_pair_signalling_table,
    explicit_from_box,
    joint_mixture,
    mixed_completion_signalling_table,
    mixed_denominator_box,
    no_signalling_boxes,
    ordered_generic_entries,
    ordered_marginal_average,
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
            expected = matchings * math.perm(n, a + b - m)
            assert observed.get(m, 0) == expected

    def test_total_assignments(self):
        for n, a, b in [(4, 2, 2), (5, 3, 2), (6, 4, 4)]:
            total = sum(
                math.comb(a, m) * math.comb(b, m) * math.factorial(m)
                * math.perm(n, a + b - m)
                for m in range(min(a, b) + 1))
            assert total == math.perm(n, a) * math.perm(n, b)


def brute_matching_sum(n, alone_a, alone_b, together):
    """The matching sum spelled out: over every pair of injective maps of
    the slots to n particles, the product of each Alice slot's weight (its
    matched weight if a Bob slot shares its particle) and of each Bob slot
    alone on its particle."""
    total = 0
    for sigma_a in permutations(range(n), len(alone_a)):
        for sigma_b in permutations(range(n), len(alone_b)):
            term = 1
            for u, k in enumerate(sigma_a):
                term *= together[u][sigma_b.index(k)] if k in sigma_b else alone_a[u]
            for v, k in enumerate(sigma_b):
                if k not in sigma_a:
                    term *= alone_b[v]
            total += term
    return total


class TestMatchingSum:
    SHAPES = [(n, a, b) for n in range(1, 6) for a in range(4) for b in range(4)]

    @staticmethod
    def _weights(a, b, draw):
        return ([draw() for _ in range(a)], [draw() for _ in range(b)],
                [[draw() for _ in range(b)] for _ in range(a)])

    @pytest.mark.parametrize("n,a,b", SHAPES)
    def test_int_weights_with_zeros(self, n, a, b):
        # Shapes with n < a + b include matchings whose count (N)_(a+b-m) is 0.
        rng = random.Random(f"{n},{a},{b}")
        weights = self._weights(a, b, lambda: rng.choice((-2, -1, 0, 0, 1, 3)))
        total = _matching_sum(n, *weights)
        assert type(total) is int
        assert total == brute_matching_sum(n, *weights)

    @pytest.mark.parametrize("n,a,b", SHAPES)
    def test_fraction_weights(self, n, a, b):
        rng = random.Random(f"{n};{a};{b}")
        weights = self._weights(a, b, lambda: F(rng.randint(-3, 3), rng.randint(1, 5)))
        assert _matching_sum(n, *weights) == brute_matching_sum(n, *weights)

    def test_unit_weights_count_the_assignments(self):
        # With every weight 1 the sum counts all (N)_a (N)_b assignments,
        # 0 when a side has more slots than there are particles.
        assert _matching_sum(2, [1, 1, 1], [1], [[1], [1], [1]]) == 0
        for n, a, b in self.SHAPES:
            ones = self._weights(a, b, lambda: 1)
            assert _matching_sum(n, *ones) == math.perm(n, a) * math.perm(n, b)


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

    @settings(max_examples=40, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=6))
    def test_correlator_inversion_matches_matching_dp(self, box, n):
        # The product route, the inversion of the slot correlators, against
        # the Fraction matching DP, each on its own model so no memo is
        # shared, and in the DP's (i, j, x, y) order.
        eff = effective_pair(independent_pairs(box, n))
        model = independent_pairs(box, n)
        expected = {(i, j, x, y): p for i, j in SETTINGS
                    for ((x,), (y,)), p in symmetry._symmetrized_entries(model, (i,), (j,)).items()}
        assert list(eff.table.items()) == list(expected.items())

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

    @settings(max_examples=40, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=2, max_value=8))
    def test_correlator_inversion_matches_matching_dp(self, box, n):
        # The product route, the inversion of the slot correlators, against
        # the Fraction matching DP, each on its own model so no memo is
        # shared, and in the DP's (i, j, x, x', y, y') order.
        quad = effective_quad(independent_pairs(box, n))
        model = independent_pairs(box, n)
        expected = {(i, j) + a_out + b_out: p for i, j in SETTINGS
                    for a_out, b_out, p in symmetry._expand(
                        (i, i), (j, j), symmetry._symmetrized_entries(model, (i, i), (j, j)))}
        assert list(quad.table.items()) == list(expected.items())

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

    def test_out_of_range_setting_raises(self):
        model = independent_pairs(make_pr_box(), 2)
        with pytest.raises(DomainError, match="bob setting 2 out of range"):
            effective_correlator(model, 0, 2, 1, 1)
        with pytest.raises(DomainError, match="alice setting -1 out of range"):
            effective_correlator(model, -1, 0, 1, 0)
        with pytest.raises(DomainError, match="alice setting 0.5 out of range"):
            effective_correlator(model, 0.5, 0, 1, 1)
        with pytest.raises(DomainError, match="bob setting True out of range"):
            effective_correlator(model, 0, True, 1, 1)

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

    @settings(max_examples=40, deadline=None)
    @given(box=no_signalling_boxes(), r=st.integers(0, 3), s=st.integers(0, 3),
           extra=st.integers(0, 4), i=st.integers(0, 1), j=st.integers(0, 1))
    def test_integer_closed_form_matches_matching_dp(self, box, r, s, extra, i, j):
        # The integer closed form against the Fraction matching DP's signed
        # entry sum, each on its own model so no memo is shared.
        n = max(r, s, 1) + extra
        expected = symmetry._symmetrized_correlator(
            independent_pairs(box, n), (i,) * r, (j,) * s)
        assert effective_correlator(independent_pairs(box, n), i, j, r, s) == expected

    def test_deterministic_box_gives_unity(self):
        model = independent_pairs(make_deterministic_box(1, 1, 1, 1), 4)
        for r, s in ((1, 1), (2, 2), (3, 1)):
            assert effective_correlator(model, 0, 0, r, s) == 1

    @pytest.mark.parametrize("r, s", [(1.5, 0), (True, 1), (0, 1.0), (1, False)])
    def test_slot_counts_must_be_ints(self, r, s):
        model = independent_pairs(make_pr_box(), 3)
        with pytest.raises(DomainError, match="slot count .* is not an int"):
            effective_correlator(model, 0, 0, r, s)


def inverted_correlators(model, i, j, slots):
    """The law of ``slots`` Alice slots at setting i and ``slots`` Bob slots
    at j, event -> value, from :func:`effective_correlator` alone: the
    average of prod (1 + x a)/2 over the slots expands into one correlator
    per subset of slots, signed by the subset's outcomes."""
    subsets = list(product((0, 1), repeat=slots))
    law = {}
    for a_out, b_out in product(product(OUTCOMES, repeat=slots), repeat=2):
        total = F(0)
        for a_set, b_set in product(subsets, repeat=2):
            sign = math.prod(x for x, u in zip(a_out + b_out, a_set + b_set) if u)
            total += sign * effective_correlator(model, i, j, sum(a_set), sum(b_set))
        law[a_out + b_out] = total / 4 ** slots
    return law


@settings(max_examples=30, deadline=None)
@given(box=no_signalling_boxes(), other=no_signalling_boxes(),
       weight=st.integers(0, 4).map(lambda k: F(k, 4)), n=st.integers(1, 3),
       joint=st.booleans())
def test_correlators_invert_to_effective_pair_and_quad(box, other, weight, n, joint):
    # On a joint table every route here is the generic enumeration, so the
    # inversion identity is checked where no closed form runs.
    model = joint_mixture(box, other, weight, n) if joint else independent_pairs(box, n)
    pair = effective_pair(model)
    quad = effective_quad(model) if n >= 2 else None
    for i, j in SETTINGS:
        for (x, y), p in inverted_correlators(model, i, j, 1).items():
            assert pair.prob(i, j, x, y) == p
        if quad is not None:
            for event, p in inverted_correlators(model, i, j, 2).items():
                assert quad.prob(i, j, *event) == p


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

    @pytest.mark.parametrize("copies", [1.5, True])
    def test_rejects_non_int_copies(self, copies):
        with pytest.raises(DomainError, match="int number of slot copies"):
            jpd_general(independent_pairs(make_pr_box(), 4), copies)

    def test_rejects_zero_copies(self):
        with pytest.raises(DomainError):
            jpd_general(independent_pairs(make_pr_box(), 4), 0)


@st.composite
def signed_jpds(draw):
    """A JPD of one or two settings per side, 1-3 copies each, and a signed
    value of denominator 1-9 per orbit."""
    copies = st.lists(st.integers(1, 3), min_size=1, max_size=2)
    schema_a, schema_b = tuple(enumerate(draw(copies))), tuple(enumerate(draw(copies)))
    a_orbits = symmetry._side_orbits(symmetry._slot_settings(schema_a))
    b_orbits = symmetry._side_orbits(symmetry._slot_settings(schema_b))
    return SymmetricJPD(schema_a, schema_b, {
        (a_key, b_key): F(draw(st.integers(-2, 3)), draw(st.integers(1, 9)))
        for a_key in a_orbits for b_key in b_orbits})


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

    @pytest.mark.parametrize("slot", [("A", True, 0), ("A", 1.0, 0), ("B", 0, False),
                                      ("B", 0, 0.0)])
    def test_non_int_setting_or_copy_rejected(self, slot):
        # True == 1 and 0.0 == 0 would otherwise name the int slot.
        jpd = jpd_fluctuations(independent_pairs(make_pr_box(), 4))
        with pytest.raises(DomainError, match="unknown slot"):
            jpd_marginal(jpd, [slot])

    @pytest.mark.parametrize("slot", [("A", 0), ("A", 0, 0, 0), 5])
    def test_slot_that_is_not_a_triple_rejected(self, slot):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        with pytest.raises(DomainError) as info:
            jpd_marginal(jpd, [slot])
        assert str(info.value) == f"spec entry {slot!r} is not a (side, setting, copy) triple"

    def test_duplicate_slot_rejected(self):
        jpd = jpd_averages(independent_pairs(make_pr_box(), 2))
        with pytest.raises(DomainError):
            jpd_marginal(jpd, [("A", 0, 0), ("A", 0, 0)])

    def test_validity_report_clean(self):
        verdict = jpd_validity(jpd_averages(independent_pairs(make_pr_box(), 2)))
        assert verdict.valid
        assert verdict.total == 1
        assert not verdict.negatives

    @settings(max_examples=40, deadline=None)
    @given(jpd=signed_jpds())
    def test_negative_entries_match_the_event_filter(self, jpd):
        assert jpd.negative_entries() == tuple(item for item in jpd.items() if item[2] < 0)

    def test_valid_jpd_expands_no_orbit(self, monkeypatch):
        jpd = jpd_fluctuations(independent_pairs(make_isotropic_box(F(1, 2)), 4))
        monkeypatch.setattr(symmetry, "_expand", None)
        assert jpd.valid and jpd.negative_entries() == ()
        assert str(jpd_validity(jpd)) == "valid"

    @settings(max_examples=40, deadline=None)
    @given(jpd=signed_jpds())
    def test_total_is_the_event_sum(self, jpd):
        assert jpd.total() == sum((p for _, _, p in jpd.items()), F(0))


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
    def one_slot_jpd_json(schema_copies=1, setting=0,
                          events=("(+;+)", "(+;-)", "(-;+)", "(-;-)")):
        """Equal outcomes at 1/2 each, the two unequal events at 0."""
        group = {"setting": setting, "copies": schema_copies}
        entries = [{"outcomes": e, "p": "0" if e in ("(+;-)", "(-;+)") else "1/2"}
                   for e in events]
        return json.dumps({"schema": {"alice": [group], "bob": [group]},
                           "entries": entries, "valid": True})

    @staticmethod
    def two_alice_slot_jpd_json(values):
        """Two setting-0 Alice slots and one Bob slot, ``values`` mapping
        each listed event to its probability text."""
        return json.dumps({
            "schema": {"alice": [{"setting": 0, "copies": 2}],
                       "bob": [{"setting": 0, "copies": 1}]},
            "entries": [{"outcomes": e, "p": p} for e, p in values.items()],
            "valid": True})

    def test_incomplete_table_rejected(self):
        with pytest.raises(ConstructionError, match=r"event \(\+,\+;\+\) is missing"):
            SymmetricJPD.from_json(self.two_alice_slot_jpd_json({"(+,-;+)": "1"}))

    def test_table_not_constant_on_an_orbit_rejected(self):
        values = {format_event(a_out, b_out): "0"
                  for a_out in product(OUTCOMES, repeat=2) for b_out in product(OUTCOMES, repeat=1)}
        values["(+,-;+)"], values["(-,+;+)"] = "1/4", "3/4"
        with pytest.raises(ConstructionError,
                           match=r"event \(-,\+;\+\) is 3/4, but \(\+,-;\+\) in its orbit is 1/4"):
            SymmetricJPD.from_json(self.two_alice_slot_jpd_json(values))
        values["(-,+;+)"] = "1/4"
        values["(+,+;+)"] = "1/2"
        jpd = SymmetricJPD.from_json(self.two_alice_slot_jpd_json(values))
        assert jpd.valid and jpd.total() == 1
        assert len(jpd.orbits) == 6

    @settings(max_examples=20, deadline=None)
    @given(box=no_signalling_boxes(), copies=st.integers(min_value=1, max_value=2),
           drop=st.booleans(), data=st.data())
    def test_one_change_to_a_jpd_json_is_rejected(self, box, copies, drop, data):
        text = jpd_general(independent_pairs(box, 2 * copies), copies).to_json()
        assert SymmetricJPD.from_json(text).to_json() == text
        payload = json.loads(text)
        entries = payload["entries"]

        def in_larger_orbit(entry):
            a_out, b_out = parse_event(entry["outcomes"])
            return any(len(set(side[k:k + copies])) > 1
                       for side in (a_out, b_out) for k in range(0, len(side), copies))

        if drop or copies == 1:
            del entries[data.draw(st.integers(0, len(entries) - 1))]
        else:
            entry = data.draw(st.sampled_from([e for e in entries if in_larger_orbit(e)]))
            entry["p"] = str(F(entry["p"]) + 1)
        with pytest.raises(ConstructionError):
            SymmetricJPD.from_json(json.dumps(payload))

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

    def test_decimal_exponent_value_rejected(self):
        data = json.loads(self.one_slot_jpd_json())
        data["entries"][0]["p"] = "1e-1000000"
        with pytest.raises(ConstructionError, match="has a decimal exponent"):
            SymmetricJPD.from_json(json.dumps(data))

    def test_valid_flag_missing_rejected(self):
        data = json.loads(self.one_slot_jpd_json())
        del data["valid"]
        with pytest.raises(ConstructionError,
                           match='malformed jpd JSON: the "valid" flag is missing'):
            SymmetricJPD.from_json(json.dumps(data))

    @pytest.mark.parametrize("value", ["banana", 1, 0, None, "true"])
    def test_valid_flag_not_a_bool_rejected(self, value):
        data = json.loads(self.one_slot_jpd_json())
        data["valid"] = value
        with pytest.raises(ConstructionError, match='"valid" must be true or false'):
            SymmetricJPD.from_json(json.dumps(data))

    def test_valid_flag_must_match_the_entries(self):
        # The closed form at n = 1 has negative entries, so it is not valid.
        data = json.loads(pr_averages_jpd_closed_form(1).to_json())
        assert data["valid"] is False
        data["valid"] = True
        with pytest.raises(ConstructionError,
                           match='"valid" is true, but the entries make it false'):
            SymmetricJPD.from_json(json.dumps(data))
        data = json.loads(self.one_slot_jpd_json())
        data["valid"] = False
        with pytest.raises(ConstructionError,
                           match='"valid" is false, but the entries make it true'):
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

    @staticmethod
    def count_dp_and_marginals(monkeypatch) -> list:
        """Record each call of the matching DP and of the count law that
        every marginal, memoised or not, reads."""
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(ensemble, "_marginal_count_law")
        counted(symmetry, "_symmetrized_product_entry")
        return calls

    # A pair box's quad inverts its slot correlators, with no memo; see the next test.
    @pytest.mark.parametrize("build", [explicit_from_box])
    def test_second_quad_does_no_new_work(self, monkeypatch, build):
        calls = self.count_dp_and_marginals(monkeypatch)
        model = build(make_isotropic_box(F(1, 3)), 3)
        first = effective_quad(model)
        assert calls
        calls.clear()
        assert effective_quad(model) == first
        assert calls == []

    def test_pair_box_pair_and_quad_run_neither_dp_nor_marginals(self, monkeypatch):
        # The matching DP stays an independent check of both.
        calls = self.count_dp_and_marginals(monkeypatch)
        model = independent_pairs(make_isotropic_box(F(1, 3)), 3)
        assert effective_pair(model) == effective_pair(model)
        assert effective_quad(model) == effective_quad(model)
        assert calls == []

    def test_returned_tables_are_read_only(self):
        model = independent_pairs(make_pr_box(), 4)
        jpd = jpd_fluctuations(model)
        quad = effective_quad(model)
        tables = [(jpd.orbits, next(iter(jpd.orbits))),
                  (quad.table, (0, 0, 1, 1, 1, 1)),
                  (macro_distribution(model, 0, 0).counts, (4, 4)),
                  (moment_report(model, 0, 0).paths, "correlation")]
        for table, key in tables:
            with pytest.raises(TypeError):
                table[key] = F(1)
        orbits = symmetry._symmetrized_entries(model, (0, 0), (0, 0))
        assert symmetry._symmetrized_entries(model, (0, 0), (0, 0)) is orbits
        assert jpd_fluctuations(model) == jpd
        assert effective_quad(model) == quad

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


@functools.cache
def _four_pair_table():
    """The checked blocks of four pairs of ``isotropic:1/3`` as a joint
    table, built once: 65536 entries."""
    return explicit_from_box(make_isotropic_box(F(1, 3)), 4).table


class TestGenericEntries:
    """The integer route of ``_symmetrized_generic_entries``."""

    @pytest.mark.parametrize("a_settings, b_settings",
                             [((0,), (1,)), ((0, 1), (1,)), ((1, 1), (0, 0)), ((), (0, 1)),
                              ((0, 0, 0), (1,)), ((0, 0, 1), (0, 1, 1))])
    def test_matches_fraction_sum_of_marginals(self, a_settings, b_settings):
        """The sum over particle sets equals the average over ordered
        tuples (:func:`ordered_marginal_average`) on every event, with runs
        of one, two and three slots, alone and mixed."""
        n = 3
        model = joint_mixture(mixed_denominator_box(), make_isotropic_box(F(1, 3)), F(2, 5), n)
        block_lcms = {math.lcm(*(p.denominator for p in block.values()))
                      for block in model.table.values()}
        assert len(block_lcms) > 1
        expected = ordered_marginal_average(model, a_settings, b_settings)
        orbits = symmetry._symmetrized_generic_entries(model, a_settings, b_settings)
        by_counts = {}  # outcome counts per (side, setting) -> the average's value
        for (a_out, b_out), p in expected.items():
            counts = (frozenset(Counter(zip(a_settings, a_out)).items()),
                      frozenset(Counter(zip(b_settings, b_out)).items()))
            assert by_counts.setdefault(counts, p) == p
            key = (symmetry._orbit_key(a_settings, a_out), symmetry._orbit_key(b_settings, b_out))
            assert orbits[key] == p
        assert len(orbits) == len(by_counts)
        assert list(orbits) == [(a_key, b_key) for a_key in symmetry._side_orbits(a_settings)
                                for b_key in symmetry._side_orbits(b_settings)]

    @pytest.mark.parametrize("settings", [(), (0,), (0, 1), (1, 1), (0, 0, 1), (0, 1, 1, 1)])
    def test_run_sorted_tuples_are_the_ordered_tuples_that_increase_in_each_run(self, settings):
        runs = [k for k in range(1, len(settings)) if settings[k - 1] == settings[k]]
        expected = [t for t in permutations(range(5), len(settings))
                    if all(t[k - 1] < t[k] for k in runs)]
        assert symmetry._run_sorted_tuples(5, settings) == expected
        assert len(expected) == math.perm(5, len(settings)) // math.prod(
            math.factorial(settings.count(s)) for s in set(settings))

    @pytest.mark.parametrize("route, calls", [(effective_quad, 144), (jpd_fluctuations, 36)])
    def test_one_marginal_per_particle_set(self, monkeypatch, route, calls):
        """At N = 4 the quad reads C(4, 2)^2 = 36 particle sets per setting
        pair and the fluctuations JPD C(4, 2) C(2, 2) = 6 per side, where
        the ordered tuples were 12^2 per setting pair and 4!^2, 576 each.
        The values are the product model's."""
        box = make_isotropic_box(F(1, 3))
        model = explicit_joint(4, 2, 2, _four_pair_table())
        read = []
        monkeypatch.setattr(symmetry, "marginal",
                            lambda model, spec: read.append(spec) or marginal(model, spec))
        value = route(model)
        assert len(read) == calls
        assert value == route(independent_pairs(box, 4))

    def test_out_of_range_setting_raises_as_marginal_does(self):
        model = explicit_from_box(make_pr_box(), 2)
        with pytest.raises(DomainError, match="setting 2 out of range for side B"):
            effective_correlator(model, 0, 2, 1, 1)


def _outcome(route, model):
    """``route(model)``, or the type, text and carried laws of the error
    it raises."""
    try:
        return route(model)
    except MacroboxError as exc:
        return type(exc), str(exc), getattr(exc, "first", None), getattr(exc, "second", None)


class TestSignallingErrorTexts:
    """A failing particle tuple's run-sorted twin lists the same slots and
    comes no later in ``permutations`` order, so the set enumeration raises
    the error the ordered enumeration raised first, slot tuple included.
    The tables are conftest's three signalling tables, the first two also
    the benchmark's, and the cross-pair leak at three pairs, where the
    quad's same-setting runs leave particles to complete."""

    @pytest.mark.parametrize("route", [effective_pair, effective_quad, jpd_averages])
    @pytest.mark.parametrize("table, n", [(signalling_joint_table(), 1),
                                          (cross_pair_signalling_table(), 2),
                                          (mixed_completion_signalling_table(), 2),
                                          (cross_pair_signalling_table(3), 3)],
                             ids=["single-pair", "cross-pair", "mixed-completion",
                                  "cross-pair-3"])
    def test_first_failure_is_the_ordered_enumerations(self, monkeypatch, route, table, n):
        got = _outcome(route, explicit_joint(n, 2, 2, table))
        monkeypatch.setattr(symmetry, "_symmetrized_generic_entries", ordered_generic_entries)
        assert _outcome(route, explicit_joint(n, 2, 2, table)) == got

    def test_quad_names_the_first_run_sorted_tuple(self):
        """Alice particle 0 steers Bob particle 2, so the first failing
        tuple leaves Alice's 0 out and lists Bob's 2."""
        with pytest.raises(SignallingError) as info:
            effective_quad(explicit_joint(3, 2, 2, cross_pair_signalling_table(3)))
        assert str(info.value).startswith(
            "marginal over (('A', 1, 0), ('A', 2, 0), ('B', 0, 0), ('B', 2, 0)) depends on ")
