"""Macroscopic moments, the enumeration oracle, and the discussion quantities."""

import math
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ALICE,
    BOB,
    DomainError,
    IndependentPairs,
    PathDisagreementError,
    UnsupportedExtensionError,
    explicit_joint,
    gisin_matrix,
    independent_pairs,
    jacobi_eigenvalues,
    jpd_fluctuations,
    jpd_marginal,
    macro_average,
    macro_correlation,
    macro_distribution,
    macro_distribution_bruteforce,
    macro_joint_second_moment,
    macro_local_second_moment,
    macro_moment_general,
    make_deterministic_box,
    make_isotropic_box,
    make_pr_box,
    marginal_correlator,
    moment_report,
    odd_multiplicity_counts,
    rohrlich_conditional_variance,
)
from macrobox import macro
from macrobox.macro import _distinct_tuple_sum
from macrobox.symmetry import _symmetrized_correlator
from tests.conftest import (
    all_deterministic_boxes,
    explicit_from_box,
    mixed_denominator_box,
    no_signalling_boxes,
    pr_relabelings,
)

F = Fraction
SETTINGS = tuple(product((0, 1), repeat=2))


class TestMacroCorrelation:
    def test_pr_values(self):
        assert macro_correlation(independent_pairs(make_pr_box(), 3), 1, 1) == -3
        assert macro_correlation(independent_pairs(make_pr_box(), 5), 0, 1) == 5

    def test_uncorrelated_noise(self):
        model = independent_pairs(make_isotropic_box(0), 4)
        for i, j in SETTINGS:
            assert macro_correlation(model, i, j) == 0

    def test_scales_linearly(self):
        for n in range(1, 7):
            model = independent_pairs(make_pr_box(), n)
            for i, j in SETTINGS:
                assert macro_correlation(model, i, j) == n * (-1) ** (i * j)

    def test_averages_vanish_for_pr(self):
        model = independent_pairs(make_pr_box(), 3)
        assert macro_average(model, "A", 0) == 0
        assert macro_average(model, "B", 1) == 0

    def test_deterministic_average(self):
        model = independent_pairs(make_deterministic_box(1, -1, 1, 1), 3)
        assert macro_average(model, "A", 0) == 3
        assert macro_average(model, "A", 1) == -3


class TestSecondMoments:
    def test_pr_local(self):
        for n in (1, 2, 3, 5, 8):
            model = independent_pairs(make_pr_box(), n)
            assert macro_local_second_moment(model, "A", 0) == n
            assert macro_local_second_moment(model, "B", 1) == n

    def test_deterministic_local(self):
        model = independent_pairs(make_deterministic_box(1, 1, 1, 1), 3)
        assert macro_local_second_moment(model, "A", 0) == 9

    def test_isotropic_local(self):
        model = independent_pairs(make_isotropic_box(F(1, 2)), 4)
        assert macro_local_second_moment(model, "A", 0) == 4

    def test_pr_joint(self):
        assert macro_joint_second_moment(
            independent_pairs(make_pr_box(), 2), 0, 0) == 8
        assert macro_joint_second_moment(
            independent_pairs(make_pr_box(), 3), 1, 0) == 21
        for n in range(2, 7):
            model = independent_pairs(make_pr_box(), n)
            for i, j in SETTINGS:
                assert macro_joint_second_moment(model, i, j) == 3 * n * n - 2 * n

    def test_deterministic_joint(self):
        model = independent_pairs(make_deterministic_box(1, 1, 1, 1), 3)
        assert macro_joint_second_moment(model, 0, 0) == 81

    def test_single_pair_joint(self):
        # (A B)^2 = (x y)^2 = 1 with one pair of binary outcomes.
        assert macro_joint_second_moment(
            independent_pairs(make_pr_box(), 1), 0, 0) == 1

    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_explicit_wrapper_agrees(self, box, n):
        # At N <= 3 some coincidence classes are empty; the grouped product
        # sums must skip them and still match the literal loops.
        fast = independent_pairs(box, n)
        slow = explicit_from_box(box, n)
        for i, j in SETTINGS:
            assert macro_correlation(fast, i, j) == macro_correlation(slow, i, j)
            assert (macro_local_second_moment(fast, "A", i)
                    == macro_local_second_moment(slow, "A", i))
            assert (macro_local_second_moment(fast, "B", j)
                    == macro_local_second_moment(slow, "B", j))
            assert (macro_joint_second_moment(fast, i, j)
                    == macro_joint_second_moment(slow, i, j))


def _slot_shapes(i, j):
    """(alice settings, bob settings) per slot: the four moment routes'
    shapes at (i, j), plus mixed-setting and three-slot shapes."""
    return [((i,), ()), ((), (j,)), ((i,), (j,)), ((i, i), ()), ((), (j, j)),
            ((i, i), (j, j)), ((0, 1), (1, 0)), ((0, 1, 0), (1,)), ((0, 1), (1, 0, 1))]


def _literal_tuple_sum(model, alice_settings, bob_settings):
    """The literal loop over ordered tuples of distinct particles per side:
    one marginal correlator per index tuple."""
    n = model.n
    return sum((marginal_correlator(
        model, [(ALICE, k, s) for k, s in zip(alice, alice_settings)]
        + [(BOB, l, s) for l, s in zip(bob, bob_settings)])
        for alice in permutations(range(n), len(alice_settings))
        for bob in permutations(range(n), len(bob_settings))), F(0))


class TestDistinctTupleSum:
    @staticmethod
    def _assert_branches_agree(box):
        # The pair box's matching sum against the literal loop over distinct
        # index tuples on the same box written as a joint table.
        for n in range(1, 5):
            matchings = independent_pairs(box, n)
            literal = explicit_from_box(box, n)
            for i, j in SETTINGS:
                for alice, bob in _slot_shapes(i, j):
                    assert (_distinct_tuple_sum(matchings, alice, bob)
                            == _literal_tuple_sum(literal, alice, bob)), (n, alice, bob)

    def test_pr_box(self):
        self._assert_branches_agree(make_pr_box())

    @given(box=no_signalling_boxes())
    @settings(max_examples=3, deadline=None)
    def test_no_signalling_boxes(self, box):
        self._assert_branches_agree(box)

    def test_mixed_denominator_box(self):
        self._assert_branches_agree(mixed_denominator_box())

    def test_pair_box_reads_only_box_rows(self, monkeypatch):
        """The pair-box branch sums signed rows of ``box.weights``: it asks
        for no marginal correlator and builds no marginal count law."""
        def refuse(*args, **kwargs):
            raise AssertionError("a marginal was computed")

        monkeypatch.setattr("macrobox.ensemble._checked_marginal", refuse)
        model = independent_pairs(make_pr_box(), 9)
        assert macro_average(model, ALICE, 0) == 0
        # Only the two full matchings survive the uniform marginals; each
        # pairs <a0 b1> = 1 with <a1 b1> = -1 over (9)_2 assignments.
        assert _distinct_tuple_sum(model, (0, 1), (1, 1)) == -2 * math.perm(9, 2)

    def test_average_checks_effective_route(self, monkeypatch):
        """Every checked moment compares its distinct-tuple sums with the
        effective correlators and names itself on a mismatch."""
        monkeypatch.setattr("macrobox.macro.effective_correlator",
                            lambda model, i, j, r, s: F(1, 7))
        model = independent_pairs(make_pr_box(), 3)
        cases = (
            (lambda: macro_average(model, ALICE, 1), "<A1>", "3/7"),
            (lambda: macro_average(model, BOB, 1), "<B1>", "3/7"),
            (lambda: macro_local_second_moment(model, ALICE, 0), "<A0^2>", "27/7"),
            (lambda: macro_local_second_moment(model, BOB, 1), "<B1^2>", "27/7"),
            (lambda: macro_correlation(model, 0, 1), "<A0 B1>", "9/7"),
            (lambda: macro_joint_second_moment(model, 0, 1), "<(A0 B1)^2>", "135/7"),
        )
        for moment, label, check in cases:
            with pytest.raises(PathDisagreementError,
                               match=re.escape(f"{label}: microscopic sum ")) as exc:
                moment()
            assert str(exc.value).endswith(f"effective route {check}")

    def test_pair_box_moments_skip_the_matching_dp(self, monkeypatch):
        """On a pair box every moment's primary route is the integer closed
        form, so the Fraction matching DP is never run."""
        def refuse(*args, **kwargs):
            raise AssertionError("the matching DP ran")

        monkeypatch.setattr("macrobox.symmetry._symmetrized_product_entry", refuse)
        model = independent_pairs(make_isotropic_box(F(1, 3)), 4)
        report = moment_report(model, 0, 1)
        assert report.correlation == 4 * F(1, 3)
        assert macro_average(model, BOB, 1) == report.average_b
        assert macro_correlation(model, 1, 1) == -4 * F(1, 3)
        assert macro_local_second_moment(model, ALICE, 1) == report.second_moment_a
        assert macro_joint_second_moment(model, 0, 1) == report.joint_second_moment

    def test_average_rejects_unknown_side(self):
        with pytest.raises(DomainError, match="side must be"):
            macro_average(independent_pairs(make_pr_box(), 2), "C", 0)


class TestCheckedMomentsOracle:
    """The four checked moments against the moments of the brute-force law
    of (A_i, B_j)."""

    @staticmethod
    def _assert_oracle(model):
        for i, j in product(range(model.s_a), range(model.s_b)):
            dist = macro_distribution_bruteforce(model, i, j)
            assert macro_average(model, ALICE, i) == dist.alice_moment(1)
            assert macro_average(model, BOB, j) == dist.bob_moment(1)
            assert macro_local_second_moment(model, ALICE, i) == dist.alice_moment(2)
            assert macro_local_second_moment(model, BOB, j) == dist.bob_moment(2)
            assert macro_correlation(model, i, j) == dist.joint_moment(1)
            assert macro_joint_second_moment(model, i, j) == dist.joint_moment(2)

    @pytest.mark.parametrize("n", range(1, 6))
    @given(box=no_signalling_boxes())
    @settings(max_examples=3, deadline=None)
    def test_no_signalling_boxes(self, n, box):
        self._assert_oracle(independent_pairs(box, n))

    def test_joint_table(self):
        self._assert_oracle(explicit_from_box(mixed_denominator_box(), 3))


class TestBruteForceDistribution:
    def test_single_pr_pair(self):
        dist = macro_distribution_bruteforce(independent_pairs(make_pr_box(), 1), 0, 0)
        assert dist.prob(1, 1) == F(1, 2)
        assert dist.prob(-1, -1) == F(1, 2)
        assert dist.prob(1, -1) == 0
        assert dist.prob(-1, 1) == 0

    def test_deterministic_point_mass(self):
        dist = macro_distribution_bruteforce(
            independent_pairs(make_deterministic_box(1, 1, 1, 1), 4), 0, 0)
        assert dist.prob(4, 4) == 1
        assert dist.total() == 1

    def test_noise_convolution(self):
        # Oracle: two independent fair +-1 steps per side; p(sum=0) = 1/2 each.
        dist = macro_distribution_bruteforce(
            independent_pairs(make_isotropic_box(0), 2), 0, 0)
        assert dist.prob(0, 0) == F(1, 2) * F(1, 2)

    def test_support_parity(self):
        dist = macro_distribution_bruteforce(independent_pairs(make_pr_box(), 3), 0, 1)
        assert dist.support_values() == (-3, -1, 1, 3)
        assert dist.total() == 1

    def test_joint_table_matches_product(self):
        # The mixed-denominator table's (0, 0) block counts over 8 and the
        # product model over 4^3, so the two laws compare equal only after
        # the gcd reduction.
        for box in (make_pr_box(), mixed_denominator_box()):
            joint = explicit_from_box(box, 3)
            dist = macro_distribution_bruteforce(joint, 0, 0)
            assert dist == macro_distribution_bruteforce(independent_pairs(box, 3), 0, 0)
            assert macro_distribution(joint, 0, 0) == dist

    @pytest.mark.parametrize("model", [explicit_from_box(make_isotropic_box(F(1, 3)), 2),
                                       independent_pairs(make_isotropic_box(F(1, 3)), 2)],
                             ids=["joint", "product"])
    def test_memoised_per_setting_pair(self, monkeypatch, model):
        """One scan per setting pair, each handed out read-only and as the
        same object; a bad setting raises on every call, before the lookup."""
        scans = []
        side_sums = macro._side_sum_counts
        monkeypatch.setattr(macro, "_side_sum_counts",
                            lambda *args: scans.append(args[1]) or side_sums(*args))
        dist = macro_distribution_bruteforce(model, 1, 0)
        assert macro_distribution_bruteforce(model, 1, 0) is dist
        assert macro_distribution_bruteforce(model, 0, 1) is not dist
        assert len(scans) == 2
        with pytest.raises(TypeError):
            dist.counts[(2, 2)] = 1
        with pytest.raises(AttributeError):
            dist.n = 3
        for bad in ((2, 0), (0, 2), (True, 0)):
            for _ in range(2):
                with pytest.raises(DomainError):
                    macro_distribution_bruteforce(model, *bad)
        assert len(scans) == 2

    def test_fractions_only_when_read(self, monkeypatch):
        """Neither route builds a Fraction, and a moment builds one."""
        box = make_isotropic_box(F(1, 3))
        product_model, joint = independent_pairs(box, 4), explicit_from_box(box, 2)
        built = []
        fraction = macro.Fraction
        monkeypatch.setattr(macro, "Fraction",
                            lambda *args: built.append(args) or fraction(*args))
        dists = [macro_distribution(product_model, 1, 0),
                 macro_distribution_bruteforce(product_model, 1, 0),
                 macro_distribution(joint, 1, 0)]
        assert built == []
        for dist in dists:
            value = dist.moment(2, 1)
            assert len(built) == 1
            assert value == sum(x * x * y * p for x, y, p in dist.rows())
            built.clear()
        assert dists[0] == dists[1]

    def test_csv_layout(self):
        dist = macro_distribution_bruteforce(independent_pairs(make_pr_box(), 1), 0, 0)
        lines = dist.to_csv().splitlines()
        assert lines[0] == "X,Y,p"
        assert lines[1] == "-1,-1,1/2"
        assert len(lines) == 5


class TestPackedDistribution:
    """``macro_distribution`` (packed integer powers) against the brute-force
    oracle, and above its sizes against the binomial marginals and the
    moment expansion."""

    @staticmethod
    def assert_matches_oracle(model):
        for i, j in SETTINGS:
            primary = macro_distribution(model, i, j)
            oracle = macro_distribution_bruteforce(model, i, j)
            assert primary == oracle
            assert list(primary.counts) == list(oracle.counts)

    @settings(max_examples=15, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=1, max_value=6))
    def test_no_signalling_boxes(self, box, n):
        self.assert_matches_oracle(independent_pairs(box, n))

    @pytest.mark.parametrize("box", [make_pr_box(), mixed_denominator_box()]
                             + all_deterministic_boxes())
    def test_boxes_with_zero_cells(self, box):
        for n in (1, 2, 5):
            self.assert_matches_oracle(independent_pairs(box, n))

    def test_shares_no_kernel_or_memo(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the packed powers read the model's kernel or memo")

        model = independent_pairs(make_isotropic_box(F(1, 2)), 3)
        oracle = macro_distribution_bruteforce(model, 1, 0)
        monkeypatch.setattr(IndependentPairs, "_support", forbidden)
        monkeypatch.setattr(IndependentPairs, "_memoized", forbidden)
        assert macro_distribution(model, 1, 0) == oracle
        assert macro_distribution(independent_pairs(make_pr_box(), 40), 1, 1).total() == 1

    @settings(max_examples=20, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(7, 60), i=st.integers(0, 1),
           j=st.integers(0, 1))
    def test_marginals_and_moments_above_the_oracle(self, box, n, i, j):
        # Each side's sum counts the -1 outcomes of n independent pairs, so
        # its marginal is the binomial law of the box's own marginal.
        model = independent_pairs(box, n)
        dist = macro_distribution(model, i, j)
        values = dist.support_values()
        p_a, p_b = box.marginal_a(i, -1), box.marginal_b(j, -1)
        for a in range(n + 1):
            value = n - 2 * a
            binomial = math.comb(n, a)
            assert sum(dist.prob(value, y) for y in values) == \
                binomial * p_a ** a * (1 - p_a) ** (n - a)
            assert sum(dist.prob(x, value) for x in values) == \
                binomial * p_b ** a * (1 - p_b) ** (n - a)
        for order in (1, 2, 3, 4):
            assert dist.joint_moment(order) == macro_moment_general(model, i, j, order)

    def test_binomial_closed_form(self):
        # At (0, 0) the PR box gives A = B, a sum of n fair +-1 steps.
        n = 30
        dist = macro_distribution(independent_pairs(make_pr_box(), n), 0, 0)
        for k in range(n + 1):
            value = n - 2 * k
            assert dist.prob(value, value) == F(math.comb(n, k), 2 ** n)
        assert dist.total() == 1

    def test_other_models_use_the_oracle(self):
        model = explicit_from_box(make_isotropic_box(F(1, 2)), 2)
        for i, j in SETTINGS:
            assert macro_distribution(model, i, j) == \
                macro_distribution_bruteforce(model, i, j)

    def test_rejects_bad_settings(self):
        with pytest.raises(DomainError):
            macro_distribution(independent_pairs(make_pr_box(), 2), 2, 0)

    @pytest.mark.parametrize("model", [independent_pairs(make_pr_box(), 2),
                                       explicit_from_box(make_pr_box(), 1)])
    def test_rejects_non_int_settings(self, model):
        # 0.5 lies inside range(2) and True equals 1; both are refused at
        # the entry point, before any table is read.
        for call in (lambda: macro_distribution(model, 0.5, 0),
                     lambda: macro_distribution_bruteforce(model, 0, 0.5),
                     lambda: macro_correlation(model, 0.5, 0),
                     lambda: macro_average(model, BOB, 0.5),
                     lambda: macro_moment_general(model, True, 0, 1),
                     lambda: macro_moment_general(model, 0, False, 2)):
            with pytest.raises(DomainError, match="setting (0.5|True|False) out of range"):
                call()


class TestOddMultiplicityCounts:
    def test_totals(self):
        for k in range(0, 9):
            for n in (1, 2, 3, 5, 8, 12):
                assert sum(odd_multiplicity_counts(k, n)) == n ** k

    def test_order_two_values(self):
        for n in (1, 2, 5, 12):
            counts = odd_multiplicity_counts(2, n)
            assert counts[0] == n
            assert counts[1] == 0
            assert counts[2] == n * (n - 1)

    def test_parity_structure(self):
        counts = odd_multiplicity_counts(5, 4)
        for r, c in enumerate(counts):
            if r % 2 == 0:
                assert c == 0

    def test_brute_force_small(self):
        # Oracle: enumerate all maps [3] -> [3] and bucket by odd-count values.
        observed = [0, 0, 0, 0]
        for seq in product(range(3), repeat=3):
            odd = sum(1 for v in range(3) if seq.count(v) % 2 == 1)
            observed[odd] += 1
        assert odd_multiplicity_counts(3, 3) == observed


class TestGeneralMoments:
    def test_first_moment_is_correlation(self):
        for box in (make_pr_box(), make_isotropic_box(F(1, 2))):
            model = independent_pairs(box, 4)
            for i, j in SETTINGS:
                assert macro_moment_general(model, i, j, 1) == macro_correlation(model, i, j)

    def test_second_moment_matches(self):
        model = independent_pairs(make_pr_box(), 3)
        assert macro_moment_general(model, 0, 0, 2) == 21
        assert macro_moment_general(model, 0, 0, 2) == macro_joint_second_moment(model, 0, 0)

    def test_zeroth_moment(self):
        assert macro_moment_general(independent_pairs(make_pr_box(), 2), 0, 0, 0) == 1

    @pytest.mark.parametrize("order", [1.5, 2.0, True])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(DomainError, match="nonnegative int, got"):
            macro_moment_general(independent_pairs(make_pr_box(), 2), 0, 0, order)

    @pytest.mark.parametrize("p, q, bad", [(-1, 0, -1), (0, -2, -2), (1.0, 0, 1.0),
                                           (0, True, True)])
    def test_distribution_moment_order_must_be_a_nonnegative_int(self, p, q, bad):
        dist = macro_distribution_bruteforce(independent_pairs(make_pr_box(), 1), 0, 0)
        with pytest.raises(DomainError) as info:
            dist.moment(p, q)
        assert str(info.value) == f"moment order must be a nonnegative int, got {bad!r}"

    @pytest.mark.parametrize("box_name,box", [
        ("pr", make_pr_box()),
        ("noise", make_isotropic_box(0)),
        ("isotropic", make_isotropic_box(F(1, 2))),
        ("deterministic", make_deterministic_box(1, 1, 1, 1)),
    ])
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_matches_enumeration_oracle(self, box_name, box, n):
        model = independent_pairs(box, n)
        for i, j in ((0, 0), (1, 1)):
            dist = macro_distribution_bruteforce(model, i, j)
            for order in (1, 2, 3, 4):
                assert macro_moment_general(model, i, j, order) == dist.joint_moment(order)

    @settings(max_examples=20, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(7, 10), order=st.sampled_from((3, 4)),
           i=st.integers(0, 1), j=st.integers(0, 1))
    def test_higher_orders_match_packed_law(self, box, n, order, i, j):
        # Above the brute-force sizes the packed law is the oracle for
        # orders 3 and 4.
        model = independent_pairs(box, n)
        assert (macro_moment_general(model, i, j, order)
                == macro_distribution(model, i, j).joint_moment(order))

    def test_third_moment_value(self):
        # Oracle: at settings (0, 0) the sums agree pairwise, so
        # <(A B)^3> = <A^6> for a sum of 4 fair +-1 steps = 544/... times 16ths.
        model = independent_pairs(make_pr_box(), 4)
        dist = macro_distribution_bruteforce(model, 0, 0)
        sixth = sum(F(x ** 6) * sum(dist.prob(x, y) for y in dist.support_values())
                    for x in dist.support_values())
        assert sixth == 544
        assert macro_moment_general(model, 0, 0, 3) == 544


class TestRohrlich:
    def test_pr_silent_setting(self):
        for n in range(1, 21):
            model = independent_pairs(make_pr_box(), n)
            assert rohrlich_conditional_variance(model, 1) == 0

    def test_pr_loud_setting(self):
        # Oracle for small n: enumerate Alice outcomes; each pair contributes
        # y0 + y1 = 2x, so the sum is 2 A and its second moment is 4 <A^2> = 4n.
        for n in (1, 2, 3, 4, 5):
            total = F(0)
            for xs in product((1, -1), repeat=n):
                weight = F(1, 2 ** n)
                total += weight * (2 * sum(xs)) ** 2
            assert total == 4 * n
            model = independent_pairs(make_pr_box(), n)
            assert rohrlich_conditional_variance(model, 0) == 4 * n
        assert rohrlich_conditional_variance(
            independent_pairs(make_pr_box(), 20), 0) == 80

    def test_deterministic_box(self):
        # Both conditionals are constant y=+1, so B0+B1 = 2n exactly.
        for n in (1, 3):
            model = independent_pairs(make_deterministic_box(1, 1, 1, 1), n)
            assert rohrlich_conditional_variance(model, 0) == 4 * n * n

    @pytest.mark.parametrize("box, pair_law", [
        *((box, lambda i, a=a, b=b, c=c: [
            (F(1, 2), sum(x * (-1) ** (i * j + a * i + b * j + c) for j in (0, 1)))
            for x in (1, -1)])
          for (a, b, c), box in zip(product((0, 1), repeat=3), pr_relabelings())),
        *((make_deterministic_box(x0, x1, y0, y1), lambda i, s=y0 + y1: [(1, s)])
          for x0, x1, y0, y1 in product((1, -1), repeat=4))])
    def test_matches_convolution(self, box, pair_law):
        # Oracle: one pair's law of s = y_0 + y_1 at Alice setting i, as
        # (probability, s) per Alice outcome from the formula that built the
        # box (x uniform on a PR box, fixed on a vertex), convolved N times.
        for i in (0, 1):
            law = {0: F(1)}
            for n in range(1, 9):
                convolved = {}
                for total, p in law.items():
                    for q, s in pair_law(i):
                        convolved[total + s] = convolved.get(total + s, 0) + p * q
                law = convolved
                assert rohrlich_conditional_variance(independent_pairs(box, n), i) == \
                    sum(total * total * p for total, p in law.items())

    def test_noisy_box_unsupported(self):
        model = independent_pairs(make_isotropic_box(F(1, 2)), 3)
        with pytest.raises(UnsupportedExtensionError, match=re.escape(
                "Bob's outcome at setting 0 is not determined by Alice's outcome 1 at "
                "setting 0 (conditional 3/4); the value assignment is undefined")):
            rohrlich_conditional_variance(model, 0)

    @given(box=no_signalling_boxes())
    @settings(max_examples=50, deadline=None)
    def test_every_box_is_assigned_or_undetermined(self, box):
        # A validated box's conditionals over y sum to 1, so some Bob
        # outcome is assigned unless a conditional lies strictly inside (0, 1).
        for i in range(box.s_a):
            try:
                rohrlich_conditional_variance(independent_pairs(box, 2), i)
            except UnsupportedExtensionError as exc:
                assert "is not determined by Alice's outcome" in str(exc)

    def test_explicit_model_unsupported(self):
        with pytest.raises(UnsupportedExtensionError):
            rohrlich_conditional_variance(explicit_from_box(make_pr_box(), 2), 0)

    def test_bad_setting(self):
        with pytest.raises(DomainError):
            rohrlich_conditional_variance(independent_pairs(make_pr_box(), 2), 5)


class TestJacobi:
    def test_diagonal_matrix(self):
        eigs = jacobi_eigenvalues([[3.0, 0.0], [0.0, -1.0]])
        assert eigs == [-1.0, 3.0]

    def test_known_two_by_two(self):
        # [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        eigs = jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert abs(eigs[0] - 1.0) < 1e-12
        assert abs(eigs[1] - 3.0) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            jacobi_eigenvalues([[1.0, 2.0], [0.0, 1.0]])

    def test_four_by_four_trace(self):
        rows = [[4.0, 1.0, 0.5, 0.0],
                [1.0, 3.0, 0.0, 0.5],
                [0.5, 0.0, 2.0, 1.0],
                [0.0, 0.5, 1.0, 1.0]]
        eigs = jacobi_eigenvalues(rows)
        assert abs(sum(eigs) - 10.0) < 1e-9


class TestGisinMatrix:
    def test_pr_same_side_entries_vanish(self):
        matrix = gisin_matrix(independent_pairs(make_pr_box(), 4))
        assert matrix.entries[0][1] == 0
        assert matrix.entries[2][3] == 0

    def test_pr_structure(self):
        n = 4
        matrix = gisin_matrix(independent_pairs(make_pr_box(), n))
        assert matrix.entries[0][0] == matrix.entries[3][3] == n
        assert matrix.entries[0][2] == n  # <A0 B0>
        assert matrix.entries[1][3] == -n  # <A1 B1>
        for p in range(4):
            for q in range(4):
                assert matrix.entries[p][q] == matrix.entries[q][p]

    @pytest.mark.parametrize("n", (4, 7))
    def test_pr_negative_eigenvalue_pair(self, n):
        matrix = gisin_matrix(independent_pairs(make_pr_box(), n))
        target = n * (1 - math.sqrt(2))
        close = [v for v in matrix.eigenvalues if abs(v - target) < 1e-9]
        assert len(close) == 2

    def test_trace_matches_eigenvalue_sum(self):
        matrix = gisin_matrix(independent_pairs(make_pr_box(), 5))
        trace = float(sum(matrix.entries[k][k] for k in range(4)))
        assert abs(sum(matrix.eigenvalues) - trace) < 1e-9

    def test_deterministic_box_nonnegative(self):
        matrix = gisin_matrix(independent_pairs(make_deterministic_box(1, 1, 1, 1), 4))
        assert all(v >= -1e-9 for v in matrix.eigenvalues)

    def test_needs_four_pairs(self):
        with pytest.raises(DomainError):
            gisin_matrix(independent_pairs(make_pr_box(), 3))

    @staticmethod
    def assert_same_side_entries_are_jpd_marginals(model):
        matrix = gisin_matrix(model)
        jpd = jpd_fluctuations(model)
        n = model.n
        for side, entry in ((ALICE, matrix.entries[0][1]), ("B", matrix.entries[2][3])):
            dist = jpd_marginal(jpd, [(side, 0, 0), (side, 1, 0)])
            assert entry == n * n * sum((a * b * p for (a, b), p in dist.items()), F(0))

    @settings(max_examples=10, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=4, max_value=6))
    def test_same_side_entries_are_jpd_marginals(self, box, n):
        self.assert_same_side_entries_are_jpd_marginals(independent_pairs(box, n))

    @settings(max_examples=20, deadline=None)
    @given(box=no_signalling_boxes(), n=st.integers(min_value=4, max_value=9))
    def test_pair_box_same_side_entries_match_matching_dp(self, box, n):
        # The factorised row sums of a pair box against the Fraction
        # matching DP's two-slot correlator, each on its own model.
        matrix = gisin_matrix(independent_pairs(box, n))
        for entry, slots in ((matrix.entries[0][1], ((0, 1), ())),
                             (matrix.entries[2][3], ((), (0, 1)))):
            model = independent_pairs(box, n)
            assert entry == n * n * _symmetrized_correlator(model, *slots)

    def test_joint_table_same_side_entries_are_jpd_marginals(self):
        # Shared randomness over all four pairs: with weight 1/3 every pair
        # answers det(+,-,+,-), with weight 2/3 det(+,+,-,-).
        n = 4
        branches = ((F(1, 3), (1, -1), (1, -1)), (F(2, 3), (1, 1), (-1, -1)))
        table = {}
        for sa in product((0, 1), repeat=n):
            for sb in product((0, 1), repeat=n):
                block = {}
                for weight, alice, bob in branches:
                    key = (tuple(alice[i] for i in sa), tuple(bob[j] for j in sb))
                    block[key] = block.get(key, F(0)) + weight
                table[(sa, sb)] = block
        model = explicit_joint(n, 2, 2, table)
        self.assert_same_side_entries_are_jpd_marginals(model)
        matrix = gisin_matrix(model)
        assert matrix.entries[0][1] == matrix.entries[2][3] == F(16, 3)


class TestMomentReport:
    def test_pr_report(self):
        report = moment_report(independent_pairs(make_pr_box(), 3), 0, 0)
        assert report.average_a == 0
        assert report.correlation == 3
        assert report.second_moment_a == 3
        assert report.joint_second_moment == 21
        assert report.variance_a == 3
        assert report.joint_variance == 21 - 9
        assert report.variance_a == report.second_moment_a - report.average_a ** 2
        assert abs(report.fluctuation_a - math.sqrt(3)) < 1e-12
        assert report.paths["joint_second_moment"] == "microscopic+effective"

    def test_variances_nonnegative(self):
        for box in (make_pr_box(), make_isotropic_box(F(1, 3)),
                    make_deterministic_box(1, -1, -1, 1)):
            for n in (1, 2, 4):
                report = moment_report(independent_pairs(box, n), 1, 0)
                assert report.variance_a >= 0
                assert report.variance_b >= 0
                assert report.joint_variance >= 0

    def test_single_pair_paths(self):
        report = moment_report(independent_pairs(make_pr_box(), 1), 0, 0)
        assert set(report.paths.values()) == {"microscopic+effective"}

    def test_json_fields(self):
        import json

        report = moment_report(independent_pairs(make_pr_box(), 2), 0, 1)
        payload = json.loads(report.to_json())
        assert payload["correlation"] == "2/1"
        assert payload["joint_second_moment"] == "8/1"
        assert payload["n"] == 2
