"""Macroscopic moments, the enumeration oracle, and the discussion quantities."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrobox import (
    ALICE,
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
    moment_report,
    odd_multiplicity_counts,
    rohrlich_conditional_variance,
)
from macrobox import macro
from macrobox.macro import _distinct_tuple_sum
from tests.conftest import (
    all_deterministic_boxes,
    explicit_from_box,
    mixed_denominator_box,
    no_signalling_boxes,
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
            ((i, i), (j, j)), ((0, 1), (1, 0)), ((0, 1, 0), (1,))]


class TestDistinctTupleSum:
    @staticmethod
    def _assert_branches_agree(box):
        # The product branch's weighted matchings against the literal loop
        # over distinct index tuples, which a wrapped table always takes.
        for n in range(1, 5):
            matchings = independent_pairs(box, n)
            literal = explicit_from_box(box, n)
            for i, j in SETTINGS:
                for alice, bob in _slot_shapes(i, j):
                    assert (_distinct_tuple_sum(matchings, alice, bob)
                            == _distinct_tuple_sum(literal, alice, bob)), (n, alice, bob)

    def test_pr_box(self):
        self._assert_branches_agree(make_pr_box())

    @given(box=no_signalling_boxes())
    @settings(max_examples=3, deadline=None)
    def test_no_signalling_boxes(self, box):
        self._assert_branches_agree(box)

    def test_product_average_queries_one_marginal(self, monkeypatch):
        specs = []
        real = macro.marginal_correlator

        def counting(model, spec, *args, **kwargs):
            specs.append(list(spec))
            return real(model, spec, *args, **kwargs)

        monkeypatch.setattr("macrobox.macro.marginal_correlator", counting)
        assert macro_average(independent_pairs(make_pr_box(), 9), ALICE, 0) == 0
        assert specs == [[(ALICE, 0, 0)]]

    def test_average_checks_effective_route(self, monkeypatch):
        monkeypatch.setattr("macrobox.macro.effective_correlator",
                            lambda model, i, j, a, b: F(1, 7))
        model = independent_pairs(make_pr_box(), 3)
        for side in (ALICE, "B"):
            with pytest.raises(PathDisagreementError, match="effective route 3/7"):
                macro_average(model, side, 0)

    def test_average_rejects_unknown_side(self):
        with pytest.raises(DomainError, match="side must be"):
            macro_average(independent_pairs(make_pr_box(), 2), "C", 0)


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
        joint = explicit_from_box(make_pr_box(), 3)
        dist = macro_distribution_bruteforce(joint, 0, 0)
        assert dist == macro_distribution_bruteforce(independent_pairs(make_pr_box(), 3), 0, 0)
        assert macro_distribution(joint, 0, 0) == dist

    def test_csv_layout(self):
        dist = macro_distribution_bruteforce(independent_pairs(make_pr_box(), 1), 0, 0)
        lines = dist.to_csv().splitlines()
        assert lines[0] == "X,Y,p"
        assert lines[1] == "-1,-1,1/2"
        assert len(lines) == 5


class TestConvolutionDistribution:
    """``macro_distribution`` (convolution) against the brute-force oracle."""

    @staticmethod
    def assert_matches_oracle(model):
        for i, j in SETTINGS:
            primary = macro_distribution(model, i, j)
            oracle = macro_distribution_bruteforce(model, i, j)
            assert primary == oracle
            assert list(primary.probs) == list(oracle.probs)

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
            raise AssertionError("the convolution read the model's kernel or memo")

        model = independent_pairs(make_isotropic_box(F(1, 2)), 3)
        oracle = macro_distribution_bruteforce(model, 1, 0)
        monkeypatch.setattr(IndependentPairs, "_support", forbidden)
        monkeypatch.setattr(IndependentPairs, "_memoized", forbidden)
        assert macro_distribution(model, 1, 0) == oracle
        assert macro_distribution(independent_pairs(make_pr_box(), 40), 1, 1).total() == 1

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

    def test_noisy_box_unsupported(self):
        model = independent_pairs(make_isotropic_box(F(1, 2)), 3)
        with pytest.raises(UnsupportedExtensionError):
            rohrlich_conditional_variance(model, 0)

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
        assert report.paths["second_moment_a"] == "microscopic"
        assert report.paths["average_a"] == report.paths["average_b"] == "microscopic+effective"

    def test_json_fields(self):
        import json

        report = moment_report(independent_pairs(make_pr_box(), 2), 0, 1)
        payload = json.loads(report.to_json())
        assert payload["correlation"] == "2/1"
        assert payload["joint_second_moment"] == "8/1"
        assert payload["n"] == 2
