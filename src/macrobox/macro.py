"""Macroscopic observables on box ensembles.

A macroscopic measurement sums one property over all N particles in a
region, so the observable outcomes are N, N-2, ..., -N per side.  This
module computes correlations, second moments and general k-th moments of
the collective products, each by at least two independent routes that must
agree exactly; the exact distribution of the collective sums (an integer
convolution for independent pairs, checked against a brute-force
enumeration oracle); the conditional variance of the summed incompatible
Bob observables under a value assignment; and the 4x4 correlation matrix
whose negative eigenvalues constitute the macroscopic-limit paradox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Mapping

from .boxes import (
    ALICE,
    BOB,
    ONE,
    OUTCOMES,
    ZERO,
    canonical_json,
    pair_correlation,
    rational_to_str,
)
from .ensemble import (
    EnsembleModel,
    IndependentPairs,
    SettingAssignment,
    _as_law,
    _support_counts,
    marginal_correlator,
)
from .errors import DomainError, PathDisagreementError, UnsupportedExtensionError
from .symmetry import (
    _symmetrized_entries,
    effective_correlator,
    effective_pair,
    effective_quad,
    matching_assignment_count,
)


def odd_multiplicity_counts(length: int, symbols: int) -> list:
    """counts[r] = number of maps from ``length`` positions to ``symbols``
    values in which exactly r values occur an odd number of times.

    Computed by the parity DP: appending a position either makes one of the
    (symbols - r) even-count values odd, or one of the r odd-count values
    even.  Sum over r equals symbols**length.
    """
    if length < 0:
        raise DomainError(f"sequence length must be nonnegative, got {length}")
    if symbols < 1:
        raise DomainError(f"need at least one symbol, got {symbols}")
    state = {0: 1}
    for _ in range(length):
        advanced: dict = {}
        for odd, count in state.items():
            if odd < symbols:
                advanced[odd + 1] = advanced.get(odd + 1, 0) + count * (symbols - odd)
            if odd > 0:
                advanced[odd - 1] = advanced.get(odd - 1, 0) + count * odd
        state = advanced
    return [state.get(r, 0) for r in range(length + 1)]


def _require_settings(model: EnsembleModel, i: int, j: int) -> None:
    if not (0 <= i < model.s_a):
        raise DomainError(f"alice setting {i} out of range (s_a={model.s_a})")
    if not (0 <= j < model.s_b):
        raise DomainError(f"bob setting {j} out of range (s_b={model.s_b})")


def _distinct_tuple_sum(model: EnsembleModel, alice_settings: tuple,
                        bob_settings: tuple) -> Fraction:
    """Sum of :func:`marginal_correlator` over ordered tuples of distinct
    Alice particles carrying ``alice_settings`` and distinct Bob particles
    carrying ``bob_settings``.

    A joint table gets the literal loop, one term per index tuple.  For a
    product model a term depends only on which Bob slot shares its pair
    with which Alice slot, so the sum visits each partial matching of Bob
    slots onto Alice slots once: Alice slot u sits on particle u, a matched
    Bob slot on its partner's particle, and the unmatched Bob slots on
    fresh particles a, a+1, ....  Each term is weighted by
    :func:`matching_assignment_count`; a term of weight 0 (too few pairs
    for that many distinct particles) is never evaluated, so no
    out-of-range particle is asked for.
    """
    n = model.n
    a, b = len(alice_settings), len(bob_settings)
    if not isinstance(model, IndependentPairs):
        total = ZERO
        for alice in permutations(range(n), a):
            alice_spec = [(ALICE, k, s) for k, s in zip(alice, alice_settings)]
            for bob in permutations(range(n), b):
                total += marginal_correlator(
                    model, alice_spec + [(BOB, l, s) for l, s in zip(bob, bob_settings)])
        return total
    alice_spec = [(ALICE, u, s) for u, s in enumerate(alice_settings)]
    total = ZERO
    for partners in product(range(a + 1), repeat=b):  # a marks an unmatched slot
        matched = [u for u in partners if u < a]
        if len(set(matched)) < len(matched):
            continue
        weight = matching_assignment_count(n, len(matched), a, b)
        if weight:
            fresh = iter(range(a, a + b))
            bob_spec = [(BOB, u if u < a else next(fresh), s)
                        for u, s in zip(partners, bob_settings)]
            total += weight * marginal_correlator(model, alice_spec + bob_spec)
    return total


def _one_side(model: EnsembleModel, side: str, settings: tuple) -> tuple:
    """(alice settings, bob settings) with ``settings`` on ``side`` only."""
    if side == ALICE:
        _require_settings(model, settings[0], 0)
        return settings, ()
    if side == BOB:
        _require_settings(model, 0, settings[0])
        return (), settings
    raise DomainError(f"side must be {ALICE!r} or {BOB!r}, got {side!r}")


def macro_average(model: EnsembleModel, side: str, setting: int) -> Fraction:
    """<A_i> (or <B_j>): sum of the single-particle means, cross-checked
    against N <a>_eff, N times the effective one-slot mean."""
    micro = _distinct_tuple_sum(model, *_one_side(model, side, (setting,)))
    if side == ALICE:
        mean = effective_correlator(model, setting, 0, 1, 0)
    else:
        mean = effective_correlator(model, 0, setting, 0, 1)
    via_effective = model.n * mean
    if micro != via_effective:
        raise PathDisagreementError(
            f"<{side}{setting}>: microscopic sum {micro} != effective route {via_effective}")
    return micro


def macro_correlation(model: EnsembleModel, i: int, j: int) -> Fraction:
    """<A_i B_j>, by the microscopic double sum and by N^2 times the
    effective-pair correlation; the two routes must agree exactly."""
    _require_settings(model, i, j)
    n = model.n
    micro = _distinct_tuple_sum(model, (i,), (j,))
    via_effective = n * n * pair_correlation(effective_pair(model), i, j)
    if micro != via_effective:
        raise PathDisagreementError(
            f"<A{i} B{j}>: microscopic sum {micro} != effective route {via_effective}")
    return micro


def macro_local_second_moment(model: EnsembleModel, side: str, setting: int) -> Fraction:
    """<A_i^2> (or <B_j^2>) = N + sum over distinct particle pairs of the
    same-side two-particle correlators; cross-checked against
    N (1 + (N-1) <a a'>_eff) whenever N >= 2."""
    slots = _one_side(model, side, (setting, setting))
    n = model.n
    micro = n + _distinct_tuple_sum(model, *slots)
    if n >= 2:
        if side == ALICE:
            same = effective_correlator(model, setting, 0, 2, 0)
        else:
            same = effective_correlator(model, 0, setting, 0, 2)
        via_effective = n * (1 + (n - 1) * same)
        if micro != via_effective:
            raise PathDisagreementError(
                f"<{side}{setting}^2>: microscopic sum {micro} != effective "
                f"route {via_effective}")
    return micro


def macro_joint_second_moment(model: EnsembleModel, i: int, j: int) -> Fraction:
    """<(A_i B_j)^2> by the coincidence expansion
    N^2 + N sum <a a'> + N sum <b b'> + sum <a a' b b'>
    over distinct index pairs, cross-checked against the effective-quad
    form N^2 (N-1) (1/(N-1) + <a a'> + <b b'> + (N-1) <a a' b b'>) for N >= 2."""
    _require_settings(model, i, j)
    n = model.n
    micro = (n * n
             + n * _distinct_tuple_sum(model, (i, i), ())
             + n * _distinct_tuple_sum(model, (), (j, j))
             + _distinct_tuple_sum(model, (i, i), (j, j)))
    if n >= 2:
        quad = effective_quad(model)
        via_effective = n * n * (n - 1) * (
            Fraction(1, n - 1)
            + quad.alice_pair_correlator(i, j)
            + quad.bob_pair_correlator(i, j)
            + (n - 1) * quad.quad_correlator(i, j))
        if micro != via_effective:
            raise PathDisagreementError(
                f"<(A{i} B{j})^2>: microscopic sum {micro} != effective "
                f"route {via_effective}")
    return micro


@dataclass(frozen=True)
class MacroDistribution:
    """Exact joint distribution of the two collective sums (A_i, B_j).

    Support lives on values of the same parity as N; the table is complete
    over that grid, zeros included.
    """

    n: int
    alice_setting: int
    bob_setting: int
    probs: Mapping  # (X, Y) -> Fraction

    def support_values(self) -> tuple:
        return tuple(range(-self.n, self.n + 1, 2))

    def prob(self, x_value: int, y_value: int) -> Fraction:
        return self.probs.get((x_value, y_value), ZERO)

    def joint_moment(self, order: int) -> Fraction:
        """<(A B)^order> = sum (X Y)^order p(X, Y)."""
        total = ZERO
        for (x_value, y_value), p in self.probs.items():
            total += (x_value * y_value) ** order * p
        return total

    def alice_moment(self, order: int) -> Fraction:
        total = ZERO
        for (x_value, _), p in self.probs.items():
            total += x_value ** order * p
        return total

    def bob_moment(self, order: int) -> Fraction:
        total = ZERO
        for (_, y_value), p in self.probs.items():
            total += y_value ** order * p
        return total

    def total(self) -> Fraction:
        return sum(self.probs.values(), ZERO)

    def to_csv(self) -> str:
        lines = ["X,Y,p"]
        for x_value in self.support_values():
            for y_value in self.support_values():
                lines.append(
                    f"{x_value},{y_value},{rational_to_str(self.prob(x_value, y_value))}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        entries = []
        for x_value in self.support_values():
            for y_value in self.support_values():
                entries.append({
                    "X": x_value,
                    "Y": y_value,
                    "p": rational_to_str(self.prob(x_value, y_value)),
                })
        return canonical_json({
            "n": self.n,
            "alice_setting": self.alice_setting,
            "bob_setting": self.bob_setting,
            "entries": entries,
        })


def macro_distribution(model: EnsembleModel, i: int, j: int) -> MacroDistribution:
    """Exact law of (A_i, B_j): the primary route.

    For independent pairs, (A_i, B_j) is a sum of N iid copies of the
    box's (x, y) law at (i, j).  The four cells are scaled to integers by
    their lcm L and that 4-point step is convolved N times over the running
    sums, O(N^3) integer work, with one Fraction(count, L^N) per grid
    point (``isotropic:1/3``: 0.3 s at N = 100, 2.7 s at N = 200 on a
    2-core Xeon).  This reads only the box, never the model's support
    kernel or memo, so :func:`macro_distribution_bruteforce` stays an
    independent check.  Other models go to the brute force, which reads
    one block the joint table holds.
    """
    if not isinstance(model, IndependentPairs):
        return macro_distribution_bruteforce(model, i, j)
    _require_settings(model, i, j)
    n = model.n
    cells = [(x, y, model.box.prob(i, j, x, y)) for x in OUTCOMES for y in OUTCOMES]
    scale = math.lcm(*(p.denominator for _, _, p in cells))
    step = [(x, y, p.numerator * (scale // p.denominator)) for x, y, p in cells if p]
    counts = {(0, 0): 1}
    for _ in range(n):
        advanced: dict = {}
        for (x_sum, y_sum), count in counts.items():
            for x, y, weight in step:
                key = (x_sum + x, y_sum + y)
                advanced[key] = advanced.get(key, 0) + count * weight
        counts = advanced
    denominator = scale ** n
    grid = {(x_value, y_value): Fraction(counts.get((x_value, y_value), 0), denominator)
            for x_value in range(-n, n + 1, 2)
            for y_value in range(-n, n + 1, 2)}
    return MacroDistribution(n=n, alice_setting=i, bob_setting=j, probs=grid)


def macro_distribution_bruteforce(model: EnsembleModel, i: int, j: int) -> MacroDistribution:
    """Oracle: sum the microscopic joint law under uniform settings.

    Scans the model's nonzero support and deliberately shares no machinery
    with the convolution of :func:`macro_distribution` or with the
    effective-distribution and coincidence-expansion routes, so it is the
    independent check for all of them.  A joint table's scan reads one
    block it already holds.  A product model streams up to 4^N outcome
    tuples from one box (``isotropic:1/3``: 7 ms at N = 6, 0.5 s at N = 9
    on a 2-core Xeon, four times longer per extra pair), so the caller
    picks the size: ``verify``'s oracle-agreement row runs it on a product
    model only up to ``VERIFY_EXHAUSTIVE_LIMIT``.  Its callers are
    that row, :func:`macro_distribution` for models that are not
    independent pairs, and the tests.
    """
    _require_settings(model, i, j)
    n = model.n
    law = _as_law(*_support_counts(model, SettingAssignment.uniform(n, i, j),
                                   lambda combined: (sum(combined[:n]), sum(combined[n:]))))
    grid = {(x_value, y_value): law.get((x_value, y_value), ZERO)
            for x_value in range(-n, n + 1, 2)
            for y_value in range(-n, n + 1, 2)}
    return MacroDistribution(n=n, alice_setting=i, bob_setting=j, probs=grid)


def macro_moment_general(model: EnsembleModel, i: int, j: int, order: int) -> Fraction:
    """<(A_i B_j)^order> via the coincidence-pattern expansion.

    Expanding the product over index maps u, v: [order] -> [N] and using
    that squared +-1 outcomes drop out, each term reduces to a correlator
    over the r (resp. s) particles hit an odd number of times, giving
    sum_{r,s} c(order, r, N) c(order, s, N) E_eff(r, s) with c the parity
    DP counts and E_eff the distinct-tuple average correlator.
    """
    _require_settings(model, i, j)
    if order < 0:
        raise DomainError(f"moment order must be nonnegative, got {order}")
    if order == 0:
        return ONE
    counts = odd_multiplicity_counts(order, model.n)
    total = ZERO
    for r, count_r in enumerate(counts):
        if count_r == 0:
            continue
        for s, count_s in enumerate(counts):
            if count_s == 0:
                continue
            total += count_r * count_s * effective_correlator(model, i, j, r, s)
    return total


def rohrlich_conditional_variance(model: EnsembleModel, alice_setting: int) -> Fraction:
    """<(B_0 + B_1)^2> when both Bob outcomes are assigned jointly.

    The box formalism only defines Bob's outcome for the setting actually
    measured; this extension assigns values to both Bob settings at once and
    is meaningful only when the box determines each Bob outcome from Alice's
    outcome.  Per pair: draw x from Alice's marginal at ``alice_setting``,
    set y_0 and y_1 through the deterministic conditionals, and take the
    exact second moment of the sum over independent pairs.
    """
    if not isinstance(model, IndependentPairs):
        raise UnsupportedExtensionError(
            "the joint value assignment is defined only for independent identical pairs")
    box = model.box
    if box.s_b < 2:
        raise DomainError("the summed Bob observable needs Bob settings 0 and 1")
    _require_settings(model, alice_setting, 0)
    mean = ZERO
    mean_square = ZERO
    for x in OUTCOMES:
        p_x = box.marginal_a(alice_setting, x)
        if p_x == 0:
            continue
        assigned_sum = 0
        for j in (0, 1):
            assigned = None
            for y in OUTCOMES:
                conditional = box.prob(alice_setting, j, x, y) / p_x
                if conditional == 1:
                    assigned = y
                elif conditional != 0:
                    raise UnsupportedExtensionError(
                        f"Bob's outcome at setting {j} is not determined by Alice's "
                        f"outcome {x} at setting {alice_setting} "
                        f"(conditional {conditional}); the value assignment is undefined")
            if assigned is None:
                raise UnsupportedExtensionError(
                    f"no Bob outcome at setting {j} given Alice outcome {x}")
            assigned_sum += assigned
        mean += p_x * assigned_sum
        mean_square += p_x * assigned_sum * assigned_sum
    n = model.n
    return n * mean_square + n * (n - 1) * mean * mean


JACOBI_OFF_TOLERANCE = 1e-12
JACOBI_MAX_SWEEPS = 64


def jacobi_eigenvalues(matrix) -> list:
    """Eigenvalues of a small symmetric float matrix by cyclic Jacobi sweeps.

    Rotations repeat until the off-diagonal Frobenius norm drops below
    ``JACOBI_OFF_TOLERANCE``.  Returns the eigenvalues sorted ascending.
    """
    size = len(matrix)
    work = [[float(v) for v in row] for row in matrix]
    for p in range(size):
        for q in range(size):
            if work[p][q] != work[q][p]:
                raise DomainError("matrix must be exactly symmetric")
    for _ in range(JACOBI_MAX_SWEEPS):
        off_square = sum(work[p][q] ** 2
                         for p in range(size) for q in range(size) if p != q)
        if math.sqrt(off_square) < JACOBI_OFF_TOLERANCE:
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                if work[p][q] == 0.0:
                    continue
                theta = (work[q][q] - work[p][p]) / (2.0 * work[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(size):
                    akp, akq = work[k][p], work[k][q]
                    work[k][p] = c * akp - s * akq
                    work[k][q] = s * akp + c * akq
                for k in range(size):
                    apk, aqk = work[p][k], work[q][k]
                    work[p][k] = c * apk - s * aqk
                    work[q][k] = s * apk + c * aqk
    else:
        raise PathDisagreementError("jacobi sweeps did not converge")
    return sorted(work[k][k] for k in range(size))


@dataclass(frozen=True)
class GisinMatrix:
    """4x4 correlation matrix in the basis (A0, A1, B0, B1).

    Diagonal and cross-side entries come from the microscopic moments; the
    same-side off-diagonal entries cannot be measured microscopically and
    are the fluctuations JPD's two-slot marginals.  Mixing entry origins
    like this is what produces the negative eigenvalues.
    """

    n: int
    entries: tuple  # 4x4 nested tuples of Fractions
    eigenvalues: tuple  # floats, ascending

    BASIS = ("A0", "A1", "B0", "B1")

    def to_json(self) -> str:
        return canonical_json({
            "n": self.n,
            "basis": list(self.BASIS),
            "matrix": [[rational_to_str(v) for v in row] for row in self.entries],
            "eigenvalues": [format(v, ".12g") for v in self.eigenvalues],
        })


def gisin_matrix(model: EnsembleModel) -> GisinMatrix:
    """Correlation matrix of (A0, A1, B0, B1) with JPD-derived same-side entries.

    Needs N >= 4 because <A0 A1> and <B0 B1> are defined by the fluctuations
    JPD: N^2 times the correlator of its setting-0 and setting-1 slots on one
    side.  That marginal is the symmetrized two-slot distribution, so each
    entry is read from :func:`_symmetrized_entries` for those two slots
    alone, without building the JPD's 2^8 entries.
    """
    if model.s_a != 2 or model.s_b != 2:
        raise DomainError("the correlation matrix is defined for 2 settings per side")
    if model.n < 4:
        raise DomainError(
            f"the same-side entries need the fluctuations JPD, hence n >= 4; got {model.n}")
    n = model.n

    def same_side_entry(side: str) -> Fraction:
        entries = _symmetrized_entries(model, *_one_side(model, side, (0, 1)))
        correlator = sum((math.prod(a_out + b_out) * p
                          for (a_out, b_out), p in entries.items()), ZERO)
        return n * n * correlator

    second_a = [macro_local_second_moment(model, ALICE, s) for s in (0, 1)]
    second_b = [macro_local_second_moment(model, BOB, s) for s in (0, 1)]
    cross = {(i, j): macro_correlation(model, i, j)
             for i in (0, 1) for j in (0, 1)}
    a0a1 = same_side_entry(ALICE)
    b0b1 = same_side_entry(BOB)
    rows = (
        (second_a[0], a0a1, cross[(0, 0)], cross[(0, 1)]),
        (a0a1, second_a[1], cross[(1, 0)], cross[(1, 1)]),
        (cross[(0, 0)], cross[(1, 0)], second_b[0], b0b1),
        (cross[(0, 1)], cross[(1, 1)], b0b1, second_b[1]),
    )
    eigenvalues = tuple(jacobi_eigenvalues([[float(v) for v in row] for row in rows]))
    return GisinMatrix(n=n, entries=rows, eigenvalues=eigenvalues)


@dataclass(frozen=True)
class MomentReport:
    """Macroscopic averages, second moments and fluctuations for one (i, j).

    Variances are exact rationals (delta squared); the square roots are the
    only floats.  ``paths`` records which computation routes produced and
    cross-checked each value.
    """

    n: int
    alice_setting: int
    bob_setting: int
    average_a: Fraction
    average_b: Fraction
    correlation: Fraction
    second_moment_a: Fraction
    second_moment_b: Fraction
    joint_second_moment: Fraction
    variance_a: Fraction
    variance_b: Fraction
    joint_variance: Fraction
    paths: Mapping

    @property
    def fluctuation_a(self) -> float:
        return math.sqrt(self.variance_a)

    @property
    def fluctuation_b(self) -> float:
        return math.sqrt(self.variance_b)

    @property
    def joint_fluctuation(self) -> float:
        return math.sqrt(self.joint_variance)

    def to_json(self) -> str:
        return canonical_json({
            "n": self.n,
            "alice_setting": self.alice_setting,
            "bob_setting": self.bob_setting,
            "average_a": rational_to_str(self.average_a),
            "average_b": rational_to_str(self.average_b),
            "correlation": rational_to_str(self.correlation),
            "second_moment_a": rational_to_str(self.second_moment_a),
            "second_moment_b": rational_to_str(self.second_moment_b),
            "joint_second_moment": rational_to_str(self.joint_second_moment),
            "variance_a": rational_to_str(self.variance_a),
            "variance_b": rational_to_str(self.variance_b),
            "joint_variance": rational_to_str(self.joint_variance),
            "fluctuation_a": format(self.fluctuation_a, ".12g"),
            "fluctuation_b": format(self.fluctuation_b, ".12g"),
            "joint_fluctuation": format(self.joint_fluctuation, ".12g"),
            "paths": dict(self.paths),
        })


def moment_report(model: EnsembleModel, i: int, j: int) -> MomentReport:
    """Assemble the full moment report for settings (i, j)."""
    n = model.n
    average_a = macro_average(model, ALICE, i)
    average_b = macro_average(model, BOB, j)
    correlation = macro_correlation(model, i, j)
    second_a = macro_local_second_moment(model, ALICE, i)
    second_b = macro_local_second_moment(model, BOB, j)
    joint_second = macro_joint_second_moment(model, i, j)
    variance_a = second_a - average_a * average_a
    variance_b = second_b - average_b * average_b
    joint_variance = joint_second - correlation * correlation
    for name, value in (("A", variance_a), ("B", variance_b), ("AB", joint_variance)):
        if value < 0:
            raise PathDisagreementError(
                f"negative variance for {name}: {value}; the model is inconsistent")
    dual = "microscopic+effective" if n >= 2 else "microscopic"
    paths = {
        "average_a": "microscopic+effective",
        "average_b": "microscopic+effective",
        "correlation": "microscopic+effective",
        "second_moment_a": dual,
        "second_moment_b": dual,
        "joint_second_moment": dual,
    }
    return MomentReport(
        n=n, alice_setting=i, bob_setting=j,
        average_a=average_a, average_b=average_b, correlation=correlation,
        second_moment_a=second_a, second_moment_b=second_b,
        joint_second_moment=joint_second,
        variance_a=variance_a, variance_b=variance_b,
        joint_variance=joint_variance, paths=paths)
