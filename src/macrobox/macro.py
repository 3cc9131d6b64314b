"""Macroscopic observables on box ensembles.

A macroscopic measurement sums one property over all N particles in a
region, so the observable outcomes are N, N-2, ..., -N per side.  Every
moment <A_i^p B_j^q> has one primary route, :func:`_moment`: the
coincidence expansion (:func:`_expansion`) over the distinct-particle
correlators of :func:`effective_correlator`, an integer closed form for a
pair box and the signed sums of the symmetrised entries for a joint
table.  The averages, correlations and second moments are checked: on a
pair box against the same expansion over the distinct-tuple sums of
:func:`_distinct_tuple_sum`, the one matching sum
:func:`~macrobox.symmetry._matching_sum` over signed row sums of
``box.weights``; on a joint table against the moment of its count law,
:func:`macro_distribution_bruteforce`, a scan of the stored block that
builds no marginal.  General k-th moments are checked by ``verify``'s
oracle row, against the law of :func:`macro_distribution`.  The expansion
sums integer numerators per denominator and builds one Fraction per
moment.  Also here: the exact distribution of the collective sums, held
as integer counts over one denominator, with Fractions built only when a
probability or moment is read (for independent pairs, one packed integer
per row of the law, checked against a brute-force enumeration oracle);
the conditional variance of the summed incompatible Bob observables under
a value assignment; and the 4x4 correlation matrix whose negative
eigenvalues constitute the macroscopic-limit paradox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Mapping

from .boxes import (
    ALICE,
    BOB,
    MINUS,
    ONE,
    OUTCOMES,
    PLUS,
    ZERO,
    PairBox,
    canonical_json,
    check_settings,
    rational_to_str,
)
from .ensemble import (
    EnsembleModel,
    IndependentPairs,
    SettingAssignment,
    _side_sum_counts,
)
from .errors import DomainError, PathDisagreementError, UnsupportedExtensionError
from .symmetry import _matching_sum, _symmetrized_correlator, effective_correlator


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


def _signed_row_sum(box: PairBox, i: int, j: int, alice: int, bob: int) -> int:
    """sum x^alice y^bob w(i, j, x, y) over the (i, j) row of ``box.weights``:
    L = ``box.scale`` times <a_i b_j> at (1, 1), <a_i> at (1, 0) and <b_j>
    at (0, 1), the other side's outcome summed out at its setting in the
    row.  Callers check the settings."""
    return sum(x ** alice * y ** bob * box.weights[(i, j, x, y)]
               for x in OUTCOMES for y in OUTCOMES)


def _distinct_tuple_sum(model: IndependentPairs, alice_settings: tuple,
                        bob_settings: tuple) -> Fraction:
    """Sum of the outcome-product correlator over ordered tuples of distinct
    Alice particles carrying ``alice_settings`` and distinct Bob particles
    carrying ``bob_settings``, on a pair box.  Callers check the settings.

    :func:`_matching_sum` over integer weights, each one
    :func:`_signed_row_sum`: row (i, 0) for an Alice slot alone on its pair,
    row (0, j) for a Bob slot alone, and L times row (i, j) for a matched
    pair, L = ``box.scale``.  Every term is then L^(a+b) times its
    correlator, and one Fraction is built.
    """
    box = model.box
    scale = box.scale
    return Fraction(_matching_sum(
        model.n, [_signed_row_sum(box, i, 0, 1, 0) for i in alice_settings],
        [_signed_row_sum(box, 0, j, 0, 1) for j in bob_settings],
        [[scale * _signed_row_sum(box, i, j, 1, 1) for j in bob_settings]
         for i in alice_settings]), scale ** (len(alice_settings) + len(bob_settings)))


def _expansion(n: int, p: int, q: int, correlator) -> Fraction:
    """The coincidence expansion of <A^p B^q> over N pairs.

    Expanding the product over index maps u: [p] -> [N], v: [q] -> [N] and
    using that squared +-1 outcomes drop out, each term reduces to a
    correlator over the r Alice (s Bob) particles hit an odd number of
    times, giving sum_{r,s} c(p, r, N) c(q, s, N) correlator(r, s) with c
    from :func:`odd_multiplicity_counts`.  A term whose count is 0 is never
    evaluated, so no correlator is asked for more slots than N pairs hold,
    and the empty correlator is 1 without being computed.  The sum runs on
    integers: each term's count times its correlator's numerator is added
    to the sum for that denominator, and the moment's one Fraction is built
    at the end.
    """
    counts_b = odd_multiplicity_counts(q, n)
    by_denominator: dict = {}  # denominator -> summed count * numerator
    for r, count_r in enumerate(odd_multiplicity_counts(p, n)):
        for s, count_s in enumerate(counts_b):
            if count_r and count_s:
                value = ONE if r == s == 0 else correlator(r, s)
                d = value.denominator
                by_denominator[d] = by_denominator.get(d, 0) + count_r * count_s * value.numerator
    scale = math.lcm(*by_denominator)
    return Fraction(sum(total * (scale // d) for d, total in by_denominator.items()), scale)


def _moment(model: EnsembleModel, i: int, j: int, p: int, q: int) -> Fraction:
    """<A_i^p B_j^q> by the primary route: :func:`_expansion` over
    :func:`effective_correlator`.  Callers check the settings."""
    return _expansion(model.n, p, q, lambda r, s: effective_correlator(model, i, j, r, s))


def _checked_moment(model: EnsembleModel, i: int, j: int, p: int, q: int) -> Fraction:
    """<A_i^p B_j^q> by :func:`_moment`, checked by an independent route
    that runs first.

    On a pair box the check is the same expansion over the distinct-tuple
    sums of :func:`_distinct_tuple_sum`, divided by (N)_r (N)_s: two
    independent algorithms over one input, ``box.weights``.  The closed
    form counts the matchings of m pairs as C(r, m) C(s, m) m! and reads
    only the (i, j) row's (P, A, B) through ``_correlator_row``.  The check
    sums the matchings in the subset DP of :func:`_matching_sum` and reads
    an unmatched slot's own row, (i, 0) or (0, j), through
    :func:`_signed_row_sum`.  On a joint table the check is the moment of
    the count law of (A_i, B_j), :func:`macro_distribution_bruteforce`: a
    scan of the stored (i, j) block that shares no code with the memoised
    marginals the primary route sums.
    """
    check_settings(model.s_a, model.s_b, i, j)
    n = model.n
    if isinstance(model, IndependentPairs):
        micro = _expansion(n, p, q, lambda r, s: _distinct_tuple_sum(
            model, (i,) * r, (j,) * s) / (math.perm(n, r) * math.perm(n, s)))
    else:
        micro = macro_distribution_bruteforce(model, i, j).moment(p, q)
    value = _moment(model, i, j, p, q)
    if micro != value:
        body = " ".join(f"{side}{setting}" for side, setting, power
                        in ((ALICE, i, p), (BOB, j, q)) if power)
        if max(p, q) > 1:
            body = f"({body})^{max(p, q)}" if p and q else f"{body}^{max(p, q)}"
        raise PathDisagreementError(
            f"<{body}>: microscopic sum {micro} != effective route {value}")
    return value


def _one_side(side: str, setting: int, power: int) -> tuple:
    """(i, j, p, q) of the moment of order ``power`` on ``side`` alone."""
    if side == ALICE:
        return setting, 0, power, 0
    if side == BOB:
        return 0, setting, 0, power
    raise DomainError(f"side must be {ALICE!r} or {BOB!r}, got {side!r}")


def macro_average(model: EnsembleModel, side: str, setting: int) -> Fraction:
    """<A_i> (or <B_j>): N times the one-slot correlator, checked."""
    return _checked_moment(model, *_one_side(side, setting, 1))


def macro_correlation(model: EnsembleModel, i: int, j: int) -> Fraction:
    """<A_i B_j>: N^2 times the one-slot-per-side correlator, checked."""
    return _checked_moment(model, i, j, 1, 1)


def macro_local_second_moment(model: EnsembleModel, side: str, setting: int) -> Fraction:
    """<A_i^2> (or <B_j^2>) = N + N (N-1) <a a'>, checked."""
    return _checked_moment(model, *_one_side(side, setting, 2))


def macro_joint_second_moment(model: EnsembleModel, i: int, j: int) -> Fraction:
    """<(A_i B_j)^2> = N^2 + N^2 (N-1) (<a a'> + <b b'>)
    + N^2 (N-1)^2 <a a' b b'>, checked."""
    return _checked_moment(model, i, j, 2, 2)


@dataclass(frozen=True)
class MacroDistribution:
    """Exact joint distribution of the two collective sums (A_i, B_j).

    Support lives on values of the same parity as N.  The law is held as
    integer ``counts`` over one ``scale``: a read-only map from every (X, Y)
    of the grid (X major, zeros included) to an int, with ``scale`` and the
    counts divided by their gcd on construction, so two distributions
    compare equal exactly when their laws are equal, whichever route built
    them.  Fractions are built only to hand out a probability or a moment.
    """

    n: int
    alice_setting: int
    bob_setting: int
    scale: int
    counts: Mapping  # (X, Y) -> int over scale, read-only

    def __post_init__(self) -> None:
        grid = {key: self.counts.get(key, 0)
                for key in product(self.support_values(), repeat=2)}
        common = math.gcd(self.scale, *grid.values())
        object.__setattr__(self, "scale", self.scale // common)
        object.__setattr__(self, "counts", MappingProxyType(
            {key: count // common for key, count in grid.items()}))

    def support_values(self) -> tuple:
        return tuple(range(-self.n, self.n + 1, 2))

    def prob(self, x_value: int, y_value: int) -> Fraction:
        return Fraction(self.counts.get((x_value, y_value), 0), self.scale)

    def rows(self):
        """``(X, Y, p)`` over the complete support grid, X major."""
        for (x_value, y_value), count in self.counts.items():
            yield x_value, y_value, Fraction(count, self.scale)

    def moment(self, p: int, q: int) -> Fraction:
        """<A^p B^q> = sum X^p Y^q count(X, Y) / scale, one Fraction; an
        order that is not a nonnegative int raises :class:`DomainError`."""
        _check_order(p)
        _check_order(q)
        return Fraction(sum(x_value ** p * y_value ** q * count
                            for (x_value, y_value), count in self.counts.items()), self.scale)

    def joint_moment(self, order: int) -> Fraction:
        """<(A B)^order>."""
        return self.moment(order, order)

    def alice_moment(self, order: int) -> Fraction:
        return self.moment(order, 0)

    def bob_moment(self, order: int) -> Fraction:
        return self.moment(0, order)

    def total(self) -> Fraction:
        """The sum of the probabilities, on integers: the moment of order 0."""
        return self.moment(0, 0)

    def to_csv(self) -> str:
        lines = ["X,Y,p"] + [f"{x},{y},{rational_to_str(p)}" for x, y, p in self.rows()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        entries = [{"X": x, "Y": y, "p": rational_to_str(p)} for x, y, p in self.rows()]
        return canonical_json({
            "n": self.n,
            "alice_setting": self.alice_setting,
            "bob_setting": self.bob_setting,
            "entries": entries,
        })


def macro_distribution(model: EnsembleModel, i: int, j: int) -> MacroDistribution:
    """Exact law of (A_i, B_j): the primary route.

    For independent pairs, let a and b count the -1 outcomes of Alice and
    Bob, and c_xy = ``box.weights[(i, j, x, y)]``.  The count of (a, b)
    over L^N, L = ``box.scale``, is C(N, a) times the coefficient of v^b in
    (c_-+ + c_-- v)^a (c_++ + c_+- v)^(N-a).  Each row is that product of
    powers as one packed integer, evaluated at v = 2^B with B the bits of
    L^N rounded up to whole bytes: no coefficient exceeds L^N, so none
    carries into the next, and one ``to_bytes`` reads the row back.  Row
    a + 1 is row a times Alice's -1 factor over her +1 factor, an exact
    division by a 2B-bit integer, so a row costs time linear in its
    length.  The counts go over L^N unchanged, and no Fraction is built
    (``isotropic:1/3``: 0.1 ms at N = 8, 20 ms at N = 100, 0.15 s at
    N = 200 in one process on a 2-core Xeon).  This
    reads only the box, never the model's support kernel or memo;
    :func:`macro_distribution_bruteforce`, its check, enumerates a support
    built from the same integer form.  Other models go to the brute force,
    which reads one block the joint table holds.
    """
    if not isinstance(model, IndependentPairs):
        return macro_distribution_bruteforce(model, i, j)
    check_settings(model.s_a, model.s_b, i, j)
    n, weights = model.n, model.box.weights
    denominator = model.box.scale ** n
    width = (denominator.bit_length() + 7) // 8  # bytes per packed coefficient
    shift = 8 * width
    alice_minus = weights[(i, j, MINUS, PLUS)] + (weights[(i, j, MINUS, MINUS)] << shift)
    alice_plus = weights[(i, j, PLUS, PLUS)] + (weights[(i, j, PLUS, MINUS)] << shift)
    # Row a + 1 is row a times one factor over the other, an exact
    # division; the walk starts at the row of the factor that is not 0.
    if alice_plus:
        rows, packed, up, down = range(n + 1), alice_plus ** n, alice_minus, alice_plus
    else:
        rows, packed, up, down = range(n, -1, -1), alice_minus ** n, alice_plus, alice_minus
    counts: dict = {}
    for a in rows:
        row = packed.to_bytes(width * (n + 1), "little")
        choose = math.comb(n, a)
        x_value = n - 2 * a
        for b in range(n + 1):
            counts[(x_value, n - 2 * b)] = choose * int.from_bytes(
                row[b * width:(b + 1) * width], "little")
        packed = packed * up // down
    return MacroDistribution(n=n, alice_setting=i, bob_setting=j, scale=denominator,
                             counts=counts)


def macro_distribution_bruteforce(model: EnsembleModel, i: int, j: int) -> MacroDistribution:
    """Oracle: sum the microscopic joint law under uniform settings.

    Streams the model's nonzero support once and sums its integer weights
    per (A, B), the sums of each side's outcomes
    (:func:`~macrobox.ensemble._side_sum_counts`), so no support is
    listed.  It deliberately shares no machinery with the packed powers of
    :func:`macro_distribution` or with the effective-distribution and
    coincidence-expansion routes, nor with the memoised marginals, so it
    is the independent check for all of them.  A joint table's scan reads
    one block it already holds.  A
    product model streams up to 4^N codes from one box (``isotropic:1/3``:
    6 ms at N = 6, 0.35 s at N = 9 on a 2-core Xeon, four times longer per
    extra pair), so the caller picks the size: ``verify``'s
    oracle-agreement row runs it on a product model only up to
    ``VERIFY_EXHAUSTIVE_LIMIT``.  Its callers are that row,
    :func:`macro_distribution` for models that are not independent pairs,
    :func:`_checked_moment`, whose check on a joint table is this law's
    :meth:`MacroDistribution.moment`, and the tests.

    The model memoises the distribution, which is read-only, under
    ``("count-law", i, j)``, so every caller reads one scan per setting
    pair; the settings are checked on every call, before the lookup.
    """
    check_settings(model.s_a, model.s_b, i, j)
    return model._memoized(("count-law", i, j), lambda: MacroDistribution(
        model.n, i, j, *_side_sum_counts(model, SettingAssignment.uniform(model.n, i, j))))


def macro_moment_general(model: EnsembleModel, i: int, j: int, order: int) -> Fraction:
    """<(A_i B_j)^order> by :func:`_moment`."""
    check_settings(model.s_a, model.s_b, i, j)
    _check_order(order)
    return _moment(model, i, j, order, order)


def _check_order(order) -> None:
    if type(order) is not int or order < 0:
        raise DomainError(f"moment order must be a nonnegative int, got {order!r}")


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
    check_settings(model.s_a, model.s_b, alice_setting, 0)
    mean = ZERO
    mean_square = ZERO
    for x in OUTCOMES:
        p_x = box.marginal_a(alice_setting, x)
        if p_x == 0:
            continue
        assigned_sum = 0
        # The box is validated, so the conditionals over y sum to 1: either
        # one of them is 1, or one lies strictly between 0 and 1.
        for j in (0, 1):
            for y in OUTCOMES:
                conditional = box.prob(alice_setting, j, x, y) / p_x
                if conditional == 1:
                    assigned_sum += y
                elif conditional != 0:
                    raise UnsupportedExtensionError(
                        f"Bob's outcome at setting {j} is not determined by Alice's "
                        f"outcome {x} at setting {alice_setting} "
                        f"(conditional {conditional}); the value assignment is undefined")
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
    side, a marginal of the symmetrized two-slot distribution.  Two such
    slots sit on distinct particles, so for independent pairs the correlator
    factorises: <A0 A1> = N^2 A_0 A_1 / L^2, with A_i = sum x w(i, 0, x, y)
    the :func:`_signed_row_sum` of Alice's row and L = ``box.scale``, and
    <B0 B1> likewise from Bob's rows.  Any other model takes the
    :func:`_symmetrized_correlator` of the two slots, without building the
    JPD's 2^8 entries; on a pair box that sum is the tests' check.
    """
    if model.s_a != 2 or model.s_b != 2:
        raise DomainError("the correlation matrix is defined for 2 settings per side")
    if model.n < 4:
        raise DomainError(
            f"the same-side entries need the fluctuations JPD, hence n >= 4; got {model.n}")
    n = model.n
    second_a = [macro_local_second_moment(model, ALICE, s) for s in (0, 1)]
    second_b = [macro_local_second_moment(model, BOB, s) for s in (0, 1)]
    cross = {(i, j): macro_correlation(model, i, j)
             for i in (0, 1) for j in (0, 1)}
    if isinstance(model, IndependentPairs):
        box = model.box
        alice = [_signed_row_sum(box, i, 0, 1, 0) for i in (0, 1)]
        bob = [_signed_row_sum(box, 0, j, 0, 1) for j in (0, 1)]
        a0a1 = Fraction(n * n * alice[0] * alice[1], box.scale ** 2)
        b0b1 = Fraction(n * n * bob[0] * bob[1], box.scale ** 2)
    else:
        a0a1 = n * n * _symmetrized_correlator(model, (0, 1), ())
        b0b1 = n * n * _symmetrized_correlator(model, (), (0, 1))
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
    paths: Mapping  # read-only

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", MappingProxyType(dict(self.paths)))

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
    paths = {name: "microscopic+effective" for name in (
        "average_a", "average_b", "correlation",
        "second_moment_a", "second_moment_b", "joint_second_moment")}
    return MomentReport(
        n=n, alice_setting=i, bob_setting=j,
        average_a=average_a, average_b=average_b, correlation=correlation,
        second_moment_a=second_a, second_moment_b=second_b,
        joint_second_moment=joint_second,
        variance_a=variance_a, variance_b=variance_b,
        joint_variance=joint_variance, paths=paths)
