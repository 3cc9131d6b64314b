"""Shared fixtures and strategies: crafted models and random no-signalling boxes.

``HYPOTHESIS_PROFILE=ci`` loads a derandomised profile, so a failure on CI
reproduces exactly with the same command and prints its reproduction blob.
"""

import math
import os
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from macrobox import (
    OUTCOMES,
    PairBox,
    explicit_joint,
    independent_pairs,
    make_deterministic_box,
    make_pr_box,
    marginal,
    OutcomeAssignment,
    SettingAssignment,
    symmetry,
)

ZERO = Fraction(0)

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def explicit_from_box(box, n):
    """Wrap n independent copies of a box as an explicit joint table.

    Same physics as independent_pairs(box, n) but forced through the generic
    (non-product) code paths, which makes it a cross-path oracle.
    """
    model = independent_pairs(box, n)
    table = {}
    for sa in product(range(box.s_a), repeat=n):
        for sb in product(range(box.s_b), repeat=n):
            block = {}
            for oa in product(OUTCOMES, repeat=n):
                for ob in product(OUTCOMES, repeat=n):
                    p = model.joint_probability(SettingAssignment(sa, sb),
                                                OutcomeAssignment(oa, ob))
                    if p != 0:
                        block[(oa, ob)] = p
            table[(sa, sb)] = block
    return explicit_joint(n, box.s_a, box.s_b, table)


def signalling_joint_table():
    """One-pair joint table where Alice's marginal tracks Bob's setting.

    Bob's marginal is uniform under every assignment and the rows for the
    two Alice settings are identical, so the only signalling direction is
    Bob-to-Alice: at j=0 Alice is uniform, at j=1 she is pinned to +1.
    """
    half = Fraction(1, 2)
    correlated = {((1,), (1,)): half, ((-1,), (-1,)): half}
    pinned = {((1,), (1,)): half, ((1,), (-1,)): half}
    table = {}
    for i in (0, 1):
        table[((i,), (0,))] = dict(correlated)
        table[((i,), (1,))] = dict(pinned)
    return table


@pytest.fixture
def signalling_model():
    return explicit_joint(1, 2, 2, signalling_joint_table())


def cross_pair_signalling_table(n=2):
    """``n``-pair table where Alice particle 0's setting steers Bob's last
    particle (two pairs unless ``n`` says otherwise).

    All outcomes are independent fair coins except the last Bob outcome,
    which stays uniform at i_1=0 but is pinned to +1 at i_1=1.
    """
    table = {}
    for sa in product(range(2), repeat=n):
        for sb in product(range(2), repeat=n):
            block = {}
            for oa in product(OUTCOMES, repeat=n):
                for ob in product(OUTCOMES, repeat=n):
                    p = Fraction(2, 4 ** n)
                    if sa[0] == 0:
                        p /= 2
                    elif ob[-1] != 1:
                        p = ZERO
                    if p != 0:
                        block[(oa, ob)] = p
            table[(sa, sb)] = block
    return table


def mixed_completion_signalling_table():
    """Two-pair table whose leak shows only under a mixed completion.

    All outcomes are independent fair coins except Bob particle 0's, which
    is pinned to +1 whenever Alice particle 0's setting differs from Bob
    particle 1's.  The marginal of Bob particle 0 alone is uniform under
    the (0, 0) and (1, 1) completions and pinned under (0, 1).  Blocks have
    denominators 8 (pinned) and 16, so their count laws differ in scale.
    """
    table = {}
    for sa in product(range(2), repeat=2):
        for sb in product(range(2), repeat=2):
            pinned = sa[0] != sb[1]
            block = {}
            for oa in product(OUTCOMES, repeat=2):
                for ob in product(OUTCOMES, repeat=2):
                    if not pinned:
                        block[(oa, ob)] = Fraction(1, 16)
                    elif ob[0] == 1:
                        block[(oa, ob)] = Fraction(1, 8)
            table[(sa, sb)] = block
    return table


def joint_mixture(first, second, weight, n):
    """``weight`` of ``first`` and the rest of ``second``, n pairs each, as
    one explicit joint table: not a product model, so it takes the generic
    symmetrised route."""
    tables = [explicit_from_box(box, n).table for box in (first, second)]
    table = {}
    for key in tables[0]:
        block = {}
        for part, w in zip(tables, (weight, 1 - weight)):
            for outcomes, p in part[key].items():
                block[outcomes] = block.get(outcomes, 0) + w * p
        table[key] = block
    return explicit_joint(n, 2, 2, table)


def ordered_marginal_average(model, a_settings, b_settings):
    """(alice outcomes, bob outcomes) -> the average of ``marginal`` over
    every ordered tuple of distinct particles per side, Alice's tuples
    outermost, in ``permutations`` order, on Fractions: the symmetrised
    law by its definition, every event listed."""
    n, width = model.n, len(a_settings)
    total = {(a_out, b_out): ZERO for a_out in product(OUTCOMES, repeat=width)
             for b_out in product(OUTCOMES, repeat=len(b_settings))}
    for a_particles in permutations(range(n), width):
        for b_particles in permutations(range(n), len(b_settings)):
            spec = ([("A", k, s) for k, s in zip(a_particles, a_settings)]
                    + [("B", l, s) for l, s in zip(b_particles, b_settings)])
            for outcomes, p in marginal(model, spec).items():
                total[outcomes[:width], outcomes[width:]] += p
    norm = math.perm(n, width) * math.perm(n, len(b_settings))
    return {event: p / norm for event, p in total.items()}


def ordered_generic_entries(model, a_settings, b_settings):
    """A stand-in for ``symmetry._symmetrized_generic_entries`` by the
    ordered enumeration of :func:`ordered_marginal_average`: each orbit's
    value read at the event that names it, orbits in the same order."""
    average = ordered_marginal_average(model, a_settings, b_settings)
    return {(a_key, b_key): average[a_key, b_key]
            for a_key in symmetry._side_orbits(a_settings)
            for b_key in symmetry._side_orbits(b_settings)}


def mixed_denominator_box():
    """No-signalling box whose setting pairs have different denominators.

    Correlated at (0, 0), anticorrelated at (1, 1) (denominator 2), uniform
    at (0, 1) and (1, 0) (denominator 4); every marginal is uniform.  As an
    explicit table its blocks scale by different lcms.
    """
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    table = {}
    for x, y in product(OUTCOMES, repeat=2):
        table[(0, 0, x, y)] = half if x == y else ZERO
        table[(1, 1, x, y)] = half if x != y else ZERO
        table[(0, 1, x, y)] = quarter
        table[(1, 0, x, y)] = quarter
    return PairBox(s_a=2, s_b=2, table=table)


def three_fault_box():
    """PR box with every kind of validation fault: the (0, 0) row halved
    (normalization), a negative cell at (1, 1), and rows (1, 0) and (1, 1)
    whose marginals depend on the other side's setting (no-signalling)."""
    table = dict(make_pr_box().table)
    for key in [k for k in table if k[:2] == (0, 0)]:
        table[key] = table[key] / 2
    table[(1, 1, 1, 1)] = Fraction(-1, 4)
    table[(1, 1, 1, -1)] = Fraction(3, 4)
    table[(1, 0, 1, 1)] = Fraction(1, 3)
    table[(1, 0, -1, -1)] = Fraction(2, 3)
    return PairBox(s_a=2, s_b=2, table=table)


#: ``str(validate_pairbox(three_fault_box()))``, one violation per entry.
THREE_FAULT_VIOLATIONS = (
    "normalization at (0, 0): cells at settings (0,0) sum to 1/2 (residual -1/2)",
    "negativity at (1, 1, 1, 1): negative probability -1/4 (residual -1/4)",
    "no-signalling at ('A', 0, 1, 0, 1): p(x=+|i=0) is 1/4 via j=0 but 1/2 via j=1 "
    "(residual 1/4)",
    "no-signalling at ('A', 0, -1, 0, 1): p(x=-|i=0) is 1/4 via j=0 but 1/2 via j=1 "
    "(residual 1/4)",
    "no-signalling at ('A', 1, 1, 0, 1): p(x=+|i=1) is 1/3 via j=0 but 1/2 via j=1 "
    "(residual 1/6)",
    "no-signalling at ('A', 1, -1, 0, 1): p(x=-|i=1) is 2/3 via j=0 but 1/2 via j=1 "
    "(residual -1/6)",
    "no-signalling at ('B', 0, 1, 0, 1): p(y=+|j=0) is 1/4 via i=0 but 1/3 via i=1 "
    "(residual 1/12)",
    "no-signalling at ('B', 0, -1, 0, 1): p(y=-|j=0) is 1/4 via i=0 but 2/3 via i=1 "
    "(residual 5/12)",
    "no-signalling at ('B', 1, 1, 0, 1): p(y=+|j=1) is 1/2 via i=0 but 1/4 via i=1 "
    "(residual -1/4)",
    "no-signalling at ('B', 1, -1, 0, 1): p(y=-|j=1) is 1/2 via i=0 but 3/4 via i=1 "
    "(residual 1/4)",
)


def all_deterministic_boxes():
    return [make_deterministic_box(x0, x1, y0, y1)
            for x0, x1, y0, y1 in product(OUTCOMES, repeat=4)]


def pr_relabelings():
    """The 8 PR boxes: x*y = (-1)^(i*j + a*i + b*j + c), each such cell 1/2."""
    boxes = []
    for a, b, c in product((0, 1), repeat=3):
        table = {(i, j, x, y): Fraction(1, 2) if x * y == (-1) ** (i * j + a * i + b * j + c)
                 else ZERO
                 for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES)}
        boxes.append(PairBox(s_a=2, s_b=2, table=table))
    return boxes


def no_signalling_vertices():
    """The 24 vertices of the two-setting no-signalling polytope."""
    return all_deterministic_boxes() + pr_relabelings()


def signalling_pair_box(steered="A"):
    """Normalised, nonnegative box in which the other side's setting pins the
    ``steered`` side's outcome (+1 at setting 0, -1 at setting 1); the
    other outcome is a fair coin."""
    def pinned(i, j, x, y):
        return x == (1, -1)[j] if steered == "A" else y == (1, -1)[i]

    table = {(i, j, x, y): Fraction(1, 2) if pinned(i, j, x, y) else ZERO
             for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES)}
    return PairBox(s_a=2, s_b=2, table=table)


@st.composite
def no_signalling_boxes(draw):
    """Random convex mixture of the 16 local vertices and the PR box.

    Every mixture of no-signalling boxes is no-signalling, and rational
    weights keep the table exact.
    """
    components = all_deterministic_boxes() + [make_pr_box()]
    weights = draw(st.lists(st.integers(min_value=0, max_value=8),
                            min_size=len(components), max_size=len(components)))
    total = sum(weights)
    if total == 0:
        weights[0] = 1
        total = 1
    table = {}
    for key in components[0].table:
        table[key] = sum((Fraction(w, total) * c.table[key]
                          for w, c in zip(weights, components)), ZERO)
    return PairBox(s_a=2, s_b=2, table=table)
