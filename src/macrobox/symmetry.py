"""Symmetrization over particle permutations.

Collective measurements cannot tell which particle contributed which
outcome, so all observable statistics factor through distributions averaged
over particle relabelings: the effective single-pair and two-pair
distributions, and symmetric joint probability distributions (JPDs) with
``copies`` outcome slots per setting per side.  All of them are one
symmetrized slot distribution each, with one and two slots per side for the
effective pair and quad.

For product models every such average is a sum over partial matchings
between Alice slots and Bob slots: :func:`_matching_sum`, the one matching
sum, which weights a matching of size m by its (N)_(a+b-m) slot-to-particle
assignments ((N)_k = math.perm(N, k)).  It gives the JPD entries from the
box's Fraction cells, and :mod:`macrobox.macro`'s distinct-tuple check
from integer row sums.  The slot correlators E(r, s) count the matchings
in one integer closed form instead (:func:`_correlator_count`); the
effective pair and quad are its Walsh inversion (:func:`_inverted_row`),
and the matching sum behind the JPDs checks them.  Every other model goes
through the explicit enumeration of particle sets through model marginals
(:func:`_symmetrized_generic_entries`), the matching sum's oracle on
product models as tables.

A symmetrized value depends only on how many of each outcome every (side,
setting) block of slots holds, so each distribution is a read-only map from
orbits to values (:func:`_orbit_key`): 625 orbits against 65536 events at
four copies of two settings per side.  A JPD file lists every event; its
loader folds them back into orbits and refuses a missing event or two
values in one orbit.

Closed-form evaluators for the maximally nonlocal 2x2 box are implemented
alongside the enumerators and cross-checked against them.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, product
from types import MappingProxyType
from typing import Mapping, Sequence

from .boxes import (
    ALICE,
    BOB,
    MINUS,
    ONE,
    OUTCOMES,
    PLUS,
    ZERO,
    PairBox,
    as_rational,
    canonical_json,
    check_settings,
    json_int,
    outcome_from_symbol,
    outcome_symbol,
    parse_json,
    rational_to_str,
    validate_pairbox,
)
from .ensemble import EnsembleModel, IndependentPairs, _triple, marginal
from .errors import ConstructionError, DomainError, SignallingError


def format_event(a_outcomes: Sequence[int], b_outcomes: Sequence[int]) -> str:
    """Render outcomes as "(+,-;+,-)": Alice slots, then Bob slots."""
    left = ",".join(outcome_symbol(o) for o in a_outcomes)
    right = ",".join(outcome_symbol(o) for o in b_outcomes)
    return f"({left};{right})"


def parse_event(text: str) -> tuple:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")") and ";" in body):
        raise DomainError(f"not an outcome event: {text!r}")
    left, right = body[1:-1].split(";", 1)
    a_out = tuple(outcome_from_symbol(s) for s in left.split(",")) if left else ()
    b_out = tuple(outcome_from_symbol(s) for s in right.split(",")) if right else ()
    return a_out, b_out


# ---------------------------------------------------------------------------
# Effective single-pair distribution
# ---------------------------------------------------------------------------

def effective_pair(model: EnsembleModel) -> PairBox:
    """Average of all N^2 cross-side single-particle marginals, per setting pair.

    The result is the single pair of boxes that macroscopic correlation
    measurements cannot distinguish from the full N-pair ensemble.  Each
    setting pair is the one-slot-per-side law of :func:`_effective_table`.
    On a product model it is the inversion of the slot correlators,
    p(x,y|i,j)/N + (1 - 1/N) p_a(x|i) p_b(y|j), and the matching DP behind
    :func:`jpd_averages` is its check.
    """
    box = PairBox(s_a=model.s_a, s_b=model.s_b, table=_effective_table(model, 1))
    report = validate_pairbox(box)
    if not report.ok:
        raise SignallingError(
            f"effective pair distribution is not a valid no-signalling box: {report}")
    return box


# ---------------------------------------------------------------------------
# Effective two-pair (quad) distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadDistribution:
    """Symmetrized four-slot distribution p(x, x'; y, y') per setting pair.

    Both Alice slots carry the same setting i, both Bob slots the same j;
    the distribution is invariant under swapping x with x' and y with y'.
    """

    s_a: int
    s_b: int
    table: Mapping  # (i, j, x, xp, y, yp) -> Fraction, complete, read-only

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def prob(self, i: int, j: int, x: int, xp: int, y: int, yp: int) -> Fraction:
        return self.table[(i, j, x, xp, y, yp)]

    def quad_correlator(self, i: int, j: int) -> Fraction:
        """<a a' b b'> under the four-slot distribution."""
        total = ZERO
        for x, xp, y, yp in product(OUTCOMES, repeat=4):
            total += x * xp * y * yp * self.table[(i, j, x, xp, y, yp)]
        return total


def _matching_sum(n: int, alone_a: Sequence, alone_b: Sequence, together: Sequence):
    """Sum over every pair of injective maps (Alice slots -> particles, Bob
    slots -> particles), N particles, of the product of one weight per
    slot: ``alone_a[u]`` for Alice slot u and ``alone_b[v]`` for Bob slot v
    on a particle the other side leaves empty, and ``together[u][v]`` for
    Alice slot u and Bob slot v on one particle.  Weights may be ints or
    Fractions, and so is the sum.

    A term depends only on the partial matching of Bob slots onto Alice
    slots that the maps induce.  A matching of size m is realised by
    (N)_(a+b-m) pairs of maps, a and b the slot counts per side: the Alice
    slots take (N)_a particles, the matched Bob slots follow their
    partners, and the unmatched Bob slots take (N-a)_(b-m) of the rest.
    A subset DP over the set of matched Bob slots sums the matchings.  It
    never carries a zero weight, and it skips a matching whose count is 0
    (too few particles) before it multiplies the unmatched Bob weights.
    """
    a_count, b_count = len(alone_a), len(alone_b)
    # states: bitmask of matched Bob slots -> accumulated product weight
    states = {0: 1}
    for u in range(a_count):
        advanced: dict = {}
        for mask, value in states.items():
            unmatched = value * alone_a[u]
            if unmatched:
                advanced[mask] = advanced.get(mask, 0) + unmatched
            for v in range(b_count):
                bit = 1 << v
                if mask & bit:
                    continue
                matched = value * together[u][v]
                if matched:
                    key = mask | bit
                    advanced[key] = advanced.get(key, 0) + matched
        states = advanced
    total = 0
    for mask, value in states.items():
        count = math.perm(n, a_count + b_count - mask.bit_count())
        if count:
            total += count * value * math.prod(
                w for v, w in enumerate(alone_b) if not (mask >> v) & 1)
    return total


def _symmetrized_product_entry(box: PairBox, n: int,
                               a_settings: tuple, a_outcomes: tuple,
                               b_settings: tuple, b_outcomes: tuple) -> Fraction:
    """One symmetrized-distribution entry for a product model: the
    :func:`_matching_sum` of the box's Fraction cells over the slots, divided
    by the number of assignments (N)_a (N)_b."""
    alice = list(zip(a_settings, a_outcomes))
    bob = list(zip(b_settings, b_outcomes))
    return Fraction(_matching_sum(n, [box.marginal_a(i, x) for i, x in alice],
                                  [box.marginal_b(j, y) for j, y in bob],
                                  [[box.prob(i, j, x, y) for j, y in bob] for i, x in alice]),
                    math.perm(n, len(alice)) * math.perm(n, len(bob)))


def _symmetrized_generic_entries(model: EnsembleModel,
                                 a_settings: tuple, b_settings: tuple) -> dict:
    """All symmetrized-distribution entries for an arbitrary model.  Both
    settings tuples must be nondecreasing.

    Averaging over ordered tuples of distinct particles reads each set of
    particles once per ordering of every same-setting run, and the orderings
    only permute the outcomes within the run.  So the enumeration takes one
    tuple per set (:func:`_run_sorted_tuples`) and sums the model's
    multi-slot marginals (:func:`~macrobox.ensemble.marginal`) per orbit:
    summing a run's orderings gives |G| / |orbit| times the orbit's sum over
    the sets, G the group of within-run permutations, and the entry is that
    sum over |orbit| (:func:`_orbit_size`) times the number of sets.  Sums
    run on integers: each marginal probability's numerator is added to its
    event's sum for its denominator, each event's sums go to its orbit
    once, and each entry's Fraction is built once, at the end.  Cost grows
    like (N)_a (N)_b / prod(run!) marginal evaluations, run! over every
    same-setting run of either side, and is only meant for small N.

    The sets come in the order ``permutations`` meets their run-sorted
    tuples, and a failing tuple's run-sorted twin lists the same slots and
    comes no later, so a marginal that raises raises as it would under the
    ordered enumeration, on the same spec.
    """
    n = model.n
    a_orbits = {a_out: _orbit_key(a_settings, a_out)
                for a_out in product(OUTCOMES, repeat=len(a_settings))}
    b_orbits = {b_out: _orbit_key(b_settings, b_out)
                for b_out in product(OUTCOMES, repeat=len(b_settings))}
    orbit_of = {a_out + b_out: (a_key, b_key)  # event -> its orbit, in _side_orbits order
                for a_out, a_key in a_orbits.items() for b_out, b_key in b_orbits.items()}
    a_sets, b_sets = _run_sorted_tuples(n, a_settings), _run_sorted_tuples(n, b_settings)
    by_denominator: dict = {}  # denominator -> outcome tuple -> summed numerators
    for a_particles in a_sets:
        alice = [(ALICE, k, s) for k, s in zip(a_particles, a_settings)]
        for b_particles in b_sets:
            dist = marginal(model, alice + [(BOB, l, s) for l, s in zip(b_particles, b_settings)])
            for outcomes, p in dist.items():
                sums = by_denominator.setdefault(p.denominator, {})
                sums[outcomes] = sums.get(outcomes, 0) + p.numerator
    scale = math.lcm(*by_denominator)
    totals = dict.fromkeys(orbit_of.values(), 0)
    for d, sums in by_denominator.items():
        for outcomes, numerator in sums.items():
            totals[orbit_of[outcomes]] += numerator * (scale // d)
    norm = scale * len(a_sets) * len(b_sets)
    return {(a_key, b_key): Fraction(total, norm * _orbit_size(a_settings, a_key)
                                     * _orbit_size(b_settings, b_key))
            for (a_key, b_key), total in totals.items()}


def _run_sorted_tuples(n: int, settings: tuple) -> list:
    """Every tuple of distinct particles in range(n), one per slot of
    ``settings``, that increases within each same-setting run, in the order
    ``permutations(range(n), len(settings))`` meets them: one tuple per
    choice of a particle set for each run, (N)_k / prod(run!) in all."""
    runs = [len(list(run)) for _, run in groupby(settings)]
    tuples = [()]
    for length in runs:
        tuples = [chosen + extra for chosen in tuples
                  for extra in combinations([k for k in range(n) if k not in chosen], length)]
    return tuples


def _orbit_key(settings: tuple, outcomes: tuple) -> tuple:
    """The orbit of ``outcomes`` under permutations of same-setting slots,
    named by its member with +1 first inside each same-setting run.

    ``settings`` must be nondecreasing, as every caller's are, so sorting
    the (setting, -outcome) pairs keeps each run in its place.
    """
    return tuple(-o for _, o in sorted(zip(settings, [-o for o in outcomes])))


def _orbit_size(settings: tuple, key: tuple) -> int:
    """How many outcome tuples share the orbit ``key`` under ``settings``:
    C(run length, -1s) per same-setting run."""
    minus = [s for s, o in zip(settings, key) if o == MINUS]
    return math.prod(math.comb(settings.count(s), minus.count(s)) for s in set(minus))


def _side_orbits(settings: tuple) -> dict:
    """Every orbit key of one side's outcome tuples, as dict keys."""
    return dict.fromkeys(_orbit_key(settings, outcomes)
                         for outcomes in product(OUTCOMES, repeat=len(settings)))


def _expand(a_settings: tuple, b_settings: tuple, orbits: Mapping):
    """``(alice outcomes, bob outcomes, value)`` for every event, in
    ``itertools.product(OUTCOMES, ...)`` order, each value read from the
    event's orbit in ``orbits``."""
    b_events = [(b_out, _orbit_key(b_settings, b_out))
                for b_out in product(OUTCOMES, repeat=len(b_settings))]
    for a_out in product(OUTCOMES, repeat=len(a_settings)):
        a_key = _orbit_key(a_settings, a_out)
        for b_out, b_key in b_events:
            yield a_out, b_out, orbits[a_key, b_key]


def _symmetrized_entries(model: EnsembleModel,
                         a_settings: tuple, b_settings: tuple) -> Mapping:
    """Complete symmetrized slot distribution as a read-only map from
    (alice, bob) :func:`_orbit_key` pairs to values; fast path for product
    models.  Both settings tuples must be nondecreasing.

    The model memoises the map for its lifetime, keyed by
    ``(a_settings, b_settings)``.  The slot-count guard runs on every call,
    and a failed computation stores nothing.
    """
    n = model.n
    a_count, b_count = len(a_settings), len(b_settings)
    if n < a_count or n < b_count:
        raise DomainError(
            f"need at least {max(a_count, b_count)} pairs for {a_count}+{b_count} "
            f"slots, got n={n}")
    route = (_symmetrized_product_entries if isinstance(model, IndependentPairs)
             else _symmetrized_generic_entries)
    return model._memoized(("symmetrized", a_settings, b_settings),
                           lambda: MappingProxyType(route(model, a_settings, b_settings)))


def _symmetrized_correlator(model: EnsembleModel,
                            a_settings: tuple, b_settings: tuple) -> Fraction:
    """Product correlator of all the slots, averaged over ordered tuples of
    distinct particles: the signed sum of :func:`_symmetrized_entries`."""
    orbits = _symmetrized_entries(model, a_settings, b_settings)
    return sum((math.prod(a_out + b_out) * p
                for a_out, b_out, p in _expand(a_settings, b_settings, orbits)), ZERO)


def _symmetrized_product_entries(model: IndependentPairs,
                                 a_settings: tuple, b_settings: tuple) -> dict:
    """Orbit -> value for a product model, one matching DP per orbit."""
    return {(a_key, b_key): _symmetrized_product_entry(
                model.box, model.n, a_settings, a_key, b_settings, b_key)
            for a_key in _side_orbits(a_settings) for b_key in _side_orbits(b_settings)}


def effective_quad(model: EnsembleModel) -> QuadDistribution:
    """Symmetrized two-pair law per setting pair (needs N >= 2), by
    :func:`_effective_table`.  On a product model it is the inversion of the
    slot correlators, and the DP behind :func:`jpd_fluctuations` checks it."""
    if model.n < 2:
        raise DomainError(
            f"the two-pair effective distribution needs at least 2 pairs, got n={model.n}")
    return QuadDistribution(s_a=model.s_a, s_b=model.s_b, table=_effective_table(model, 2))


def _effective_table(model: EnsembleModel, slots: int) -> dict:
    """(i, j) + event -> value of the symmetrized law with ``slots`` slots
    per side, at setting i for Alice and j for Bob, in OUTCOMES order.  Each
    row's orbits come from :func:`_inverted_row` on a product model and from
    :func:`_symmetrized_entries` otherwise."""
    table = {}
    for i in range(model.s_a):
        for j in range(model.s_b):
            orbits = (_inverted_row(model.box, model.n, i, j, slots)
                      if isinstance(model, IndependentPairs)
                      else _symmetrized_entries(model, (i,) * slots, (j,) * slots))
            table.update({(i, j) + event: orbits[key] for event, key in _run_events(slots)})
    return table


@functools.cache
def _run_events(slots: int) -> tuple:
    """(event, orbit key pair) for every event of ``slots`` same-setting
    slots per side, in OUTCOMES order: :func:`_expand` for any one setting."""
    run = (0,) * slots
    orbits = {key: key for key in product(_side_orbits(run), repeat=2)}
    return tuple((a_out + b_out, key) for a_out, b_out, key in _expand(run, run, orbits))


@functools.cache
def _walsh_signs(slots: int) -> tuple:
    """(orbit key pair, e_r(k) e_s(l) for r, s <= ``slots`` row-major) per
    orbit of k Alice and l Bob -1s, e_r(k) = sum_t (-1)^t C(k, t) C(slots-k, r-t)
    the r-th elementary symmetric sum of ``slots`` outcomes, k of them -1."""
    e = {key: [sum((-1) ** t * math.comb(key.count(MINUS), t) * math.comb(key.count(PLUS), r - t)
                   for t in range(r + 1)) for r in range(slots + 1)]
         for key in _side_orbits((0,) * slots)}
    return tuple(((a, b), tuple(x * y for x in e[a] for y in e[b])) for a in e for b in e)


def _inverted_row(box: PairBox, n: int, i: int, j: int, slots: int) -> dict:
    """Orbit -> value of the (i, j) row of N copies of ``box`` with p = q =
    ``slots`` slots per side, by Walsh inversion of the slot correlators E:
    2^-(p+q) sum_{r<=p, s<=q} e_r(k) e_s(l) E(r, s) (:func:`_walsh_signs`).
    Each :func:`_correlator_count` is lifted to D = L^(p+q) (N)_p (N)_q by
    L^(p+q-r-s) (N-r)_(p-r) (N-s)_(q-s): one Fraction over 2^(p+q) D."""
    scale = box.scale
    row = _correlator_row(box, i, j)
    ranks = range(slots + 1)
    lift = [scale ** (slots - r) * math.perm(n - r, slots - r) for r in ranks]
    lifted = [lift[r] * lift[s] * _correlator_count(n, scale, row, r, s)
              for r in ranks for s in ranks]
    norm = (2 ** slots * lift[0]) ** 2
    return {key: Fraction(sum(map(operator.mul, signs, lifted)), norm)
            for key, signs in _walsh_signs(slots)}


def _correlator_row(box: PairBox, i: int, j: int) -> tuple:
    """``(P, A, B)`` for setting pair (i, j): ``box.scale`` times <a_i b_j>,
    <a_i> and <b_j>, read from the row's ``box.weights``.  A setting out of
    range raises :class:`DomainError`, as ``box.prob`` does."""
    check_settings(box.s_a, box.s_b, i, j)
    pp, pm, mp, mm = [box.weights[(i, j, x, y)] for x in OUTCOMES for y in OUTCOMES]
    return pp - pm - mp + mm, pp + pm - mp - mm, pp - pm + mp - mm


def _correlator_count(n: int, scale: int, row: tuple, r: int, s: int) -> int:
    """L^(r+s) (N)_r (N)_s E(r, s) from the integers (P, A, B) of
    :func:`_correlator_row`, L = ``scale``: the sum over m matched slots of
    (r)_m C(s, m) (N)_(r+s-m) P^m L^m A^(r-m) B^(s-m), the assignments that
    match m slots times their weight."""
    pair, mean_a, mean_b = row
    total = 0
    for m in range(min(r, s) + 1):
        total += (math.perm(r, m) * math.comb(s, m) * math.perm(n, r + s - m)
                  * (pair * scale) ** m * mean_a ** (r - m) * mean_b ** (s - m))
    return total


def effective_correlator(model: EnsembleModel, alice_setting: int, bob_setting: int,
                         alice_count: int, bob_count: int) -> Fraction:
    """Average product correlator over ordered distinct-particle tuples.

    Averages <prod of alice_count outcomes at alice_setting times prod of
    bob_count outcomes at bob_setting> over all ordered tuples of pairwise
    distinct particles on each side.  The counts r = alice_count and
    s = bob_count must be ints, and zero is allowed; the empty product is 1.

    A product model divides :func:`_correlator_count`, which the inversion
    behind the effective pair and quad reads too, by L^(r+s) (N)_r (N)_s.
    Its check, the distinct-tuple sums of :mod:`macrobox.macro`, is an
    independent algorithm over the same ``box.weights``.  Any other model
    takes :func:`_symmetrized_correlator`, the signed sum of the memoised
    symmetrised entries.
    """
    n = model.n
    if type(alice_count) is not int or not (0 <= alice_count <= n):
        raise DomainError(f"alice slot count {alice_count!r} is not an int in 0..n={n}")
    if type(bob_count) is not int or not (0 <= bob_count <= n):
        raise DomainError(f"bob slot count {bob_count!r} is not an int in 0..n={n}")
    if alice_count == 0 and bob_count == 0:
        return ONE
    if isinstance(model, IndependentPairs):
        box = model.box
        count = _correlator_count(n, box.scale, _correlator_row(box, alice_setting, bob_setting),
                                  alice_count, bob_count)
        return Fraction(count, box.scale ** (alice_count + bob_count)
                        * math.perm(n, alice_count) * math.perm(n, bob_count))
    return _symmetrized_correlator(model, (alice_setting,) * alice_count,
                                   (bob_setting,) * bob_count)


# ---------------------------------------------------------------------------
# Symmetric joint probability distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricJPD:
    """Joint distribution over ``copies`` outcome slots per setting per side.

    ``schema_a``/``schema_b`` hold (setting, copies) groups in ascending
    setting order.  ``orbits`` is a read-only map from each orbit of events
    under permutations of same-setting slots, keyed by the (alice, bob)
    :func:`_orbit_key` pair over the expanded slot order, to the value every
    event in it takes; values may be signed.
    """

    schema_a: tuple
    schema_b: tuple
    orbits: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "orbits", MappingProxyType(dict(self.orbits)))

    @property
    def valid(self) -> bool:
        """True iff every value is nonnegative."""
        return all(p >= 0 for p in self.orbits.values())

    def slots(self, side: str) -> tuple:
        """Expanded (setting, copy) slot labels for one side."""
        schema = self.schema_a if side == ALICE else self.schema_b
        return tuple((setting, copy) for setting, copies in schema
                     for copy in range(copies))

    @property
    def entries(self) -> dict:
        """A fresh (alice outcomes, bob outcomes) -> probability dict over
        every event."""
        return {(a_out, b_out): p for a_out, b_out, p in self.items()}

    def total(self) -> Fraction:
        """The sum over every event: each orbit's value times its size."""
        a_settings, b_settings = _slot_settings(self.schema_a), _slot_settings(self.schema_b)
        return sum((_orbit_size(a_settings, a_key) * _orbit_size(b_settings, b_key) * p
                    for (a_key, b_key), p in self.orbits.items()), ZERO)

    def negative_entries(self) -> tuple:
        """(alice outcomes, bob outcomes, value) of every event with a
        negative value, in canonical order.  A JPD with no negative orbit
        answers without expanding any event."""
        if all(p >= 0 for p in self.orbits.values()):
            return ()
        return tuple(event for event in self.items() if event[2] < 0)

    def items(self):
        """(alice outcomes, bob outcomes, probability) for every event, in
        canonical order."""
        return _expand(_slot_settings(self.schema_a), _slot_settings(self.schema_b),
                       self.orbits)

    def to_json(self) -> str:
        data = {
            "schema": {
                "alice": [{"setting": s, "copies": c} for s, c in self.schema_a],
                "bob": [{"setting": s, "copies": c} for s, c in self.schema_b],
            },
            "entries": [
                {"outcomes": format_event(a_out, b_out), "p": rational_to_str(p)}
                for a_out, b_out, p in self.items()
            ],
            "valid": self.valid,
        }
        return canonical_json(data)

    @staticmethod
    def from_json(text: str) -> "SymmetricJPD":
        """Load a JPD from its :meth:`to_json` form: integer schema fields,
        nonnegative and strictly ascending settings per side, ``copies >= 1``,
        every event listed once with one outcome per slot and the same
        value as every other event of its orbit, and a ``"valid"`` flag that
        is a JSON bool equal to :attr:`valid` of the entries."""
        return parse_json(text, "jpd", SymmetricJPD.from_data)

    @staticmethod
    def from_data(data) -> "SymmetricJPD":
        """Build a JPD from the parsed JSON object of :meth:`from_json`."""
        try:
            schema_a = tuple((json_int(g["setting"]), json_int(g["copies"]))
                             for g in data["schema"]["alice"])
            schema_b = tuple((json_int(g["setting"]), json_int(g["copies"]))
                             for g in data["schema"]["bob"])
            if any(copies < 1 for _, copies in schema_a + schema_b):
                raise ValueError("every schema group needs copies >= 1")
            for settings in ([s for s, _ in schema_a], [s for s, _ in schema_b]):
                if settings != sorted(set(settings)) or min(settings, default=0) < 0:
                    raise ValueError(f"schema settings {settings} are not "
                                     f"nonnegative and strictly ascending")
            a_settings, b_settings = _slot_settings(schema_a), _slot_settings(schema_b)
            widths = (len(a_settings), len(b_settings))
            entries = {}
            for entry in data["entries"]:
                event = parse_event(entry["outcomes"])
                if tuple(map(len, event)) != widths:
                    raise ValueError(
                        f"event {entry['outcomes']!r} does not list {widths[0]} "
                        f"Alice and {widths[1]} Bob outcomes")
                if event in entries:
                    raise ValueError(f"event {entry['outcomes']!r} is listed twice")
                entries[event] = as_rational(entry["p"])
            orbits = {}
            for event in product(product(OUTCOMES, repeat=widths[0]),
                                 product(OUTCOMES, repeat=widths[1])):
                if event not in entries:
                    raise ValueError(f"event {format_event(*event)} is missing")
                key = (_orbit_key(a_settings, event[0]), _orbit_key(b_settings, event[1]))
                p = orbits.setdefault(key, entries[event])
                if entries[event] != p:
                    raise ValueError(f"event {format_event(*event)} is {entries[event]}, but "
                                     f"{format_event(*key)} in its orbit is {p}")
            jpd = SymmetricJPD(schema_a, schema_b, orbits)
            if "valid" not in data:
                raise ValueError('the "valid" flag is missing')
            claimed = data["valid"]
            if type(claimed) is not bool:
                raise ValueError(f'"valid" must be true or false, got {claimed!r}')
            if claimed != jpd.valid:
                raise ValueError(f'"valid" is {json.dumps(claimed)}, but the entries '
                                 f"make it {json.dumps(jpd.valid)}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"malformed jpd JSON: {exc}") from exc
        return jpd


def _slot_settings(schema: tuple) -> tuple:
    """The setting of each expanded slot of one side's (setting, copies) groups."""
    return tuple(setting for setting, copies in schema for _ in range(copies))


def jpd_general(model: EnsembleModel, copies: int) -> SymmetricJPD:
    """Symmetric JPD with ``copies`` slots per setting per side.

    Requires N >= copies * s per side: each slot must land on a distinct
    particle.  Entries are the permutation-symmetrized multi-slot marginals
    with weight 1 / ((N)_(copies*s_a) (N)_(copies*s_b)), one per orbit.
    """
    if type(copies) is not int or copies < 1:
        raise DomainError(f"need an int number of slot copies >= 1, got copies={copies!r}")
    n = model.n
    need_a = copies * model.s_a
    need_b = copies * model.s_b
    if n < need_a or n < need_b:
        raise DomainError(
            f"a {copies}-copy JPD over {model.s_a}+{model.s_b} settings needs "
            f"copies*s = {need_a} Alice and {need_b} Bob particles; got n={n}")
    schema_a = tuple((s, copies) for s in range(model.s_a))
    schema_b = tuple((s, copies) for s in range(model.s_b))
    return SymmetricJPD(schema_a, schema_b, _symmetrized_entries(
        model, _slot_settings(schema_a), _slot_settings(schema_b)))


def jpd_averages(model: EnsembleModel) -> SymmetricJPD:
    """One slot per setting per side: the JPD reproducing all averages."""
    return jpd_general(model, 1)


def jpd_fluctuations(model: EnsembleModel) -> SymmetricJPD:
    """Two slots per setting per side: also reproduces second moments."""
    return jpd_general(model, 2)


def jpd_marginal(jpd: SymmetricJPD, slots: Sequence) -> dict:
    """Exact marginal over the listed (side, setting, copy) slots.

    Returns a complete dict over outcome tuples in the requested slot order.
    A slot whose setting or copy is not an int (a bool or a float too), or
    that the JPD does not hold, raises :class:`DomainError`.
    """
    positions = []
    seen = set()
    slots_a = jpd.slots(ALICE)
    slots_b = jpd.slots(BOB)
    for entry in slots:
        side, setting, copy = _triple(entry, "(side, setting, copy)")
        if side == ALICE:
            pool, offset = slots_a, 0
        elif side == BOB:
            pool, offset = slots_b, len(slots_a)
        else:
            raise DomainError(f"side must be {ALICE!r} or {BOB!r}, got {side!r}")
        # Type-checked first: ``True`` and ``1.0`` equal the slot key ``1``.
        if type(setting) is not int or type(copy) is not int or (setting, copy) not in pool:
            raise DomainError(f"unknown slot ({side}, setting={setting}, copy={copy})")
        index = pool.index((setting, copy))
        if (side, index) in seen:
            raise DomainError(f"slot {entry} listed twice")
        seen.add((side, index))
        positions.append(offset + index)
    width = len(positions)
    acc = {key: ZERO for key in product(OUTCOMES, repeat=width)}
    for a_out, b_out, p in jpd.items():
        combined = a_out + b_out
        key = tuple(combined[pos] for pos in positions)
        acc[key] += p
    return acc


@dataclass(frozen=True)
class JPDValidityReport:
    valid: bool
    total: Fraction
    negatives: tuple

    def __str__(self) -> str:
        if self.valid and self.total == 1:
            return "valid"
        parts = []
        if self.total != 1:
            parts.append(f"entries sum to {self.total}, not 1")
        for a_out, b_out, p in self.negatives:
            parts.append(f"negative entry {format_event(a_out, b_out)} = {p}")
        return "; ".join(parts)


def jpd_validity(jpd: SymmetricJPD) -> JPDValidityReport:
    """Nonnegativity verdict plus the exact entry sum (must be 1)."""
    negatives = jpd.negative_entries()
    return JPDValidityReport(valid=not negatives, total=jpd.total(),
                             negatives=negatives)


# ---------------------------------------------------------------------------
# Closed forms for the maximally nonlocal 2x2 box
# ---------------------------------------------------------------------------

def pr_effective_pair_probability(n: int, i: int, j: int, x: int, y: int) -> Fraction:
    """Closed form 1/4 + (|x + (-1)^(i j) y| - 1) / (4N) of the effective pair."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return Fraction(1, 4) + Fraction(abs(x + (-1) ** (i * j) * y) - 1, 4 * n)


def pr_averages_jpd_values(n: int) -> tuple:
    """(high, low) entry values (N+2)/(16N) and (N-2)/(16N) of the averages JPD."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return Fraction(n + 2, 16 * n), Fraction(n - 2, 16 * n)


#: The eight (x0,x1;y0,y1) events carrying the high averages-JPD value; the
#: other eight carry the low value.  An event is high exactly when it
#: satisfies three of the four single-pair constraints
#: {y0=x0, y1=x0, y0=x1, y1=-x1} (the count is always odd).
_PR_HIGH_EVENTS = frozenset(
    parse_event(text) for text in (
        "(+,+;+,+)", "(+,+;+,-)", "(+,-;+,+)", "(+,-;-,+)",
        "(-,+;+,-)", "(-,+;-,-)", "(-,-;-,+)", "(-,-;-,-)",
    )
)


def pr_averages_high_events() -> frozenset:
    return _PR_HIGH_EVENTS


def pr_averages_jpd_closed_form(n: int) -> SymmetricJPD:
    """Averages JPD from the closed form; defined for every n >= 1.

    The constructive symmetrized sum needs n >= 2, but the closed form can
    be evaluated at n = 1, where the low entries become -1/16 and the
    validity flag is false.  With one slot per setting each event is its
    own orbit.
    """
    high, low = pr_averages_jpd_values(n)
    entries = {}
    for a_out in product(OUTCOMES, repeat=2):
        for b_out in product(OUTCOMES, repeat=2):
            entries[(a_out, b_out)] = high if (a_out, b_out) in _PR_HIGH_EVENTS else low
    schema = ((0, 1), (1, 1))
    return SymmetricJPD(schema, schema, entries)


def pr_quad_values(n: int) -> dict:
    """The four entry values of the two-pair effective distribution.

    Keys name the event classes: both sides mixed; both sides aligned with
    the box's correlation sign matched or opposed; exactly one side mixed.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    denom = 16 * n * (n - 1)
    return {
        "both_mixed": Fraction(n * (n - 1) + 2, denom),
        "aligned_opposing": Fraction((n - 2) * (n - 3), denom),
        "aligned_matching": Fraction(n * (n + 3) - 2, denom),
        "one_side_mixed": Fraction((n + 1) * (n - 2), denom),
    }


def pr_quad_class(i: int, j: int, a_outcomes: Sequence[int],
                  b_outcomes: Sequence[int]) -> str:
    """Event class of (x,x';y,y') at settings (i, j).

    The correlation sign (-1)^(i j) decides which aligned-aligned events
    match the box, which is what swaps two of the classes at i=j=1.
    """
    sign = (-1) ** (i * j)
    a_aligned = a_outcomes[0] == a_outcomes[1]
    b_aligned = b_outcomes[0] == b_outcomes[1]
    if not a_aligned and not b_aligned:
        return "both_mixed"
    if a_aligned and b_aligned:
        if b_outcomes[0] == sign * a_outcomes[0]:
            return "aligned_matching"
        return "aligned_opposing"
    return "one_side_mixed"


def pr_quad_correlator(n: int) -> Fraction:
    """<a a' b b'> = 2 / (N (N-1)) for the two-pair effective distribution."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return Fraction(2, n * (n - 1))
