"""Symmetrization over particle permutations.

Collective measurements cannot tell which particle contributed which
outcome, so all observable statistics factor through distributions averaged
over particle relabelings: the effective single-pair and two-pair
distributions, and symmetric joint probability distributions (JPDs) with
``copies`` outcome slots per setting per side.  All of them are one
symmetrized slot distribution each, with one and two slots per side for the
effective pair and quad.

For product models every such average collapses to a sum over partial
matchings between Alice slots and Bob slots: an injective assignment of
slots to particles is determined, up to counting, by which Alice slot lands
on the same pair as which Bob slot.  The number of assignments realizing a
matching of size m is (N)_(a+b-m), with a and b the slot counts per side
and (N)_k = math.perm(N, k): a + b - m distinct particles in order.  A
small subset DP sums the matchings exactly, and the microscopic moment
sums of :mod:`macrobox.macro` weight their matchings by the same count.
Every other model goes through the explicit enumeration of ordered index
tuples through model marginals; tests run it on product models wrapped as
explicit tables as the oracle for the DP.

Closed-form evaluators for the maximally nonlocal 2x2 box are implemented
alongside the enumerators and cross-checked against them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Mapping, Sequence

from .boxes import (
    ALICE,
    BOB,
    ONE,
    OUTCOMES,
    ZERO,
    PairBox,
    as_rational,
    canonical_json,
    json_int,
    outcome_from_symbol,
    outcome_sort_key,
    outcome_symbol,
    rational_to_str,
    validate_pairbox,
)
from .ensemble import EnsembleModel, IndependentPairs, marginal
from .errors import ConstructionError, DomainError, SignallingError


def matching_assignment_count(n: int, matched: int, a_slots: int, b_slots: int) -> int:
    """Injective slot-to-particle assignments inducing an exact matching.

    Counts pairs of injective maps (Alice slots -> particles, Bob slots ->
    particles) whose set of cross-side particle coincidences is one fixed
    matching of size ``matched``.  The Alice slots take (N)_a particles,
    the matched Bob slots follow their partners, and the unmatched Bob
    slots take (N-a)_(b-m) of the rest, so the count is (N)_(a+b-m); it is
    0 when that exceeds the N particles.
    """
    return math.perm(n, a_slots + b_slots - matched)


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
    setting pair is the one-slot-per-side symmetrized distribution, so
    product models go through the matching DP and other models through the
    explicit enumeration of particle pairs.
    """
    table = {}
    for i in range(model.s_a):
        for j in range(model.s_b):
            for ((x,), (y,)), p in _symmetrized_entries(model, (i,), (j,)).items():
                table[(i, j, x, y)] = p
    box = PairBox(s_a=model.s_a, s_b=model.s_b, table=table)
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
    table: Mapping  # (i, j, x, xp, y, yp) -> Fraction, complete

    def prob(self, i: int, j: int, x: int, xp: int, y: int, yp: int) -> Fraction:
        return self.table[(i, j, x, xp, y, yp)]

    def quad_correlator(self, i: int, j: int) -> Fraction:
        """<a a' b b'> under the four-slot distribution."""
        total = ZERO
        for x, xp, y, yp in product(OUTCOMES, repeat=4):
            total += x * xp * y * yp * self.table[(i, j, x, xp, y, yp)]
        return total


def _symmetrized_product_entry(box: PairBox, n: int,
                               a_settings: tuple, a_outcomes: tuple,
                               b_settings: tuple, b_outcomes: tuple) -> Fraction:
    """One symmetrized-distribution entry for a product model.

    Sums the factorized probability over all injective assignments of the
    slots to particles via the partial-matching subset DP, then normalizes
    by the total number of assignments (N)_a (N)_b.
    """
    a_count = len(a_settings)
    b_count = len(b_settings)
    alice_single = [box.marginal_a(i, x) for i, x in zip(a_settings, a_outcomes)]
    bob_single = [box.marginal_b(j, y) for j, y in zip(b_settings, b_outcomes)]
    paired = [[box.prob(i, j, x, y) for j, y in zip(b_settings, b_outcomes)]
              for i, x in zip(a_settings, a_outcomes)]
    # states: bitmask of matched Bob slots -> accumulated product weight
    states = {0: ONE}
    for u in range(a_count):
        advanced: dict = {}
        for mask, value in states.items():
            unmatched = value * alice_single[u]
            if unmatched != 0:
                advanced[mask] = advanced.get(mask, ZERO) + unmatched
            for v in range(b_count):
                bit = 1 << v
                if mask & bit:
                    continue
                matched = value * paired[u][v]
                if matched != 0:
                    key = mask | bit
                    advanced[key] = advanced.get(key, ZERO) + matched
        states = advanced
    total = ZERO
    for mask, value in states.items():
        matched = bin(mask).count("1")
        count = matching_assignment_count(n, matched, a_count, b_count)
        if count == 0 or value == 0:
            continue
        rest = ONE
        for v in range(b_count):
            if not (mask >> v) & 1:
                rest *= bob_single[v]
        total += count * value * rest
    return total / (math.perm(n, a_count) * math.perm(n, b_count))


def _symmetrized_generic_entries(model: EnsembleModel,
                                 a_settings: tuple, b_settings: tuple) -> dict:
    """All symmetrized-distribution entries for an arbitrary model.

    Enumerates every ordered tuple of pairwise-distinct particles per side
    and sums the model's multi-slot marginals (:func:`~macrobox.ensemble.marginal`)
    on integers: each marginal probability's numerator is added to the
    entry's sum for its denominator, and each entry's Fraction is built
    once, at the end.  Cost grows like (N)_a (N)_b marginal evaluations and
    is only meant for small N.
    """
    n = model.n
    a_count, b_count = len(a_settings), len(b_settings)
    by_denominator: dict = {}  # denominator -> outcome tuple -> summed numerators
    for a_particles in permutations(range(n), a_count):
        alice = [(ALICE, k, s) for k, s in zip(a_particles, a_settings)]
        for b_particles in permutations(range(n), b_count):
            dist = marginal(model, alice + [(BOB, l, s) for l, s in zip(b_particles, b_settings)])
            for outcomes, p in dist.items():
                sums = by_denominator.setdefault(p.denominator, {})
                sums[outcomes] = sums.get(outcomes, 0) + p.numerator
    scale = math.lcm(*by_denominator)
    totals = dict.fromkeys(product(OUTCOMES, repeat=a_count + b_count), 0)
    for d, sums in by_denominator.items():
        for outcomes, numerator in sums.items():
            totals[outcomes] += numerator * (scale // d)
    norm = scale * math.perm(n, a_count) * math.perm(n, b_count)
    return {(outcomes[:a_count], outcomes[a_count:]): Fraction(total, norm)
            for outcomes, total in totals.items()}


def _canonical_within_blocks(settings: tuple, outcomes: tuple) -> tuple:
    """Sort outcomes inside each run of equal settings (+1 first).

    Symmetrized values are invariant under permuting same-setting slots, so
    this is a safe cache key and evaluation point.
    """
    result = []
    start = 0
    while start < len(settings):
        end = start
        while end < len(settings) and settings[end] == settings[start]:
            end += 1
        result.extend(sorted(outcomes[start:end], reverse=True))
        start = end
    return tuple(result)


def _symmetrized_entries(model: EnsembleModel,
                         a_settings: tuple, b_settings: tuple) -> dict:
    """Complete symmetrized slot distribution, fast path for product models.

    The model memoises the result for its lifetime, keyed by
    ``(a_settings, b_settings)``.  The slot-count guard runs on every call,
    a failed computation stores nothing, and each call returns a fresh dict.
    """
    n = model.n
    a_count, b_count = len(a_settings), len(b_settings)
    if n < a_count or n < b_count:
        raise DomainError(
            f"need at least {max(a_count, b_count)} pairs for {a_count}+{b_count} "
            f"slots, got n={n}")
    if isinstance(model, IndependentPairs):
        compute = lambda: _symmetrized_product_entries(model, a_settings, b_settings)
    else:
        compute = lambda: _symmetrized_generic_entries(model, a_settings, b_settings)
    return dict(model._memoized(("symmetrized", a_settings, b_settings), compute))


def _symmetrized_correlator(model: EnsembleModel,
                            a_settings: tuple, b_settings: tuple) -> Fraction:
    """Product correlator of all the slots, averaged over ordered tuples of
    distinct particles: the signed sum of :func:`_symmetrized_entries`."""
    entries = _symmetrized_entries(model, a_settings, b_settings)
    return sum((math.prod(a_out + b_out) * p for (a_out, b_out), p in entries.items()), ZERO)


def _symmetrized_product_entries(model: IndependentPairs,
                                 a_settings: tuple, b_settings: tuple) -> dict:
    """All symmetrized-distribution entries of a product model, one DP per
    orbit of same-setting slot permutations."""
    n = model.n
    a_count, b_count = len(a_settings), len(b_settings)
    cache: dict = {}
    entries = {}
    for a_out in product(OUTCOMES, repeat=a_count):
        for b_out in product(OUTCOMES, repeat=b_count):
            key = (_canonical_within_blocks(a_settings, a_out),
                   _canonical_within_blocks(b_settings, b_out))
            value = cache.get(key)
            if value is None:
                value = _symmetrized_product_entry(
                    model.box, n, a_settings, key[0], b_settings, key[1])
                cache[key] = value
            entries[(a_out, b_out)] = value
    return entries


def effective_quad(model: EnsembleModel) -> QuadDistribution:
    """Symmetrized two-pair distribution per setting pair (needs N >= 2)."""
    if model.n < 2:
        raise DomainError(
            f"the two-pair effective distribution needs at least 2 pairs, got n={model.n}")
    table = {}
    for i in range(model.s_a):
        for j in range(model.s_b):
            entries = _symmetrized_entries(model, (i, i), (j, j))
            for ((x, xp), (y, yp)), p in entries.items():
                table[(i, j, x, xp, y, yp)] = p
    return QuadDistribution(s_a=model.s_a, s_b=model.s_b, table=table)


def effective_correlator(model: EnsembleModel, alice_setting: int, bob_setting: int,
                         alice_count: int, bob_count: int) -> Fraction:
    """Average product correlator over ordered distinct-particle tuples.

    Averages <prod of alice_count outcomes at alice_setting times prod of
    bob_count outcomes at bob_setting> over all ordered tuples of pairwise
    distinct particles on each side.  Zero slot counts are allowed; the
    empty product is 1.  A product model sums over matchings in closed
    form; any other model takes :func:`_symmetrized_correlator`, the signed
    sum of the memoised symmetrised entries that the effective pair and
    quad share.
    """
    n = model.n
    if not (0 <= alice_count <= n):
        raise DomainError(f"alice slot count {alice_count} exceeds n={n}")
    if not (0 <= bob_count <= n):
        raise DomainError(f"bob slot count {bob_count} exceeds n={n}")
    if alice_count == 0 and bob_count == 0:
        return ONE
    if isinstance(model, IndependentPairs):
        box = model.box
        pair = sum((x * y * box.prob(alice_setting, bob_setting, x, y)
                    for x in OUTCOMES for y in OUTCOMES), ZERO)
        mean_a = sum((x * box.marginal_a(alice_setting, x) for x in OUTCOMES), ZERO)
        mean_b = sum((y * box.marginal_b(bob_setting, y) for y in OUTCOMES), ZERO)
        total = ZERO
        for matched in range(min(alice_count, bob_count) + 1):
            ways = (math.comb(alice_count, matched) * math.comb(bob_count, matched)
                    * math.factorial(matched)
                    * matching_assignment_count(n, matched, alice_count, bob_count))
            if ways == 0:
                continue
            term = (pair ** matched
                    * mean_a ** (alice_count - matched)
                    * mean_b ** (bob_count - matched))
            total += ways * term
        return total / (math.perm(n, alice_count) * math.perm(n, bob_count))
    return _symmetrized_correlator(model, (alice_setting,) * alice_count,
                                   (bob_setting,) * bob_count)


# ---------------------------------------------------------------------------
# Symmetric joint probability distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricJPD:
    """Joint distribution over ``copies`` outcome slots per setting per side.

    ``schema_a``/``schema_b`` hold (setting, copies) groups in ascending
    setting order; entries are keyed by (alice outcomes, bob outcomes)
    tuples aligned with the expanded slot order and may be signed.  The
    ``valid`` flag is true iff every entry is nonnegative.
    """

    schema_a: tuple
    schema_b: tuple
    entries: Mapping
    valid: bool

    def slots(self, side: str) -> tuple:
        """Expanded (setting, copy) slot labels for one side."""
        schema = self.schema_a if side == ALICE else self.schema_b
        return tuple((setting, copy) for setting, copies in schema
                     for copy in range(copies))

    def total(self) -> Fraction:
        return sum(self.entries.values(), ZERO)

    def negative_entries(self) -> tuple:
        found = []
        for key in self._sorted_keys():
            p = self.entries[key]
            if p < 0:
                found.append((key[0], key[1], p))
        return tuple(found)

    def _sorted_keys(self):
        return sorted(self.entries,
                      key=lambda k: outcome_sort_key(k[0] + k[1]))

    def items(self):
        """(alice outcomes, bob outcomes, probability) in canonical order."""
        for key in self._sorted_keys():
            yield key[0], key[1], self.entries[key]

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
        and each event listed once with one outcome per slot."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConstructionError(f"invalid jpd JSON: {exc}") from exc
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
            widths = (sum(c for _, c in schema_a), sum(c for _, c in schema_b))
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
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"malformed jpd JSON: {exc}") from exc
        return _finish_jpd(schema_a, schema_b, entries)


def _finish_jpd(schema_a: tuple, schema_b: tuple, entries: dict) -> SymmetricJPD:
    valid = all(p >= 0 for p in entries.values())
    return SymmetricJPD(schema_a=schema_a, schema_b=schema_b,
                        entries=entries, valid=valid)


def jpd_general(model: EnsembleModel, copies: int) -> SymmetricJPD:
    """Symmetric JPD with ``copies`` slots per setting per side.

    Requires N >= copies * s per side: each slot must land on a distinct
    particle.  Entries are the permutation-symmetrized multi-slot marginals
    with weight 1 / ((N)_(copies*s_a) (N)_(copies*s_b)).
    """
    if copies < 1:
        raise DomainError(f"need at least one slot copy, got copies={copies}")
    n = model.n
    need_a = copies * model.s_a
    need_b = copies * model.s_b
    if n < need_a or n < need_b:
        raise DomainError(
            f"a {copies}-copy JPD over {model.s_a}+{model.s_b} settings needs "
            f"copies*s = {need_a} Alice and {need_b} Bob particles; got n={n}")
    a_settings = tuple(s for s in range(model.s_a) for _ in range(copies))
    b_settings = tuple(s for s in range(model.s_b) for _ in range(copies))
    entries = _symmetrized_entries(model, a_settings, b_settings)
    schema_a = tuple((s, copies) for s in range(model.s_a))
    schema_b = tuple((s, copies) for s in range(model.s_b))
    return _finish_jpd(schema_a, schema_b, entries)


def jpd_averages(model: EnsembleModel) -> SymmetricJPD:
    """One slot per setting per side: the JPD reproducing all averages."""
    return jpd_general(model, 1)


def jpd_fluctuations(model: EnsembleModel) -> SymmetricJPD:
    """Two slots per setting per side: also reproduces second moments."""
    return jpd_general(model, 2)


def jpd_marginal(jpd: SymmetricJPD, slots: Sequence) -> dict:
    """Exact marginal over the listed (side, setting, copy) slots.

    Returns a complete dict over outcome tuples in the requested slot order.
    """
    positions = []
    seen = set()
    slots_a = jpd.slots(ALICE)
    slots_b = jpd.slots(BOB)
    for entry in slots:
        side, setting, copy = entry
        if side == ALICE:
            pool, offset = slots_a, 0
        elif side == BOB:
            pool, offset = slots_b, len(slots_a)
        else:
            raise DomainError(f"side must be {ALICE!r} or {BOB!r}, got {side!r}")
        try:
            index = pool.index((setting, copy))
        except ValueError:
            raise DomainError(
                f"unknown slot ({side}, setting={setting}, copy={copy})") from None
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
    validity flag is false.
    """
    high, low = pr_averages_jpd_values(n)
    entries = {}
    for a_out in product(OUTCOMES, repeat=2):
        for b_out in product(OUTCOMES, repeat=2):
            entries[(a_out, b_out)] = high if (a_out, b_out) in _PR_HIGH_EVENTS else low
    schema = ((0, 1), (1, 1))
    return _finish_jpd(schema, schema, entries)


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
