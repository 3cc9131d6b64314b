"""Microscopic models of N bipartite pairs (2N particles).

A model answers exact joint probabilities for arbitrary per-particle setting
assignments.  Two kinds are supported: independent identical pairs built
from one :class:`~macrobox.boxes.PairBox`, which must be a valid
no-signalling box, and explicit joint tables which may encode arbitrary
(even signalling) correlations.  An explicit table's marginal extraction
compares two completions when a marginal is first computed, so crafted
signalling tables are rejected loudly.  Models are immutable, so each
keeps one private memo of the laws derived from it (see
:meth:`EnsembleModel._memoized`); marginals are stored as count laws.

Laws are integer counts over a common denominator until they are handed
out.  A product model's marginals are products of its box's integer rows;
an explicit table's marginals and swap check scan the blocks it holds
through the model's ``_support`` kernel, keyed by C-level projections of
each outcome tuple.  An explicit table is checked on integers from the
JSON loader on: the loader checks each entry's integer lists once, and
construction checks each block once, by its numerators and lcm (see
:class:`ExplicitJoint`).  A product model's kernel streams
up to 4^N tuples from one box; in the library only the brute-force
distribution of :mod:`macrobox.macro` reads it, and that function states
the cost and leaves the size to its caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .boxes import (
    ALICE,
    BOB,
    ONE,
    OUTCOMES,
    ZERO,
    PairBox,
    ValidationReport,
    Violation,
    as_rational,
    json_int,
    validate_pairbox,
)
from .errors import ConstructionError, DomainError, SignallingError


@dataclass(frozen=True)
class SettingAssignment:
    """One measurement setting per particle on each side."""

    alice: tuple
    bob: tuple

    @staticmethod
    def uniform(n: int, i: int, j: int) -> "SettingAssignment":
        """All Alice particles measured at ``i``, all Bob particles at ``j``."""
        return SettingAssignment(alice=(i,) * n, bob=(j,) * n)


@dataclass(frozen=True)
class OutcomeAssignment:
    """One +1/-1 outcome per particle on each side."""

    alice: tuple
    bob: tuple


class EnsembleModel:
    """Base interface: N pairs with s_a/s_b settings per side.

    Each concrete model carries one private ``_memo`` dict that lives as
    long as the model.  :meth:`_memoized` is its only reader and writer.
    """

    n: int
    s_a: int
    s_b: int
    _memo: dict

    def _memoized(self, key: tuple, compute: Callable[[], object]):
        """The value stored under ``key``, computed and stored on first use.

        Keys start with the name of the kernel that owns them.  A
        ``compute`` that raises stores nothing, so a failing check runs
        again on every call.  Callers validate their arguments before the
        lookup and copy any mutable value they hand out.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def joint_probability(self, settings: SettingAssignment,
                          outcomes: OutcomeAssignment) -> Fraction:
        self._check_dimensions(settings, outcomes)
        return self._joint(settings, outcomes)

    def _joint(self, settings: SettingAssignment,
               outcomes: OutcomeAssignment) -> Fraction:
        """Same as joint_probability, without argument validation.

        Point queries that build their assignments themselves call this
        directly; exhaustive scans use :meth:`_support` instead.
        """
        raise NotImplementedError

    def _support(self, settings: SettingAssignment) -> tuple:
        """``(D, pairs)``: the nonzero joint outcomes under ``settings``.

        ``pairs`` yields ``(alice + bob outcomes, w)`` with integer ``w > 0``
        and probability ``w / D``, in the order of
        ``product(OUTCOMES, repeat=2 * n)``, skipping exactly the tuples whose
        :meth:`_joint` is 0.  Keeping that order keeps every dict built from
        the scan in the same insertion order as a full 4^N loop.
        """
        raise NotImplementedError

    def _check_dimensions(self, settings: SettingAssignment,
                          outcomes: OutcomeAssignment) -> None:
        if len(settings.alice) != self.n or len(settings.bob) != self.n:
            raise DomainError(
                f"setting assignment does not match n={self.n}: "
                f"{len(settings.alice)} alice / {len(settings.bob)} bob entries")
        if len(outcomes.alice) != self.n or len(outcomes.bob) != self.n:
            raise DomainError(
                f"outcome assignment does not match n={self.n}: "
                f"{len(outcomes.alice)} alice / {len(outcomes.bob)} bob entries")
        for i in settings.alice:
            if not (0 <= i < self.s_a):
                raise DomainError(f"alice setting {i} out of range (s_a={self.s_a})")
        for j in settings.bob:
            if not (0 <= j < self.s_b):
                raise DomainError(f"bob setting {j} out of range (s_b={self.s_b})")
        for v in outcomes.alice + outcomes.bob:
            if v not in OUTCOMES:
                raise DomainError(f"outcomes must be +1 or -1, got {v}")


@dataclass(frozen=True)
class IndependentPairs(EnsembleModel):
    """N independent copies of one pair box; probabilities factorize per pair.

    Construction rejects ``n < 1`` (:class:`DomainError`) and a box that
    fails :func:`~macrobox.boxes.validate_pairbox`
    (:class:`ConstructionError`), so every instance is a product of
    normalised, nonnegative, no-signalling boxes and hence no-signalling
    itself.
    """

    box: PairBox
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"need at least one pair, got n={self.n}")
        report = validate_pairbox(self.box)
        if not report.ok:
            raise ConstructionError(f"pair box is invalid: {report}")

    @property
    def s_a(self) -> int:
        return self.box.s_a

    @property
    def s_b(self) -> int:
        return self.box.s_b

    def _joint(self, settings: SettingAssignment,
               outcomes: OutcomeAssignment) -> Fraction:
        table = self.box.table
        p = ONE
        for k in range(self.n):
            cell = table.get((settings.alice[k], settings.bob[k],
                              outcomes.alice[k], outcomes.bob[k]), ZERO)
            if cell == 0:
                return ZERO
            p *= cell
        return p

    def _scaled_rows(self) -> tuple:
        """``(L, rows)`` with ``L`` the lcm of the box's denominators.

        ``rows[(i, j)]`` maps each Alice outcome ``x`` with a nonzero cell to
        ``(bob outcomes, integer weights L * p(x, y | i, j))``, both in
        OUTCOMES order.
        """
        table = self.box.table
        scale = lcm(*(p.denominator for p in table.values()))
        rows = {}
        for i in range(self.s_a):
            for j in range(self.s_b):
                by_x = {}
                for x in OUTCOMES:
                    cells = [(y, p) for y in OUTCOMES
                             if (p := table.get((i, j, x, y), ZERO)) != 0]
                    if cells:
                        by_x[x] = (tuple(y for y, _ in cells),
                                   tuple(p.numerator * (scale // p.denominator)
                                         for _, p in cells))
                rows[(i, j)] = by_x
        return scale, rows

    def _support(self, settings: SettingAssignment) -> tuple:
        scale, rows = self._memoized(("support-rows",), self._scaled_rows)
        per_pair = [rows[cell] for cell in zip(settings.alice, settings.bob)]
        return scale ** self.n, self._support_leaves(per_pair)

    @staticmethod
    def _support_leaves(per_pair: list) -> Iterable:
        # Streamed, never listed: a product model's support can hold 4^N
        # tuples.  Alice outcomes vary slowest, as in the literal loop.
        for alice in product(*per_pair):
            picked = [by_x[x] for by_x, x in zip(per_pair, alice)]
            bobs = product(*(ys for ys, _ in picked))
            weights = product(*(ws for _, ws in picked))
            for bob, leaf in zip(bobs, weights):
                yield alice + bob, prod(leaf)


@dataclass(frozen=True)
class ExplicitJoint(EnsembleModel):
    """Arbitrary joint table, keyed by (alice settings, bob settings).

    Each setting assignment maps to a mapping over (alice outcomes, bob
    outcomes); omitted outcome entries are zero.  Construction checks the
    table against ``n``, ``s_a`` and ``s_b``: every setting key must list
    ``n`` in-range settings per side, every outcome must be +1 or -1, and
    each setting assignment must be nonnegative and normalized.

    The check is one pass over each block's entries, on integers
    (:func:`_check_block`): the numerators are summed per denominator and
    the total is compared with the block's lcm.  Two outcome keys that
    name one outcome tuple store the last value, and that block is checked
    again on what it stores.  A bad setting key or outcome raises
    where it is met, in table order; the other faults (an outcome tuple of
    the wrong length, a negative numerator, a wrong total) are held per
    block, and the first failing setting assignment in ``product`` order
    is reported, a missing block as summing to 0.  The model holds
    read-only views of private copies of ``table`` and its blocks, so its
    memoised laws cannot go stale, plus each block's lcm from that check,
    which scales the block when :meth:`_support` first reads it.
    No-signalling is not enforced: signalling tables are constructible on
    purpose and flagged later by :func:`check_no_signalling` or by marginal
    completion checks.
    """

    n: int
    s_a: int
    s_b: int
    table: Mapping
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    _scales: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, s_a, s_b = self.n, self.s_a, self.s_b
        if n < 1:
            raise DomainError(f"need at least one pair, got n={n}")
        if s_a < 1 or s_b < 1:
            raise DomainError("each side needs at least one setting")
        if not self.table:
            raise ConstructionError("empty joint table")
        normalized = {}
        scales = {}
        faults = {}  # setting key -> its first failed entry or sum check, or None
        outcome_keys: dict = {}  # outcome key -> ((alice, bob) tuples, lengths are n)
        for key, block in self.table.items():
            sa, sb = tuple(key[0]), tuple(key[1])
            if len(sa) != n or len(sb) != n:
                raise ConstructionError(
                    f"setting key {sa};{sb} does not list n={n} settings per side")
            if any(not 0 <= i < s_a for i in sa) or any(not 0 <= j < s_b for j in sb):
                raise ConstructionError(
                    f"setting key {sa};{sb} has a setting outside s_a={s_a}, s_b={s_b}")
            entries, fault, scale = _check_block(n, sa, sb, block.items(), outcome_keys)
            if len(entries) != len(block):
                # Two outcome keys name one outcome tuple and only the last
                # value is stored, so the stored entries are checked again.
                entries, fault, scale = _check_block(n, sa, sb, entries.items(), outcome_keys)
            normalized[(sa, sb)] = MappingProxyType(entries)
            faults[(sa, sb)] = fault
            scales[(sa, sb)] = scale
        # Keys are in range, so a missing block shows in the count.  The
        # first failing assignment is reported in product order.
        if len(normalized) != (s_a * s_b) ** n or any(faults.values()):
            for sa in product(range(s_a), repeat=n):
                for sb in product(range(s_b), repeat=n):
                    fault = faults.get(
                        (sa, sb),
                        f"outcomes for setting assignment {sa};{sb} sum to 0, not 1")
                    if fault is not None:
                        raise ConstructionError(fault)
        object.__setattr__(self, "table", MappingProxyType(normalized))
        object.__setattr__(self, "_scales", MappingProxyType(scales))

    def _joint(self, settings: SettingAssignment,
               outcomes: OutcomeAssignment) -> Fraction:
        return self.table[(settings.alice, settings.bob)].get(
            (outcomes.alice, outcomes.bob), ZERO)

    def _support(self, settings: SettingAssignment) -> tuple:
        key = (settings.alice, settings.bob)
        scale = self._scales[key]
        # Descending order of the +1/-1 tuples is product(OUTCOMES) order.
        return self._memoized(("support", key), lambda: (scale, tuple(sorted(
            ((oa + ob, p.numerator * (scale // p.denominator))
             for (oa, ob), p in self.table[key].items() if p != 0), reverse=True))))


def _check_block(n: int, sa: tuple, sb: tuple, items: Iterable,
                 outcome_keys: dict) -> tuple:
    """``(entries, fault, scale)`` of one joint-table block's
    ``(outcome key, p)`` items, checked in one pass.

    A bad outcome raises where it is met.  ``fault`` is the message of the
    first entry with an outcome tuple of the wrong length or a negative
    numerator, else of a total other than 1, else None; the total is the
    numerators summed per denominator and rescaled to their lcm ``scale``.
    ``outcome_keys`` caches each outcome key's normalised tuples across
    blocks.
    """
    entries = {}
    sums: dict = {}  # denominator -> sum of its numerators
    fault = None
    for ok, p in items:
        checked = outcome_keys.get(ok)
        if checked is None:
            oa, ob = tuple(ok[0]), tuple(ok[1])
            if any(v not in OUTCOMES for v in oa + ob):
                raise ConstructionError(
                    f"outcomes must be +1 or -1, got {oa};{ob} at settings {sa};{sb}")
            checked = outcome_keys[ok] = ((oa, ob), len(oa) == n == len(ob))
        outcomes, fits = checked
        entries[outcomes] = p = as_rational(p)
        numerator, denominator = p.numerator, p.denominator
        if fault is None:
            if not fits:
                fault = f"outcome tuple length mismatch at settings {sa};{sb}"
            elif numerator < 0:
                fault = (f"negative probability {p} at settings {sa};{sb}, "
                         f"outcomes {outcomes[0]};{outcomes[1]}")
        sums[denominator] = sums.get(denominator, 0) + numerator
    scale = lcm(*sums)
    if fault is None:
        total = sum(count * (scale // d) for d, count in sums.items())
        if total != scale:
            fault = (f"outcomes for setting assignment {sa};{sb} sum to "
                     f"{Fraction(total, scale)}, not 1")
    return entries, fault, scale


def independent_pairs(box: PairBox, n: int) -> IndependentPairs:
    """Model of ``n`` independent copies of ``box``, checked on construction."""
    return IndependentPairs(box=box, n=n)


def explicit_joint(n: int, s_a: int, s_b: int, table: Mapping) -> ExplicitJoint:
    """Wrap an explicit joint table, checked on construction
    (see :class:`ExplicitJoint`)."""
    return ExplicitJoint(n=n, s_a=s_a, s_b=s_b, table=table)


def explicit_joint_from_json(text: str) -> ExplicitJoint:
    """Load a joint table from its JSON form (omitted entries are zero)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConstructionError(f"invalid joint-table JSON: {exc}") from exc
    return explicit_joint_from_data(data)


def explicit_joint_from_data(data) -> ExplicitJoint:
    """Build a joint table from the parsed JSON object of
    :func:`explicit_joint_from_json`.

    Each entry's four lists must hold integers only, by the rule of
    :func:`~macrobox.boxes.json_int` (no bools, no floats), checked once per
    entry.  Repeated entries are summed, and each distinct "p/q" text is
    parsed once.
    """
    try:
        n = json_int(data["n"])
        s_a = json_int(data["s_a"])
        s_b = json_int(data["s_b"])
        entries = list(data["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed joint-table JSON: {exc}") from exc
    table: dict = {}
    parsed: dict = {}  # "p/q" text -> Fraction; tables repeat few distinct values
    for entry in entries:
        try:
            sa = tuple(entry["settings_a"])
            sb = tuple(entry["settings_b"])
            oa = tuple(entry["outcomes_a"])
            ob = tuple(entry["outcomes_b"])
            if not all(type(v) is int for v in sa + sb + oa + ob):
                raise TypeError("settings and outcomes must be integers")
            raw = entry["p"]
            if isinstance(raw, str):
                p = parsed.get(raw)
                if p is None:
                    p = parsed[raw] = as_rational(raw)
            else:
                p = as_rational(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"malformed joint-table entry {entry!r}") from exc
        block = table.setdefault((sa, sb), {})
        key = (oa, ob)
        block[key] = block[key] + p if key in block else p
    return explicit_joint(n, s_a, s_b, table)


def _normalize_spec(model: EnsembleModel, spec: Sequence) -> tuple:
    """Validate a marginal spec: (side, particle, setting) triples."""
    seen = set()
    slots = []
    for entry in spec:
        side, particle, setting = entry
        if side not in (ALICE, BOB):
            raise DomainError(f"side must be {ALICE!r} or {BOB!r}, got {side!r}")
        if not (0 <= particle < model.n):
            raise DomainError(
                f"particle index {particle} out of range for n={model.n}")
        limit = model.s_a if side == ALICE else model.s_b
        if not (0 <= setting < limit):
            raise DomainError(f"setting {setting} out of range for side {side}")
        if (side, particle) in seen:
            raise DomainError(f"particle ({side}, {particle}) listed twice")
        seen.add((side, particle))
        slots.append((side, particle, setting))
    return tuple(slots)


def _support_counts(model: EnsembleModel, settings: SettingAssignment,
                    key: Callable[[tuple], object]) -> tuple:
    """``(D, counts)``: the exact law of ``key(alice + bob outcomes)`` under
    ``settings`` as integer counts over the common denominator ``D``.

    Scans the model's nonzero support once and sums the integer weights per
    key.  Keys appear in the order of their first support tuple, and every
    count is positive.
    """
    scale, support = model._support(settings)
    counts: dict = {}
    for combined, weight in support:
        k = key(combined)
        counts[k] = counts.get(k, 0) + weight
    return scale, counts


def _as_law(scale: int, counts: dict) -> dict:
    """The Fraction law of ``counts`` over ``scale``, one Fraction per key."""
    return {k: Fraction(count, scale) for k, count in counts.items()}


def _same_law(scale: int, counts: dict, other_scale: int, other_counts: dict) -> bool:
    """Whether two count laws are the same probability law.

    Equal denominators compare the counts directly; otherwise the key sets
    must match and every count must agree after cross-multiplication.
    """
    if scale == other_scale:
        return counts == other_counts
    return (counts.keys() == other_counts.keys()
            and all(count * other_scale == other_counts[k] * scale
                    for k, count in counts.items()))


def _marginal_counts(model: EnsembleModel, slots: tuple,
                     fill_a: int, fill_b: int) -> tuple:
    """``(D, counts)`` of the marginal over the nonzero support (at most 4^N
    tuples) of one setting assignment, with fixed completion settings."""
    settings_a = [fill_a] * model.n
    settings_b = [fill_b] * model.n
    positions = []
    for side, particle, setting in slots:
        if side == ALICE:
            settings_a[particle] = setting
            positions.append(particle)
        else:
            settings_b[particle] = setting
            positions.append(model.n + particle)
    settings = SettingAssignment(alice=tuple(settings_a), bob=tuple(settings_b))
    return _support_counts(model, settings, _projection(positions))


def _projection(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The C-level key ``combined -> tuple(combined[pos] for pos in positions)``.

    ``itemgetter`` of one index returns the bare item, so one position reads
    a one-item slice instead, which keeps the key a 1-tuple.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def _product_marginal_counts(model: IndependentPairs, slots: tuple,
                             fill_a: int, fill_b: int) -> tuple:
    """``(D, counts)`` of a product model's marginal: one integer box factor
    per involved pair, over the memoised rows of :meth:`IndependentPairs._scaled_rows`.

    A particle whose partner slot is not listed is summed out through the
    completion setting ``fill_a``/``fill_b`` on the opposite side, which is
    exactly where a signalling box would leak.  ``D`` is the box scale to
    the power of the number of involved pairs; keys follow
    ``product(OUTCOMES, repeat=len(slots))`` and every count is positive.
    """
    scale, rows = model._memoized(("support-rows",), model._scaled_rows)
    per_pair: dict = {}
    for position, (side, particle, setting) in enumerate(slots):
        per_pair.setdefault(particle, {})[side] = (position, setting)
    factors = []  # (positions of the pair's listed slots, counts over their outcomes)
    for sides in per_pair.values():
        pos_a, i = sides.get(ALICE, (None, fill_a))
        pos_b, j = sides.get(BOB, (None, fill_b))
        listed = (pos_a is not None, pos_b is not None)
        table: dict = {}
        for x, (ys, ws) in rows[(i, j)].items():
            for y, w in zip(ys, ws):
                key = tuple(o for o, keep in zip((x, y), listed) if keep)
                table[key] = table.get(key, 0) + w
        factors.append((tuple(pos for pos in (pos_a, pos_b) if pos is not None), table))
    counts = {}
    for assignment in product(OUTCOMES, repeat=len(slots)):
        weight = 1
        for positions, table in factors:
            weight *= table.get(tuple(assignment[pos] for pos in positions), 0)
            if not weight:
                break
        if weight:
            counts[assignment] = weight
    return scale ** len(factors), counts


def marginal(model: EnsembleModel, spec: Sequence) -> dict:
    """Exact marginal over the listed (side, particle, setting) slots.

    Unlisted particles are given a completion setting and summed out: every
    unlisted Alice particle gets setting 0 and every unlisted Bob particle
    setting 0.  A joint table's marginal is computed again under the (1, 1)
    completion (a side with a single setting keeps 0) and the two must
    agree exactly; a mismatch means the model signals and raises
    :class:`SignallingError` carrying both values.  Only these two
    completions are compared, so a leak that shows only under a mixed
    completion, such as Alice's unlisted particles at 0 and Bob's at 1,
    passes unnoticed; :func:`check_no_signalling` is the exhaustive check.
    A product model's box passed :func:`~macrobox.boxes.validate_pairbox`
    at construction and is read-only, so its completions always agree and
    only (0, 0) is computed.

    Returns a dict mapping outcome tuples (in spec order) to probabilities;
    outcome tuples with zero probability are omitted.

    The model memoises the integer count law of :func:`_checked_marginal`,
    keyed by the normalised slots; each call builds a fresh Fraction dict
    from it.  The spec is validated on every call; the completion check
    runs with the first computation, and only a law that passed it is
    stored, so a signalling model raises on every call.
    """
    return _as_law(*_marginal_count_law(model, _normalize_spec(model, spec)))


def _marginal_count_law(model: EnsembleModel, slots: tuple) -> tuple:
    """The memoised ``(D, counts)`` of :func:`_checked_marginal`; not copied,
    so callers must not mutate it."""
    return model._memoized(("marginal-counts", slots),
                           lambda: _checked_marginal(model, slots))


def _checked_marginal(model: EnsembleModel, slots: tuple) -> tuple:
    """The uncached body of :func:`marginal` on validated slots: the marginal
    as an integer count law ``(D, counts)``.

    A product model multiplies its box's integer rows under the (0, 0)
    completion (:func:`_product_marginal_counts`); its box is validated and
    read-only, so the (1, 1) completion could not differ and is not
    computed.  Any other model scans the support (:func:`_marginal_counts`)
    under the (0, 0) completion and under the (1, 1) completion (0 on a
    side with one setting), and compares the two with :func:`_same_law`.
    Fractions are built only for a mismatch, to carry both laws on the
    error.
    """
    if isinstance(model, IndependentPairs):
        return _product_marginal_counts(model, slots, 0, 0)
    alt_a = 1 if model.s_a > 1 else 0
    alt_b = 1 if model.s_b > 1 else 0
    scale, counts = _marginal_counts(model, slots, 0, 0)
    if (alt_a, alt_b) != (0, 0):
        alt_scale, alt_counts = _marginal_counts(model, slots, alt_a, alt_b)
        if not _same_law(scale, counts, alt_scale, alt_counts):
            raise SignallingError(
                f"marginal over {slots} depends on the completion settings "
                f"(fill (0,0) vs ({alt_a},{alt_b})): the model signals",
                first=_as_law(scale, counts), second=_as_law(alt_scale, alt_counts))
    return scale, counts


def marginal_correlator(model: EnsembleModel, spec: Sequence) -> Fraction:
    """Expectation of the product of the listed slots' outcomes.

    Validated and checked as :func:`marginal`, and read from the same
    memoised count law: one Fraction, the signed count sum over ``D``.
    """
    slots = _normalize_spec(model, spec)
    scale, counts = _marginal_count_law(model, slots)
    return Fraction(sum(prod(outcomes) * count for outcomes, count in counts.items()),
                    scale)


def check_no_signalling(model: EnsembleModel) -> ValidationReport:
    """No-signalling violations over all single-particle setting swaps.

    For every particle, every pair of its settings, and every setting context
    of the remaining 2N-1 particles, the distribution of all other outcomes
    must be unchanged.  A product model answers from its box at any N: a
    product of no-signalling boxes is no-signalling, so the report holds the
    no-signalling rows of :func:`~macrobox.boxes.validate_pairbox` on
    ``model.box`` (none, since construction validated the box).  Any other
    model gets the exhaustive :func:`_swap_scan`, which reads each of the
    table's s^(2N) blocks 2N times; construction already holds all of them,
    so the cost is linear in the input.
    """
    if isinstance(model, IndependentPairs):
        return ValidationReport(violations=tuple(
            v for v in validate_pairbox(model.box).violations if v.kind == "no-signalling"))
    return _swap_scan(model)


def _swap_scan(model: EnsembleModel) -> ValidationReport:
    """The exhaustive swap check behind :func:`check_no_signalling`.

    Loops over one combined 2N-slot setting context (Alice's settings, then
    Bob's) with the swapped slot pinned at 0 and swapped to each setting.
    Cost is s^(2N) scans of the nonzero support (at most 4^N tuples each);
    on a joint table each scan reads a block the model already holds.  The
    laws are compared as integer counts (:func:`_same_law`); Fractions are
    built only for a mismatch, to report its worst residual.
    """
    n = model.n
    violations = []
    for side, s_count, offset in ((ALICE, model.s_a, 0), (BOB, model.s_b, n)):
        if s_count < 2:
            continue
        for particle in range(n):
            skip = offset + particle
            others = _projection([k for k in range(2 * n) if k != skip])
            for context in product(*([range(model.s_a)] * n + [range(model.s_b)] * n)):
                if context[skip] != 0:
                    continue  # pin the swapped slot; loop below swaps it
                dists = []
                for swapped in range(s_count):
                    settings = context[:skip] + (swapped,) + context[skip + 1:]
                    dists.append((swapped, _support_counts(
                        model, SettingAssignment(settings[:n], settings[n:]), others)))
                base_setting, (base_scale, base_counts) = dists[0]
                for swapped, (scale, counts) in dists[1:]:
                    if not _same_law(base_scale, base_counts, scale, counts):
                        base = _as_law(base_scale, base_counts)
                        other = _as_law(scale, counts)
                        keys = set(base) | set(other)
                        worst = max(
                            keys,
                            key=lambda k: abs(other.get(k, ZERO) - base.get(k, ZERO)))
                        residual = other.get(worst, ZERO) - base.get(worst, ZERO)
                        violations.append(Violation(
                            kind="no-signalling",
                            where=(side, particle, base_setting, swapped,
                                   context[:n], context[n:]),
                            residual=residual,
                            detail=(f"marginal of the other particles changes when "
                                    f"({side},{particle}) swaps setting "
                                    f"{base_setting} -> {swapped}")))
    return ValidationReport(violations=tuple(violations))
