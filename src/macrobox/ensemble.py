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
out.  A product model reads its box's integer form (``PairBox.scale`` and
``PairBox.weights``, computed once when the box is built) and keeps no
scaled copy of it: its support is streamed from those integer cells.
Each model's ``_support`` kernel names every joint outcome by one integer
code, a bit per slot, so a scan keys its counts by the code masked to the
slots it keeps (:func:`_support_counts`), and only a law that is handed
out or reported is decoded into outcome tuples.  An explicit table's one
stored form is its integer blocks, each a scale and its sorted (code,
count) support, built once at load in a single checked walk over the
entries (:func:`_joint_blocks`), from JSON entries with no Fraction per
entry; its marginals and swap check read those blocks, and its Fraction
``table`` is decoded from them block by block when it is read (see
:class:`ExplicitJoint`).  A product model's kernel streams up
to 4^N codes from one box.  A marginal scans it on the model of the k
pairs it names, so at most 4^k codes; the brute-force distribution of
:mod:`macrobox.macro` scans all N pairs, and states the cost and leaves
the size to its caller.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, prod
from types import MappingProxyType

from .boxes import (
    ALICE,
    BOB,
    MINUS,
    ONE,
    OUTCOMES,
    PLUS,
    ZERO,
    PairBox,
    ValidationReport,
    Violation,
    _collector_paused,
    as_rational,
    check_sizes,
    json_int,
    parse_json,
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

        In the package only :meth:`joint_probability` calls this; scans use
        :meth:`_support` instead.
        """
        raise NotImplementedError

    def _support(self, settings: SettingAssignment) -> tuple:
        """``(D, pairs)``: the nonzero joint outcomes under ``settings``.

        ``pairs`` yields ``(code, w)`` with integer ``w > 0`` and
        probability ``w / D``.  ``code`` holds the 2N outcomes, Alice's
        particles and then Bob's, one bit per slot: bit 2N-1-k is set when
        slot k's outcome is -1 (:func:`_slot_shift`).  Codes ascend, which
        is the order of ``product(OUTCOMES, repeat=2 * n)``, and exactly the
        codes whose :meth:`_joint` is 0 are skipped.  Keeping that order
        keeps every dict built from the scan in the same insertion order as
        a full 4^N loop.
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

    Construction rejects an ``n`` that is not an int or is below 1
    (:class:`DomainError`) and a box that fails
    :func:`~macrobox.boxes.validate_pairbox` (:class:`ConstructionError`),
    so every instance is a product of normalised, nonnegative,
    no-signalling boxes and hence no-signalling itself.
    """

    box: PairBox
    n: int
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self) -> None:
        check_sizes(DomainError, n=self.n)
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

    def _support(self, settings: SettingAssignment) -> tuple:
        n, weights = self.n, self.box.weights
        # Per pair, each Alice outcome with a nonzero cell, in OUTCOMES order,
        # as (Alice's code bit, Bob's code bits, weights), bits already shifted.
        per_pair = []
        for k, (i, j) in enumerate(zip(settings.alice, settings.bob)):
            rows = [[y for y in OUTCOMES if weights[(i, j, x, y)]] for x in OUTCOMES]
            per_pair.append([((x < 0) << _slot_shift(n, ALICE, k),
                              tuple((y < 0) << _slot_shift(n, BOB, k) for y in ys),
                              tuple(weights[(i, j, x, y)] for y in ys))
                             for x, ys in zip(OUTCOMES, rows) if ys])
        return self.box.scale ** n, self._support_leaves(per_pair)

    @staticmethod
    def _support_leaves(per_pair: list) -> Iterable:
        # Streamed, never listed: a product model's support can hold 4^N
        # codes.  Alice's bits are the high ones and vary slowest.
        for alice in product(*per_pair):
            high = sum(bit for bit, _, _ in alice)
            bobs = product(*(bits for _, bits, _ in alice))
            weights = product(*(ws for _, _, ws in alice))
            for bob, leaf in zip(bobs, weights):
                yield high + sum(bob), prod(leaf)


@dataclass(frozen=True)
class ExplicitJoint(EnsembleModel):
    """Arbitrary joint table, keyed by (alice settings, bob settings).

    Each setting assignment maps to a mapping over (alice outcomes, bob
    outcomes); omitted outcome entries are zero.  Construction checks the
    table against ``n``, ``s_a`` and ``s_b``, which must be ints: every
    setting key must list ``n`` in-range settings per side, every outcome
    must be +1 or -1, and each setting assignment must be nonnegative and
    normalized.

    The table's one stored form is its integer blocks, built at
    construction in one walk over the entries (:func:`_joint_blocks`):
    per setting assignment a scale ``D`` (the lcm of the block's
    denominators), the integer count ``D * p`` of each stored outcome,
    and the sorted nonzero support that :meth:`_support` returns.  A
    table and a JSON file (:func:`explicit_joint_from_json`) follow the
    same rules, those of that walk: keys that name one setting tuple or
    one outcome tuple are summed, a value that is not a rational and a
    key that is not a pair of sequences raise where they are met, and the
    other faults are reported after the walk.
    The JSON loader builds the blocks straight from its entries, with no
    Fraction per entry, and passes them as ``table``; construction keeps
    such checked blocks as they are.

    ``table`` is a read-only view of the blocks as Fractions, each block
    decoded on its first read; its blocks are read-only too, so the
    model's memoised laws cannot go stale.  Models compare equal when
    their blocks do, which is when their tables do.  No-signalling is not
    enforced: signalling tables are constructible on purpose and flagged
    later by :func:`check_no_signalling` or by marginal completion checks.
    """

    n: int
    s_a: int
    s_b: int
    table: Mapping = field(compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)
    _blocks: dict = field(init=False, repr=False)
    _supports: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, s_a, s_b, table = self.n, self.s_a, self.s_b, self.table
        if not (isinstance(table, _JointTable) and table.shape == (n, s_a, s_b)):
            table = _joint_blocks(n, s_a, s_b, _table_runs(n, table))
        object.__setattr__(self, "table", MappingProxyType(table))
        object.__setattr__(self, "_blocks", table.blocks)
        object.__setattr__(self, "_supports", table.supports)

    def _joint(self, settings: SettingAssignment,
               outcomes: OutcomeAssignment) -> Fraction:
        return self.table[(settings.alice, settings.bob)].get(
            (outcomes.alice, outcomes.bob), ZERO)

    def _support(self, settings: SettingAssignment) -> tuple:
        scale, support = self._supports[(settings.alice, settings.bob)]
        return scale, support.items()


class _JointTable(Mapping):
    """The checked integer blocks of a joint table, read as the table.

    ``blocks`` maps each setting key, in first-seen order, to ``(D,
    counts)``: ``counts`` maps the support code of each stored outcome,
    in stored order and zeros included, to ``D * p``.  ``supports`` maps
    it to ``(D, support)``, the nonzero counts in a dict sorted by code:
    a dict of ints only, which the cyclic collector never tracks, so no
    collection scans a support entry by entry.  As
    a mapping it is the Fraction table, each block decoded into a
    read-only ``{(alice outcomes, bob outcomes): p}`` on its first read.
    """

    def __init__(self, shape: tuple, blocks: dict, supports: dict) -> None:
        self.shape, self.blocks, self.supports = shape, blocks, supports
        self._decoded: dict = {}

    def __getitem__(self, key) -> Mapping:
        block = self._decoded.get(key)
        if block is None:
            scale, counts = self.blocks[key]
            n = self.shape[0]
            block = self._decoded[key] = MappingProxyType({
                _outcomes_of(n, code): Fraction(count, scale)
                for code, count in counts.items()})
        return block

    def __contains__(self, key) -> bool:
        return key in self.blocks

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _joint_blocks(n: int, s_a: int, s_b: int, runs: Iterable) -> _JointTable:
    """The checked :class:`_JointTable` of ``runs``, in one walk over the
    entries.

    ``runs`` yields ``(setting key, entries)``, with the key a pair of
    tuples and each entry a ``(code, (numerator, denominator))`` pair
    (:func:`_json_runs`, :func:`_table_runs`); a malformed entry has
    raised where the run met it.  ``code`` is the support code of the
    entry's outcome (:func:`_outcome_code`), or its outcome key if that
    does not name n +1/-1 outcomes per side.  Each block keeps integer
    counts over a running scale, the lcm of the denominators met so far.
    Repeated outcomes and setting keys are summed.  A bad setting key or
    outcome is held until after the walk, so a malformed entry met later
    still wins; then the shape is checked, then the first block (in
    first-seen order) with a bad key or outcome raises, then the held
    faults follow (:func:`_checked_blocks`).
    """
    check_sizes(DomainError, n=n, s_a=s_a, s_b=s_b)
    blocks: dict = {}  # setting key -> [scale, counts], or None
    faults: dict = {}  # setting key -> its first bad key or outcome
    misfits = set()    # setting keys of blocks with an outcome of the wrong length
    for key, run in runs:
        if key not in blocks:
            message = _setting_key_fault(n, s_a, s_b, key)
            if message is not None:
                faults[key] = message
            blocks[key] = None if message is not None else [1, {}]
        block = blocks[key]
        if block is None:
            continue
        scale, counts = block
        for code, (numerator, denominator) in run:
            if type(code) is not int:
                alice, bob = code
                if any(o not in OUTCOMES for o in alice + bob):
                    faults.setdefault(key, f"outcomes must be +1 or -1, got "
                                           f"{alice};{bob} at settings {key[0]};{key[1]}")
                    continue
                misfits.add(key)  # stored under its key, to be reported after the walk
            if scale % denominator:  # raise the scale to the lcm, counts with it
                factor = denominator // gcd(scale, denominator)
                scale *= factor
                for c in counts:
                    counts[c] *= factor
            counts[code] = counts.get(code, 0) + numerator * (scale // denominator)
        block[0] = scale
    if n < 1:
        raise DomainError(f"need at least one pair, got n={n}")
    if s_a < 1 or s_b < 1:
        raise DomainError("each side needs at least one setting")
    if not blocks:
        raise ConstructionError("empty joint table")
    if faults:
        raise ConstructionError(next(faults[key] for key in blocks if key in faults))
    return _checked_blocks(n, s_a, s_b, blocks, misfits)


def _checked_blocks(n: int, s_a: int, s_b: int, blocks: dict, misfits: set) -> _JointTable:
    """The held faults of :func:`_joint_blocks`'s walked ``blocks``: per
    block, the first stored entry of the wrong length or with a negative
    value (:func:`_entry_fault`), else a total other than 1; the first
    failing setting assignment in ``product`` order raises, a missing
    block as summing to 0.

    Each block's scale is then reduced to the lcm of its stored values'
    denominators, and its nonzero counts are sorted by code into its
    support.
    """
    held = {}
    for key, (scale, counts) in blocks.items():
        values = counts.values()
        if key in misfits or min(values, default=0) < 0:
            held[key] = _entry_fault(n, key, scale, counts)
        elif sum(values) != scale:
            held[key] = (f"outcomes for setting assignment {key[0]};{key[1]} "
                         f"sum to {Fraction(sum(values), scale)}, not 1")
    # Keys are in range, so a missing block shows in the count.
    if held or len(blocks) != (s_a * s_b) ** n:
        for sa in product(range(s_a), repeat=n):
            for sb in product(range(s_b), repeat=n):
                if (sa, sb) not in blocks:
                    raise ConstructionError(
                        f"outcomes for setting assignment {sa};{sb} sum to 0, not 1")
                if (sa, sb) in held:
                    raise ConstructionError(held[(sa, sb)])
    reduced = {}
    supports = {}
    for key, (scale, counts) in blocks.items():
        common = gcd(scale, *counts.values())
        if common > 1:
            scale //= common
            counts = {code: count // common for code, count in counts.items()}
        reduced[key] = (scale, counts)
        pairs = counts.items() if 0 not in counts.values() else (
            item for item in counts.items() if item[1])
        supports[key] = (scale, dict(sorted(pairs)))
    return _JointTable((n, s_a, s_b), reduced, supports)


def _setting_key_fault(n: int, s_a: int, s_b: int, key: tuple) -> str | None:
    sa, sb = key
    if len(sa) != n or len(sb) != n:
        return f"setting key {sa};{sb} does not list n={n} settings per side"
    if any(type(s) is not int or not 0 <= s < m for ss, m in ((sa, s_a), (sb, s_b)) for s in ss):
        return f"setting key {sa};{sb} has a setting outside s_a={s_a}, s_b={s_b}"
    return None


def _entry_fault(n: int, key: tuple, scale: int, counts: dict) -> str:
    """The message of a block's first stored entry that has an outcome
    tuple of the wrong length or a negative value."""
    for code, count in counts.items():
        if type(code) is not int:
            return f"outcome tuple length mismatch at settings {key[0]};{key[1]}"
        if count < 0:
            alice, bob = _outcomes_of(n, code)
            return (f"negative probability {Fraction(count, scale)} at settings "
                    f"{key[0]};{key[1]}, outcomes {alice};{bob}")
    raise AssertionError("a block held as faulty has no faulty entry")


def _outcome_code(n: int, outcomes: tuple):
    """The support code of one joint outcome of ``n`` pairs (see
    :meth:`EnsembleModel._support`), or ``outcomes`` itself if it does not
    list ``n`` outcomes per side, each +1 or -1."""
    alice, bob = outcomes
    if len(alice) != n or len(bob) != n or any(o not in OUTCOMES for o in alice + bob):
        return outcomes
    return sum(1 << _slot_shift(n, side, particle)
               for side, side_outcomes in ((ALICE, alice), (BOB, bob))
               for particle, o in enumerate(side_outcomes) if o < 0)


def _outcomes_of(n: int, code: int) -> tuple:
    """The (alice outcomes, bob outcomes) of a support code."""
    slots = tuple(MINUS if code >> (2 * n - 1 - k) & 1 else PLUS for k in range(2 * n))
    return slots[:n], slots[n:]


def _table_runs(n: int, table: Mapping) -> Iterable:
    """The runs of :func:`_joint_blocks` of a table of blocks, as
    :func:`_json_runs` yields them: one per block, its key as a pair of
    tuples and its entries as ``(code, (numerator, denominator))``
    (:func:`~macrobox.boxes.as_rational`), converted as they are met.  A
    table or block that is not a mapping, or a setting or outcome key that
    is not a pair of sequences, raises :class:`ConstructionError` where
    it is met."""
    if not isinstance(table, Mapping):
        raise ConstructionError(f"a joint table is a mapping of blocks, got {table!r}")
    codes: dict = {}  # outcome key -> support code
    for key, block in table.items():
        if not isinstance(block, Mapping):
            raise ConstructionError(f"block {key} is not a mapping of outcomes: {block!r}")
        pair = _tuple_pair(key)
        if pair is None:
            raise ConstructionError(f"setting key {key!r} is not a pair of sequences")
        run = []
        for outcomes, p in block.items():
            outcomes_pair = _tuple_pair(outcomes)
            if outcomes_pair is None:
                raise ConstructionError(f"outcome key {outcomes!r} at settings "
                                        f"{pair[0]};{pair[1]} is not a pair of sequences")
            code = codes.get(outcomes_pair)
            if code is None:
                code = codes[outcomes_pair] = _outcome_code(n, outcomes_pair)
            run.append((code, as_rational(p).as_integer_ratio()))
        yield pair, run


def _tuple_pair(key) -> tuple | None:
    """``key`` as a pair of tuples, or None if it is not a pair of
    sequences."""
    try:
        alice, bob = key
        return tuple(alice), tuple(bob)
    except (TypeError, ValueError):
        return None


def _json_runs(n: int, entries: list) -> Iterable:
    """The runs of :func:`_joint_blocks` of JSON entries: one per stretch
    of entries with one setting key, checked as they are met.

    An entry must hold its four lists of integers, by the rule of
    :func:`~macrobox.boxes.json_int` (no bools, no floats), and a rational
    ``p`` (:func:`~macrobox.boxes.as_rational`): an int, or a "p/q" text,
    each distinct text parsed once.

    Nothing is serialised per entry.  Every value of every entry is
    checked one by one, a new run's settings as the tuples of its key: no
    cache keyed by the values could spare that, since ``True`` and
    ``1.0`` compare and hash as ``1`` does.  Once checked, values are
    compared by value: an entry whose setting lists equal those that
    started the run continues it, and a repeated outcome goes straight to
    its support code through ``codes``, keyed by the flat tuple of its
    values, Alice's first.  Only an outcome that lists ``n`` values for
    Alice is cached, so a flat key names one split.  The three checking
    loops are written out: one loop over a joined tuple costs more than
    the joining saves.
    """
    codes: dict = {}   # flat outcome values -> support code
    ratios: dict = {}  # "p/q" text -> (numerator, denominator)
    run_key, run_a, run_b, run = None, None, None, []
    for entry in entries:
        try:
            sa, sb = entry["settings_a"], entry["settings_b"]
            oa, ob, raw = entry["outcomes_a"], entry["outcomes_b"], entry["p"]
            if sa == run_a and sb == run_b:
                key, alice, bob = run_key, sa, sb
            else:
                key = alice, bob = tuple(sa), tuple(sb)
            values = (*oa, *ob)
            for v in alice:
                if type(v) is not int:
                    raise TypeError(f"not an integer: {v!r}")
            for v in bob:
                if type(v) is not int:
                    raise TypeError(f"not an integer: {v!r}")
            for v in values:
                if type(v) is not int:
                    raise TypeError(f"not an integer: {v!r}")
            code = codes.get(values) if len(oa) == n else None
            if code is None:
                code = _outcome_code(n, (tuple(oa), tuple(ob)))
                if len(oa) == n:
                    codes[values] = code
            ratio = ratios.get(raw) if type(raw) is str else None
            if ratio is None:
                ratio = (raw, 1) if type(raw) is int else as_rational(raw).as_integer_ratio()
                if type(raw) is str:
                    ratios[raw] = ratio
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"malformed joint-table entry {entry!r}") from exc
        if key is not run_key:
            run_a, run_b = sa, sb
            if key != run_key:
                if run:
                    yield run_key, run
                run_key, run = key, []
        run.append((code, ratio))
    if run:
        yield run_key, run


def independent_pairs(box: PairBox, n: int) -> IndependentPairs:
    """Model of ``n`` independent copies of ``box``, checked on construction."""
    return IndependentPairs(box=box, n=n)


def explicit_joint(n: int, s_a: int, s_b: int, table: Mapping) -> ExplicitJoint:
    """Wrap an explicit joint table, checked on construction
    (see :class:`ExplicitJoint`)."""
    return ExplicitJoint(n=n, s_a=s_a, s_b=s_b, table=table)


def explicit_joint_from_json(text: str) -> ExplicitJoint:
    """Load a joint table from its JSON form (omitted entries are zero),
    decoded and walked in one collector pause
    (:func:`~macrobox.boxes.parse_json`)."""
    return parse_json(text, "joint-table", explicit_joint_from_data)


def explicit_joint_from_data(data) -> ExplicitJoint:
    """Build a joint table from the parsed JSON object of
    :func:`explicit_joint_from_json`.

    The entries are walked once, straight into the model's integer blocks
    (:func:`_json_runs` into :func:`_joint_blocks`): no Fraction table is
    built.  The walk and the model's construction run with the collector
    paused (:func:`~macrobox.boxes._collector_paused`); called from
    :func:`~macrobox.boxes.parse_json`, that is the decoder's pause, which
    nests.  Repeated entries are summed.  A malformed entry is reported
    before any other fault; the others are reported as construction
    reports them (see :class:`ExplicitJoint`).
    """
    try:
        n = json_int(data["n"])
        s_a = json_int(data["s_a"])
        s_b = json_int(data["s_b"])
        entries = list(data["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError(f"malformed joint-table JSON: {exc}") from exc
    with _collector_paused():
        return explicit_joint(n, s_a, s_b, _joint_blocks(n, s_a, s_b, _json_runs(n, entries)))


def _normalize_spec(model: EnsembleModel, spec: Sequence) -> tuple:
    """Validate a marginal spec: (side, particle, setting) triples."""
    seen = set()
    slots = []
    for entry in spec:
        side, particle, setting = _triple(entry, "(side, particle, setting)")
        if side not in (ALICE, BOB):
            raise DomainError(f"side must be {ALICE!r} or {BOB!r}, got {side!r}")
        if type(particle) is not int or not (0 <= particle < model.n):
            raise DomainError(
                f"particle index {particle} out of range for n={model.n}")
        limit = model.s_a if side == ALICE else model.s_b
        if type(setting) is not int or not (0 <= setting < limit):
            raise DomainError(f"setting {setting} out of range for side {side}")
        if (side, particle) in seen:
            raise DomainError(f"particle ({side}, {particle}) listed twice")
        seen.add((side, particle))
        slots.append((side, particle, setting))
    return tuple(slots)


def _triple(entry, names: str) -> tuple:
    """``entry`` unpacked into three values; :class:`DomainError` naming the
    ``names`` it should hold if it is not a sequence of three."""
    try:
        first, second, third = entry
    except (TypeError, ValueError):
        raise DomainError(f"spec entry {entry!r} is not a {names} triple") from None
    return first, second, third


def _slot_shift(n: int, side: str, particle: int) -> int:
    """The bit of slot (side, particle) in a support code: 2N-1-k for the
    combined slot k, Alice's particles first."""
    return 2 * n - 1 - (particle if side == ALICE else n + particle)


def _support_counts(model: EnsembleModel, settings: SettingAssignment,
                    mask: int) -> tuple:
    """``(D, counts)``: the exact law of ``code & mask`` under ``settings``
    as integer counts over the common denominator ``D``.

    Scans the model's nonzero support once and sums the integer weights per
    masked code, so the law is over the slots whose bits ``mask`` keeps.
    Masked codes appear in the order of their first support code, and every
    count is positive; :func:`_decoded` turns them into outcome tuples.
    """
    scale, support = model._support(settings)
    counts: dict = {}
    get = counts.get
    for code, weight in support:
        code &= mask
        counts[code] = get(code, 0) + weight
    return scale, counts


def _side_sum_counts(model: EnsembleModel, settings: SettingAssignment) -> tuple:
    """``(D, counts)``: the exact law of (sum of Alice's outcomes, sum of
    Bob's) under ``settings``, as integer counts over ``D``.

    Streams the model's nonzero support once, keying each code by the
    popcounts of its halves (Alice's bits are the high N), so a product
    model's 4^N codes are never listed.
    """
    n = model.n
    low = (1 << n) - 1
    scale, support = model._support(settings)
    counts: dict = {}
    for code, weight in support:
        key = (n - 2 * (code >> n).bit_count(), n - 2 * (code & low).bit_count())
        counts[key] = counts.get(key, 0) + weight
    return scale, counts


def _decoded(scale: int, counts: dict, shifts: Sequence[int]) -> tuple:
    """``(D, counts)`` with the masked support codes of ``counts`` re-keyed,
    in the same order, by the outcome tuples of the slots whose bits are
    ``shifts``."""
    return scale, {tuple([MINUS if code >> shift & 1 else PLUS for shift in shifts]): count
                   for code, count in counts.items()}


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
    codes) of one setting assignment, with fixed completion settings,
    keyed by masked support codes."""
    n = model.n
    settings_a = [fill_a] * n
    settings_b = [fill_b] * n
    mask = 0
    for side, particle, setting in slots:
        (settings_a if side == ALICE else settings_b)[particle] = setting
        mask |= 1 << _slot_shift(n, side, particle)
    settings = SettingAssignment(alice=tuple(settings_a), bob=tuple(settings_b))
    return _support_counts(model, settings, mask)


def marginal(model: EnsembleModel, spec: Sequence) -> dict:
    """Exact marginal over the listed (side, particle, setting) slots.

    Unlisted particles are given a completion setting and summed out: every
    unlisted Alice particle gets setting 0 and every unlisted Bob particle
    setting 0.  A joint table's marginal is computed again under the (1, 1)
    completion (a side with a single setting keeps 0) and the two must
    agree exactly; a mismatch means the model signals and raises
    :class:`SignallingError` carrying both values.  A spec that lists all
    2N particles leaves none to complete, so it reads one block and
    compares nothing.  Only these two completions are compared, so a leak
    that shows only under a mixed completion, such as Alice's unlisted
    particles at 0 and Bob's at 1, passes unnoticed;
    :func:`check_no_signalling` is the exhaustive check.
    A product model's box passed :func:`~macrobox.boxes.validate_pairbox`
    at construction and is read-only, so its completions always agree and
    only (0, 0) is computed, on the model of the k pairs the spec names:
    the other pairs sum out to 1.  That scan streams at most 4^k support
    codes, even for a spec that lists one side of each pair.

    Returns a dict mapping outcome tuples (in spec order) to probabilities;
    outcome tuples with zero probability are omitted, and the rest are in
    the order a literal loop over ``product(OUTCOMES, repeat=2 * n)`` first
    meets them, on either kind of model.

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

    Every model scans the support (:func:`_marginal_counts`) under the (0,
    0) completion.  A product model scans the model of the pairs that
    ``slots`` names, of the same box, their particles relabelled 0..k-1 in
    ascending order, so masked codes keep their order; an empty ``slots``
    scans nothing.  Its box is validated and read-only, so the (1, 1)
    completion could not differ and is not computed.  Any other model
    scans the (1, 1) completion too (0 on a side with one setting), and
    compares the two on masked codes with :func:`_same_law`.  Slots that
    list all 2N particles leave nothing to complete: both completions name
    the same block, so the second scan is skipped.  The stored law is
    decoded into outcome tuples once; Fractions are built only for a
    mismatch, to carry both laws on the error.
    """
    if isinstance(model, IndependentPairs):
        if not slots:
            return 1, {(): 1}
        named = sorted({particle for _, particle, _ in slots})
        sub = independent_pairs(model.box, len(named))
        local = tuple((side, named.index(particle), setting)
                      for side, particle, setting in slots)
        shifts = [_slot_shift(sub.n, side, particle) for side, particle, _ in local]
        return _decoded(*_marginal_counts(sub, local, 0, 0), shifts)
    shifts = [_slot_shift(model.n, side, particle) for side, particle, _ in slots]
    alt_a = 1 if model.s_a > 1 else 0
    alt_b = 1 if model.s_b > 1 else 0
    scale, counts = _marginal_counts(model, slots, 0, 0)
    if (alt_a, alt_b) != (0, 0) and len(slots) < 2 * model.n:
        alt_scale, alt_counts = _marginal_counts(model, slots, alt_a, alt_b)
        if not _same_law(scale, counts, alt_scale, alt_counts):
            raise SignallingError(
                f"marginal over {slots} depends on the completion settings "
                f"(fill (0,0) vs ({alt_a},{alt_b})): the model signals",
                first=_as_law(*_decoded(scale, counts, shifts)),
                second=_as_law(*_decoded(alt_scale, alt_counts, shifts)))
    return _decoded(scale, counts, shifts)


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
    Cost is s^(2N) scans of the nonzero support (at most 4^N codes each);
    on a joint table each scan reads a block the model already holds.  The
    laws are compared as integer counts keyed by the codes with the swapped
    slot's bit cleared (:func:`_same_law`); a mismatch is decoded into
    outcome tuples and Fractions, to report its worst residual.
    """
    n = model.n
    violations = []
    for side, s_count, offset in ((ALICE, model.s_a, 0), (BOB, model.s_b, n)):
        if s_count < 2:
            continue
        for particle in range(n):
            skip = offset + particle
            shifts = [_slot_shift(n, s, k) for s in (ALICE, BOB) for k in range(n)
                      if (s, k) != (side, particle)]
            others = sum(1 << shift for shift in shifts)
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
                        base = _as_law(*_decoded(base_scale, base_counts, shifts))
                        other = _as_law(*_decoded(scale, counts, shifts))
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
