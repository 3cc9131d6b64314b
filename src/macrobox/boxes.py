"""Exact single-pair probability boxes: construction, validation, serialization.

A pair box is a conditional probability table p(x, y | i, j) over two binary
(+1/-1) outcomes, one per side, with i and j indexing the local measurement
settings.  Every probability is an int or a `fractions.Fraction`
(construction rejects anything else), so all identities checked elsewhere
in the package are exact; floats appear only in the eigenvalue extraction
of :mod:`macrobox.macro`.  A box also holds its integer form, every cell
of the settings x outcomes grid scaled by the grid's lcm; validation and
every product-model kernel read that form, and nothing else rescales the
cells.
"""

from __future__ import annotations

import gc
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Union

from .errors import ConstructionError, DomainError

RationalLike = Union[Fraction, int, str]

#: The one grammar of a rational string, in ASCII on every Python version:
#: optional surrounding whitespace, a sign, then digits with an optional
#: "/digits", or a plain decimal.  ``Fraction``'s own grammar varies with
#: the version (underscores, spaces around "/", non-ASCII digits).  A
#: decimal exponent is matched only to be refused by name.  The sign and
#: the digits of an integer or "p/q" text are groups of their own, read
#: by ``int``; a decimal has no such groups.
_RATIONAL = re.compile(
    r"\s*(?P<sign>[+-]?)(?:(?P<numerator>\d+)(?:/(?P<denominator>\d+))?|\d+\.\d*|\.\d+)"
    r"(?P<exponent>[eE][+-]?\d+)?\s*", re.ASCII)

ALICE = "A"
BOB = "B"

PLUS = 1
MINUS = -1
#: Canonical outcome order: +1 before -1, matching the event lists printed
#: by the CLI ("(+,-;+,-)" style).
OUTCOMES = (PLUS, MINUS)

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" or plain decimal strings and Fractions to an exact
    Fraction.  A string must match ``_RATIONAL``; a decimal exponent
    ("1e-1000000") is refused, not expanded.  An integer or "p/q" text's
    Fraction is built from its matched digit groups, so ``Fraction``
    parses only a decimal text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str) or (match := _RATIONAL.fullmatch(value)) is None:
        raise DomainError(f"not a rational: {value!r}")
    if match["exponent"]:
        raise DomainError(f"not a rational: {value!r} has a decimal exponent")
    digits, denominator = match["numerator"], match["denominator"]
    try:
        if digits is None:  # a plain decimal
            return Fraction(value)
        numerator = int(match["sign"] + digits)
        return Fraction(numerator, int(denominator)) if denominator else Fraction(numerator)
    except (ValueError, ZeroDivisionError) as exc:  # over 4300 digits, or "p/0"
        raise DomainError(f"not a rational: {value!r}") from exc


class _collector_paused:
    """Run the block with the cyclic garbage collector off, and leave it as
    the caller had it, on success and on error alike.  Pauses nest: an
    inner one finds the collector off and leaves it off.

    Decoding JSON, and walking what it decodes, allocates many containers
    and no reference cycle, so the collections they trigger free nothing:
    decoding a 4096-entry joint table makes about 20k containers, and
    decoding and walking it set off 33 young collections and 3 older ones
    on CPython 3.11.  The switch is process-wide, so a thread running
    alongside the block runs without the collector too.

    A class, not a generator: leaving a generator's block allocates a
    StopIteration just after the collector resumes, which sets off a young
    collection before the caller gets the block's result.
    """

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, kind, value, traceback) -> None:
        if self._enabled:
            gc.enable()


def parse_json(text: str, what: str, build: Callable):
    """``build(json.loads(text))``: the text decoded, and the document built
    into what the caller loads, in one collector pause
    (:func:`_collector_paused`).  Every way the decoder can refuse the
    text, a number too long to convert and nesting too deep to decode
    included, is raised as :class:`ConstructionError` "invalid ``what``
    JSON"; ``build`` raises its own refusals.

    The document is dropped before the collector resumes, so no collection
    scans it, and nothing is allocated between the resume and the return:
    the first young collection after the load runs in the caller and scans
    only what ``build`` kept.
    """
    with _collector_paused():
        try:
            document = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConstructionError(f"invalid {what} JSON: {exc}") from exc
        built = build(document)
        del document
    return built


def json_int(value) -> int:
    """``value`` if it is an integer but not a bool; :class:`TypeError`
    otherwise, where ``int()`` would truncate a float or coerce a string."""
    if type(value) is int:
        return value
    raise TypeError(f"not an integer: {value!r}")


def check_sizes(error: type, **sizes) -> None:
    """Refuse, with ``error``, the first of ``sizes`` (a pair count or a
    setting count, by name) that is not an int: a bool, a float or a str,
    before a range check compares it or a grid is built from it."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise error(f"{name} must be an int, got {value!r}")


def rational_to_str(value: Fraction) -> str:
    """Serialize a rational as the canonical "p/q" string (q > 0 always)."""
    return f"{value.numerator}/{value.denominator}"


def outcome_symbol(outcome: int) -> str:
    return "+" if outcome == PLUS else "-"


def outcome_from_symbol(symbol: str) -> int:
    text = symbol.strip()
    if text in ("+", "+1", "1"):
        return PLUS
    if text in ("-", "-1"):
        return MINUS
    raise DomainError(f"not an outcome: {symbol!r}")


@dataclass(frozen=True)
class Violation:
    """One broken box/model invariant, with the offending indices."""

    kind: str  # "normalization" | "negativity" | "no-signalling"
    where: tuple
    residual: Fraction
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail} (residual {self.residual})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class PairBox:
    """Probability table of one bipartite box.

    ``table`` maps (alice_setting, bob_setting, alice_outcome, bob_outcome)
    to an exact probability, an int (not a bool) or a Fraction; missing
    cells are 0.  Construction refuses (:class:`ConstructionError`) a setting
    count that is not an int, a side without settings, fewer cells than
    setting pairs (checked before the grid is built), a key outside the
    grid of settings and +1/-1 outcomes, and any other cell value.  The
    box keeps a read-only view of a private copy of ``table``, and its
    integer form: ``scale``, the lcm L of the grid's denominators, and
    ``weights``, a read-only map from every grid key (:meth:`cells` order,
    zeros included) to L * p.  Boxes compare by that form, so a table that
    leaves its zero cells out equals the one that lists them, as its
    :meth:`to_json` round trip does.
    """

    s_a: int
    s_b: int
    table: Mapping = field(compare=False)
    scale: int = field(init=False, repr=False)
    weights: Mapping = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s_a, s_b = self.s_a, self.s_b
        check_sizes(ConstructionError, s_a=s_a, s_b=s_b)
        if s_a < 1 or s_b < 1:
            raise ConstructionError(
                f"a pair box needs at least one setting per side, got "
                f"s_a={s_a}, s_b={s_b}")
        table = dict(self.table)
        if len(table) < s_a * s_b:
            raise ConstructionError(
                f"a pair box with s_a={s_a}, s_b={s_b} needs at least one cell per "
                f"setting pair ({s_a * s_b}), got {len(table)}")
        ratios = dict.fromkeys(product(range(s_a), range(s_b), OUTCOMES, OUTCOMES), (0, 1))
        for key, p in table.items():
            if key not in ratios:
                raise ConstructionError(
                    f"pair-box cell {key} is outside s_a={s_a}, s_b={s_b} "
                    f"and outcomes +1/-1")
            if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
                raise ConstructionError(
                    f"pair-box cell {key} is {p!r}, not an int or a Fraction")
            ratios[key] = p.as_integer_ratio()
        scale = math.lcm(*(d for _, d in ratios.values()))
        object.__setattr__(self, "table", MappingProxyType(table))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weights", MappingProxyType(
            {key: n * (scale // d) for key, (n, d) in ratios.items()}))

    def prob(self, i: int, j: int, x: int, y: int) -> Fraction:
        check_settings(self.s_a, self.s_b, i, j)
        return self.table.get((i, j, x, y), ZERO)

    def marginal_a(self, i: int, x: int) -> Fraction:
        """p(x | i), evaluated through Bob setting 0."""
        return sum((self.prob(i, 0, x, y) for y in OUTCOMES), ZERO)

    def marginal_b(self, j: int, y: int) -> Fraction:
        """p(y | j), evaluated through Alice setting 0."""
        return sum((self.prob(0, j, x, y) for x in OUTCOMES), ZERO)

    def cells(self) -> Iterator[tuple]:
        """All (i, j, x, y, p) cells in canonical order."""
        for i in range(self.s_a):
            for j in range(self.s_b):
                for x in OUTCOMES:
                    for y in OUTCOMES:
                        yield i, j, x, y, self.prob(i, j, x, y)

    def to_json(self) -> str:
        rows = [
            [i, j, x, y, rational_to_str(p)]
            for i, j, x, y, p in self.cells()
        ]
        return canonical_json({"s_a": self.s_a, "s_b": self.s_b, "table": rows})

    @staticmethod
    def from_json(text: str) -> "PairBox":
        return parse_json(text, "pair-box", PairBox.from_data)

    @staticmethod
    def from_data(data) -> "PairBox":
        """Build a box from the parsed JSON object of :meth:`from_json`.

        Each row is ``[i, j, x, y, p]`` with integer fields and a cell not
        listed before; the constructor refuses a cell outside the grid.
        """
        try:
            s_a, s_b = json_int(data["s_a"]), json_int(data["s_b"])
            rows = [((json_int(i), json_int(j), json_int(x), json_int(y)), as_rational(p))
                    for i, j, x, y, p in data["table"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"malformed pair-box JSON: {exc}") from exc
        table = {}
        for key, p in rows:
            if key in table:
                raise ConstructionError(f"pair-box row {list(key)} is listed twice")
            table[key] = p
        return PairBox(s_a=s_a, s_b=s_b, table=table)


def check_settings(s_a: int, s_b: int, i: int, j: int) -> None:
    """Refuse, with :class:`DomainError`, an Alice setting ``i`` outside
    range(s_a) or a Bob setting ``j`` outside range(s_b), and any setting
    that is not an int: a float, or a bool, which would read as 0 or 1."""
    if type(i) is not int or not (0 <= i < s_a):
        raise DomainError(f"alice setting {i!r} out of range (s_a={s_a})")
    if type(j) is not int or not (0 <= j < s_b):
        raise DomainError(f"bob setting {j!r} out of range (s_b={s_b})")


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used by every emitter in the package."""
    return json.dumps(obj, indent=2) + "\n"


def _noisy_pr_box(numerator: int, denominator: int) -> PairBox:
    """p(x, y | i, j) = (1 + E * (-1)^(i*j) * x * y) / 4 at visibility
    E = numerator / denominator: the two cell values, (1 + E) / 4 where
    x y = (-1)^(i*j) and (1 - E) / 4 elsewhere, each built once from
    integers."""
    agree = Fraction(denominator + numerator, 4 * denominator)
    differ = Fraction(denominator - numerator, 4 * denominator)
    table = {(i, j, x, y): agree if x * y == (-1) ** (i * j) else differ
             for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES)}
    return PairBox(s_a=2, s_b=2, table=table)


def make_pr_box() -> PairBox:
    """The maximally nonlocal 2x2 box: <a_i b_j> = (-1)^(i*j), uniform marginals."""
    return _noisy_pr_box(1, 1)


def make_isotropic_box(visibility: RationalLike) -> PairBox:
    """Noisy mixture of the PR box with white noise.

    p(x, y | i, j) = (1 + E * (-1)^(i*j) * x * y) / 4 for visibility E in
    [-1, 1]: E=1 reproduces the PR box exactly, E=0 is uncorrelated noise.
    """
    e = as_rational(visibility)
    if not (-1 <= e <= 1):
        raise DomainError(f"visibility must lie in [-1, 1], got {e}")
    return _noisy_pr_box(*e.as_integer_ratio())


def make_deterministic_box(x0: int, x1: int, y0: int, y1: int) -> PairBox:
    """Local deterministic vertex: outcomes fixed per setting on each side."""
    for v in (x0, x1, y0, y1):
        if v not in OUTCOMES:
            raise DomainError(f"outcomes must be +1 or -1, got {v}")
    assigned_x = (x0, x1)
    assigned_y = (y0, y1)
    table = {}
    for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
        hit = x == assigned_x[i] and y == assigned_y[j]
        table[(i, j, x, y)] = ONE if hit else ZERO
    return PairBox(s_a=2, s_b=2, table=table)


def pair_correlation(box: PairBox, i: int, j: int) -> Fraction:
    """<a_i b_j> = sum_{x,y} x*y*p(x, y | i, j), summed on ``box.weights``."""
    check_settings(box.s_a, box.s_b, i, j)
    return Fraction(sum(x * y * box.weights[(i, j, x, y)] for x in OUTCOMES for y in OUTCOMES),
                    box.scale)


def validate_pairbox(box: PairBox) -> ValidationReport:
    """Check normalization, nonnegativity and the no-signalling marginals.

    Violations are data, not errors: the report lists each broken identity
    with its indices and exact residual.  The checks run on the box's
    integer form (``box.weights`` over ``box.scale``); a Fraction is built
    only for a violation's residual and detail.
    """
    scale, weight = box.scale, box.weights
    violations = []
    for i in range(box.s_a):
        for j in range(box.s_b):
            total = sum(weight[(i, j, x, y)] for x in OUTCOMES for y in OUTCOMES)
            if total != scale:
                violations.append(Violation(
                    kind="normalization", where=(i, j),
                    residual=Fraction(total - scale, scale),
                    detail=f"cells at settings ({i},{j}) sum to {Fraction(total, scale)}"))
    for key, w in weight.items():
        if w < 0:
            violations.append(Violation(
                kind="negativity", where=key, residual=box.table[key],
                detail=f"negative probability {box.table[key]}"))
    # Alice's marginal may not depend on Bob's setting, and vice versa:
    # each side's (setting, outcome) marginal via every setting of the other.
    alice = {(i, x): [weight[(i, j, x, PLUS)] + weight[(i, j, x, MINUS)] for j in range(box.s_b)]
             for i in range(box.s_a) for x in OUTCOMES}
    bob = {(j, y): [weight[(i, j, PLUS, y)] + weight[(i, j, MINUS, y)] for i in range(box.s_a)]
           for j in range(box.s_b) for y in OUTCOMES}
    for side, (outcome, own, other), marginals in ((ALICE, "xij", alice), (BOB, "yji", bob)):
        for (s, o), via in marginals.items():
            for t in range(1, len(via)):
                if via[t] != via[0]:
                    reference, changed = Fraction(via[0], scale), Fraction(via[t], scale)
                    violations.append(Violation(
                        kind="no-signalling", where=(side, s, o, 0, t),
                        residual=changed - reference,
                        detail=f"p({outcome}={outcome_symbol(o)}|{own}={s}) is {reference} "
                               f"via {other}=0 but {changed} via {other}={t}"))
    return ValidationReport(violations=tuple(violations))


def chsh_value(box: PairBox) -> Fraction:
    """<a0 b0> + <a0 b1> + <a1 b0> - <a1 b1>; defined for 2x2-setting boxes."""
    if box.s_a != 2 or box.s_b != 2:
        raise DomainError(
            f"CHSH needs two settings per side, got s_a={box.s_a}, s_b={box.s_b}")
    return Fraction(sum((-1) ** (i * j) * x * y * box.weights[(i, j, x, y)]
                        for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES)),
                    box.scale)
