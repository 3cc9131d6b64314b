"""Exact single-pair probability boxes: construction, validation, serialization.

A pair box is a conditional probability table p(x, y | i, j) over two binary
(+1/-1) outcomes, one per side, with i and j indexing the local measurement
settings.  Every probability is a `fractions.Fraction`, so all identities
checked elsewhere in the package are exact; floats appear only in the
eigenvalue extraction of :mod:`macrobox.macro`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import ConstructionError, DomainError

RationalLike = Union[Fraction, int, str]

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
    """Coerce ints, "p/q" strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not probabilities")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational: {value!r}") from exc
    raise DomainError(f"not a rational: {value!r}")


def json_int(value) -> int:
    """``value`` if it is an integer but not a bool; :class:`TypeError`
    otherwise, where ``int()`` would truncate a float or coerce a string."""
    if type(value) is int:
        return value
    raise TypeError(f"not an integer: {value!r}")


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


def outcome_sort_key(outcomes) -> tuple:
    """Sort key placing +1 before -1, elementwise."""
    return tuple(0 if o == PLUS else 1 for o in outcomes)


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
    to an exact probability.  Each side needs at least one setting
    (:class:`ConstructionError` otherwise).  Instances are immutable: the
    box keeps a read-only view of a private copy of ``table``.  Missing
    cells are 0.
    """

    s_a: int
    s_b: int
    table: Mapping

    def __post_init__(self) -> None:
        if self.s_a < 1 or self.s_b < 1:
            raise ConstructionError(
                f"a pair box needs at least one setting per side, got "
                f"s_a={self.s_a}, s_b={self.s_b}")
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def prob(self, i: int, j: int, x: int, y: int) -> Fraction:
        self._check_settings(i, j)
        return self.table.get((i, j, x, y), ZERO)

    def marginal_a(self, i: int, x: int, j: int = 0) -> Fraction:
        """p(x | i), evaluated through Bob setting ``j``."""
        return sum((self.prob(i, j, x, y) for y in OUTCOMES), ZERO)

    def marginal_b(self, j: int, y: int, i: int = 0) -> Fraction:
        """p(y | j), evaluated through Alice setting ``i``."""
        return sum((self.prob(i, j, x, y) for x in OUTCOMES), ZERO)

    def cells(self) -> Iterator[tuple]:
        """All (i, j, x, y, p) cells in canonical order."""
        for i in range(self.s_a):
            for j in range(self.s_b):
                for x in OUTCOMES:
                    for y in OUTCOMES:
                        yield i, j, x, y, self.prob(i, j, x, y)

    def _check_settings(self, i: int, j: int) -> None:
        if not (0 <= i < self.s_a):
            raise DomainError(f"alice setting {i} out of range (s_a={self.s_a})")
        if not (0 <= j < self.s_b):
            raise DomainError(f"bob setting {j} out of range (s_b={self.s_b})")

    def to_json(self) -> str:
        rows = [
            [i, j, x, y, rational_to_str(p)]
            for i, j, x, y, p in self.cells()
        ]
        return canonical_json({"s_a": self.s_a, "s_b": self.s_b, "table": rows})

    @staticmethod
    def from_json(text: str) -> "PairBox":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConstructionError(f"invalid pair-box JSON: {exc}") from exc
        return PairBox.from_data(data)

    @staticmethod
    def from_data(data) -> "PairBox":
        """Build a box from the parsed JSON object of :meth:`from_json`.

        Each row is ``[i, j, x, y, p]`` with integer in-range settings,
        integer +1/-1 outcomes and a cell not listed before.
        """
        try:
            s_a, s_b = json_int(data["s_a"]), json_int(data["s_b"])
            rows = [((json_int(i), json_int(j), json_int(x), json_int(y)), as_rational(p))
                    for i, j, x, y, p in data["table"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConstructionError(f"malformed pair-box JSON: {exc}") from exc
        table = {}
        for (i, j, x, y), p in rows:
            if not (0 <= i < s_a and 0 <= j < s_b):
                raise ConstructionError(
                    f"pair-box row {[i, j, x, y]} has a setting outside "
                    f"s_a={s_a}, s_b={s_b}")
            if x not in OUTCOMES or y not in OUTCOMES:
                raise ConstructionError(
                    f"pair-box row {[i, j, x, y]} has an outcome other than +1 or -1")
            if (i, j, x, y) in table:
                raise ConstructionError(f"pair-box row {[i, j, x, y]} is listed twice")
            table[(i, j, x, y)] = p
        return PairBox(s_a=s_a, s_b=s_b, table=table)


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used by every emitter in the package."""
    return json.dumps(obj, indent=2) + "\n"


def make_pr_box() -> PairBox:
    """The maximally nonlocal 2x2 box: <a_i b_j> = (-1)^(i*j), uniform marginals."""
    table = {}
    for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
        table[(i, j, x, y)] = Fraction(abs(x + (-1) ** (i * j) * y), 4)
    return PairBox(s_a=2, s_b=2, table=table)


def make_isotropic_box(visibility: RationalLike) -> PairBox:
    """Noisy mixture of the PR box with white noise.

    p(x, y | i, j) = (1 + E * (-1)^(i*j) * x * y) / 4 for visibility E in
    [-1, 1]: E=1 reproduces the PR box exactly, E=0 is uncorrelated noise.
    """
    e = as_rational(visibility)
    if not (-1 <= e <= 1):
        raise DomainError(f"visibility must lie in [-1, 1], got {e}")
    table = {}
    for i, j, x, y in product((0, 1), (0, 1), OUTCOMES, OUTCOMES):
        table[(i, j, x, y)] = (1 + e * (-1) ** (i * j) * x * y) / 4
    return PairBox(s_a=2, s_b=2, table=table)


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
    """<a_i b_j> = sum_{x,y} x*y*p(x, y | i, j)."""
    return sum((x * y * box.prob(i, j, x, y) for x in OUTCOMES for y in OUTCOMES), ZERO)


def validate_pairbox(box: PairBox) -> ValidationReport:
    """Check normalization, nonnegativity and the no-signalling marginals.

    Violations are data, not errors: the report lists each broken identity
    with its indices and exact residual.
    """
    violations = []
    for i in range(box.s_a):
        for j in range(box.s_b):
            total = sum((box.prob(i, j, x, y) for x in OUTCOMES for y in OUTCOMES), ZERO)
            if total != 1:
                violations.append(Violation(
                    kind="normalization", where=(i, j), residual=total - 1,
                    detail=f"cells at settings ({i},{j}) sum to {total}"))
    for i, j, x, y in product(range(box.s_a), range(box.s_b), OUTCOMES, OUTCOMES):
        p = box.prob(i, j, x, y)
        if p < 0:
            violations.append(Violation(
                kind="negativity", where=(i, j, x, y), residual=p,
                detail=f"negative probability {p}"))
    # Alice's marginal may not depend on Bob's setting, and vice versa.
    for i in range(box.s_a):
        for x in OUTCOMES:
            reference = box.marginal_a(i, x, j=0)
            for j in range(1, box.s_b):
                other = box.marginal_a(i, x, j=j)
                if other != reference:
                    violations.append(Violation(
                        kind="no-signalling", where=(ALICE, i, x, 0, j),
                        residual=other - reference,
                        detail=f"p(x={outcome_symbol(x)}|i={i}) is {reference} via j=0 "
                               f"but {other} via j={j}"))
    for j in range(box.s_b):
        for y in OUTCOMES:
            reference = box.marginal_b(j, y, i=0)
            for i in range(1, box.s_a):
                other = box.marginal_b(j, y, i=i)
                if other != reference:
                    violations.append(Violation(
                        kind="no-signalling", where=(BOB, j, y, 0, i),
                        residual=other - reference,
                        detail=f"p(y={outcome_symbol(y)}|j={j}) is {reference} via i=0 "
                               f"but {other} via i={i}"))
    return ValidationReport(violations=tuple(violations))


def chsh_value(box: PairBox) -> Fraction:
    """<a0 b0> + <a0 b1> + <a1 b0> - <a1 b1>; defined for 2x2-setting boxes."""
    if box.s_a != 2 or box.s_b != 2:
        raise DomainError(
            f"CHSH needs two settings per side, got s_a={box.s_a}, s_b={box.s_b}")
    return (pair_correlation(box, 0, 0) + pair_correlation(box, 0, 1)
            + pair_correlation(box, 1, 0) - pair_correlation(box, 1, 1))
