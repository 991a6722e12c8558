"""Commutative semirings with exact arithmetic.

Every weight in this library lives in a commutative semiring chosen at
runtime.  Instances bundle the carrier check, the two monoid operations,
decidable equality and a partial exact division.  No floating point
anywhere.

A carrier that has conditionals supplies its own conditioning rule,
``condition``: rationals divide by the marginal, and the trilattice
passes weights below the marginal through and saturates the rest.  A
carrier without one (pair-rational) refuses.

Carrier membership is checked once, where a value enters: ``FinDist``
checks every weight it stores, and ``parse`` checks every literal it
reads.  The arithmetic (``add``, ``mul``, ``try_div``, ``eq``/``is_zero``,
``format``) works on its arguments directly.  That is sound because every
value it meets is a stored weight, a carrier constant (``zero``/``one``)
or a result of arithmetic on those, and each carrier is closed under its
own operations.

Over the rationals the checks run in integers.  ``check`` reads the sign of
a ``Fraction`` from its numerator, ``is_zero`` tests the numerator, and
``sum`` (which ``FinDist`` runs for its sum-to-one check and conditioning
runs for each marginal) scales every numerator to the lcm of the
denominators, as ``feasibility.verify`` does, and builds one ``Fraction``
from the total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Dict, Iterable, Optional, Sequence

from .errors import CapabilityError, ShapeError

Value = Any


class Semiring:
    """Base class: a commutative semiring with decidable equality.

    Subclasses fix the carrier and operations.  ``try_div`` is the partial
    exact division: it returns a value ``q`` with ``mul(q, b) == a`` when one
    exists (the least such value when several do), else ``None``.
    """

    name: str = "?"
    is_entire: bool = False
    supports_conditionals: bool = False
    zero: Value = None
    one: Value = None

    def check(self, value: Value) -> Value:
        """Validate and canonicalize a carrier value; raise ShapeError otherwise.

        Runs where values enter (``FinDist`` weights and ``parse``), never
        inside the arithmetic: the carrier is closed under its operations.
        """
        raise NotImplementedError

    def add(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def mul(self, a: Value, b: Value) -> Value:
        raise NotImplementedError

    def eq(self, a: Value, b: Value) -> bool:
        return a == b

    def is_zero(self, a: Value) -> bool:
        return self.eq(a, self.zero)

    def sum(self, values: Iterable[Value]) -> Value:
        total = self.zero
        for value in values:
            total = self.add(total, value)
        return total

    def try_div(self, a: Value, b: Value) -> Optional[Value]:
        raise NotImplementedError

    def condition(self, weights: Dict[Any, Value], labels: Sequence) -> Dict[Any, Value]:
        """The column over ``labels`` conditioned on the marginal, sum(weights).

        ``weights`` covers some of the labels.  A zero marginal determines
        nothing, and the column is the carrier's default.
        """
        raise CapabilityError(f"{self.name} does not support conditionals")

    def parse(self, text: str) -> Value:
        raise NotImplementedError

    def format(self, value: Value) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<semiring {self.name}>"


# ASCII integers, p/q and finite decimals, each with an optional sign.
_RATIONAL_LITERAL = re.compile(r"[-+]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


class RationalSemiring(Semiring):
    """Nonnegative rationals under + and *.

    The carrier is Fraction values >= 0 (a semiring, not a ring: no
    subtraction).  Entire, and division by nonzero elements is total, so
    conditionals are built by exact division.
    """

    name = "rational"
    is_entire = True
    supports_conditionals = True
    zero = Fraction(0)
    one = Fraction(1)

    def check(self, value):
        if type(value) is Fraction:  # the common case
            if value.numerator < 0:
                raise ShapeError(f"negative weight {value} outside the carrier")
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise ShapeError(f"expected a nonnegative rational, got {value!r}")
        if value < 0:
            raise ShapeError(f"negative weight {value} outside the carrier")
        return value

    def is_zero(self, a):
        return a.numerator == 0

    def sum(self, values):
        values = list(values)
        d = lcm(*[v.denominator for v in values])
        return Fraction(sum(v.numerator * (d // v.denominator) for v in values), d)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def try_div(self, a, b):
        if b == 0:
            return None
        return a / b

    def condition(self, weights, labels):
        marg = self.sum(weights.values())
        if marg == 0:
            return dict.fromkeys(labels, Fraction(1, len(labels)))
        return {label: value / marg for label, value in weights.items()}

    def parse(self, text):
        # Only the documented grammar reaches Fraction, which also takes
        # exponents (it would compute 10**exponent in full, so "1e-3000000"
        # could stall a load), underscores, surrounding whitespace and
        # non-ASCII digits.  Fraction still refuses a zero denominator and
        # more digits than int conversion allows.
        if _RATIONAL_LITERAL.fullmatch(text) is None:
            raise ShapeError(f"bad rational literal {text!r}")
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeError(f"bad rational literal {text!r}") from exc
        return self.check(value)

    def format(self, value):
        return str(value)


@dataclass(frozen=True, order=True)
class Tri:
    """One of the three truth levels 0 < eps < 1."""

    level: int

    def __post_init__(self) -> None:
        if self.level not in (0, 1, 2):
            raise ShapeError(f"no truth level {self.level!r}")

    def __repr__(self) -> str:
        return ("0", "eps", "1")[self.level]


TRI_ZERO = Tri(0)
TRI_EPS = Tri(1)
TRI_ONE = Tri(2)
_TRI_ALL = (TRI_ZERO, TRI_EPS, TRI_ONE)
_TRI_NAMES = {"0": TRI_ZERO, "eps": TRI_EPS, "ε": TRI_EPS, "1": TRI_ONE}


class TrilatticeSemiring(Semiring):
    """Totally ordered idempotent semiring on {0, eps, 1}.

    Addition is max and multiplication is min, so 1 + 1 = 1 and
    eps * eps = eps.  Entire, idempotent, and ordered, which is enough to
    build conditionals without division.
    """

    name = "trilattice"
    is_entire = True
    supports_conditionals = True
    zero = TRI_ZERO
    one = TRI_ONE

    def check(self, value):
        if not isinstance(value, Tri):
            raise ShapeError(f"expected a trilattice level, got {value!r}")
        return value

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return min(a, b)

    def try_div(self, a, b):
        for q in _TRI_ALL:  # ascending, so the first hit is the least quotient
            if min(q, b) == a:
                return q
        return None

    def condition(self, weights, labels):
        # Weights below the marginal pass through; those equal to it saturate.
        marg = self.sum(weights.values())
        if marg == TRI_ZERO:
            return {labels[0]: TRI_ONE}
        return {label: (TRI_ONE if value == marg else value)
                for label, value in weights.items()}

    def parse(self, text):
        try:
            return _TRI_NAMES[text]
        except KeyError as exc:
            raise ShapeError(f"bad trilattice literal {text!r}") from exc

    def format(self, value):
        return repr(value)


class PairSemiring(Semiring):
    """Componentwise product of a semiring with itself.

    Not entire even when the base is: (one, zero) * (zero, one) = zero.
    It has no conditioning rule; operations that need conditionals refuse
    to run.
    """

    is_entire = False

    def __init__(self, base: Semiring, name: str):
        self.base = base
        self.name = name
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.one)

    def check(self, value):
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ShapeError(f"expected a pair value, got {value!r}")
        return (self.base.check(value[0]), self.base.check(value[1]))

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def mul(self, a, b):
        return (self.base.mul(a[0], b[0]), self.base.mul(a[1], b[1]))

    def try_div(self, a, b):
        parts = []
        for x, y in zip(a, b):
            if self.base.is_zero(y):
                if not self.base.is_zero(x):
                    return None
                parts.append(self.base.zero)  # unconstrained component: least witness
            else:
                q = self.base.try_div(x, y)
                if q is None:
                    return None
                parts.append(q)
        return tuple(parts)

    def parse(self, text):
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ShapeError(f"bad pair literal {text!r}")
        parts = body[1:-1].split(",")
        if len(parts) != 2:
            raise ShapeError(f"bad pair literal {text!r}")
        return (self.base.parse(parts[0].strip()), self.base.parse(parts[1].strip()))

    def format(self, value):
        return f"({self.base.format(value[0])},{self.base.format(value[1])})"


RATIONAL = RationalSemiring()
TRILATTICE = TrilatticeSemiring()
PAIR_RATIONAL = PairSemiring(RATIONAL, "pair-rational")

SEMIRINGS = {sr.name: sr for sr in (RATIONAL, TRILATTICE, PAIR_RATIONAL)}


def semiring_by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError as exc:
        raise CapabilityError(f"unknown semiring {name!r}") from exc


def same_semiring(a: Semiring, b: Semiring) -> None:
    if a.name != b.name:
        raise ShapeError(f"mixed semirings: {a.name} vs {b.name}")
