"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored by its coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Q[z]/(Phi_N(z)), where Phi_N is the N-th
cyclotomic polynomial and z stands for a primitive N-th root of unity.
A coordinate is an `int` when it is integral and a `fractions.Fraction`
otherwise, never a float; every operation is exact and there is no
floating point anywhere in this module.

Operands of the same order combine coordinate by coordinate and lift
nothing; a product reduces through a cached table of the coordinates of
z^k.  A rational (order 1) operand meets an order-N one as (r, 0, ..., 0).
Other mixed orders lift both operands into Q(zeta_lcm) via
z_N = z_M^(M/N).  Every result is stored at the lcm of its operand
orders, and `to_json` and `as_root_string` print a value at its stored
order, so byte-stable exports rely on this rule.

A computation over many scalars chooses its field once, as a `Field`:
Q when its inputs are all rational, so that it runs on Python numbers,
else Q(zeta_M).  Only this module reads coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _polydiv_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, ascending coefficients
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        q, r = divmod(lead, den[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree; monic of degree phi(n)."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _polydiv_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _norm(c):
    """A coordinate as an int when it is integral, else as a Fraction."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _reduce(coeffs, order: int) -> tuple:
    """Reduce a polynomial in z modulo Phi_order; returns phi(order) coords."""
    deg = euler_phi(order)
    phi = cyclotomic_polynomial(order)
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        lead = coeffs[k]
        if lead:
            # subtract lead * x^(k-deg) * Phi (Phi is monic)
            for i, c in enumerate(phi):
                coeffs[k - deg + i] -= lead * c
    coeffs = [_norm(c) for c in coeffs[:deg]]
    return tuple(coeffs + [0] * (deg - len(coeffs)))


@lru_cache(maxsize=None)
def _unit_power(order: int, k: int) -> tuple:
    # coordinates of z^k in Q(zeta_order)
    k %= order
    return _reduce([0] * k + [1], order)


@lru_cache(maxsize=None)
def _high_powers(order: int) -> tuple:
    # the nonzero (i, coordinate) pairs of z^k for phi <= k <= 2 phi - 2,
    # the powers a product of two reduced elements reaches
    deg = euler_phi(order)
    return tuple(
        tuple((i, c) for i, c in enumerate(_unit_power(order, k)) if c)
        for k in range(deg, 2 * deg - 1)
    )


def _times(a: tuple, b: tuple, order: int) -> tuple:
    """Coordinates of the product of two elements of Q(zeta_order)."""
    if len(a) == 1:
        return (_norm(a[0] * b[0]),)
    deg = len(a)
    prod = _polymul(a, b)
    for k, row in enumerate(_high_powers(order), start=deg):
        lead = prod[k]
        if lead:
            for i, c in row:
                prod[i] += lead * c
    return tuple([_norm(c) for c in prod[:deg]])


class CycScalar:
    """An element of Q(zeta_N), exact.

    Instances are immutable. Construct via :meth:`rational`,
    :meth:`root_of_unity`, or the module helpers; arithmetic uses the
    usual operators and accepts ints and Fractions on either side.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = euler_phi(order)
        coeffs = tuple(c if type(c) is int else _norm(Fraction(c)) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(
                f"need {deg} coordinates for order {order}, got {len(coeffs)}"
            )
        _set_order(self, order)
        _set_coeffs(self, coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycScalar is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value, order: int = 1) -> "CycScalar":
        # the constant sits on the basis vector 1 = z^0
        return cls(order, [value] + [0] * (euler_phi(order) - 1))

    @classmethod
    def root_of_unity(cls, order: int, k: int = 1) -> "CycScalar":
        """zeta_order^k."""
        return _make(order, _unit_power(order, k))

    @classmethod
    def zero(cls, order: int = 1) -> "CycScalar":
        return _make(order, (0,) * euler_phi(order))

    @classmethod
    def one(cls, order: int = 1) -> "CycScalar":
        return cls.rational(1, order)

    @classmethod
    def from_root_counts(cls, order: int, counts) -> "CycScalar":
        """Sum of counts[k] * zeta_order^k, one reduction at the end."""
        return _make(order, _reduce(counts, order))

    # --- coercion helpers ----------------------------------------------

    def lift(self, new_order: int) -> "CycScalar":
        """Image under Q(zeta_N) -> Q(zeta_M), z_N -> z_M^(M/N); needs N | M."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"{self.order} does not divide {new_order}")
        step = new_order // self.order
        poly = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return _make(new_order, _reduce(poly, new_order))

    @staticmethod
    def _coerce(value) -> "CycScalar":
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycScalar.rational(value)
        return NotImplemented

    def _pair(self, other):
        """Both operands' coordinates at the lcm m of their orders, and m;
        None if `other` is not a scalar.  Equal orders lift nothing, and a
        rational meets an order-m element as (r, 0, ..., 0)."""
        if isinstance(other, CycScalar):
            b, m = other.coeffs, other.order
        elif isinstance(other, (int, Fraction)):
            b, m = (_norm(other),), 1
        else:
            return None
        a, n = self.coeffs, self.order
        if n == m:
            return a, b, n
        if m == 1:
            return a, b + (0,) * (len(a) - 1), n
        if n == 1:
            return a + (0,) * (len(b) - 1), b, m
        lcm = n * m // gcd(n, m)
        if n != lcm:
            a = self.lift(lcm).coeffs
        if m != lcm:
            b = other.lift(lcm).coeffs
        return a, b, lcm

    # --- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        # false exactly for zero, as for Python numbers
        return any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        """The element as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            # might still be rational in disguise (e.g. z_3 + z_3^2 = -1)?
            # no: the power basis is a basis, rationals have a unique form.
            return None
        return Fraction(self.coeffs[0])

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return _make(m, tuple([_norm(x + y) for x, y in zip(a, b)]))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return _make(m, tuple([_norm(x - y) for x, y in zip(a, b)]))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, CycScalar):
            if other.order == self.order:
                return _make(self.order, _times(self.coeffs, other.coeffs, self.order))
            if other.order == 1:
                return self._scaled(other.coeffs[0])
            if self.order == 1:
                return other._scaled(self.coeffs[0])
        elif isinstance(other, (int, Fraction)):
            return self._scaled(other)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return _make(m, _times(a, b, m))

    __rmul__ = __mul__

    def _scaled(self, r) -> "CycScalar":
        return _make(self.order, tuple([_norm(c * r) for c in self.coeffs]))

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse: one rational division when phi(N) = 1,
        else the extended Euclidean algorithm on (self, Phi_N) in Q[x]."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        n = self.order
        if len(self.coeffs) == 1:
            return _make(n, (_norm(1 / Fraction(self.coeffs[0])),))
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = phi, [Fraction(c) for c in self.coeffs]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 = gcd = nonzero constant (Phi_N irreducible, self != 0)
        const = next(c for c in r0 if c)
        if any(c for i, c in enumerate(r0) if i and c):
            raise ArithmeticError("gcd with Phi_N not constant")
        return _make(n, _reduce([c / const for c in s0], n))

    def __truediv__(self, other):
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycScalar.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # --- comparison -----------------------------------------------------

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, _m = pair
        return a == b

    # equal values can live at different orders, so there is no cheap
    # canonical form to hash; forbid set/dict membership instead.
    __hash__ = None

    # --- formatting -----------------------------------------------------

    def __repr__(self):
        return f"CycScalar({self.order}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        r = self.as_rational()
        if r is not None:
            return str(r)
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            power = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
            if c == 1:
                terms.append(power)
            elif c == -1:
                terms.append(f"-{power}")
            else:
                terms.append(f"{c}*{power}")
        out = " + ".join(terms).replace("+ -", "- ")
        return out if out else "0"

    def as_root_string(self) -> str | None:
        """'N k' if the element equals zeta_N^k for some k, else None."""
        for k in range(self.order):
            if self.coeffs == _unit_power(self.order, k):
                return f"{self.order} {k}"
        return None

    def to_json(self):
        """Compact JSON form: 'N k' for roots of unity, a rational string,
        or the full coordinate vector."""
        root = self.as_root_string()
        if root is not None:
            return root
        rational = self.as_rational()
        if rational is not None:
            return str(rational)
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


_new = object.__new__
_set_order = CycScalar.order.__set__
_set_coeffs = CycScalar.coeffs.__set__


def _make(order: int, coeffs: tuple) -> CycScalar:
    """A CycScalar from coordinates already reduced and normalized; the
    arithmetic's results skip the validation of `CycScalar.__init__`."""
    scalar = _new(CycScalar)
    _set_order(scalar, order)
    _set_coeffs(scalar, coeffs)
    return scalar


def _polydivmod(num, den):
    num = list(num)
    dn = len(den)
    while dn and not den[dn - 1]:
        dn -= 1
    if dn == 0:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(num) - dn + 1)
    for k in range(len(q) - 1, -1, -1):
        factor = num[k + dn - 1] / den[dn - 1]
        q[k] = factor
        if factor:
            for i in range(dn):
                num[k + i] -= factor * den[i]
    while num and not num[-1]:
        num.pop()
    return q, num


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _polysub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


class Field:
    """The field one computation runs over, chosen once from its input
    scalars; M is the lcm of their orders.

    When every input is rational the field is Q: the computation holds
    ints, with a Fraction only where a value is not integral, `internal`
    maps an input to that form, and `export` stores a result back as a
    CycScalar of order M.  That is exact, because Q is a subfield of
    Q(zeta_M): adding, multiplying and dividing rationals gives the same
    values in both.  Otherwise the field is Q(zeta_M) and both maps are
    the identity.  `one` is the unit as the computation holds it."""

    __slots__ = ("order", "rational", "one")

    def __init__(self, scalars):
        order, rational = 1, True
        for s in scalars:
            order = order * s.order // gcd(order, s.order)
            rational = rational and not any(s.coeffs[1:])
        self.order = order
        self.rational = rational
        self.one = 1 if rational else CycScalar.one(order)

    def internal(self, scalar: CycScalar):
        return scalar.coeffs[0] if self.rational else scalar

    def export(self, value) -> CycScalar:
        return CycScalar.rational(value, self.order) if self.rational else value


def root_of_unity(order: int, k: int = 1) -> CycScalar:
    return CycScalar.root_of_unity(order, k)


def rational(value, order: int = 1) -> CycScalar:
    return CycScalar.rational(value, order)


def parse_scalar(text: str) -> CycScalar:
    """Parse 'N k' (a root of unity) or a bare rational like '-1' or '2/3'."""
    parts = text.split()
    if len(parts) == 2:
        return CycScalar.root_of_unity(int(parts[0]), int(parts[1]))
    if len(parts) == 1:
        return CycScalar.rational(Fraction(parts[0]))
    raise ValueError(f"cannot parse scalar {text!r}")
