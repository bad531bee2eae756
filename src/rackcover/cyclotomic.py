"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored by its coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Q[z]/(Phi_N(z)), where Phi_N is the N-th
cyclotomic polynomial and z stands for a primitive N-th root of unity.
They are held as a tuple `num` of ints over one int `den` > 0 in lowest
terms, gcd(den, *num) == 1, so den == 1 exactly when the value is
integral and equal values of one order are stored alike.  Sums and
products are integer polynomial arithmetic, with one gcd only where a
denominator is not 1; `coeffs` reads the coordinates as ints, and as
Fractions where not integral.  There is no floating point anywhere.

The inverse of an integral a != 0 is prod sigma_k(a) / N(a), over the
Galois automorphisms sigma_k: z -> z^k for the units k != 1 mod N; the
norm N(a) = a * prod sigma_k(a) is an integer.  It is formed coset by
coset along a chain of subgroups of the units, each cyclic step by
doubling: O(log phi(N)) products a step, not one per unit.

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
from math import gcd, lcm

from .errors import ValidationError

# the largest root-of-unity order an input may name, alone or as the lcm
# of a datum's orders; a product costs phi(N)^2 coordinate operations and
# an inverse O(log phi(N)) products
MAX_ORDER = 1000


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


def _reduce(coeffs, order: int) -> tuple:
    """Reduce an integer polynomial in z modulo Phi_order; returns phi(order)
    coords."""
    deg = euler_phi(order)
    phi = [(i, c) for i, c in enumerate(cyclotomic_polynomial(order)) if c]
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        lead = coeffs[k]
        if lead:
            # subtract lead * x^(k-deg) * Phi (Phi is monic)
            for i, c in phi:
                coeffs[k - deg + i] -= lead * c
    return tuple(coeffs[:deg] + [0] * (deg - len(coeffs)))


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
    """Integer coordinates of the product of two elements of Z[zeta_order]."""
    deg = len(a)
    if deg == 1:
        return (a[0] * b[0],)
    if deg == 2:
        # the fields of order 3, 4 and 6, with z^2 = u0 + u1 z
        u0, u1 = _unit_power(order, 2)
        a0, a1 = a
        b0, b1 = b
        top = a1 * b1
        return (a0 * b0 + top * u0, a0 * b1 + a1 * b0 + top * u1)
    prod = [0] * (2 * deg - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] += x * y
    for k, row in enumerate(_high_powers(order), start=deg):
        lead = prod[k]
        if lead:
            for i, c in row:
                prod[i] += lead * c
    return tuple(prod[:deg])


def _substitute(a: tuple, k: int, order: int) -> tuple:
    """Coordinates at `order` of a(z^k): sigma_k(a) if a has this order,
    the lift of a if it has order order / k."""
    poly = [0] * order
    for i, c in enumerate(a):
        poly[i * k % order] = c
    return _reduce(poly, order)


class CycScalar:
    """An element of Q(zeta_N), exact: the coordinates num / den.

    Instances are immutable. Construct via :meth:`rational`,
    :meth:`root_of_unity`, or the module helpers; arithmetic uses the
    usual operators and accepts ints and Fractions on either side.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        deg = euler_phi(order)
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) != deg:
            raise ValueError(
                f"need {deg} coordinates for order {order}, got {len(coeffs)}"
            )
        # over the lcm of the denominators, the coordinates share no factor
        den = lcm(*[c.denominator for c in coeffs])
        _set_order(self, order)
        _set_num(self, tuple([c.numerator * (den // c.denominator) for c in coeffs]))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("CycScalar is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coordinates: ints, and Fractions where not integral."""
        den = self.den
        if den == 1:
            return self.num
        return tuple([Fraction(c, den) if c % den else c // den for c in self.num])

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
        """Sum of the int counts[k] * zeta_order^k, one reduction at the end."""
        return _make(order, _reduce(counts, order))

    # --- coercion helpers ----------------------------------------------

    def lift(self, new_order: int) -> "CycScalar":
        """Image under Q(zeta_N) -> Q(zeta_M), z_N -> z_M^(M/N); needs N | M.
        It keeps lowest terms, as Z[zeta_M] meets Q(zeta_N) in Z[zeta_N]."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"{self.order} does not divide {new_order}")
        return _make(new_order, _substitute(self.num, new_order // self.order, new_order),
                     self.den)

    def _pair(self, other):
        """Both operands as numerators and denominators at the lcm m of
        their orders, (a, da, b, db, m); None if `other` is not a scalar.
        Equal orders lift nothing, and a rational meets an order-m element
        as (r, 0, ..., 0)."""
        if isinstance(other, CycScalar):
            b, db, m = other.num, other.den, other.order
        elif isinstance(other, (int, Fraction)):
            b, db, m = (other.numerator,), other.denominator, 1
        else:
            return None
        a, da, n = self.num, self.den, self.order
        if n == m:
            return a, da, b, db, n
        if m == 1:
            return a, da, b + (0,) * (len(a) - 1), db, n
        if n == 1:
            return a + (0,) * (len(b) - 1), da, b, db, m
        both = lcm(n, m)
        x, y = self.lift(both), other.lift(both)
        return x.num, x.den, y.num, y.den, both

    # --- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        # false exactly for zero, as for Python numbers
        return any(self.num)

    def as_rational(self) -> Fraction | None:
        """The element as a Fraction if it is rational, else None."""
        if any(self.num[1:]):
            # might still be rational in disguise (e.g. z_3 + z_3^2 = -1)?
            # no: the power basis is a basis, rationals have a unique form.
            return None
        return Fraction(self.num[0], self.den)

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, da, b, db, m = pair
        if da == db:
            return _make(m, tuple([x + y for x, y in zip(a, b)]), da)
        return _make(m, tuple([x * db + y * da for x, y in zip(a, b)]), da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, da, b, db, m = pair
        if da == db:
            return _make(m, tuple([x - y for x, y in zip(a, b)]), da)
        return _make(m, tuple([x * db - y * da for x, y in zip(a, b)]), da * db)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, CycScalar):
            n = self.order
            if other.order == n:
                return _make(n, _times(self.num, other.num, n), self.den * other.den)
            if other.order == 1:
                return self._scaled(other.num[0], other.den)
            if n == 1:
                return other._scaled(self.num[0], self.den)
        elif isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, da, b, db, m = pair
        return _make(m, _times(a, b, m), da * db)

    __rmul__ = __mul__

    def _scaled(self, r: int, d: int) -> "CycScalar":
        # self * r / d
        return _make(self.order, tuple([c * r for c in self.num]), self.den * d)

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse, den / a for the integral a = num, with
        1 / a by the norm (see the module docstring)."""
        a, n = self.num, self.order
        if not any(a):
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        # c = a * rest is the product of sigma_h(a) over a subgroup `seen`
        # of the units mod n, grown one cyclic step g at a time until c is
        # the integer N(a); each step multiplies in sigma_g^j(c), 0 < j < e,
        # by doubling, for the least e with g^e in `seen`
        rest, c, seen = (1,) + (0,) * (len(a) - 1), a, {1}
        for g in range(2, n):
            if g in seen or gcd(g, n) != 1:
                continue
            powers = [1]
            while (h := powers[-1] * g % n) not in seen:
                powers.append(h)
            p, m = c, 1  # p = prod of sigma_g^j(c) for j < m
            for bit in bin(len(powers) - 1)[3:]:
                p, m = _times(p, _substitute(p, powers[m], n), n), 2 * m
                if bit == "1":
                    p, m = _times(p, _substitute(c, powers[m], n), n), m + 1
            b = _substitute(p, g, n)
            rest, c = _times(rest, b, n), _times(c, b, n)
            seen = {x * h % n for x in seen for h in powers}
        return _make(n, tuple([x * self.den for x in rest]), c[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycScalar.rational(other)
        return self * other.inverse() if isinstance(other, CycScalar) else NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other if isinstance(other, (int, Fraction)) else NotImplemented

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
        # lowest terms with den > 0 are unique
        a, da, b, db, _m = pair
        return da == db and a == b

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
        if self.den == 1:
            for k in range(self.order):
                if self.num == _unit_power(self.order, k):
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
_set_num = CycScalar.num.__set__
_set_den = CycScalar.den.__set__


def _make(order: int, num: tuple, den: int = 1) -> CycScalar:
    """The CycScalar num / den from reduced int coordinates, brought to
    lowest terms with den > 0; the arithmetic's results skip the
    validation of `CycScalar.__init__`."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    scalar = _new(CycScalar)
    _set_order(scalar, order)
    _set_num(scalar, num)
    _set_den(scalar, den)
    return scalar


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
            order = lcm(order, s.order)
            rational = rational and not any(s.num[1:])
        self.order = order
        self.rational = rational
        self.one = 1 if rational else CycScalar.one(order)

    def internal(self, scalar: CycScalar):
        return scalar.coeffs[0] if self.rational else scalar

    def export(self, value) -> CycScalar:
        return CycScalar.rational(value, self.order) if self.rational else value


def root_of_unity(order: int, k: int = 1) -> CycScalar:
    return CycScalar.root_of_unity(order, k)


def parse_scalar(text: str) -> CycScalar:
    """Parse 'N k' (a root of unity) or a bare rational like '-1' or '2/3'."""
    parts = text.split()
    if len(parts) == 2:
        order = int(parts[0])
        if not 1 <= order <= MAX_ORDER:
            raise ValidationError(
                f"scalar {text!r} needs a root-of-unity order in 1..{MAX_ORDER}"
            )
        return CycScalar.root_of_unity(order, int(parts[1]))
    if len(parts) == 1:
        return CycScalar.rational(Fraction(parts[0]))
    raise ValueError(f"cannot parse scalar {text!r}")
