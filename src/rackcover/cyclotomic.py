"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored by its coordinates in the power basis
1, z, ..., z^(phi(N)-1) of Q[z]/(Phi_N(z)), where Phi_N is the N-th
cyclotomic polynomial and z stands for a primitive N-th root of unity.
Coefficients are `fractions.Fraction`; every operation is exact and
there is no floating point anywhere in this module.

Elements of different orders mix freely: binary operations lift both
operands into Q(zeta_lcm) via z_N = z_M^(M/N) before combining them.
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


def _reduce(coeffs: list[Fraction], order: int) -> tuple[Fraction, ...]:
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
    coeffs = coeffs[:deg]
    coeffs += [Fraction(0)] * (deg - len(coeffs))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _unit_power(order: int, k: int) -> tuple[Fraction, ...]:
    # coordinates of z^k in Q(zeta_order)
    k %= order
    return _reduce([Fraction(0)] * k + [Fraction(1)], order)


class CycScalar:
    """An element of Q(zeta_N), exact.

    Instances are immutable. Construct via :meth:`rational`,
    :meth:`root_of_unity`, or the module helpers; arithmetic uses the
    usual operators and accepts ints and Fractions on either side.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = euler_phi(order)
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(
                f"need {deg} coordinates for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycScalar is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value, order: int = 1) -> "CycScalar":
        value = Fraction(value)
        coeffs = [Fraction(0)] * euler_phi(order)
        coeffs[0] = value
        if order > 1:
            # the constant sits on the basis vector 1 = z^0
            return cls(order, _reduce(coeffs, order))
        return cls(order, coeffs)

    @classmethod
    def root_of_unity(cls, order: int, k: int = 1) -> "CycScalar":
        """zeta_order^k."""
        return cls(order, _unit_power(order, k))

    @classmethod
    def zero(cls, order: int = 1) -> "CycScalar":
        return cls(order, [Fraction(0)] * euler_phi(order))

    @classmethod
    def one(cls, order: int = 1) -> "CycScalar":
        return cls.rational(1, order)

    @classmethod
    def from_root_counts(cls, order: int, counts) -> "CycScalar":
        """Sum of counts[k] * zeta_order^k, one reduction at the end."""
        poly = [Fraction(c) for c in counts]
        poly += [Fraction(0)] * (max(0, order - len(poly)))
        return cls(order, _reduce(poly, order))

    # --- coercion helpers ----------------------------------------------

    def lift(self, new_order: int) -> "CycScalar":
        """Image under Q(zeta_N) -> Q(zeta_M), z_N -> z_M^(M/N); needs N | M."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"{self.order} does not divide {new_order}")
        step = new_order // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return CycScalar(new_order, _reduce(poly, new_order))

    @staticmethod
    def _coerce(value) -> "CycScalar":
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycScalar.rational(value)
        return NotImplemented

    def _common(self, other):
        other = CycScalar._coerce(other)
        if other is NotImplemented:
            return None
        m = self.order * other.order // gcd(self.order, other.order)
        return self.lift(m), other.lift(m), m

    # --- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        """The element as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            # might still be rational in disguise (e.g. z_3 + z_3^2 = -1)?
            # no: the power basis is a basis, rationals have a unique form.
            return None
        return self.coeffs[0]

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        pair = self._common(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return CycScalar(m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        pair = self._common(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return CycScalar(m, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycScalar(self.order, [c * f for c in self.coeffs])
        pair = self._common(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CycScalar(m, _reduce(prod, m))

    __rmul__ = __mul__

    def inverse(self) -> "CycScalar":
        """Multiplicative inverse via the extended Euclidean algorithm
        on (self, Phi_N) in Q[x]."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        n = self.order
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
        inv = [c / const for c in s0]
        result = CycScalar(n, _reduce(inv, n))
        return result

    def __truediv__(self, other):
        pair = self._common(other)
        if pair is None:
            return NotImplemented
        a, b, _m = pair
        return a * b.inverse()

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
        pair = self._common(other)
        if pair is None:
            return NotImplemented
        a, b, _m = pair
        return a.coeffs == b.coeffs

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
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
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
