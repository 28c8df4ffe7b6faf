"""Exact arithmetic in rings of cyclotomic integers Z[zeta_k].

Every geometric point in this package is a Z-linear combination of the
k-th roots of unity, stored as a length-k integer coefficient vector.
Vectors are only ever reduced lazily modulo x^k - 1 (rotation and
reflection stay cheap index permutations); equality is decided by exact
divisibility of the difference by the k-th cyclotomic polynomial, which
is the minimal polynomial of a primitive k-th root of unity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

MAX_ORDER = 36
COEFF_LIMIT = 2**31


class OrderMismatch(ValueError):
    """Raised when an operation mixes cyclotomic integers of different order."""


class CoefficientOverflow(ValueError):
    """Raised when a spec's cell has a coefficient outside +-COEFF_LIMIT,
    the range over which `model._NEAR` is proven (see `model.FractalSpec`)."""


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __init__(self, *coeffs: int):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial(*out)

    def divmod_exact(self, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Quotient and remainder over Z; divisor's leading coefficient must divide exactly.

        One long division over a fixed range: for each shift from the top,
        the coefficient at shift + m - 1 (m terms in the divisor) is divided
        by the lead, which raises ValueError unless it divides exactly, and
        that multiple of the shifted divisor is subtracted.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m, lead = len(divisor.coeffs), divisor.coeffs[-1]
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - m + 1, 0)
        for shift in reversed(range(len(quo))):
            head, r = divmod(rem[shift + m - 1], lead)
            if r:
                raise ValueError(f"{rem[shift + m - 1]} not divisible by leading coefficient {lead}")
            quo[shift] = head
            for j, d in enumerate(divisor.coeffs):
                rem[shift + j] -= head * d
        return IntPolynomial(*quo), IntPolynomial(*rem)


def euler_phi(n: int) -> int:
    """Count of 1 <= l <= n coprime to n."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(1 for l in range(1, n + 1) if math.gcd(l, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial: monic, integer, degree euler_phi(n).

    Computed by exact division of x^n - 1 by the polynomials of all
    proper divisors of n, which leaves no remainder: x^n - 1 is the product
    of Phi_d over every divisor d of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = IntPolynomial(*([-1] + [0] * (n - 1) + [1]))
    for d in range(1, n):
        if n % d == 0:
            poly = poly.divmod_exact(cyclotomic_polynomial(d))[0]
    return poly


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Row j holds the coefficients of x^j reduced modulo Phi_order."""
    phi = cyclotomic_polynomial(order)
    deg = phi.degree()
    rows: list[tuple[int, ...]] = []
    for j in range(order):
        if j < deg:
            rows.append(tuple(1 if i == j else 0 for i in range(deg)))
        else:
            # x^j = x * x^(j-1) mod Phi; eliminate the spilled top term.
            prev = rows[j - 1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            for i in range(deg):
                shifted[i] -= top * phi.coeffs[i]
            rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_rows(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The reduction rows as their nonzero (index, coefficient) pairs."""
    return tuple(
        tuple((t, r) for t, r in enumerate(row) if r) for row in _reduction_rows(order)
    )


def _canonical(order: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of the coefficient vector modulo Phi_order (degree < phi(order)), uncached:
    entries below phi(order) stay, and each later entry c adds c times its sparse row."""
    deg = len(_reduction_rows(order)[0])
    rows = _sparse_rows(order)
    out = list(coeffs[:deg])
    for m in range(deg, order):
        c = coeffs[m]
        if c:
            for t, r in rows[m]:
                out[t] += c * r
    return tuple(out)


@dataclass(frozen=True, eq=False)
class CycInt:
    """An element of Z[zeta_k]: sum of coeffs[j] * zeta_k^j for j = 0..k-1.

    Equality and hashing are mathematical (two vectors representing the
    same complex number compare equal).  Coefficients may have any size:
    only a spec's cells are held to COEFF_LIMIT (`model.FractalSpec`), so
    the vertices, sums, rotations and scaling factor of any spec can be
    built.  Values are immutable: the canonical key and float point are
    computed lazily and cached on the instance, each written at most once
    (every writer stores the same tuple), so a CycInt can be shared across
    threads.
    """

    order: int
    coeffs: tuple[int, ...]
    _key: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _xy: tuple[float, float] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {self.order}")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"expected {self.order} coefficients, got {len(self.coeffs)}"
            )

    def canonical_key(self) -> tuple[int, ...]:
        key = self._key
        if key is None:
            key = _canonical(self.order, self.coeffs)
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.order == other.order and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash((self.order, self.canonical_key()))

    def __repr__(self) -> str:
        return f"CycInt(k={self.order}, {list(self.coeffs)})"


def from_coeffs(order: int, coeffs) -> CycInt:
    return CycInt(order, tuple(int(c) for c in coeffs))


def zero(order: int) -> CycInt:
    return CycInt(order, (0,) * order)


def zeta(order: int, j: int = 1, scale: int = 1) -> CycInt:
    """scale * zeta_order^j."""
    j %= order
    return CycInt(order, tuple(scale if i == j else 0 for i in range(order)))


def _require_same_order(a: CycInt, b: CycInt) -> None:
    if a.order != b.order:
        raise OrderMismatch(f"mixed orders {a.order} and {b.order}")


def cyc_add(a: CycInt, b: CycInt) -> CycInt:
    _require_same_order(a, b)
    return CycInt(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_sub(a: CycInt, b: CycInt) -> CycInt:
    _require_same_order(a, b)
    return CycInt(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_neg(a: CycInt) -> CycInt:
    return CycInt(a.order, tuple(-x for x in a.coeffs))


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    """Polynomial product reduced modulo x^k - 1 (cyclic convolution)."""
    _require_same_order(a, b)
    return CycInt(a.order, _cyclic_product(a.coeffs, b.coeffs))


def _cyclic_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficients of cyc_mul for two coefficient vectors of one length."""
    k = len(a)
    out = [0] * k
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % k] += x * y
    return tuple(out)


def cyc_scale(a: CycInt, n: int) -> CycInt:
    return CycInt(a.order, tuple(n * x for x in a.coeffs))


def cyc_eq(a: CycInt, b: CycInt) -> bool:
    """True iff the difference is divisible by the order's cyclotomic polynomial."""
    _require_same_order(a, b)
    return a.canonical_key() == b.canonical_key()


def cyc_is_zero(a: CycInt) -> bool:
    """True iff a's reduced key, which is unique, is all zeros."""
    return not any(a.canonical_key())


def _preset(order: int, coeffs: tuple[int, ...], key: tuple[int, ...]) -> CycInt:
    """A CycInt built as usual whose canonical key is already known, so it is never reduced."""
    out = CycInt(order, coeffs)
    object.__setattr__(out, "_key", key)
    return out


def _permuted(seq: tuple[int, ...], shift: int, sign: int) -> tuple[int, ...]:
    """seq with entry i moved to index (shift + sign * i) mod len(seq), for sign = +-1."""
    if sign < 0:
        seq = seq[::-1]
        shift += 1
    s = shift % len(seq)
    return seq[-s:] + seq[:-s]


def _mapped_key(k: int, key: tuple[int, ...], shift: int, sign: int) -> tuple[int, ...]:
    """Canonical key of the image under zeta^i -> zeta^(shift + sign * i) of
    the order-k point with canonical key `key`: the one dihedral action on
    keys, a rotation for sign 1 and a reflection for sign -1.

    Rotation and reflection are well defined on Z[zeta_k], so the image's
    key is the reduction of the permuted key.  No value is built.
    """
    return _canonical(k, _permuted(key + (0,) * (k - len(key)), shift, sign))


def _twice_dot(k: int, key: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Canonical key of the real element 2<p, zeta^m> = p * zeta^-m +
    conj(p) * zeta^m of the order-k point p with canonical key `key`: twice
    p's projection on the direction of zeta^m, the sum of p's images under
    the rotation (-m, 1) and the reflection (m, -1) of `_mapped_key`.  Every
    exact projection is a Z-combination of these.
    """
    return tuple(map(add, _mapped_key(k, key, -m, 1), _mapped_key(k, key, m, -1)))


def cyc_rotate(a: CycInt, j: int) -> CycInt:
    """Multiply by zeta^j: rotation by angle 2*pi*j/k about the origin."""
    return CycInt(a.order, _permuted(a.coeffs, j, 1))


def cyc_reflect(a: CycInt, m: int) -> CycInt:
    """Reflect across the line through the origin at angle m*pi/k.

    On coefficients this is the index map j -> (m - j) mod k, i.e.
    z -> zeta^m * conj(z).
    """
    return CycInt(a.order, _permuted(a.coeffs, m, -1))


def cyc_unit_translate_keys(a: CycInt) -> list[tuple[int, ...]]:
    """canonical_key of each of cyc_unit_translates(a), without building the values.

    Reduction is linear, so the key of a + zeta^j is key(a) + row[j]: a
    itself is reduced at most once and the translates never are.
    """
    key = a.canonical_key()
    return [tuple(map(add, key, row)) for row in _reduction_rows(a.order)]


def cyc_unit_translates(a: CycInt) -> list[CycInt]:
    """The k points a + zeta^j, j = 0..k-1, in order, keyed by cyc_unit_translate_keys."""
    k = a.order
    out = []
    for j, key in enumerate(cyc_unit_translate_keys(a)):
        coeffs = list(a.coeffs)
        coeffs[j] += 1
        out.append(_preset(k, tuple(coeffs), key))
    return out


def cyc_div_int(a: CycInt, n: int) -> CycInt | None:
    """Exact division by a nonzero integer, or None if a is not divisible.

    Divisibility is decided on the reduced representative modulo Phi_k,
    which is unique, so n | a holds iff every reduced coefficient is a
    multiple of n.
    """
    if n == 0:
        raise ZeroDivisionError("division by zero")
    key = a.canonical_key()
    if any(c % n for c in key):
        return None
    quot = [c // n for c in key]
    quot += [0] * (a.order - len(quot))
    return CycInt(a.order, tuple(quot))


@lru_cache(maxsize=None)
def _unit_circle(order: int) -> tuple[tuple[float, float], ...]:
    """(cos, sin) of 2*pi*j/order for j = 0..order-1."""
    out = []
    for j in range(order):
        ang = 2.0 * math.pi * j / order
        out.append((math.cos(ang), math.sin(ang)))
    return tuple(out)


def _embed(order: int, coeffs: tuple[int, ...]) -> tuple[float, float]:
    """The float point of a coefficient vector, uncached (`to_cartesian` caches a value's)."""
    x = 0.0
    y = 0.0
    for c, (cos, sin) in zip(coeffs, _unit_circle(order)):
        if c:
            x += c * cos
            y += c * sin
    return (x, y)


def _embed_error(order: int, coeffs: tuple[int, ...]) -> float:
    """A bound on the error of each coordinate of `_embed(order, coeffs)`:
    (order + 24) * ||coeffs||_1 * 2^-52.

    With u = 2^-53: the angle 2*pi*j/order is computed from math.pi
    (off by <= 2^-52) with two roundings, so it is off by <= 17u, and
    math.cos/sin add <= 2u, so each tabulated cos or sin is within 19u of
    the exact one.  Converting c to a float and multiplying each add a
    relative u, so a term is within 21.1u * |c| of c * cos.  Summing at
    most order terms adds <= (order - 1) * u * 1.001 * ||c||_1.  The total
    is below (order + 24) * u * ||c||_1; the stated bound doubles that,
    which also covers the rounding of the bound itself.
    """
    return (order + 24) * sum(map(abs, coeffs)) * 2.0**-52


def _real_sign(order: int, key: tuple[int, ...]) -> int:
    """The sign (-1, 0 or 1) of the real element of Z[zeta_order] with
    canonical key `key`: 0 exactly when the key, which is unique, is all
    zeros; else the float's when it clears `_embed_error`; else that of
    sum(c_j * cos(2*pi*j/order)) in fixed point at q = 64, 128, ... bits,
    once it clears its error bound 7q * ||key||_1 units.  Every floor is off
    by under one unit, so pi (Machin's formula) is within 3.8q + 40 units, an
    angle min(j, order - j) * 2*pi/order <= pi within 3.8q + 41, and its
    Taylor cosine, at most q terms within 2 each and a tail under 3, within 7q.

    The fixed-point branch first checks that reflection 0 fixes the key,
    and raises ValueError if it does not: a key whose value is not real may
    have real part 0 and never clear the bound.  A real nonzero value lies
    in the real subfield, of degree d = phi(order)/2, where its norm is a
    nonzero integer and each of its d conjugates is at most L = ||key||_1,
    so |value| >= L^-(d-1).  Hence 2^q >= 14q * L^d makes |value| * 2^q at
    least twice the error bound, and the sign certain: the loop raises
    ArithmeticError past that q instead of doubling it.
    """
    if not any(key):
        return 0
    value = _embed(order, key)[0]
    if abs(value) > _embed_error(order, key):
        return 1 if value > 0 else -1
    if _mapped_key(order, key, 0, -1) != key:
        raise ValueError(f"key {key} of order {order} is not real")
    norm, q = sum(map(abs, key)), 32
    certain = 14 * norm ** (euler_phi(order) // 2)
    while True:
        q *= 2
        one = 1 << q
        pi = sum((-1) ** n * w * (one // m ** (2 * n + 1) // (2 * n + 1))  # Machin's formula
                 for w, m in ((16, 5), (-4, 239)) for n in range(q))
        value = 0
        for j, c in enumerate(key):
            theta, term, cos, n = 2 * min(j, order - j) * pi // order, one, one, 0
            while term:
                n += 2
                term = -term * theta * theta // (one * one * (n - 1) * n)
                cos += term
            value += c * cos
        if abs(value) > 7 * q * norm:
            return 1 if value > 0 else -1
        if 1 << q >= q * certain:
            raise ArithmeticError(f"sign of {key} undecided at {q} bits, past the norm bound")


def to_cartesian(a: CycInt) -> tuple[float, float]:
    """Double-precision embedding of a as the point (x, y), cached on a like its key.

    Each coordinate is within `_embed_error` of the exact point.  Floats
    decide alone only the near-cell grid (`model._Grid`), whose cut-off
    covers that error, and the slice decider's region (`glp._region`), which
    counts it toward inclusion; any other sign of an exact value falls back
    to `_real_sign` within the bound.
    """
    if a._xy is None:
        object.__setattr__(a, "_xy", _embed(a.order, a.coeffs))
    return a._xy
