"""Cyclotomic integer arithmetic against independent numeric oracles."""
from __future__ import annotations

import cmath
import math
import os
import random
import sys
import threading
from operator import sub

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold, remainder_key, small_real
from snfglp import cyclotomic
from snfglp.cyclotomic import (
    COEFF_LIMIT,
    CoefficientOverflow,
    CycInt,
    _canonical,
    _cyclic_product,
    _embed,
    _embed_error,
    _mapped_key,
    _real_sign,
    IntPolynomial,
    OrderMismatch,
    cyc_add,
    cyc_div_int,
    cyc_eq,
    cyc_is_zero,
    cyc_mul,
    cyc_neg,
    cyc_reflect,
    cyc_rotate,
    cyc_sub,
    cyc_unit_translates,
    cyclotomic_polynomial,
    euler_phi,
    from_coeffs,
    to_cartesian,
    zero,
    zeta,
)


def numeric_cyclotomic(n: int) -> list[int]:
    """Oracle: expand prod(x - w) over primitive n-th roots w, then round."""
    coeffs = [complex(1.0)]
    for l in range(1, n + 1):
        if math.gcd(l, n) != 1:
            continue
        root = cmath.exp(2j * cmath.pi * l / n)
        coeffs = [complex(0.0)] + coeffs
        coeffs = [c - root * d for c, d in zip(coeffs, coeffs[1:] + [complex(0.0)])]
    # coeffs currently highest-degree-last after the convolution above
    return [round(c.real) for c in coeffs]


def phi_by_factorization(n: int) -> int:
    """Oracle: totient via the product formula over prime factors."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def embed(a: CycInt) -> complex:
    x, y = to_cartesian(a)
    return complex(x, y)


class TestPolynomials:
    def test_phi_1_is_x_minus_1(self):
        assert cyclotomic_polynomial(1).coeffs == (-1, 1)

    def test_phi_8_degree_four(self):
        # degree phi(2^n) = 2^(n-1)
        assert cyclotomic_polynomial(8).degree() == 4
        assert euler_phi(8) == 4

    def test_phi_6(self):
        assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)

    @pytest.mark.parametrize("n", range(1, 37))
    def test_matches_numeric_oracle(self, n):
        got = list(cyclotomic_polynomial(n).coeffs)
        want = numeric_cyclotomic(n)
        assert got == want

    @pytest.mark.parametrize("n", range(1, 37))
    def test_product_over_divisors_is_xn_minus_1(self, n):
        prod = IntPolynomial(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        assert prod.coeffs == tuple([-1] + [0] * (n - 1) + [1])

    @pytest.mark.parametrize("n", range(1, 37))
    def test_degree_is_totient(self, n):
        assert cyclotomic_polynomial(n).degree() == euler_phi(n)
        assert euler_phi(n) == phi_by_factorization(n)

    def test_phi_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == sum(1 for l in range(1, 13) if math.gcd(l, 12) == 1) == 4

    def test_monic(self):
        for n in (2, 3, 4, 9, 12, 30, 36):
            assert cyclotomic_polynomial(n).coeffs[-1] == 1

    def test_boundary_raises(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            euler_phi(0)
        with pytest.raises(ValueError, match="^n must be positive$"):
            cyclotomic_polynomial(0)
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            IntPolynomial(1, 1).divmod_exact(IntPolynomial())
        with pytest.raises(ValueError, match="^1 not divisible by leading coefficient 2$"):
            IntPolynomial(0, 1).divmod_exact(IntPolynomial(1, 2))


class TestRingOps:
    def test_zeta4_squared_is_minus_one(self):
        assert cyc_eq(cyc_add(zeta(4, 2), zeta(4, 0)), zero(4))

    def test_cube_roots_sum_to_zero(self):
        s = cyc_add(cyc_add(zeta(3, 0), zeta(3, 1)), zeta(3, 2))
        assert cyc_eq(s, zero(3))

    def test_mul_adds_exponents(self):
        assert cyc_eq(cyc_mul(zeta(5, 2), zeta(5, 4)), zeta(5, 1))

    def test_eq_examples(self):
        assert cyc_eq(from_coeffs(3, (1, 1, 1)), zero(3))
        assert cyc_eq(from_coeffs(4, (0, 0, 1, 0)), from_coeffs(4, (-1, 0, 0, 0)))
        s = zero(9)
        for h in range(3):
            s = cyc_add(s, zeta(9, 3 * h))
        assert cyc_is_zero(s)

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatch):
            cyc_add(zeta(4), zeta(5))
        with pytest.raises(OrderMismatch):
            cyc_eq(zeta(4), zeta(5))

    def test_overflow_checked(self):
        with pytest.raises(CoefficientOverflow):
            from_coeffs(3, (2**40, 0, 0))

    def test_overflow_names_first_offending_coefficient(self):
        with pytest.raises(CoefficientOverflow, match=r"^coefficient -2147483649 exceeds \+/-2147483648$"):
            from_coeffs(4, (COEFF_LIMIT, -COEFF_LIMIT - 1, 2**40, 0))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            zero(37)

    def test_rotate_examples(self):
        assert cyc_eq(cyc_rotate(zeta(6, 0), 3), cyc_neg(zeta(6, 0)))
        assert cyc_eq(cyc_rotate(zeta(5, 2), 5), zeta(5, 2))
        a = cyc_add(zeta(8, 0), zeta(8, 1))
        assert cyc_eq(cyc_rotate(a, 1), cyc_add(zeta(8, 1), zeta(8, 2)))

    def test_reflect_examples(self):
        assert cyc_eq(cyc_reflect(zeta(4, 1), 0), zeta(4, 3))
        assert cyc_eq(cyc_reflect(zeta(6, 2), 2), zeta(6, 0))

    def test_cartesian_examples(self):
        x, y = to_cartesian(zeta(4, 1))
        assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12
        x, y = to_cartesian(from_coeffs(3, (1, 1, 1)))
        assert math.hypot(x, y) < 1e-9
        x, y = to_cartesian(zeta(6, 0, 2))
        assert abs(x - 2.0) < 1e-12 and abs(y) < 1e-12

    def test_div_int(self):
        a = from_coeffs(6, (4, -2, 0, 2, 0, 0))
        half = cyc_div_int(a, 2)
        assert half is not None and cyc_eq(cyc_add(half, half), a)
        assert cyc_div_int(zeta(6, 0), 2) is None

    def test_boundary_values(self):
        with pytest.raises(ValueError, match="^expected 3 coefficients, got 2$"):
            CycInt(3, (1, 2))
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            cyc_div_int(zeta(6, 0), 0)
        one = CycInt(3, (1, 0, 0))
        assert (one == 1) is False and one != (1, 0, 0)
        assert repr(one) == "CycInt(k=3, [1, 0, 0])"


coeff_vectors = st.integers(3, 12).flatmap(
    lambda k: st.tuples(
        st.just(k), st.lists(st.integers(-10, 10), min_size=k, max_size=k)
    )
)


def as_cyc(kv) -> CycInt:
    return from_coeffs(kv[0], kv[1])


class TestAlgebraProperties:
    @given(coeff_vectors)
    @settings(deadline=None)
    def test_rotate_full_turn_is_identity(self, kv):
        a = as_cyc(kv)
        assert cyc_eq(cyc_rotate(a, a.order), a)

    @given(coeff_vectors, st.integers(0, 40))
    @settings(deadline=None)
    def test_reflect_is_involution(self, kv, m):
        a = as_cyc(kv)
        assert cyc_eq(cyc_reflect(cyc_reflect(a, m), m), a)

    @given(coeff_vectors, st.integers(0, 40), st.integers(0, 40))
    @settings(deadline=None)
    def test_reflect_composition_is_rotation(self, kv, m1, m2):
        # reflect(m2) then reflect(m1) multiplies by zeta^(m1 - m2)
        a = as_cyc(kv)
        left = cyc_reflect(cyc_reflect(a, m2), m1)
        right = cyc_rotate(a, m1 - m2)
        assert cyc_eq(left, right)

    @given(coeff_vectors, coeff_vectors)
    @settings(max_examples=60, deadline=None)
    def test_embedding_is_ring_homomorphism(self, kv1, kv2):
        if kv1[0] != kv2[0]:
            kv2 = (kv1[0], (kv2[1] * kv1[0])[: kv1[0]])
        a, b = as_cyc(kv1), as_cyc(kv2)
        assert abs(embed(cyc_add(a, b)) - (embed(a) + embed(b))) < 1e-9
        assert abs(embed(cyc_mul(a, b)) - embed(a) * embed(b)) < 1e-9
        assert abs(embed(cyc_sub(a, b)) - (embed(a) - embed(b))) < 1e-9

    @given(coeff_vectors, st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    @settings(deadline=None)
    def test_eq_matches_float_distance(self, kv, mult):
        # b = a + (random poly) * Phi_k is equal to a; floats must agree
        k = kv[0]
        a = as_cyc(kv)
        phi = cyclotomic_polynomial(k)
        noise = IntPolynomial(*mult) * phi
        folded = [0] * k
        for i, c in enumerate(noise.coeffs):
            folded[i % k] += c
        b = cyc_add(a, from_coeffs(k, folded))
        assert cyc_eq(a, b)
        assert abs(embed(a) - embed(b)) < 1e-9

    @given(coeff_vectors, coeff_vectors)
    @settings(deadline=None)
    def test_far_floats_mean_unequal(self, kv1, kv2):
        if kv1[0] != kv2[0]:
            kv2 = (kv1[0], (kv2[1] * kv1[0])[: kv1[0]])
        a, b = as_cyc(kv1), as_cyc(kv2)
        if abs(embed(a) - embed(b)) > 1e-4:
            assert not cyc_eq(a, b)

    @given(coeff_vectors)
    @settings(deadline=None)
    def test_hash_respects_equality(self, kv):
        k = kv[0]
        a = as_cyc(kv)
        phi = cyclotomic_polynomial(k)
        folded = [0] * k
        for i, c in enumerate(phi.coeffs):
            folded[i % k] += c
        b = cyc_add(a, from_coeffs(k, folded))
        assert a == b and hash(a) == hash(b)

    @given(
        st.integers(1, 36).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(-COEFF_LIMIT, COEFF_LIMIT), min_size=k, max_size=k),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_canonical_is_remainder_mod_phi(self, kv):
        k, coeffs = kv
        assert _canonical(k, tuple(coeffs)) == remainder_key(k, coeffs)


@st.composite
def embed_vectors(draw):
    """(k, coefficients) with |c| <= 2^40: arbitrary, sparse, or a small
    point plus a large folded multiple of Phi_k, whose floats cancel."""
    k = draw(st.integers(3, 36))
    big = st.integers(-(2**40), 2**40)
    shape = draw(st.sampled_from(["dense", "sparse", "folded"]))
    if shape == "dense":
        return k, draw(st.lists(big, min_size=k, max_size=k))
    if shape == "sparse":
        return k, draw(st.lists(st.one_of(st.just(0), big), min_size=k, max_size=k))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    m, j = draw(st.integers(-(2**40) + 5, 2**40 - 5)), draw(st.integers(0, k - 1))
    for d, c in enumerate(cyclotomic_polynomial(k).coeffs):
        coeffs[(d + j) % k] += m * c
    return k, coeffs


class TestEmbedError:
    @given(embed_vectors())
    @settings(max_examples=300, deadline=None)
    def test_bound_holds_against_mpmath(self, kc):
        k, coeffs = kc
        coeffs = tuple(coeffs)
        x, y = _embed(k, coeffs)
        bound = _embed_error(k, coeffs)
        with mpmath.workdps(60):
            angles = [2 * mpmath.pi * j / k for j in range(k)]
            exact_x = mpmath.fsum(c * mpmath.cos(a) for c, a in zip(coeffs, angles))
            exact_y = mpmath.fsum(c * mpmath.sin(a) for c, a in zip(coeffs, angles))
            assert abs(x - exact_x) <= bound
            assert abs(y - exact_y) <= bound

    def test_zero_vector_is_exact(self):
        assert _embed_error(12, (0,) * 12) == 0.0 and _embed(12, (0,) * 12) == (0.0, 0.0)


def power_key(k: int, base: tuple[int, ...], e: int, cap: int = 2**40) -> tuple[int, ...]:
    """The key of base^e, or of the highest lower power whose key stays
    within +-cap, multiplied in Python ints and reduced at each step."""
    out = (1,) + (0,) * (k - 1)
    for _ in range(e):
        key = _canonical(k, _cyclic_product(out, base))
        if max(map(abs, key)) > cap:
            break
        out = key + (0,) * (k - len(key))
    return _canonical(k, out)


def sign50(k: int, key: tuple[int, ...]) -> int:
    """Reference sign of the real element with key `key`, from its value at
    50 digits, which the test elements clear by more than 10^-35."""
    with mpmath.workdps(50):
        x = mpmath.fsum(c * mpmath.cospi(mpmath.mpf(2 * j) / k) for j, c in enumerate(key))
        assert not any(key) or abs(x) > mpmath.mpf(10) ** -35
        return int(mpmath.sign(x))


@st.composite
def real_elements(draw):
    """(k, key) of a real element of Z[zeta_k], 5 <= k <= 36: zero, given
    as a folded multiple of Phi_k; a small sum of the reals zeta^a +
    zeta^-a; or +- a power with coefficients within 2^40 of a real near 0,
    small_real(k) or, when 5 | k, the unit phi^-1 = zeta^(k/5) + zeta^(-k/5)
    of the pentagon reproducer, whose high powers lie within the float
    error of 0."""
    k = draw(st.integers(5, 36).filter(lambda k: k != 6))
    kind = draw(st.sampled_from(["zero", "small", "power"]))
    if kind == "zero":
        coeffs = fold(k, (0,) * k, draw(st.integers(0, k - 1)), draw(st.integers(-(2**40), 2**40)))
        return k, _canonical(k, coeffs)
    if kind == "small":
        coeffs = [0] * k
        for a in range(k // 2 + 1):
            b = draw(st.integers(-3, 3))
            coeffs[a] += b
            coeffs[-a % k] += b
        return k, _canonical(k, tuple(coeffs))
    bases = [small_real(k).coeffs]
    if k % 5 == 0:
        bases.append(cyc_add(zeta(k, k // 5), zeta(k, -(k // 5))).coeffs)
    key = power_key(k, draw(st.sampled_from(bases)), draw(st.integers(0, 60)))
    sign = draw(st.sampled_from((1, -1)))  # one sign for the whole key, which stays real
    return k, tuple(sign * c for c in key)


class TestRealSign:
    @given(real_elements())
    @settings(max_examples=300, deadline=None)
    def test_matches_50_digit_reference(self, case):
        k, key = case
        assert _real_sign(k, key) == sign50(k, key)

    @pytest.mark.parametrize("k", [k for k in range(5, 37) if k != 6])
    def test_decides_below_the_float_error(self, k):
        # the highest power of small_real(k) within 2^40 is too near 0 for its
        # float value, so the fixed-point sum decides its sign
        key = power_key(k, small_real(k).coeffs, 200)
        assert abs(_embed(k, key)[0]) <= _embed_error(k, key)
        for s in (1, -1):
            signed = tuple(s * c for c in key)
            assert _real_sign(k, signed) == sign50(k, signed) != 0

    @pytest.mark.parametrize("k", [4, 5, 12, 35])
    def test_non_real_key_raises(self, k):
        # key - reflect(key) is nonzero with real part exactly 0, which no
        # precision clears
        key = _canonical(k, (0, 1, 2) + (0,) * (k - 3))
        imaginary = tuple(map(sub, key, _mapped_key(k, key, 0, -1)))
        assert any(imaginary)
        with pytest.raises(ValueError, match=f"of order {k} is not real$"):
            _real_sign(k, imaginary)
        with pytest.raises(ValueError, match=r"^key \(0, 1\) of order 4 is not real$"):
            _real_sign(4, (0, 1))

    def test_raises_past_the_norm_bound(self, monkeypatch):
        # with the degree understated the norm bound is false for this element,
        # and the loop stops at the precision the bound names
        key = power_key(35, small_real(35).coeffs, 200)
        monkeypatch.setattr(cyclotomic, "euler_phi", lambda n: 2)
        with pytest.raises(ArithmeticError, match="undecided at 64 bits, past the norm bound$"):
            _real_sign(35, key)


def fresh_key(a: CycInt) -> tuple[int, ...]:
    """Reference: divide a's raw coefficients by Phi_k, ignoring any cached key."""
    return remainder_key(a.order, a.coeffs)


wide_vectors = st.integers(3, 36).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(-COEFF_LIMIT, COEFF_LIMIT), min_size=k, max_size=k),
    )
)


class TestDerivedKeys:
    """Keys derived by linearity, never by reduction, match a fresh reduction."""

    def assert_preset(self, v: CycInt) -> None:
        assert v._key is not None  # set at construction, not computed on demand
        assert v.canonical_key() == fresh_key(v)

    @given(wide_vectors, st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_rotation_reflection_and_translates(self, kv, m):
        a = as_cyc(kv)
        k = a.order
        rotated, reflected = cyc_rotate(a, m), cyc_reflect(a, m)
        assert rotated.coeffs == tuple(a.coeffs[(i - m) % k] for i in range(k))
        assert reflected.coeffs == tuple(a.coeffs[(m - i) % k] for i in range(k))
        self.assert_preset(rotated)
        self.assert_preset(reflected)
        if max(a.coeffs) == COEFF_LIMIT:
            # vertex j of a cell at the limit has coefficient COEFF_LIMIT + 1
            with pytest.raises(CoefficientOverflow):
                cyc_unit_translates(a)
            return
        translates = cyc_unit_translates(a)
        assert len(translates) == k
        for j, v in enumerate(translates):
            assert v.coeffs == tuple(c + (i == j) for i, c in enumerate(a.coeffs))
            self.assert_preset(v)

    def test_threads_share_fresh_values(self):
        # more threads than cores and a short switch interval, so writes of
        # the lazily cached key and float point interleave; every key must
        # still be exact and every point the uncached embedding
        rng = random.Random(5)
        values = [
            from_coeffs(k, [rng.randint(-COEFF_LIMIT, COEFF_LIMIT) for _ in range(k)])
            for k in (5, 12, 30, 36)
            for _ in range(150)
        ]
        n_threads = (os.cpu_count() or 1) + 3
        barrier = threading.Barrier(n_threads)
        seen: list[dict[int, tuple] | None] = [None] * n_threads

        def work(slot: int) -> None:
            order = list(range(len(values)))
            random.Random(slot).shuffle(order)
            barrier.wait(timeout=30)
            out = {}
            for i in order:
                v = values[i]
                out[i] = (hash(v), v.canonical_key(), cyc_rotate(v, 1).canonical_key(), to_cartesian(v))
            seen[slot] = out

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, v in enumerate(values):
            key = fresh_key(v)
            xy = _embed(v.order, v.coeffs)
            want = (hash((v.order, key)), key, fresh_key(cyc_rotate(v, 1)), xy)
            assert v.canonical_key() == key and to_cartesian(v) == xy
            assert all(out is not None and out[i] == want for out in seen)
