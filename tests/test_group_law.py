"""Group law of G_{r/s}(N, k, eta) against an exact Fraction oracle.

The oracle below restates the paper's definition with rationals and
shares no code with `unchained.symmetry`: an element is (theta, delta,
beta, xi) with theta = beta/2 + k eta delta/N (mod 1) lifted by an
integer mod s, alpha = (r/s) theta - delta/N (mod 1), and the product
(g2 g1) = (theta2 + xi2 theta1 mod s, delta2 + xi2 delta1 mod N,
beta2 + beta1 mod 2, xi2 xi1).
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from unchained.symmetry import (GroupSpec, compose, element_order, inverse,
                                make_element)


@st.composite
def specs(draw):
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, n // 2))
    eta = draw(st.sampled_from((-1, 1)))
    s = draw(st.integers(1, 6))
    r = draw(st.integers(-2 * s, 2 * s).filter(lambda r: gcd(r, s) == 1))
    return GroupSpec(n, k, eta, r, s)


def element_args(spec):
    return st.tuples(st.integers(0, spec.n_bodies - 1), st.integers(0, 1),
                     st.integers(0, spec.s - 1), st.sampled_from((1, -1)))


def oracle_element(spec, delta, beta, lift, xi):
    base = (Fraction(beta, 2)
            + Fraction(spec.k * spec.eta * delta, spec.n_bodies)) % 1
    return ((base + lift) % spec.s, delta, beta, xi)


def oracle_alpha(spec, g):
    theta, delta, _, _ = g
    return (Fraction(spec.r, spec.s) * theta
            - Fraction(delta, spec.n_bodies)) % 1


def oracle_product(spec, g2, g1):
    return ((g2[0] + g2[3] * g1[0]) % spec.s,
            (g2[1] + g2[3] * g1[1]) % spec.n_bodies,
            (g2[2] + g1[2]) % 2, g2[3] * g1[3])


def views(g):
    return (g.theta, g.delta, g.beta, g.xi)


@st.composite
def spec_and_elements(draw, count):
    spec = draw(specs())
    args = [draw(element_args(spec)) for _ in range(count)]
    return spec, args


@settings(max_examples=200, deadline=None)
@given(spec_and_elements(2))
def test_views_and_compose_match_oracle(case):
    spec, (a1, a2) = case
    g1, g2 = make_element(spec, *a1), make_element(spec, *a2)
    o1, o2 = oracle_element(spec, *a1), oracle_element(spec, *a2)
    assert views(g1) == o1 and views(g2) == o2
    assert g1.alpha == oracle_alpha(spec, o1)
    product = compose(g2, g1)
    expected = oracle_product(spec, o2, o1)
    assert views(product) == expected
    assert product.alpha == oracle_alpha(spec, expected)
    # the product again satisfies the defining congruence
    theta, delta, beta, _ = expected
    assert (theta - Fraction(beta, 2)
            - Fraction(spec.k * spec.eta * delta, spec.n_bodies)) % 1 == 0


@settings(max_examples=200, deadline=None)
@given(spec_and_elements(3))
def test_associativity(case):
    spec, args = case
    f, g, h = (make_element(spec, *a) for a in args)
    assert compose(f, compose(g, h)) == compose(compose(f, g), h)


@settings(max_examples=200, deadline=None)
@given(spec_and_elements(1))
def test_identity_and_inverse(case):
    spec, (a,) = case
    g = make_element(spec, *a)
    e = make_element(spec, 0, 0)
    assert views(e) == (0, 0, 0, 1) and e.alpha == 0
    assert compose(e, g) == g == compose(g, e)
    g_inv = inverse(g)
    assert compose(g, g_inv) == e == compose(g_inv, g)
    # the oracle product of g with its inverse is the oracle identity
    assert oracle_product(spec, oracle_element(spec, *a),
                          views(g_inv)) == (0, 0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(spec_and_elements(1))
def test_element_order_divides_group_order(case):
    spec, (a,) = case
    g = oracle_element(spec, *a)
    acc, order = g, 1
    while acc != (0, 0, 0, 1):
        acc, order = oracle_product(spec, g, acc), order + 1
    assert element_order(make_element(spec, *a)) == order
    assert (4 * spec.n_bodies * spec.s) % order == 0
