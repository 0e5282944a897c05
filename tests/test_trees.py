import hashlib
import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fellerlab

from fellerlab.trees import (C1, C2, ONE, PSI, XI, XI_HAT, DegreeValue,
                             FormalSum, ParseError, Poly, check_commutation,
                             degree, format_sum, format_tree, generate_basis,
                             glyph, integ, parse_expr, product, renorm_action,
                             shift_operator, x_monomial)
from fellerlab.trees import _commutation_sides, _small_products


def fsum(*pairs):
    out = FormalSum.zero()
    for tree, coef in pairs:
        out = out + FormalSum.of(tree, coef)
    return out


# -- canonical forms ---------------------------------------------------------


def test_product_canonicalization():
    a = product([PSI, integ(product([PSI, PSI]))])
    b = product([integ(product([PSI, PSI])), PSI])
    assert a == b and hash(a) == hash(b)


def test_monomial_merge():
    a = product([x_monomial((1, 0, 0, 0)), x_monomial((0, 2, 0, 0)), PSI])
    k, factors = a.node[1], a.node[2]
    assert k == (1, 2, 0, 0) and factors == (PSI,)


def test_monomial_and_basis_bound_take_one_form():
    """x_monomial takes a 4-tuple and generate_basis a DegreeValue or a number."""
    for k in ({1: 2}, [0, 1, 0, 0], (0, 1, 0), (0, -1, 0, 0)):
        with pytest.raises(ValueError, match="bad multi-index"):
            x_monomial(k)
    with pytest.raises(TypeError):
        generate_basis((0, 1))
    assert generate_basis(Fraction(1, 2)) == generate_basis(DegreeValue(Fraction(1, 2)))


def test_integ_of_monomial_vanishes():
    assert integ(ONE) is None
    assert integ(x_monomial((0, 3, 0, 0))) is None
    assert integ(PSI) is not None


def test_trivial_product_collapses():
    assert product([PSI]) == PSI
    assert product([]) == ONE


# -- tree identity -----------------------------------------------------------


def _only_tree(s):
    (tree,) = s.terms
    return tree


def test_trees_built_by_different_routes_are_equal():
    """parse_expr, product over permuted factors, glyph and integ of a fresh
    tree give == trees with equal hashes."""
    crown = integ(product([integ(XI), integ(XI)]))
    for name, text, factors in [("22", "I(Xi)^2*I(I(Xi)^2)", [PSI, PSI, crown]),
                                ("12h", "I(Xi)*I(I(XiHat))*I(Xi)", [PSI, PSI, integ(integ(XI_HAT))])]:
        routes = [glyph(name), _only_tree(parse_expr(text))]
        routes += [product(list(p)) for p in itertools.permutations(factors)]
        for t in routes:
            assert t == routes[0] and hash(t) == hash(routes[0]), (name, format_tree(t))
    fresh = [integ(product([integ(XI), integ(XI)])), _only_tree(parse_expr("I(I(Xi)*I(Xi))")),
             glyph("20")]
    assert fresh[0] is not fresh[1]
    assert all(t == fresh[0] and hash(t) == hash(fresh[0]) for t in fresh)
    assert glyph("22") != glyph("32") and PSI != integ(XI_HAT) and ONE != XI


@pytest.mark.parametrize("tree, key", [
    (XI, (0,)),
    (XI_HAT, (1,)),
    (ONE, (2, (0, 0, 0, 0))),
    (PSI, (3, (0,))),
    (product([integ(XI), x_monomial((1, 0, 0, 0))]), (4, (1, 0, 0, 0), ((3, (0,)),))),
    (product([x_monomial((0, 2, 0, 1)), integ(XI), XI, integ(XI)]),
     (4, (0, 2, 0, 1), ((0,), (3, (0,)), (3, (0,))))),
    (glyph("22"),
     (4, (0, 0, 0, 0), ((3, (0,)), (3, (0,)),
                        (3, (4, (0, 0, 0, 0), ((3, (0,)), (3, (0,)))))))),
    (glyph("32h"),
     (4, (0, 0, 0, 0), ((3, (0,)), (3, (0,)),
                        (3, (4, (0, 0, 0, 0), ((3, (0,)), (3, (0,)), (3, (1,)))))))),
])
def test_sort_key_pinned(tree, key):
    """The canonical factor order, and so the printed text, follows the sort
    key; a tree hashes as its key does."""
    assert tree.sort_key() == key
    assert hash(tree) == hash(key)


def test_basis_set_order_does_not_depend_on_the_hash_seed():
    """Tree hashes are structural (a key of ints only), so a set of trees
    iterates in the same order whatever the interpreter's hash seed."""
    code = ("from fellerlab.trees import format_tree, generate_basis\n"
            "print([format_tree(t) for t in set(generate_basis(2))])")
    src = str(Path(fellerlab.__file__).parents[1])
    orders = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                             timeout=120, check=True).stdout
              for seed in ("0", "1")]
    assert orders[0] == orders[1] and orders[0].count("I(Xi)") > 56


@pytest.mark.parametrize("call, value", [
    (lambda: x_monomial((1.5, 0, 0, 0)), 1.5),
    (lambda: product([PSI], k_extra=(0, 0.5, 0, 0)), 0.5),
    (lambda: Poly.const(2.7), 2.7),
    (lambda: Poly.monomial(1, 0, 1.5), 1.5),
    (lambda: Poly.monomial(Fraction(1, 2), 0), Fraction(1, 2)),
    (lambda: DegreeValue(0, 1.5), 1.5),
    (lambda: renorm_action(glyph("2"), g=(0.5, 0)), 0.5),
    (lambda: renorm_action(glyph("2"), g=(1, Fraction(3, 2))), Fraction(3, 2)),
    (lambda: Poly({(0, 0): 2.7}), 2.7),
    (lambda: Poly({(0.5, 0): 1}), 0.5),
    (lambda: Poly({(1, Fraction(1, 2)): 3}), Fraction(1, 2)),
], ids=["x_monomial", "product_k_extra", "const", "monomial_coefficient",
        "monomial_exponent", "kappa", "g_c1", "g_c2", "poly_coefficient", "poly_exponent",
        "poly_fraction_exponent"])
def test_non_integers_are_refused_not_truncated(call, value):
    with pytest.raises((TypeError, ValueError), match=re.escape(repr(value))):
        call()


def test_poly_constructor_refuses_what_const_and_monomial_refuse():
    """``Poly(coef)`` raises the TypeError ``Poly.const``/``Poly.monomial``
    raise on the same value, and stores numpy integers as ints."""
    for public, checked in ((lambda: Poly({(0, 0): 2.7}), lambda: Poly.monomial(0, 0, 2.7)),
                            (lambda: Poly({(0, 1): 1.5}), lambda: Poly.monomial(0, 1, 1.5)),
                            (lambda: Poly({(0.5, 0): 1}), lambda: Poly.monomial(0.5, 0)),
                            (lambda: Poly({(0.5, 0): 0}), lambda: Poly.monomial(0.5, 0, 0)),
                            (lambda: Poly({(0, np.float64(2)): 1}),
                             lambda: Poly.monomial(0, np.float64(2)))):
        with pytest.raises(TypeError) as got:
            public()
        with pytest.raises(TypeError) as want:
            checked()
        assert str(got.value) == str(want.value)
    i = np.int64
    poly = Poly({(i(1), 0): i(3), (0, 2): 0})
    assert poly == 3 * C1
    assert all(type(x) is int for key, val in poly.coef.items() for x in (*key, val))


def test_numpy_integers_are_integers():
    i = np.int64
    assert x_monomial((i(1), 0, 0, i(2))) == x_monomial((1, 0, 0, 2))
    assert all(type(e) is int for e in x_monomial((i(1), 0, 0, i(2))).node[1])
    assert Poly.const(i(2)) == Poly.const(2) and Poly.monomial(i(1), 0, i(3)) == 3 * C1
    assert DegreeValue(0, i(1)) == DegreeValue(0, 1) and type(DegreeValue(0, i(1)).kappa) is int
    assert format_sum(renorm_action(glyph("2"), g=(i(1), i(0)))) == "I(Xi)^2 + 1"
    assert format_sum(renorm_action(glyph("2"), g=(1, 0))) == "I(Xi)^2 + 1"


# -- degrees -----------------------------------------------------------------


def test_degree_examples():
    assert degree(XI) == DegreeValue(Fraction(-5, 2), -1)
    assert degree(ONE) == DegreeValue(0, 0)
    assert degree(glyph("22")) == DegreeValue(0, -4)
    assert degree(x_monomial((1, 1, 0, 0))) == DegreeValue(3, 0)
    assert degree(glyph("32")) == DegreeValue(Fraction(-1, 2), -5)


def test_degree_additive_under_products():
    a, b = glyph("22"), glyph("10")
    assert degree(product([a, b])) == degree(a) + degree(b)


def test_degree_overline_grades_hat_like_plain():
    """The plain degree stored on a tree is structural, and the overline
    degree never reads it, whichever of the two is asked for first."""
    assert degree(XI_HAT) == DegreeValue(0, -1)
    assert degree(XI_HAT, overline=True) == degree(XI)
    assert degree(glyph("32h"), overline=True) == degree(glyph("32"))

    built = product([PSI, PSI, integ(product([PSI, PSI, PSI]))])
    rebuilt = product([integ(product([PSI, PSI, PSI])), PSI, PSI])
    assert degree(built) == degree(glyph("32"))
    assert rebuilt is not built and degree(rebuilt) == degree(built)

    def fresh_32h():
        return product([PSI, PSI, integ(product([PSI, PSI, integ(XI_HAT)]))])

    first, second = fresh_32h(), fresh_32h()
    assert degree(first, overline=True) == degree(glyph("32"))
    assert degree(first) == DegreeValue(2, -5)
    assert degree(second) == DegreeValue(2, -5)
    assert degree(second, overline=True) == degree(glyph("32"))
    for attr in ("node", "_degree", "anything"):
        with pytest.raises(AttributeError):
            setattr(first, attr, None)


def test_degree_types_on_the_degree_2_bases():
    """Degrees are worked in half units inside the module; what ``degree``
    hands out is a Fraction base and an int kappa."""
    for t in generate_basis(2) + generate_basis(2, hat=True):
        for d in (degree(t), degree(t, overline=True)):
            assert type(d.base) is Fraction and type(d.kappa) is int, format_tree(t)


def test_degree_ordering_lexicographic():
    assert DegreeValue(0, -4) < DegreeValue(0, 0)
    assert DegreeValue(Fraction(-1, 2), 5) < DegreeValue(0, -100)
    assert not DegreeValue(0, 0) < DegreeValue(0, 0)


def test_degree_value_against_other_types():
    assert DegreeValue(0) != 0 and not DegreeValue(0) == 0
    assert DegreeValue(0) != (0, 0)
    for less in (lambda: DegreeValue(0) < 1, lambda: DegreeValue(0) <= 1,
                 lambda: 1 > DegreeValue(0), lambda: DegreeValue(0) >= Fraction(0)):
        with pytest.raises(TypeError):
            less()


# -- basis -------------------------------------------------------------------


def test_negative_basis_is_the_seven_symbols():
    basis = generate_basis(0)
    assert set(basis) == {XI, glyph("1"), glyph("2"), glyph("3"),
                          glyph("32"), glyph("22"), glyph("31")}


def test_basis_just_above_zero_adds_unit():
    basis = generate_basis(DegreeValue(0, 1))
    assert set(basis) == {XI, ONE, glyph("1"), glyph("2"), glyph("3"),
                          glyph("32"), glyph("22"), glyph("31")}


def test_hat_basis_matches_substitution_enumeration():
    bound = DegreeValue(Fraction(3, 2), 0)
    plain = generate_basis(bound, hat=False)
    by_substitution = set()
    for t in plain:
        for term in shift_operator(t).terms:
            if degree(term) < bound:
                by_substitution.add(term)
    assert set(generate_basis(bound, hat=True)) == by_substitution


def _products_by_full_scan(elements, slack):
    """The products of one to three elements within the slack, found by
    summing the degrees of every combination."""
    elems = sorted(((degree(t).base, t) for t in elements),
                   key=lambda bt: (bt[0], bt[1].sort_key()))
    return {product([t for _, t in combo])
            for r in (1, 2, 3)
            for combo in itertools.combinations_with_replacement(elems, r)
            if sum((b for b, _ in combo), Fraction(0)) <= slack}


def _basis_by_full_scan(max_degree, hat):
    """generate_basis with its products found by the full scan."""
    bound = max_degree if isinstance(max_degree, DegreeValue) else DegreeValue(max_degree)
    slack = bound.base + 1
    universe = {ONE, PSI} | ({integ(XI_HAT)} if hat else set())
    while True:
        grown = set(universe)
        for p in _products_by_full_scan(universe, slack):
            candidate = integ(p)
            if candidate is not None and degree(candidate).base <= slack:
                grown.add(candidate)
        if grown == universe:
            break
        universe = grown
    basis = {XI} | ({XI_HAT} if hat else set()) | _products_by_full_scan(universe, slack)
    return sorted((t for t in basis if degree(t) < bound),
                  key=lambda t: ((degree(t).base, degree(t).kappa), t.sort_key()))


@pytest.mark.parametrize("hat", [False, True])
@pytest.mark.parametrize("bound", [-3, -2, Fraction(-3, 2), -1, 0, Fraction(1, 2), 1, 2,
                                   DegreeValue(2, 1)])
def test_pruned_basis_matches_full_scan(bound, hat):
    assert generate_basis(bound, hat) == _basis_by_full_scan(bound, hat)


@pytest.mark.parametrize("slack", [Fraction(-9, 2), -4, Fraction(-7, 2), -2, Fraction(-3, 2),
                                   -1, Fraction(-1, 2), 0, 1, 3])
def test_pruned_products_match_full_scan(slack):
    """Negative slacks are where d_i > slack does not imply 2 d_i > slack
    (here Xi^2 at -5 and I(Xi)^2 at -1): stopping every product size at the
    first single factor past the slack would drop pairs and triples."""
    elements = [XI, PSI, ONE, glyph("2"), glyph("10"), x_monomial((0, 1, 0, 0))]
    assert _small_products(elements, slack, 20000) == _products_by_full_scan(elements, slack)


def test_basis_cap_guard():
    with pytest.raises(ValueError):
        generate_basis(3, cap=10)


def test_basis_sorted_by_degree():
    basis = generate_basis(1)
    degs = [(degree(t).base, degree(t).kappa) for t in basis]
    assert degs == sorted(degs)


# -- renormalization action --------------------------------------------------


def test_action_identity_at_zero():
    for name in ("1", "22", "32", "31"):
        assert renorm_action(glyph(name), (0, 0)) == FormalSum.of(glyph(name))


def test_action_on_simple_powers():
    assert renorm_action(glyph("2")) == fsum((glyph("2"), 1), (ONE, C1))
    assert renorm_action(glyph("3")) == fsum((glyph("3"), 1), (glyph("1"), C1 * 3))
    assert renorm_action(XI) == FormalSum.of(XI)


def test_action_golden_expansion():
    got = renorm_action(glyph("32"))
    want = fsum((glyph("32"), 1), (glyph("30"), C1), (glyph("12"), C1 * 3),
                (glyph("10"), C1 * C1 * 3), (glyph("1"), C2 * 3))
    assert got == want


def test_action_hat_golden_expansion():
    got = renorm_action(glyph("32h"))
    want = fsum((glyph("32h"), 1), (glyph("30h"), C1), (glyph("12h"), C1),
                (glyph("10h"), C1 * C1), (glyph("1h"), C2))
    assert got == want


def test_action_on_22():
    got = renorm_action(glyph("22"))
    want = fsum((glyph("22"), 1), (glyph("20"), C1), (ONE, C2))
    assert got == want


def _termwise(op, s):
    out = FormalSum.zero()
    for tree, coef in s.terms.items():
        out = out + op(tree).scale(coef)
    return out


def test_action_is_linear():
    """Both operations are linear, also on sums whose terms share subtrees,
    where one call shares its contractions and expansions between terms."""
    s = fsum((glyph("32"), 2), (glyph("2"), Poly.const(-1)))
    lhs = renorm_action(s)
    rhs = renorm_action(glyph("32")).scale(2) + renorm_action(glyph("2")).scale(-1)
    assert lhs == rhs

    shifted = shift_operator(glyph("32"))
    assert len(shifted) > 1
    assert renorm_action(shifted) == _termwise(renorm_action, shifted)
    hatted = fsum(*((t, i + 1) for i, t in enumerate(generate_basis(2, hat=True))))
    assert renorm_action(hatted) == _termwise(renorm_action, hatted)
    assert renorm_action(hatted, (3, -2)) == _termwise(lambda t: renorm_action(t, (3, -2)),
                                                       hatted)
    plain = fsum(*((t, C1 * (i + 1)) for i, t in enumerate(generate_basis(2))))
    assert shift_operator(plain) == _termwise(shift_operator, plain)


def test_action_group_law_numeric():
    for name in ("2", "3", "22", "31", "32"):
        s = FormalSum.of(glyph(name))
        composed = renorm_action(renorm_action(s, (3, 5)), (7, 11))
        direct = renorm_action(s, (10, 16))
        assert composed == direct, name


def test_action_degree_bookkeeping():
    """Every contraction removes exactly the degree of what it contracted:
    a C1^a C2^b term has degree deg(tau) + a*|deg(2-pattern)| + b*|deg(22-pattern)|."""
    d2, d22 = degree(glyph("2")), degree(glyph("22"))
    for name in ("2", "3", "22", "31", "32"):
        tau = glyph(name)
        for term, coef in renorm_action(tau):
            for (e1, e2), c in coef.coef.items():
                assert c != 0
                expected = degree(tau) - DegreeValue(d2.base * e1 + d22.base * e2,
                                                     d2.kappa * e1 + d22.kappa * e2)
                assert degree(term) == expected


# -- shift operation ---------------------------------------------------------


def test_shift_examples():
    assert shift_operator(x_monomial((0, 1, 2, 0))) == FormalSum.of(x_monomial((0, 1, 2, 0)))
    assert shift_operator(XI) == fsum((XI, 1), (XI_HAT, 1))
    got = shift_operator(glyph("2"))
    want = fsum((glyph("2"), 1), (glyph("2h"), 2), (product([integ(XI_HAT)] * 2), 1))
    assert got == want


@pytest.mark.parametrize("action, factors", [
    (shift_operator, lambda k: [XI] * k),
    (shift_operator, lambda k: [PSI] * k),
    (renorm_action, lambda k: [integ(product([PSI, PSI]))] * k),
    (renorm_action, lambda k: [integ(product([PSI, PSI]))] * k + [PSI] * (2 * k)),
], ids=["z Xi^k", "z I(Xi)^k", "mg I(I(Xi)^2)^k", "mg I(I(Xi)^2)^k I(Xi)^2k"])
def test_actions_on_many_factors_do_polynomial_work(monkeypatch, action, factors):
    """The work of an action on a product of k like factors, counted as tree
    products (``_product`` calls) and polynomial products, stays below 8 k^2
    for k = 4 to 24: the expansions and contractions merge equal partial
    products after each factor, not after every combination of options."""
    from fellerlab import trees
    work = [0]

    def counted(fn):
        def call(*args):
            work[0] += 1
            return fn(*args)
        return call

    for k in range(4, 25):
        tree = product(factors(k))
        with monkeypatch.context() as patch:
            patch.setattr(trees, "_product", counted(trees._product))
            patch.setattr(Poly, "__mul__", counted(Poly.__mul__))
            work[0] = 0
            action(tree)
        assert work[0] <= 8 * k * k, k


def test_shift_rejects_hatted_input():
    with pytest.raises(ValueError):
        shift_operator(glyph("2h"))


def test_shift_preserves_leaf_count_and_overline_degree():
    for name in ("3", "22", "32"):
        tau = glyph(name)
        n_leaves = tau.noise_leaves()
        for term, coef in shift_operator(tau):
            assert term.noise_leaves() == n_leaves
            assert degree(term, overline=True) == degree(tau)


def test_symbols_output_pinned_bit_for_bit():
    """The degree-2 bases, their degrees and renormalization actions, and
    both sides of the commutation, printed and hashed."""
    plain, hatted = generate_basis(2), generate_basis(2, hat=True)
    assert (len(plain), len(hatted)) == (56, 62)
    text = "\n".join([format_tree(t) + " " + str(degree(t)) for t in plain + hatted]
                     + [format_sum(renorm_action(t)) for t in plain + hatted])
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "4fac5c4a1d9d823d075543a64c83419a5b7225cb20b186c0ee312e1a06f7809c")
    sides = "\n".join(format_sum(shift_operator(renorm_action(t))) + "|"
                      + format_sum(renorm_action(shift_operator(t))) for t in plain)
    assert (hashlib.sha256(sides.encode()).hexdigest()
            == "a6f0cc5c6b1ec34a741e42da378bcb2d6e9daa97b37899531d64b864f3c6f8a2")


def test_commutation_sides_equal_separate_public_calls():
    """check_commutation's two sides, computed with one contraction memo and
    one expansion memo shared between them, equal the separate public calls."""
    for t in generate_basis(2):
        assert _commutation_sides(t) == (shift_operator(renorm_action(t)),
                                         renorm_action(shift_operator(t))), format_tree(t)


def test_action_drops_a_cancelled_term():
    out = renorm_action(parse_expr("I(Xi)^2 - C1"))
    assert len(out) == 1 and out == FormalSum.of(glyph("2"))


def test_commutation_samples_and_exhaustive_small():
    assert check_commutation(XI)
    assert check_commutation(glyph("32"))
    for t in generate_basis(1):
        assert check_commutation(t), format_tree(t)


# -- printing and parsing ----------------------------------------------------


def test_format_examples():
    assert format_tree(integ(XI)) == "I(Xi)"
    assert format_tree(glyph("22")) == "I(Xi)^2*I(I(Xi)^2)"
    assert format_tree(ONE) == "1"
    assert format_tree(x_monomial((0, 2, 0, 1))) == "X1^2*X3"


def test_parse_glyph_22():
    out = parse_expr("I(Xi)^2 * I(I(Xi)^2)")
    assert out == FormalSum.of(glyph("22"))


def test_parse_coefficients_and_signs():
    out = parse_expr("2*I(Xi) - 3*C1*Xi + C2^2*1")
    want = fsum((PSI, 2), (XI, C1 * (-3)), (ONE, C2 * C2))
    assert out == want


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expr("I(Xi) + @")
    assert "position 8" in str(err.value)


@pytest.mark.parametrize("text, message, pos", [
    ("I(Xi", "expected ')', found end of input", 4),
    ("I Xi", "expected '(', found 'Xi'", 2),
    ("Xi)", "trailing input ')'", 2),
    ("Xi^C1", "exponent must be an integer, found 'C1'", 3),
    ("*Xi", "unexpected token '*'", 0),
])
def test_parse_error_faults_and_positions(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


@pytest.mark.parametrize("text, message, pos", [
    ("Xi^17", "exponent above the limit of 16", 3),
    ("Xi^99999999999999999999", "exponent above the limit of 16", 3),
    ("X0^" + "9" * 5000, "exponent above the limit of 16", 3),
    ("Xi^8*I(Xi)^9", "a product of more than 16 factors", 4),
    ("I(Xi)*Xi^16", "a product of more than 16 factors", 5),
    ("Xi^8^3", "a product of more than 16 factors", 5),
    ("(Xi + I(Xi))^9*Xi^8", "a product of more than 16 factors", 14),
], ids=["exponent 17", "20-digit exponent", "5000-digit exponent", "17 factors", "16 + 1 factors",
        "a power of a power", "a power of a sum"])
def test_parse_bounds_exponents_and_factor_counts(text, message, pos):
    """An exponent, or a product's factor count, above 16 does not parse;
    the actions' cost grows fast with the factor count."""
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize("text", ["Xi^16", "Xi^0016", "X0^16*X1^16*Xi^16", "(Xi*I(Xi))^8",
                                  "I(X0^16*Xi)^16", "Xi^4^2*Xi^8"])
def test_parse_takes_exponents_and_factor_counts_up_to_16(text):
    terms = parse_expr(text).terms
    assert max(len(t.node[2]) for t in terms if t.node[0] == "prod") == 16


_EXPANSION_CASES = [("I(I(Xi)^16)^8", None), ("I(I(Xi)^16)^16", None), ("I(Xi^16)^16", None),
                    ("(Xi + X0)^16", 153), ("Xi^16 + Xi", 19), ("I(I(Xi)^2*I(Xi)^2)^12", 1820)]


@pytest.mark.parametrize("text, n_shift_terms", _EXPANSION_CASES,
                         ids=[text for text, _ in _EXPANSION_CASES])
def test_parse_bounds_the_expansion(text, n_shift_terms):
    """Each Xi counts 2 (Xi and XiHat), an I its argument, k equal factors
    counting e each C(k + e - 1, k) (the multisets of their expansions), a
    product the product of its groups and a sum the sum of its terms: past
    2^16 the expression does not parse (n_shift_terms None).  Each example
    passes every per-product limit; under the shift I(I(Xi)^16)^8 alone has
    C(24, 8) = 735,471 terms.  (Xi + X0)^16 and Xi^16 + Xi were refused
    while each factor was counted on its own (bounds 2^17 - 1 and 2^16 + 2)."""
    if n_shift_terms is None:
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value) == "expansion bound above the limit of 65536 terms (at position 0)"
    else:
        assert len(shift_operator(parse_expr(text)).terms) == n_shift_terms


def test_degree_2_bases_and_readme_examples_parse():
    """Every degree-2 basis tree, plain and hatted, and every ``--expr`` of the
    README parses to itself, under the expansion bound."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = re.findall(r'--expr "([^"]+)"', readme)
    assert examples
    for text in examples:
        parse_expr(text)
    for tree in generate_basis(2) + generate_basis(2, hat=True):
        assert parse_expr(format_tree(tree)) == FormalSum.of(tree), format_tree(tree)


@pytest.mark.parametrize("text, printed", [
    ("X0", "X0"), ("X1", "X1"), ("X2", "X2"), ("X3", "X3"),
    ("X1^2*X3*Xi", "X1^2*X3*Xi"),
    # a product with a monomial prefix
    ("X0*I(Xi)", "X0*I(Xi)"),
    ("I(Xi)*X2*I(Xi)", "X2*I(Xi)^2"),
    # unary minus, once and twice
    ("-Xi", "-1*Xi"),
    ("- -Xi", "Xi"),
    ("2*Xi - 3*I(Xi)", "2*Xi + -3*I(Xi)"),
    # a coefficient of several terms prints in parentheses
    ("-(C1+C2)*Xi", "(-C2 - C1)*Xi"),
    ("(C1 + 2*C2)*I(Xi)^2", "(2*C2 + C1)*I(Xi)^2"),
    ("(1+C1)*X0", "(1 + C1)*X0"),
    # I drops a bare monomial term by term
    ("I(X0)", "0"),
    ("I(X0 + Xi)", "I(Xi)"),
])
def test_parse_and_print_pinned(text, printed):
    assert format_sum(parse_expr(text)) == printed


def test_format_tree_product_with_monomial_prefix():
    assert format_tree(product([integ(XI), x_monomial((1, 0, 0, 0))])) == "X0*I(Xi)"
    assert format_tree(product([x_monomial((0, 2, 0, 1)), integ(XI), XI, integ(XI)])) \
        == "X1^2*X3*Xi*I(Xi)^2"


def test_parse_distributes_products_over_sums():
    got = parse_expr("(Xi + XiHat) * I(Xi)")
    want = fsum((product([XI, PSI]), 1), (product([XI_HAT, PSI]), 1))
    assert got == want


def test_round_trip_on_basis_trees():
    trees_sample = generate_basis(DegreeValue(Fraction(5, 2), 0), hat=True)
    assert len(trees_sample) >= 100
    for t in trees_sample[:120]:
        assert parse_expr(format_tree(t)) == FormalSum.of(t), format_tree(t)


def test_round_trip_on_sums_with_polynomial_coefficients():
    s = renorm_action(glyph("32")) + renorm_action(glyph("22")).scale(C1)
    assert parse_expr(format_sum(s)) == s


def test_glyph_lookup_error():
    with pytest.raises(KeyError):
        glyph("99")


# -- formal sums -------------------------------------------------------------


def test_formal_sum_drops_zero_coefficients():
    s = fsum((PSI, 1)) - fsum((PSI, 1))
    assert len(s) == 0
    assert s == FormalSum.zero()


def test_formal_sum_product_merges():
    s = fsum((PSI, 1), (integ(XI_HAT), 1))
    sq = s * s
    assert sq.terms[product([PSI, integ(XI_HAT)])] == Poly.const(2)
