import hashlib
from fractions import Fraction

import pytest

from fellerlab.trees import (C1, C2, ONE, PSI, XI, XI_HAT, DegreeValue,
                             FormalSum, ParseError, Poly, check_commutation,
                             degree, format_sum, format_tree, generate_basis,
                             glyph, integ, parse_expr, product, renorm_action,
                             shift_operator, x_monomial)


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


def test_integ_of_monomial_vanishes():
    assert integ(ONE) is None
    assert integ(x_monomial((0, 3, 0, 0))) is None
    assert integ(PSI) is not None


def test_trivial_product_collapses():
    assert product([PSI]) == PSI
    assert product([]) == ONE


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
