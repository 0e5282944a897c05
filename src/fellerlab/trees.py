"""Exact symbol algebra for the quartic-interaction structure in three
space dimensions.

Symbols are rooted decorated trees over the grammar

    tree := Xi | XiHat | X0..X3 monomials | I(tree) | tree * tree

with a commutative, associative product whose unit is the empty monomial
``1`` and the convention that ``I`` of a bare monomial is zero (such nodes
never appear in canonical trees).  Degrees are exact pairs a + b*kappa with
rational a and integer b, compared lexicographically (the regime of
arbitrarily small positive kappa):

    deg Xi = -5/2 - kappa      deg XiHat = -kappa      deg X0 = 2
    deg Xi_spatial = 1         deg I(t) = deg t + 2    products add

Two linear operations act on the span of the trees, with coefficients that
are exact integer polynomials in two formal constants C1 and C2:

* the renormalization action contracts, in all ways, disjoint occurrences of
  the patterns I(Xi)^2 (a sibling pair of plain-noise branches, worth C1)
  and I(Xi)^2 * I(I(Xi)^2 ...) (a root pair plus one integrated edge with a
  plain pair in its crown, worth C2; leftover crown branches reattach where
  the pattern sat).  Only plain-noise branches contract; hatted leaves are
  inert, which makes the same code the hatted variant of the action.

* the shift operation substitutes Xi -> Xi + XiHat leaf by leaf, i.e. it
  expands a tree into the sum over all ways of hatting a subset of its
  noise leaves.

Both are exact; nothing in this module touches floating point.

A tree stores its sort key, a nested tuple of ints, and the hash of that key
from the moment it is built; both come from its children's stored keys.
Equal trees have equal keys, and the hash does not depend on the
interpreter's hash seed, so a set of trees iterates in the same order on
every run.  A tree's plain degree is computed on first use, in half units
(every degree base is a multiple of 1/2), and stored on the tree.  The
contractions of the action and the expansions of the shift are shared
between structurally equal subtrees, but only within one public call
(``renorm_action``, ``shift_operator``, and ``check_commutation``, whose two
sides share one contraction memo and one expansion memo): a memo is local to
the call and dies when it returns, so there is no cache across calls.

Glyph aliases: the two-digit names count noise leaves in the integrated
crown and at the root ("22" = I(Xi)^2 * I(I(Xi)^2)); a trailing "h" marks
one leaf replaced by the hatted noise (a crown leaf whenever the glyph has
a crown).  The table is pinned by the two displayed expansions it must
reproduce, see the golden tests.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import total_ordering

__all__ = [
    "Tree",
    "DegreeValue",
    "Poly",
    "FormalSum",
    "XI",
    "XI_HAT",
    "ONE",
    "x_monomial",
    "integ",
    "product",
    "degree",
    "generate_basis",
    "renorm_action",
    "shift_operator",
    "check_commutation",
    "format_tree",
    "format_sum",
    "parse_expr",
    "ParseError",
    "GLYPHS",
    "glyph",
]

_ZERO_K = (0, 0, 0, 0)
_X_HALF_WEIGHTS = (4, 2, 2, 2)  # twice the degrees of X0..X3


# ---------------------------------------------------------------------------
# trees


_set = object.__setattr__
_sort_key = operator.attrgetter("_key")
_LEAF_KEYS = {"xi": (0,), "xihat": (1,)}


def _integer(x, what: str) -> int:
    """``x`` as an int; a float or other non-integral value is refused."""
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {x!r}") from None


class Tree:
    """Canonical immutable symbol tree; compare and hash structurally.  The
    sort key and its hash are built with the tree, from its children's keys."""

    __slots__ = ("node", "_hash", "_key", "_degree")

    def __init__(self, node):
        kind = node[0]
        if kind == "prod":
            key = (4, node[1], tuple(map(_sort_key, node[2])))
        elif kind == "i":
            key = (3, node[1]._key)
        elif kind == "x":
            key = (2, node[1])
        else:
            key = _LEAF_KEYS[kind]
        _set(self, "node", node)
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))
        _set(self, "_degree", None)

    def __setattr__(self, *a):
        raise AttributeError("trees are immutable")

    @property
    def kind(self) -> str:
        return self.node[0]

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Tree) and self._hash == other._hash
                and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Tree({format_tree(self)})"

    def noise_leaves(self) -> int:
        n = self.node
        if n[0] == "xi" or n[0] == "xihat":
            return 1
        if n[0] == "x":
            return 0
        if n[0] == "i":
            return n[1].noise_leaves()
        return sum(f.noise_leaves() for f in n[2])


XI = Tree(("xi",))
XI_HAT = Tree(("xihat",))


def x_monomial(k: tuple[int, int, int, int]) -> Tree:
    """Monomial X0^k0 X1^k1 X2^k2 X3^k3 of the 4-tuple k."""
    if (not isinstance(k, tuple) or len(k) != 4
            or any(_integer(e, "an exponent") < 0 for e in k)):
        raise ValueError(f"bad multi-index {k!r}: need a 4-tuple of integers >= 0")
    return Tree(("x", tuple(map(operator.index, k))))


ONE = x_monomial(_ZERO_K)


def integ(t: Tree):
    """Integration node I(t); returns None for bare monomials (I(X^k) = 0)."""
    if t.node[0] == "x":
        return None
    return Tree(("i", t))


def product(factors, k_extra=_ZERO_K) -> Tree:
    """Commutative product with monomials merged by exponent addition."""
    return _product(factors, x_monomial(tuple(k_extra)).node[1])


def _product(factors, k) -> Tree:
    """``product`` with ``k`` an exponent tuple already checked."""
    flat: list[Tree] = []
    for f in factors:
        if f is None:
            raise ValueError("cannot multiply by a vanished symbol")
        n = f.node
        if n[0] == "x" or n[0] == "prod":
            if n[1] != _ZERO_K:
                k = tuple(map(operator.add, k, n[1]))
            if n[0] == "prod":
                flat.extend(n[2])
        else:
            flat.append(f)
    if not flat:
        return Tree(("x", k))
    if k == _ZERO_K and len(flat) == 1:
        return flat[0]
    flat.sort(key=_sort_key)
    return Tree(("prod", k, tuple(flat)))


PSI = integ(XI)
PSI_HAT = integ(XI_HAT)
_PSI_KEY = PSI.sort_key()


def _product_parts(t: Tree):
    """Decompose any tree as (monomial exponent, factors)."""
    n = t.node
    if n[0] == "x":
        return n[1], ()
    if n[0] == "prod":
        return n[1], n[2]
    return _ZERO_K, (t,)


# ---------------------------------------------------------------------------
# degrees


@total_ordering
class DegreeValue:
    """Exact degree a + b*kappa; ordered lexicographically (kappa -> 0+)."""

    __slots__ = ("base", "kappa")

    def __init__(self, base, kappa: int = 0):
        _set(self, "base", base if type(base) is Fraction else Fraction(base))
        _set(self, "kappa", kappa if type(kappa) is int else _integer(kappa, "kappa"))

    def __setattr__(self, *a):
        raise AttributeError("degree values are immutable")

    def __add__(self, other: "DegreeValue") -> "DegreeValue":
        return DegreeValue(self.base + other.base, self.kappa + other.kappa)

    def __sub__(self, other: "DegreeValue") -> "DegreeValue":
        return DegreeValue(self.base - other.base, self.kappa - other.kappa)

    def __eq__(self, other):
        if not isinstance(other, DegreeValue):
            return NotImplemented
        return (self.base, self.kappa) == (other.base, other.kappa)

    def __lt__(self, other):
        if not isinstance(other, DegreeValue):
            return NotImplemented
        return (self.base, self.kappa) < (other.base, other.kappa)

    def __hash__(self):
        return hash((self.base, self.kappa))

    def __repr__(self):
        return f"DegreeValue({self.base}, {self.kappa})"

    def __str__(self):
        b, k = self.base, self.kappa
        if k == 0:
            return str(b)
        kappa = f"{k}k" if abs(k) != 1 else ("k" if k > 0 else "-k")
        if b == 0:
            return kappa
        return f"{b}{'+' if k > 0 else ''}{kappa}"


def degree(t: Tree, overline: bool = False) -> DegreeValue:
    """Exact degree; the overline variant grades XiHat like Xi.

    The plain degree is computed once per tree and stored on it; the overline
    variant never reads that stored value and is computed afresh."""
    half, kappa = _half_degree(t, overline)
    return DegreeValue(Fraction(half, 2), kappa)


def _half_degree(t: Tree, overline: bool = False) -> tuple[int, int]:
    """The degree of t in half units, (2 * base, kappa), which orders as the
    degree does: every degree base is a multiple of 1/2."""
    if not overline and t._degree is not None:
        return t._degree
    n = t.node
    if n[0] == "xi" or n[0] == "xihat":
        out = (-5, -1) if n[0] == "xi" or overline else (0, -1)
    elif n[0] == "i":
        half, kappa = _half_degree(n[1], overline)
        out = (half + 4, kappa)
    else:
        out = (sum(w * e for w, e in zip(_X_HALF_WEIGHTS, n[1])), 0)  # monomial part
        for f in n[2] if n[0] == "prod" else ():
            half, kappa = _half_degree(f, overline)
            out = (out[0] + half, out[1] + kappa)
    if not overline:
        _set(t, "_degree", out)
    return out


# ---------------------------------------------------------------------------
# coefficients: integer polynomials in C1, C2


_UNIT_COEF = {(0, 0): 1}


class Poly:
    """Integer polynomial in the formal constants C1, C2."""

    __slots__ = ("coef",)

    def __init__(self, coef=None):
        coef = {(_integer(e1, "an exponent"), _integer(e2, "an exponent")):
                _integer(c, "a coefficient") for (e1, e2), c in (coef or {}).items()}
        _set(self, "coef", {key: val for key, val in coef.items() if val != 0})

    def __setattr__(self, *a):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def const(cls, n: int) -> "Poly":
        return _poly({(0, 0): _integer(n, "a constant")})

    @classmethod
    def monomial(cls, e1: int, e2: int, c: int = 1) -> "Poly":
        return cls({(e1, e2): c})

    def __add__(self, other):
        other = _as_poly(other)
        # both operands are immutable, so a zero operand can hand back the other
        if not other.coef:
            return self
        if not self.coef:
            return other
        out = dict(self.coef)
        for key, val in other.coef.items():
            out[key] = out.get(key, 0) + val
        return _poly(out)

    def __neg__(self):
        return _poly({k: -v for k, v in self.coef.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if type(other) is not Poly:
            other = _as_poly(other)
        # most products have the unit as a factor; both operands are immutable
        if other.coef == _UNIT_COEF:
            return self
        if self.coef == _UNIT_COEF:
            return other
        out = {}
        for (a1, a2), va in self.coef.items():
            for (b1, b2), vb in other.coef.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, 0) + va * vb
        return _poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coef == other.coef

    def __hash__(self):
        return hash(tuple(sorted(self.coef.items())))

    @property
    def is_zero(self) -> bool:
        return not self.coef

    def eval_at(self, c1, c2):
        return sum(v * c1**e1 * c2**e2 for (e1, e2), v in self.coef.items())

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _poly(coef: dict) -> Poly:
    """A Poly of int exponents and coefficients, taken as they are; zeros drop."""
    p = object.__new__(Poly)
    _set(p, "coef", {key: val for key, val in coef.items() if val != 0})
    return p


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


POLY_ONE = Poly.const(1)
C1 = Poly.monomial(1, 0)
C2 = Poly.monomial(0, 1)


def _accumulate(out: dict, key, coef: Poly) -> None:
    """Add ``coef`` to ``out[key]``; a new key stores ``coef`` itself."""
    old = out.get(key)
    out[key] = coef if old is None else old + coef


# ---------------------------------------------------------------------------
# formal sums


class FormalSum:
    """Finite linear combination of canonical trees with Poly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = {tree: _as_poly(coef) for tree, coef in (terms or {}).items()}
        _set(self, "terms", {tree: coef for tree, coef in terms.items() if coef.coef})

    def __setattr__(self, *a):
        raise AttributeError("formal sums are immutable")

    @classmethod
    def of(cls, tree: Tree, coef=1) -> "FormalSum":
        return cls({tree: _as_poly(coef)})

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls({})

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.terms)
        for tree, coef in other.terms.items():
            _accumulate(out, tree, coef)
        return _sum(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, coef) -> "FormalSum":
        coef = _as_poly(coef)
        if coef.coef == _UNIT_COEF:
            return self
        return _sum({t: c * coef for t, c in self.terms.items()})

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        out: dict[Tree, Poly] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                _accumulate(out, _product([t1, t2], _ZERO_K), c1 * c2)
        return _sum(out)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(((t.sort_key(), c) for t, c in self.terms.items()),
                                 key=lambda x: x[0])))

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0].sort_key()))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"FormalSum({format_sum(self)})"


def _sum(terms: dict) -> FormalSum:
    """A FormalSum of Poly coefficients, taken as they are; zeros drop."""
    s = object.__new__(FormalSum)
    _set(s, "terms", {t: c for t, c in terms.items() if c.coef})
    return s


def _as_sum(x) -> FormalSum:
    if isinstance(x, FormalSum):
        return x
    if isinstance(x, Tree):
        return _sum({x: POLY_ONE})
    raise TypeError(f"expected Tree or FormalSum, got {type(x)!r}")


def _integ_sum(s: FormalSum) -> FormalSum:
    """I applied term by term; a bare monomial's term drops (I(X^k) = 0)."""
    return _sum({Tree(("i", tree)): coef for tree, coef in s.terms.items()
                 if tree.node[0] != "x"})


# ---------------------------------------------------------------------------
# renormalization action


def _contract(t: Tree, memo: dict) -> list[tuple[Poly, Tree]]:
    """All ways of contracting disjoint patterns inside t (t's own root edge
    is never consumed).  Returns (coefficient, contracted tree) pairs; ``memo``
    holds the results already found in the current public call."""
    n = t.node
    if n[0] in ("xi", "xihat", "x"):
        return [(POLY_ONE, t)]
    if n[0] != "i":
        return _contract_product(t, memo)
    key = ("contract", t)
    found = memo.get(key)
    if found is None:
        # I of a bare monomial vanishes
        found = memo[key] = [(poly, Tree(("i", sub)))
                             for poly, sub in _contract_product(n[1], memo)
                             if sub.node[0] != "x"]
    return found


def _contract_product(t: Tree, memo: dict) -> list[tuple[Poly, Tree]]:
    key = ("product", t)
    found = memo.get(key)
    if found is not None:
        return found
    k, factors = _product_parts(t)
    others = [f for f in factors if f._key != _PSI_KEY]
    n_bullets = len(factors) - len(others)

    # options per non-bullet factor: keep one of its internal contractions,
    # or (for integrated factors with a plain pair in the crown) be consumed
    # by a root pattern, releasing the rest of the crown at this vertex.  They
    # fold factor by factor into states, each the pairs consumed and the
    # sorted subtrees kept: equal states merge after each factor, and a state
    # that consumed more pairs than there are bullets drops
    states = {(0, ()): POLY_ONE}
    for f in others:
        opts = [(0, poly, sub) for poly, sub in _contract(f, memo)]
        if f.node[0] == "i":
            k_arg, arg_factors = _product_parts(f.node[1])
            crown = [a for a in arg_factors if a._key != _PSI_KEY]
            crown_bullets = len(arg_factors) - len(crown)
            if crown_bullets >= 2:
                pair = C2 * math.comb(crown_bullets, 2)
                remnant = _product([PSI] * (crown_bullets - 2) + crown, k_arg)
                for poly, sub in _contract_product(remnant, memo):
                    opts.append((1, pair * poly, sub))
        folded: dict[tuple, Poly] = {}
        for (consumed, subs), coef in states.items():
            for used, poly, sub in opts:
                if 2 * (consumed + used) <= n_bullets:
                    kept = subs + (sub,)
                    if subs and sub._key < subs[-1]._key:  # sort only when out of order
                        kept = tuple(sorted(kept, key=_sort_key))
                    _accumulate(folded, (consumed + used, kept),
                                coef if poly is POLY_ONE else coef * poly)
        states = folded

    # C1^q times the ways to pair q free bullets once `consumed` pairs went to
    # root patterns, each built once per call
    pairings = {(0, 0): POLY_ONE}
    merged: dict[Tree, Poly] = {}
    for (consumed, subs), coef in states.items():
        free = n_bullets - 2 * consumed
        for q in range(free // 2 + 1):
            pairing = pairings.get((q, consumed))
            if pairing is None:
                ways = (math.factorial(n_bullets)
                        // (math.factorial(free - 2 * q) * math.factorial(q) * 2 ** (q + consumed)))
                pairing = pairings[q, consumed] = _poly({(q, 0): ways})
            _accumulate(merged, _product((PSI,) * (free - 2 * q) + subs, k), coef * pairing)
    found = memo[key] = [(p, t2) for t2, p in merged.items() if p.coef]
    return found


def renorm_action(s, g=None) -> FormalSum:
    """Linear renormalization action on trees or sums.

    With ``g=None`` the coefficients stay polynomials in the formal constants
    C1, C2; with ``g=(c1, c2)`` (integers) the constants are substituted, so
    ``g=(0, 0)`` is the identity.  On hatted input the action contracts only
    plain-noise patterns, which is its extension to the enlarged structure.
    """
    return _renorm(s, {}, g)


def _renorm(s, memo: dict, g) -> FormalSum:
    """``renorm_action`` with the contractions in ``memo`` shared."""
    if g is not None:
        c1, c2 = (_integer(c, "a renormalization constant") for c in g)
    out: dict[Tree, Poly] = {}
    for tree, coef in _as_sum(s).terms.items():
        unit = coef.coef == _UNIT_COEF
        for poly, t2 in _contract(tree, memo):
            if g is not None:
                poly = Poly.const(poly.eval_at(c1, c2))
            _accumulate(out, t2, poly if unit else coef * poly)
    return _sum(out)


# ---------------------------------------------------------------------------
# shift substitution


def _z_tree(t: Tree, memo: dict) -> FormalSum:
    """The substituted expansion of t; ``memo`` holds the expansions already
    found in the current public call."""
    n = t.node
    if n[0] == "xi":
        return _sum({XI: POLY_ONE, XI_HAT: POLY_ONE})
    if n[0] == "xihat":
        raise ValueError("shift substitution expects hat-free input")
    if n[0] == "x":
        return _sum({t: POLY_ONE})
    acc = memo.get(t)
    if acc is not None:
        return acc
    if n[0] == "i":
        acc = _integ_sum(_z_tree(n[1], memo))
    else:  # equal partial products merge after each factor
        acc = _sum({Tree(("x", n[1])): POLY_ONE})
        for f in n[2]:
            acc = acc * _z_tree(f, memo)
    memo[t] = acc
    return acc


def shift_operator(s) -> FormalSum:
    """Substitute Xi -> Xi + XiHat leaf by leaf (sum over hatted subsets)."""
    return _shift(s, {})


def _shift(s, memo: dict) -> FormalSum:
    """``shift_operator`` with the expansions in ``memo`` shared."""
    out: dict[Tree, Poly] = {}
    for tree, coef in _as_sum(s).terms.items():
        unit = coef.coef == _UNIT_COEF
        for t2, c in _z_tree(tree, memo).terms.items():
            _accumulate(out, t2, c if unit else c * coef)
    return _sum(out)


def _commutation_sides(t: Tree) -> tuple[FormalSum, FormalSum]:
    """Shift after renormalization, and renormalization after shift, of t;
    the two renormalizations share one memo and so do the two shifts."""
    contract_memo, z_memo = {}, {}
    return (_shift(_renorm(t, contract_memo, None), z_memo),
            _renorm(_shift(t, z_memo), contract_memo, None))


def check_commutation(t: Tree) -> bool:
    """Whether shifting then renormalizing equals renormalizing then shifting
    on the given hat-free tree, as an exact identity in C1, C2."""
    lhs, rhs = _commutation_sides(t)
    return lhs == rhs


# ---------------------------------------------------------------------------
# basis enumeration


def _small_products(elements, slack: Fraction, cap: int) -> set[Tree]:
    """The products of one to three of ``elements`` whose degree bases sum to
    at most ``slack``."""
    # in half units: an int sum x of doubled bases has x / 2 <= slack exactly
    # when x <= floor(2 * slack)
    elems = sorted(((_half_degree(t)[0], t) for t in elements),
                   key=lambda bt: (bt[0], bt[1]._key))
    limit = math.floor(2 * slack)
    out = set()

    def extend(start, d, factors, left):
        # with the factors sorted by degree, the cheapest completion from
        # index i on costs left * d_i, which grows with i: stop at the first
        # that passes the slack (for every r, even when the slack is negative)
        for i in range(start, len(elems)):
            b, t = elems[i]
            if d + left * b > limit:
                break
            if left > 1:
                extend(i, d + b, factors + [t], left - 1)
                continue
            out.add(_product(factors + [t], _ZERO_K))
            if len(out) > cap:
                raise ValueError(f"basis enumeration passed the cap of {cap} trees")

    for r in (1, 2, 3):
        extend(0, 0, [], r)
    return out


def generate_basis(max_degree, hat: bool = False, cap: int = 20000) -> list[Tree]:
    """All basis trees of degree lexicographically below ``max_degree``, a
    DegreeValue or a number (the degree with no kappa part).

    The generating leaves are the unit monomial and I(Xi) (plus I(XiHat) and
    the bare XiHat in the hatted structure); the family is closed under
    products of up to three factors and integration of non-monomial products.
    Sorted by degree, then canonically; raises when the count passes ``cap``.
    """
    bound = max_degree if isinstance(max_degree, DegreeValue) else DegreeValue(max_degree)
    slack = bound.base + 1
    limit, below = math.floor(2 * slack), (2 * bound.base, bound.kappa)

    gens = [PSI] + ([PSI_HAT] if hat else [])
    universe: set[Tree] = {ONE, *gens}

    while True:
        grown = set(universe)
        for p in _small_products(universe, slack, cap):
            if p.kind == "x":
                continue
            candidate = integ(p)
            if candidate is not None and _half_degree(candidate)[0] <= limit:
                grown.add(candidate)
        if grown == universe:
            break
        universe = grown
        if len(universe) > cap:
            raise ValueError(f"basis enumeration passed the cap of {cap} trees")

    basis = {XI} | ({XI_HAT} if hat else set()) | _small_products(universe, slack, cap)
    selected = [t for t in basis if _half_degree(t) < below]
    selected.sort(key=lambda t: (_half_degree(t), t._key))
    if len(selected) > cap:
        raise ValueError(f"basis enumeration passed the cap of {cap} trees")
    return selected


# ---------------------------------------------------------------------------
# printing and parsing


def format_tree(t: Tree) -> str:
    n = t.node
    if n[0] == "xi":
        return "Xi"
    if n[0] == "xihat":
        return "XiHat"
    if n[0] == "x":
        return _format_monomial(n[1])
    if n[0] == "i":
        return f"I({format_tree(n[1])})"
    pieces = []
    if n[1] != _ZERO_K:
        pieces.append(_format_monomial(n[1]))
    for factor, group in itertools.groupby(n[2]):
        text, count = format_tree(factor), len(list(group))
        pieces.append(text if count == 1 else f"{text}^{count}")
    return "*".join(pieces)


def _format_monomial(k) -> str:
    if k == _ZERO_K:
        return "1"
    parts = []
    for i, e in enumerate(k):
        if e == 1:
            parts.append(f"X{i}")
        elif e > 1:
            parts.append(f"X{i}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for (e1, e2), c in sorted(p.coef.items()):
        bits = []
        if c == -1 and (e1 or e2):
            head = "-"
        elif c == 1 and (e1 or e2):
            head = ""
        else:
            head = str(c)
            if e1 or e2:
                head += "*"
        if e1:
            bits.append("C1" if e1 == 1 else f"C1^{e1}")
        if e2:
            bits.append("C2" if e2 == 1 else f"C2^{e2}")
        parts.append(head + "*".join(bits))
    text = " + ".join(parts).replace("+ -", "- ")
    return text


def format_sum(s: FormalSum) -> str:
    if not s.terms:
        return "0"
    parts = []
    for tree, coef in sorted(s.terms.items(),
                             key=lambda kv: (_half_degree(kv[0]), kv[0]._key)):
        ptxt = format_poly(coef)
        ttxt = format_tree(tree)
        if ptxt == "1":
            parts.append(ttxt)
        elif len(coef.coef) > 1:
            parts.append(f"({ptxt})*{ttxt}")
        else:
            parts.append(f"{ptxt}*{ttxt}")
    return " + ".join(parts)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(XiHat|Xi|X[0-3]|I|C1|C2|\d+|[()^*+-])")
_MAX_FACTORS = 16  # the largest exponent and product that parse: the actions grow fast with it
_MAX_TERMS = 1 << 16  # the largest bound on an expansion's terms that parses: Xi^16's


def _bounded(s: FormalSum, pos: int) -> FormalSum:
    """``s``, unless one of its products has more than ``_MAX_FACTORS`` factors."""
    if any(len(t.node[2]) > _MAX_FACTORS for t in s.terms if t.node[0] == "prod"):
        raise ParseError(f"a product of more than {_MAX_FACTORS} factors", pos)
    return s


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """expr := term (('+'|'-') term)*; term := [-] factor ('*' factor)*;
    factor := atom ('^' int)*; atom := Xi | XiHat | X0..3 | C1 | C2 | int
              | I '(' expr ')' | '(' expr ')'.  No exponent, and no product's
    factor count (monomials aside), may pass ``_MAX_FACTORS``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.text = text

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self, expected=None, describe=None):
        if self.i >= len(self.tokens):
            what = describe or (repr(expected) if expected else "more input")
            raise ParseError(f"expected {what}, found end of input", len(self.text))
        tok, pos = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", pos)
        self.i += 1
        return tok

    def parse(self) -> FormalSum:
        out = self.expr()
        if self.i != len(self.tokens):
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return out

    def expr(self) -> FormalSum:
        out = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                out = out + self.term()
            else:
                out = out - self.term()
        return out

    def term(self) -> FormalSum:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        out = self.factor()
        while self.peek() == "*":
            pos = self.pos()
            self.take()
            out = _bounded(out * self.factor(), pos)
        return out.scale(-1) if negate else out

    def factor(self) -> FormalSum:
        out = self.atom()
        while self.peek() == "^":
            self.take()
            pos = self.pos()
            tok = self.take(describe="an exponent")
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer, found {tok!r}", pos)
            if len(tok.lstrip("0")) > 2 or int(tok) > _MAX_FACTORS:
                raise ParseError(f"exponent above the limit of {_MAX_FACTORS}", pos)
            base, out = out, FormalSum.of(ONE)
            for _ in range(int(tok)):
                out = _bounded(out * base, pos)
        return out

    def atom(self) -> FormalSum:
        pos = self.pos()
        tok = self.take(describe="an atom")
        if tok == "Xi":
            return FormalSum.of(XI)
        if tok == "XiHat":
            return FormalSum.of(XI_HAT)
        if tok in ("C1", "C2"):
            return FormalSum.of(ONE, C1 if tok == "C1" else C2)
        if tok.isdigit():
            return FormalSum.of(ONE, int(tok))
        if tok.startswith("X"):
            k = [0, 0, 0, 0]
            k[int(tok[1])] = 1
            return FormalSum.of(x_monomial(tuple(k)))
        if tok == "I":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return _integ_sum(inner)
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}", pos)


def _expansion_bound(t: Tree, memo: dict) -> int:
    """A bound on the terms of t's expansion under Xi -> Xi + XiHat: Xi counts
    2, XiHat and a monomial 1, I(s) as s, a product as the product over its
    groups of k equal factors counting e each of C(k + e - 1, k), the number
    of multisets (at most e^k); past ``_MAX_TERMS`` it reads ``_MAX_TERMS + 1``."""
    n = t.node
    if n[0] != "i" and n[0] != "prod":
        return 2 if n[0] == "xi" else 1
    bound = memo.get(t)
    if bound is None:
        if n[0] == "i":
            bound = _expansion_bound(n[1], memo)
        else:
            bound = 1
            for f, group in itertools.groupby(n[2]):  # equal factors sit side by side
                k, e = len(list(group)), _expansion_bound(f, memo)
                bound = min(bound * math.comb(k + e - 1, k), _MAX_TERMS + 1)
        memo[t] = bound
    return bound


def parse_expr(text: str) -> FormalSum:
    """Parse the documented grammar into a canonical formal sum, refusing one
    whose terms' expansion bounds add up to more than ``_MAX_TERMS``: nested
    products such as I(I(Xi)^16)^8 pass every per-product limit, yet their
    expansions under the shift have millions of terms."""
    out, memo = _Parser(text).parse(), {}
    if sum(_expansion_bound(t, memo) for t in out.terms) > _MAX_TERMS:
        raise ParseError(f"expansion bound above the limit of {_MAX_TERMS} terms", 0)
    return out


# ---------------------------------------------------------------------------
# glyph aliases

_PSI2 = product([PSI, PSI])
_PSI3 = product([PSI, PSI, PSI])

GLYPHS: dict[str, Tree] = {
    "1": PSI,
    "2": _PSI2,
    "3": _PSI3,
    "10": integ(PSI),
    "20": integ(_PSI2),
    "30": integ(_PSI3),
    "12": product([PSI, PSI, integ(PSI)]),
    "22": product([PSI, PSI, integ(_PSI2)]),
    "31": product([PSI, integ(_PSI3)]),
    "32": product([PSI, PSI, integ(_PSI3)]),
    "1h": PSI_HAT,
    "2h": product([PSI, PSI_HAT]),
    "10h": integ(PSI_HAT),
    "12h": product([PSI, PSI, integ(PSI_HAT)]),
    "30h": integ(product([PSI, PSI, PSI_HAT])),
    "32h": product([PSI, PSI, integ(product([PSI, PSI, PSI_HAT]))]),
}


def glyph(name: str) -> Tree:
    """Look up a glyph alias such as '22' or '32h'."""
    try:
        return GLYPHS[name]
    except KeyError:
        raise KeyError(f"unknown glyph {name!r}; known: {sorted(GLYPHS)}") from None
