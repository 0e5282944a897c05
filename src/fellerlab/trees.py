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

A tree's plain degree is computed once and stored on the tree, like its sort
key and hash.  The contractions of the action and the expansions of the
shift are shared between structurally equal subtrees, but only within one
public call (``renorm_action``, ``shift_operator``): the memo is local to the
call and dies when it returns, so there is no cache across calls.

Glyph aliases: the two-digit names count noise leaves in the integrated
crown and at the root ("22" = I(Xi)^2 * I(I(Xi)^2)); a trailing "h" marks
one leaf replaced by the hatted noise (a crown leaf whenever the glyph has
a crown).  The table is pinned by the two displayed expansions it must
reproduce, see the golden tests.
"""

from __future__ import annotations

import itertools
import math
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
_X_WEIGHTS = (2, 1, 1, 1)


# ---------------------------------------------------------------------------
# trees


class Tree:
    """Canonical immutable symbol tree; compare and hash structurally."""

    __slots__ = ("node", "_hash", "_key", "_degree")

    def __init__(self, node):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_degree", None)

    def __setattr__(self, *a):
        raise AttributeError("trees are immutable")

    @property
    def kind(self) -> str:
        return self.node[0]

    def sort_key(self):
        if self._key is None:
            n = self.node
            if n[0] == "xi":
                key = (0,)
            elif n[0] == "xihat":
                key = (1,)
            elif n[0] == "x":
                key = (2, n[1])
            elif n[0] == "i":
                key = (3, n[1].sort_key())
            else:
                key = (4, n[1], tuple(f.sort_key() for f in n[2]))
            object.__setattr__(self, "_key", key)
        return self._key

    def __eq__(self, other):
        return isinstance(other, Tree) and self.sort_key() == other.sort_key()

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.sort_key()))
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


def x_monomial(k) -> Tree:
    """Monomial X0^k0 X1^k1 X2^k2 X3^k3; k may be a 4-tuple or a dict."""
    if isinstance(k, dict):
        kk = [0, 0, 0, 0]
        for i, e in k.items():
            kk[i] = e
        k = tuple(kk)
    k = tuple(int(e) for e in k)
    if len(k) != 4 or any(e < 0 for e in k):
        raise ValueError(f"bad multi-index {k}")
    return Tree(("x", k))


ONE = x_monomial(_ZERO_K)


def integ(t: Tree):
    """Integration node I(t); returns None for bare monomials (I(X^k) = 0)."""
    if t.kind == "x":
        return None
    return Tree(("i", t))


def _add_k(a, b):
    return tuple(x + y for x, y in zip(a, b))


def product(factors, k_extra=_ZERO_K) -> Tree:
    """Commutative product with monomials merged by exponent addition."""
    k = tuple(k_extra)
    flat: list[Tree] = []
    for f in factors:
        if f is None:
            raise ValueError("cannot multiply by a vanished symbol")
        n = f.node
        if n[0] == "x":
            k = _add_k(k, n[1])
        elif n[0] == "prod":
            k = _add_k(k, n[1])
            flat.extend(n[2])
        else:
            flat.append(f)
    if not flat:
        return x_monomial(k)
    if k == _ZERO_K and len(flat) == 1:
        return flat[0]
    return Tree(("prod", k, tuple(sorted(flat, key=Tree.sort_key))))


PSI = integ(XI)
PSI_HAT = integ(XI_HAT)


def _product_parts(t: Tree):
    """Decompose any tree as (monomial exponent, factor list)."""
    n = t.node
    if n[0] == "x":
        return n[1], []
    if n[0] == "prod":
        return n[1], list(n[2])
    return _ZERO_K, [t]


# ---------------------------------------------------------------------------
# degrees


@total_ordering
class DegreeValue:
    """Exact degree a + b*kappa; ordered lexicographically (kappa -> 0+)."""

    __slots__ = ("base", "kappa")

    def __init__(self, base, kappa: int = 0):
        object.__setattr__(self, "base", Fraction(base))
        object.__setattr__(self, "kappa", int(kappa))

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


DEG_XI = DegreeValue(Fraction(-5, 2), -1)
DEG_XI_HAT = DegreeValue(0, -1)
_DEG_I = DegreeValue(2, 0)


def degree(t: Tree, overline: bool = False) -> DegreeValue:
    """Exact degree; the overline variant grades XiHat like Xi.

    The plain degree is computed once per tree and stored on it; the overline
    variant never reads that stored value and is computed afresh."""
    if overline:
        return _degree(t, True)
    if t._degree is None:
        object.__setattr__(t, "_degree", _degree(t, False))
    return t._degree


def _degree(t: Tree, overline: bool) -> DegreeValue:
    n = t.node
    if n[0] == "xi":
        return DEG_XI
    if n[0] == "xihat":
        return DEG_XI if overline else DEG_XI_HAT
    if n[0] == "x":
        return DegreeValue(sum(w * e for w, e in zip(_X_WEIGHTS, n[1])), 0)
    if n[0] == "i":
        return degree(n[1], overline) + _DEG_I
    out = DegreeValue(sum(w * e for w, e in zip(_X_WEIGHTS, n[1])), 0)
    for f in n[2]:
        out = out + degree(f, overline)
    return out


# ---------------------------------------------------------------------------
# coefficients: integer polynomials in C1, C2


_UNIT_COEF = {(0, 0): 1}


class Poly:
    """Integer polynomial in the formal constants C1, C2."""

    __slots__ = ("coef",)

    def __init__(self, coef=None):
        c = {}
        if coef:
            for key, val in coef.items():
                if val != 0:
                    c[key] = val
        object.__setattr__(self, "coef", c)

    def __setattr__(self, *a):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def const(cls, n: int) -> "Poly":
        return cls({(0, 0): int(n)})

    @classmethod
    def monomial(cls, e1: int, e2: int, c: int = 1) -> "Poly":
        return cls({(e1, e2): int(c)})

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.coef)
        for key, val in other.coef.items():
            out[key] = out.get(key, 0) + val
        return Poly(out)

    def __neg__(self):
        return Poly({k: -v for k, v in self.coef.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
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
        return Poly(out)

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


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to a polynomial")


POLY_ONE = Poly.const(1)
C1 = Poly.monomial(1, 0)
C2 = Poly.monomial(0, 1)


# ---------------------------------------------------------------------------
# formal sums


class FormalSum:
    """Finite linear combination of canonical trees with Poly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for tree, coef in terms.items():
                coef = _as_poly(coef)
                if not coef.is_zero:
                    t[tree] = coef
        object.__setattr__(self, "terms", t)

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
            out[tree] = out.get(tree, Poly()) + coef
        return FormalSum(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, coef) -> "FormalSum":
        coef = _as_poly(coef)
        if coef.coef == _UNIT_COEF:
            return self
        return FormalSum({t: c * coef for t, c in self.terms.items()})

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        out: dict[Tree, Poly] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                tree = product([t1, t2])
                out[tree] = out.get(tree, Poly()) + c1 * c2
        return FormalSum(out)

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


def _as_sum(x) -> FormalSum:
    if isinstance(x, FormalSum):
        return x
    if isinstance(x, Tree):
        return FormalSum.of(x)
    raise TypeError(f"expected Tree or FormalSum, got {type(x)!r}")


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
    if key not in memo:
        out = []
        for poly, sub in _contract_product(n[1], memo):
            reduced = integ(sub)
            if reduced is not None:  # I of a bare monomial vanishes
                out.append((poly, reduced))
        memo[key] = out
    return memo[key]


def _contract_product(t: Tree, memo: dict) -> list[tuple[Poly, Tree]]:
    key = ("product", t)
    if key in memo:
        return memo[key]
    k, factors = _product_parts(t)
    n_bullets = sum(1 for f in factors if f == PSI)
    others = [f for f in factors if f != PSI]

    # options per non-bullet factor: keep one of its internal contractions,
    # or (for integrated factors with a plain pair in the crown) be consumed
    # by a root pattern, releasing the rest of the crown at this vertex
    option_lists = []
    for f in others:
        opts = [(False, poly, sub) for poly, sub in _contract(f, memo)]
        if f.kind == "i":
            k_arg, arg_factors = _product_parts(f.node[1])
            crown_bullets = sum(1 for a in arg_factors if a == PSI)
            if crown_bullets >= 2:
                ways_inner = math.comb(crown_bullets, 2)
                remnant_factors = list(arg_factors)
                remnant_factors.remove(PSI)
                remnant_factors.remove(PSI)
                remnant = product(remnant_factors, k_extra=k_arg)
                for poly, sub in _contract_product(remnant, memo):
                    opts.append((True, C2 * (ways_inner) * poly, sub))
        option_lists.append(opts)

    merged: dict[Tree, Poly] = {}
    for combo in itertools.product(*option_lists) if option_lists else [()]:
        consumed = sum(1 for c in combo if c[0])
        combo_poly = POLY_ONE
        for c in combo:
            combo_poly = combo_poly * c[1]
        free = n_bullets - 2 * consumed
        if free < 0:
            continue
        for q in range(free // 2 + 1):
            ways = (math.factorial(n_bullets)
                    // (math.factorial(n_bullets - 2 * q - 2 * consumed)
                        * math.factorial(q) * 2 ** (q + consumed)))
            pieces = [PSI] * (free - 2 * q) + [c[2] for c in combo]
            tree = product(pieces, k_extra=k)
            coef = combo_poly * Poly.monomial(q, 0, ways)
            merged[tree] = merged.get(tree, Poly()) + coef
    memo[key] = [(p, t2) for t2, p in merged.items() if not p.is_zero]
    return memo[key]


def renorm_action(s, g=None) -> FormalSum:
    """Linear renormalization action on trees or sums.

    With ``g=None`` the coefficients stay polynomials in the formal constants
    C1, C2; with ``g=(c1, c2)`` (integers) the constants are substituted, so
    ``g=(0, 0)`` is the identity.  On hatted input the action contracts only
    plain-noise patterns, which is its extension to the enlarged structure.
    """
    s = _as_sum(s)
    memo: dict = {}
    out: dict[Tree, Poly] = {}
    for tree, coef in s.terms.items():
        for poly, t2 in _contract(tree, memo):
            if g is not None:
                poly = Poly.const(poly.eval_at(int(g[0]), int(g[1])))
            total = coef * poly
            out[t2] = out.get(t2, Poly()) + total
    return FormalSum(out)


# ---------------------------------------------------------------------------
# shift substitution


def _z_tree(t: Tree, memo: dict) -> FormalSum:
    """The substituted expansion of t; ``memo`` holds the expansions already
    found in the current public call."""
    n = t.node
    if n[0] == "xi":
        return FormalSum({XI: POLY_ONE, XI_HAT: POLY_ONE})
    if n[0] == "xihat":
        raise ValueError("shift substitution expects hat-free input")
    if n[0] == "x":
        return FormalSum.of(t)
    if t in memo:
        return memo[t]
    if n[0] == "i":
        out: dict[Tree, Poly] = {}
        for sub, coef in _z_tree(n[1], memo).terms.items():
            tree = integ(sub)
            if tree is not None:
                out[tree] = out.get(tree, Poly()) + coef
        acc = FormalSum(out)
    else:
        acc = FormalSum.of(x_monomial(n[1]))
        for f in n[2]:
            acc = acc * _z_tree(f, memo)
    memo[t] = acc
    return acc


def shift_operator(s) -> FormalSum:
    """Substitute Xi -> Xi + XiHat leaf by leaf (sum over hatted subsets)."""
    s = _as_sum(s)
    memo: dict[Tree, FormalSum] = {}
    out: dict[Tree, Poly] = {}
    for tree, coef in s.terms.items():
        for t2, c in _z_tree(tree, memo).terms.items():
            out[t2] = out.get(t2, Poly()) + c * coef
    return FormalSum(out)


def check_commutation(t: Tree) -> bool:
    """Whether shifting then renormalizing equals renormalizing then shifting
    on the given hat-free tree, as an exact identity in C1, C2."""
    lhs = shift_operator(renorm_action(t))
    rhs = renorm_action(shift_operator(t))
    return lhs == rhs


# ---------------------------------------------------------------------------
# basis enumeration


def _coerce_degree(bound) -> DegreeValue:
    if isinstance(bound, DegreeValue):
        return bound
    if isinstance(bound, tuple):
        return DegreeValue(bound[0], bound[1])
    return DegreeValue(bound, 0)


def generate_basis(max_degree, hat: bool = False, cap: int = 20000) -> list[Tree]:
    """All basis trees of degree lexicographically below ``max_degree``.

    The generating leaves are the unit monomial and I(Xi) (plus I(XiHat) and
    the bare XiHat in the hatted structure); the family is closed under
    products of up to three factors and integration of non-monomial products.
    Sorted by degree, then canonically; raises when the count passes ``cap``.
    """
    bound = _coerce_degree(max_degree)
    slack = DegreeValue(bound.base + 1, 0)

    gens = [PSI] + ([PSI_HAT] if hat else [])
    universe: set[Tree] = {ONE, *gens}

    def small_products(elements):
        elems = sorted(((degree(t).base, t) for t in elements),
                       key=lambda bt: (bt[0], bt[1].sort_key()))
        out = set()
        for r in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(elems, r):
                d = sum((b for b, _ in combo), Fraction(0))
                if d > slack.base:
                    continue
                out.add(product([t for _, t in combo]))
                if len(out) > cap:
                    raise ValueError(f"basis enumeration passed the cap of {cap} trees")
        return out

    while True:
        grown = set(universe)
        for p in small_products(universe):
            if p.kind == "x":
                continue
            candidate = integ(p)
            if candidate is not None and degree(candidate).base <= slack.base:
                grown.add(candidate)
        if grown == universe:
            break
        universe = grown
        if len(universe) > cap:
            raise ValueError(f"basis enumeration passed the cap of {cap} trees")

    basis = {XI} | ({XI_HAT} if hat else set()) | small_products(universe)
    selected = [t for t in basis if degree(t) < bound]
    selected.sort(key=lambda t: ((degree(t).base, degree(t).kappa), t.sort_key()))
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
    for factor, count in _grouped(n[2]):
        text = format_tree(factor)
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


def _grouped(factors):
    out = []
    for f in factors:
        if out and out[-1][0] == f:
            out[-1][1] += 1
        else:
            out.append([f, 1])
    return [(f, c) for f, c in out]


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
                             key=lambda kv: ((degree(kv[0]).base, degree(kv[0]).kappa),
                                             kv[0].sort_key())):
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
              | I '(' expr ')' | '(' expr ')'."""

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
            self.take()
            out = out * self.factor()
        return out.scale(-1) if negate else out

    def factor(self) -> FormalSum:
        out = self.atom()
        while self.peek() == "^":
            self.take()
            pos = self.pos()
            tok = self.take(describe="an exponent")
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer, found {tok!r}", pos)
            power = int(tok)
            acc = FormalSum.of(ONE)
            for _ in range(power):
                acc = acc * out
            out = acc
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
            out: dict[Tree, Poly] = {}
            for tree, coef in inner.terms.items():
                reduced = integ(tree)
                if reduced is not None:
                    out[reduced] = out.get(reduced, Poly()) + coef
            return FormalSum(out)
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse_expr(text: str) -> FormalSum:
    """Parse the documented grammar into a canonical formal sum."""
    return _Parser(text).parse()


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
