"""No cache outlives a call, except the four pinned below.  Each of those
binds a fast path once per process after checking its bits against the
public path (``grids._transforms``, ``noise._slice_streams``,
``equations._einsum``), or keeps the small shell-mask table of a grid shape
(``grids._dyadic_masks``).  A new ``lru_cache``/``functools.cache`` anywhere
in ``src/``, or a memo that a symbols round leaves behind in
``fellerlab.trees``, fails here."""

import ast
import copy
import inspect
from pathlib import Path

import fellerlab
from fellerlab import trees

SRC = Path(fellerlab.__file__).resolve().parent
CACHE_NAMES = {"lru_cache", "cache", "cached_property"}
PINNED = {"grids._transforms", "grids._dyadic_masks", "noise._slice_streams",
          "equations._einsum"}


def _cache_uses() -> set[str]:
    """``module.function`` for each function a cache decorates, and
    ``module.py:line`` for any other use of a cache name."""
    uses = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text())
        owners = {}
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    for part in ast.walk(decorator):
                        owners[id(part)] = f"{path.stem}.{node.name}"
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name if node.asname else None
            else:
                continue
            if name in CACHE_NAMES:
                uses.add(owners.get(id(node), f"{path.stem}.py:{getattr(node, 'lineno', 0)}"))
    return uses


def test_only_the_pinned_caches_exist():
    assert _cache_uses() == PINNED


def _kept_state(module) -> dict:
    """A copy of every container the module keeps between calls: its globals,
    its functions' defaults and attributes, its classes' attributes, and the
    size of any functools cache."""
    state = {}
    for name, value in vars(module).items():
        if isinstance(value, (dict, list, set)):
            state[name] = copy.copy(value)
        if inspect.isclass(value) and value.__module__ == module.__name__:
            state.update({f"{name}.{attr}": copy.copy(v) for attr, v in vars(value).items()
                          if isinstance(v, (dict, list, set))})
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            state[f"{name}.defaults"] = copy.deepcopy((value.__defaults__,
                                                       value.__kwdefaults__))
            state[f"{name}.attrs"] = copy.copy(vars(value))
        if hasattr(value, "cache_info"):
            state[f"{name}.cache"] = value.cache_info().currsize
    return state


def test_a_symbols_round_leaves_no_memo_in_trees():
    before = _kept_state(trees)
    plain = trees.generate_basis(2)
    hatted = trees.generate_basis(2, hat=True)
    assert all(trees.check_commutation(t) for t in plain)
    for t in plain + hatted:
        trees.renorm_action(t)
        trees.degree(t, overline=True)
    trees.shift_operator(trees.parse_expr("I(Xi)^2*I(I(Xi)^3) + C1*X0"))
    assert _kept_state(trees) == before
