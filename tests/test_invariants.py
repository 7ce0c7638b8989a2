"""Cross-module invariants not pinned elsewhere."""

import ast
import doctest
import importlib
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import gkmcalc
from gkmcalc import (
    GysinData,
    canonical_subspace,
    equivariant_dims,
    gysin_betti,
)
from gkmcalc.examples import (
    builtin_fiber_join,
    builtin_hirzebruch,
    builtin_simplex,
    builtin_stiefel,
)
from gkmcalc.exactlin import vector_to_json
from gkmcalc.series import DegreeSeries

from oracles import convolve, naive_rref


def test_public_api_is_pinned():
    # the public API changes only on purpose: update this list with it
    assert sorted(gkmcalc.__all__) == [
        "DegreeSeries", "GkmEdge", "GkmGraph", "GkmVertex", "GradedMap",
        "GradedVS", "GysinData", "MatrixQ", "MomentPolytope", "MorseBottData",
        "Rational", "SubspaceQ", "__version__", "basic_from_equivariant",
        "canonical_subspace", "class_product", "equivariant_basis",
        "equivariant_dims", "free_hilbert", "graph_from_json", "gysin_betti",
        "kernel_basis", "morse_bott_assemble", "polytope_skeleton",
        "run_checks", "simplex_polytope", "stanley_reisner_hilbert",
        "sym_dim", "validate_graph",
    ]
    for name in gkmcalc.__all__:
        assert getattr(gkmcalc, name) is not None


def names(node):
    """The identifiers an AST reads: name and attribute nodes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def defined(stmt):
    """The names a top-level statement binds: a definition's or assignment's."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_dead_public_names():
    # each top-level public function or class of the library is named in
    # src/ outside its own definition, or in scripts/, or exported; each
    # public method of a library class is read as an attribute in src/
    # outside its own definition or in scripts/ (overrides of a base class
    # from outside gkmcalc aside), a classmethod or staticmethod only as
    # ``Class.name`` there or in the README's doctest, so that another
    # class's method of the same name does not count; each top-level private
    # function, class or assignment (dunders aside) is named in src/ outside
    # its own statement; and no module but __init__ imports a name it never
    # reads.  Uses are name (and, for definitions, attribute) nodes of the
    # AST, so a mention in a docstring is none.
    package = Path(gkmcalc.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    scripts = [ast.parse(path.read_text())
               for path in sorted((package.parents[1] / "scripts").glob("*.py"))]
    readme = (package.parents[1] / "README.md").read_text()
    doctests = [ast.parse(example.source)
                for example in doctest.DocTestParser().get_examples(readme)]

    outside = set(gkmcalc.__all__).union(*map(names, scripts))
    statements = [(module, stmt) for module, tree in modules.items() for stmt in tree.body]
    used = [names(stmt) for _, stmt in statements]
    dead = [
        f"{module}.{stmt.name}"
        for i, (module, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and stmt.name not in outside
        and not any(stmt.name in refs for j, refs in enumerate(used) if j != i)
    ]
    dead += [
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in defined(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in refs for j, refs in enumerate(used) if j != i)
    ]
    attributes = Counter(n.attr for tree in [*modules.values(), *scripts]
                         for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    qualified = {(n.value.id, n.attr) for tree in [*modules.values(), *scripts, *doctests]
                 for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    for module, tree in modules.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            bases = getattr(importlib.import_module(f"gkmcalc.{module}"), cls.name).__mro__[1:]
            dead += [
                f"{module}.{cls.name}.{fn.name}"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                and not any(fn.name in vars(base) for base in bases
                            if not base.__module__.startswith("gkmcalc"))
                and ((cls.name, fn.name) not in qualified
                     if any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                            for d in fn.decorator_list)
                     else attributes[fn.name] == sum(isinstance(n, ast.Attribute)
                                                     and n.attr == fn.name for n in ast.walk(fn)))
            ]
    assert dead == []
    unused = []
    for module, tree in modules.items():
        if module == "__init__":
            continue
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{module}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in loaded
        ]
    assert unused == []


def test_no_dead_test_oracles():
    # each public function of tests/oracles.py is named in some
    # tests/test_*.py, and each private one elsewhere in oracles.py
    tests = Path(__file__).parent
    oracles = ast.parse((tests / "oracles.py").read_text()).body
    in_tests = set().union(*(names(ast.parse(path.read_text()))
                             for path in sorted(tests.glob("test_*.py"))))
    dead = [
        stmt.name
        for stmt in oracles
        if isinstance(stmt, ast.FunctionDef)
        and not (any(stmt.name in names(other) for other in oracles if other is not stmt)
                 if stmt.name.startswith("_") else stmt.name in in_tests)
    ]
    assert dead == []


def test_canonical_subspace_idempotent():
    # against plain Gauss-Jordan over Fraction (oracles.naive_rref), rows
    # and pivots; spanning sets may be empty and hold repeated and zero
    # vectors
    rng = random.Random(31)

    def q():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    for _ in range(200):
        dim = rng.randint(1, 5)
        vecs = [[q() for _ in range(dim)] for _ in range(rng.randint(0, dim + 1))]
        if vecs and rng.random() < 0.3:
            vecs.append(list(rng.choice(vecs)))
        if rng.random() < 0.3:
            vecs.insert(rng.randint(0, len(vecs)), [Fraction(0)] * dim)
        once = canonical_subspace(vecs, dim)
        want, pivots = naive_rref(vecs)
        assert once.to_json() == [vector_to_json(row) for row in want]
        assert once.pivot_columns() == pivots
        # each stored row is the primitive integer multiple with a positive pivot
        for row in once.rows:
            assert all(type(x) is int for x in row)
            nonzero = [x for x in row if x]
            assert nonzero[0] > 0 and gcd(*nonzero) == 1
        # any other spanning set: unit lower triangular x nonzero diagonal,
        # in shuffled order, with a zero vector
        rows = list(once.rows)
        rng.shuffle(rows)
        respanned = [[Fraction(0)] * dim]
        for i, row in enumerate(rows):
            scale = q() or Fraction(1)
            respanned.append([scale * x for x in row])
            for earlier in rows[:i]:
                c = rng.randint(-2, 2)
                respanned[-1] = [x + c * y for x, y in zip(respanned[-1], earlier)]
        again = canonical_subspace(respanned, dim)
        assert once == again and hash(once) == hash(again)


def test_degree_zero_dimension_is_one_on_connected_builtins():
    # constants glue across a connected graph with connected fibers
    graphs = [
        builtin_simplex(1),
        builtin_simplex(3),
        builtin_fiber_join(2, 1),
        builtin_hirzebruch(1),
        builtin_stiefel(),
    ]
    for g in graphs:
        assert equivariant_dims(g, 0)[0] == 1


def test_gysin_endpoints_for_point_like_top():
    # whenever the top basic dimension is 1 and the first Euler map is
    # nonzero, the ends come out spherical: b_0 = b_(2n+1) = 1, b_1 = 0
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 3)
        dims = [1] + [rng.randint(1, 3) for _ in range(n - 1)] + [1]
        mats = []
        ok = True
        for k in range(n):
            entries = [
                [rng.randint(0, 2) for _ in range(dims[k])]
                for _ in range(dims[k + 1])
            ]
            if k == 0 and not any(any(row) for row in entries):
                ok = False
            mats.append(entries)
        if not ok:
            continue
        betti = gysin_betti(GysinData.from_json({"basic_dims": dims, "euler_mult": mats}))
        assert betti[0] == 1
        assert betti[1] == 0
        assert betti[2 * n + 1] == 1


def test_gysin_accepts_explicit_zero_top_map():
    data = GysinData((1, 1), (((1, ((0, 1),)),), ()))
    assert gysin_betti(data) == (1, 0, 0, 1)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=4, max_size=8),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_mul_polynomial_agrees_with_mul(coeffs, poly):
    # the reference product is the plain convolution of coefficient lists
    s = DegreeSeries(tuple(coeffs))
    assert list(s.mul_polynomial(poly).coeffs) == convolve(coeffs, poly, s.cutoff)


def test_concurrent_degrees_match_sequential():
    # per-degree computations are independent; interleaving them across
    # threads must reproduce the sequential results exactly, with the
    # threads building the restriction maps and monomial bases themselves
    from concurrent.futures import ThreadPoolExecutor

    from gkmcalc import equivariant_basis
    from gkmcalc.symalg import _graded, _maps, monomial_basis

    g = builtin_stiefel()
    sequential = {m: equivariant_basis(g, m) for m in range(9)}
    _graded.cache_clear()
    _maps.cache_clear()
    monomial_basis.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {m: pool.submit(equivariant_basis, g, m) for m in range(9)}
        concurrent = {m: f.result() for m, f in futures.items()}
    assert concurrent == sequential
