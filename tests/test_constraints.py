"""Domain-level constraint reasoning against value-level enumeration."""

import itertools
import random

import pytest

from gentra.constraints import ConstraintDecl
from gentra.errors import GentraError
from gentra.fdomain import FiniteDomain

from support import constraint_holds, entailed_by_enumeration


def random_decl(rng, names):
    kind = rng.choice(["eq", "neq", "eqc", "element"])
    if kind == "eqc" or len(names) < 2:
        return ConstraintDecl.eqc(rng.choice(names), rng.randrange(8))
    if kind == "element":
        ivar, vvar = rng.sample(names, 2)
        listing = tuple(rng.randrange(8) for _ in range(rng.randint(2, 4)))
        return ConstraintDecl.element(ivar, listing, vvar, index_base=rng.choice([0, 1]))
    x, y = rng.sample(names, 2)
    return ConstraintDecl.eq(x, y) if kind == "eq" else ConstraintDecl.neq(x, y)


def random_domains(rng, names):
    return {n: FiniteDomain.of(rng.sample(range(8), rng.randint(0, 5))) for n in names}


def brute_supported(decl, var, domains):
    """Values of var appearing in some satisfying tuple — by enumeration."""
    vs = decl.variables
    out = set()
    for combo in itertools.product(*(list(domains[v].values()) for v in vs)):
        assignment = dict(zip(vs, combo))
        if constraint_holds(decl, assignment):
            out.add(assignment[var])
    return out


def test_supported_falsified_entailed_match_enumeration():
    rng = random.Random(99)
    names = ["a", "b", "c"]
    for _ in range(300):
        decl = random_decl(rng, names)
        domains = random_domains(rng, names)
        any_tuple = False
        for var in decl.variables:
            expected = brute_supported(decl, var, domains)
            got = set(decl.supported(var, domains).values())
            assert got == expected, (decl.render(), var, domains)
            any_tuple = any_tuple or bool(expected)
        assert decl.falsified(domains) == (not any_tuple)
        assert decl.entailed(domains) == _brute_entailed(decl, domains)


def _brute_entailed(decl, domains):
    vs = decl.variables
    if any(domains[v].is_empty() for v in vs):
        return False
    return all(constraint_holds(decl, dict(zip(vs, combo)))
               for combo in itertools.product(*(list(domains[v].values()) for v in vs)))


def test_entailed_by_enumeration_agrees_with_rules():
    rng = random.Random(5)
    names = ["a", "b"]
    for _ in range(200):
        decl = random_decl(rng, names)
        domains = random_domains(rng, names)
        assert decl.entailed(domains) == entailed_by_enumeration(decl, domains)


def test_enumeration_fallback_caps_width():
    wide = {"a": FiniteDomain.interval(0, 10**6), "b": FiniteDomain.interval(0, 10**6)}
    with pytest.raises(GentraError):
        entailed_by_enumeration(ConstraintDecl.eq("a", "b"), wide)
    # the rule-based check handles the same width without enumeration
    assert not ConstraintDecl.eq("a", "b").entailed(wide)


def test_element_index_base_semantics():
    one = ConstraintDecl.element("i", (9, 8, 7), "v", index_base=1)
    zero = one.rebased(0)
    assert one.satisfied({"i": 1, "v": 9})
    assert not zero.satisfied({"i": 1, "v": 9})
    assert zero.satisfied({"i": 0, "v": 9})
    assert one.render() == "element(i,[9,8,7],v)"
    assert zero.render() == "element0(i,[9,8,7],v)"


def test_variables_and_validation():
    assert ConstraintDecl.element("i", (1,), "v").variables == ("i", "v")
    assert ConstraintDecl.eqc("x", 3).variables == ("x",)
    with pytest.raises(GentraError):
        ConstraintDecl("element", ("i", (), "v"))
    with pytest.raises(GentraError):
        ConstraintDecl("nope", ("x", "y"))
    with pytest.raises(GentraError):
        ConstraintDecl.eqc("x", "notanint")


def test_supported_requires_member_variable():
    decl = ConstraintDecl.eq("x", "y")
    with pytest.raises(GentraError):
        decl.supported("z", {"x": FiniteDomain.of([1]), "y": FiniteDomain.of([1])})
