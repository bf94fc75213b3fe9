"""Finite-domain constraint declarations and their value-level semantics.

Four constraint kinds are supported:

* ``element(I, [v0,...], V)`` — V equals the I-th list element.  Indexing is
  1-based by default; ``index_base=0`` selects the 0-based variant.
* ``eq(X, Y)``, ``neq(X, Y)`` — equality / disequality of two variables.
* ``eqc(X, k)`` — equality with a constant.

``supported`` computes, per variable, the exact set of values that some
combination of the other variables' current values can extend to a solution
of the constraint; its complement within the current domain is the exact
inconsistent set a propagator removes.  All computations work on interval
domains directly and never enumerate wide ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import GentraError
from .fdomain import EMPTY_DOMAIN, FiniteDomain


@dataclass(frozen=True)
class ConstraintDecl:
    """One constraint: a kind, its arguments, and for element the index base.

    ``variables``, the variables it constrains, is computed once, at
    construction.
    """

    kind: str
    args: tuple
    index_base: int = 1
    variables: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "element":
            ivar, values, vvar = self.args
            if not (isinstance(ivar, str) and isinstance(vvar, str) and values):
                raise GentraError("element takes (index var, non-empty value list, value var)")
            variables = (ivar, vvar)
        elif self.kind in ("eq", "neq"):
            x, y = self.args
            if not (isinstance(x, str) and isinstance(y, str)):
                raise GentraError(f"{self.kind} takes two variables")
            variables = self.args
        elif self.kind == "eqc":
            x, k = self.args
            if not (isinstance(x, str) and isinstance(k, int)):
                raise GentraError("eqc takes a variable and an integer")
            variables = (x,)
        else:
            raise GentraError(f"unknown constraint kind {self.kind!r}")
        object.__setattr__(self, "variables", variables)

    @staticmethod
    def element(ivar: str, values, vvar: str, index_base: int = 1) -> "ConstraintDecl":
        return ConstraintDecl("element", (ivar, tuple(values), vvar), index_base)

    @staticmethod
    def eq(x: str, y: str) -> "ConstraintDecl":
        return ConstraintDecl("eq", (x, y))

    @staticmethod
    def neq(x: str, y: str) -> "ConstraintDecl":
        return ConstraintDecl("neq", (x, y))

    @staticmethod
    def eqc(x: str, k: int) -> "ConstraintDecl":
        return ConstraintDecl("eqc", (x, k))

    def rebased(self, index_base: int) -> "ConstraintDecl":
        if self.kind != "element":
            return self
        return ConstraintDecl(self.kind, self.args, index_base)

    def render(self) -> str:
        if self.kind == "element":
            ivar, values, vvar = self.args
            name = "element" if self.index_base == 1 else "element0"
            return f"{name}({ivar},[{','.join(map(str, values))}],{vvar})"
        if self.kind == "eqc":
            return f"eqc({self.args[0]},{self.args[1]})"
        return f"{self.kind}({self.args[0]},{self.args[1]})"

    # value-level relation

    def satisfied(self, assignment: Mapping[str, int]) -> bool:
        """Does a total assignment of this constraint's variables satisfy it?"""
        if self.kind == "element":
            ivar, values, vvar = self.args
            i = assignment[ivar] - self.index_base
            return 0 <= i < len(values) and values[i] == assignment[vvar]
        if self.kind == "eq":
            return assignment[self.args[0]] == assignment[self.args[1]]
        if self.kind == "neq":
            return assignment[self.args[0]] != assignment[self.args[1]]
        return assignment[self.args[0]] == self.args[1]

    # domain-level reasoning

    def _index_range(self) -> FiniteDomain:
        values = self.args[1]
        return FiniteDomain.interval(self.index_base, self.index_base + len(values) - 1)

    def supported(self, var: str, domains: Mapping[str, FiniteDomain]) -> FiniteDomain:
        """Values of ``var`` that participate in some supporting tuple."""
        if var not in self.variables:
            raise GentraError(f"{var} is not a variable of {self.render()}")
        if self.kind == "element":
            ivar, values, vvar = self.args
            valid = domains[ivar].intersect(self._index_range())
            if var == ivar:
                ok = [i for i in valid.values()
                      if values[i - self.index_base] in domains[vvar]]
                return FiniteDomain.of(ok)
            reachable = FiniteDomain.of(values[i - self.index_base] for i in valid.values())
            return domains[vvar].intersect(reachable)
        if self.kind == "eq":
            return domains[self.args[0]].intersect(domains[self.args[1]])
        if self.kind == "eqc":
            k = self.args[1]
            return domains[var].intersect(FiniteDomain.of([k]))
        # neq: var loses support only when the other side is a forced equal value
        x, y = self.args
        other = domains[y] if var == x else domains[x]
        if other.is_empty():
            return EMPTY_DOMAIN
        if other.is_singleton():
            return domains[var].subtract(FiniteDomain.of([other.singleton_value()]))
        return domains[var]

    def falsified(self, domains: Mapping[str, FiniteDomain]) -> bool:
        """True when no supporting tuple exists in the current domains."""
        return any(self.supported(v, domains).is_empty() for v in self.variables)

    def entailed(self, domains: Mapping[str, FiniteDomain]) -> bool:
        """True when every combination of current domain values satisfies it."""
        if any(domains[v].is_empty() for v in self.variables):
            return False
        if self.kind == "eq":
            x, y = self.args
            return (domains[x].is_singleton() and domains[y].is_singleton()
                    and domains[x].singleton_value() == domains[y].singleton_value())
        if self.kind == "neq":
            return domains[self.args[0]].disjoint(domains[self.args[1]])
        if self.kind == "eqc":
            x, k = self.args
            return domains[x].is_singleton() and domains[x].singleton_value() == k
        ivar, values, vvar = self.args
        if not domains[ivar].issubset(self._index_range()):
            return False
        if not domains[vvar].is_singleton():
            return False
        u = domains[vvar].singleton_value()
        return all(values[i - self.index_base] == u for i in domains[ivar].values())

