"""Betti diagrams and projective dimension.

Betti numbers are read off as Koszul homology of f restricted along each
element's parent cube (a module on the Boolean lattice {0,1}^jdim), once
per module (memoised in ``calc_cache``); the projective
dimension is the largest homological degree with a nonzero entry.  The
two equivalence reports tie projective dimension to the degree predicates
and to the canonical comparison maps of the upper approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (gamma_upper, is_cross_degree, is_degree, koszul,
                       t_upper)
from .lattice import parent_cube
from .pmodule import PersistenceModule, is_iso, restrict_along_cube


class EquivalenceViolated(Exception):
    """The three conditions of a pdim equivalence disagree although the
    dimension hypothesis holds: an implementation bug, not a math fact."""


@dataclass
class BettiDiagram:
    """Nonzero Betti numbers, keyed by (element, homological degree)."""

    entries: dict[tuple[str, int], int]

    def value(self, element: str, i: int) -> int:
        return self.entries.get((element, i), 0)

    def max_degree(self) -> int:
        """Largest degree carrying a nonzero entry; -1 when empty."""
        return max((i for (_, i) in self.entries), default=-1)

    def triples(self) -> list[tuple[str, int, int]]:
        return sorted((el, i, v) for (el, i), v in self.entries.items())

    def __str__(self) -> str:
        if not self.entries:
            return "(zero module: empty Betti diagram)"
        return "\n".join(f"beta^{i}[{el}] = {v}" for el, i, v in self.triples())


def betti(f: PersistenceModule) -> BettiDiagram:
    """The Betti diagram of f: entry (a, i) is the i-th Koszul homology of
    f restricted along the parent-cube of a.

    Entries above the join-dimension of a vanish automatically (the
    complex is too short), so only degrees 0..jdim(a) are inspected.
    Memoised in ``f.calc_cache``; callers do not mutate the diagram.
    """
    if "betti" in f.calc_cache:
        return f.calc_cache["betti"]
    lat = f.lattice
    entries: dict[tuple[str, int], int] = {}
    for a in lat.elements:
        kx = koszul(restrict_along_cube(f, parent_cube(lat, a)))
        for i in range(lat.jdim(a) + 1):
            h = kx.homology(i)
            if h:
                entries[(a, i)] = h
    f.calc_cache["betti"] = diagram = BettiDiagram(entries)
    return diagram


def pdim(f: PersistenceModule) -> int:
    """Projective dimension: the largest i with a nonzero Betti entry.

    The zero module reports -1 (max over an empty diagram); callers that
    treat -1 as <= k for every k get consistent equivalence checks.
    """
    return betti(f).max_degree()


@dataclass
class PdimReport:
    """Outcome of one pdim equivalence check.

    ``conditions`` is the (pdim bound, degree predicates, canonical map)
    triple.  ``hypothesis_ok`` records whether n matches the lattice
    dimension bound the theorem requires; when it does not, disagreement
    between the conditions is expected and reported, not raised.
    """

    theorem: str
    n: int
    lattice_dimension: int
    conditions: tuple[bool, bool, bool]
    hypothesis_ok: bool

    @property
    def consistent(self) -> bool:
        return len(set(self.conditions)) == 1

    def describe(self) -> str:
        c1, c2, c3 = self.conditions
        tag = "" if self.hypothesis_ok else " [dimension hypothesis violated]"
        return (f"{self.theorem} (n={self.n}): pdim-bound={c1} "
                f"degree-conditions={c2} canonical-iso={c3}{tag}")


def check_pdim_theorem_1(f: PersistenceModule, n: int | None = None,
                         strict: bool = True) -> PdimReport:
    """Equivalence check: pdim(f) <= n-1, f cross-degree n-1, and the
    canonical epi f -> gamma_upper(f, n-1) an isomorphism.

    n defaults to the lattice dimension (the theorem's hypothesis).  A
    caller may pass a different n to probe what happens off-hypothesis;
    the report then only records the three outcomes.
    """
    dim = f.lattice.poset_dimension()
    if n is None:
        n = dim
    if n < 1:
        raise ValueError("pdim equivalence needs n >= 1")
    c1 = pdim(f) <= n - 1
    c2 = is_cross_degree(f, n - 1)
    c3 = is_iso(gamma_upper(f, n - 1).canonical)
    report = PdimReport("pdim-theorem-1", n, dim, (c1, c2, c3),
                        hypothesis_ok=(n == dim))
    if strict and report.hypothesis_ok and not report.consistent:
        raise EquivalenceViolated(report.describe())
    return report


def check_pdim_theorem_2(f: PersistenceModule, n: int | None = None,
                         strict: bool = True) -> PdimReport:
    """Equivalence check: pdim(f) <= n-2, (f degree n-1 and cross-degree
    n-2), and the composite f -> gamma_upper(f, n-2) -> t_upper of it at
    level n-1 an isomorphism."""
    dim = f.lattice.poset_dimension()
    if n is None:
        n = dim
    if n < 2:
        raise ValueError("pdim equivalence needs n >= 2")
    c1 = pdim(f) <= n - 2
    c2 = is_degree(f, n - 1) and is_cross_degree(f, n - 2)
    g = gamma_upper(f, n - 2)
    t = t_upper(g.module, n - 1)
    c3 = is_iso(t.canonical.compose(g.canonical))
    report = PdimReport("pdim-theorem-2", n, dim, (c1, c2, c3),
                        hypothesis_ok=(n == dim))
    if strict and report.hypothesis_ok and not report.consistent:
        raise EquivalenceViolated(report.describe())
    return report
