"""Betti diagrams and projective dimension.

Betti numbers are the homology of the local Koszul complex at each
element, calculus.koszul of f on its parent cube (the vertex tuple the
lattice stores), read off the cover maps of f into the record the degree
statistics share; a cube zero at every vertex costs one look at its dims.
The diagram (names and ints) is memoised in ``calc_cache``; the
projective dimension is the largest homological degree with a nonzero
entry.  The two equivalence reports tie projective dimension to the
degree predicates and to the canonical maps of the upper approximations,
read on the opposite module as lower ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .calculus import gamma_lower, is_cross_degree, is_degree, koszul, t_lower
from .lattice import _memo, parent_cube
from .pmodule import PersistenceModule, is_iso, opposite_module


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
    """The Betti diagram of f: entry (a, i) is the i-th homology of the
    local Koszul complex at a, ``koszul`` of f on parent_cube(a), read
    straight off the cover maps of f.

    A cube zero at every vertex costs one look at its dims, and each
    boundary's rank is taken once, in the record the statistics share.
    Memoised in ``f.calc_cache``, holding no reference to f; callers do
    not mutate the diagram.
    """
    lat = f.lattice
    return _memo(f.calc_cache, "betti", lambda: BettiDiagram({
        (lat.element(x), i): h for x in range(lat.n)
        for i, h in enumerate(koszul(f, parent_cube(lat, x)).betti) if h}))


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


def _pdim_check(k: int, f: PersistenceModule, n: int | None, strict: bool,
                conditions: Callable[[int], tuple[bool, bool, bool]]) -> PdimReport:
    """The frame both theorems share: n defaults to the lattice dimension
    (the theorem's hypothesis) and must be at least k; the report records
    ``conditions(n)`` and, when strict and on-hypothesis, raises if they
    disagree.  A caller may pass a different n to probe what happens
    off-hypothesis; the report then only records the three outcomes."""
    dim = f.lattice.poset_dimension()
    if n is None:
        n = dim
    if n < k:
        raise ValueError(f"pdim equivalence needs n >= {k}")
    report = PdimReport(f"pdim-theorem-{k}", n, dim, conditions(n),
                        hypothesis_ok=(n == dim))
    if strict and report.hypothesis_ok and not report.consistent:
        raise EquivalenceViolated(report.describe())
    return report


def check_pdim_theorem_1(f: PersistenceModule, n: int | None = None,
                         strict: bool = True) -> PdimReport:
    """Equivalence check: pdim(f) <= n-1, f cross-degree n-1, and the
    canonical epi f -> gamma_upper(f, n-1) an isomorphism.  n defaults
    to the lattice dimension, as both theorems do (``_pdim_check``).

    The third condition is read on the opposite module, where that epi
    is the transpose of the inclusion gamma_lower(f^op, n-1) -> f^op, an
    isomorphism exactly when the epi is; no upper result is built.
    """
    return _pdim_check(1, f, n, strict, lambda n: (
        pdim(f) <= n - 1,
        is_cross_degree(f, n - 1),
        is_iso(gamma_lower(opposite_module(f), n - 1).canonical)))


def check_pdim_theorem_2(f: PersistenceModule, n: int | None = None,
                         strict: bool = True) -> PdimReport:
    """Equivalence check: pdim(f) <= n-2, (f degree n-1 and cross-degree
    n-2), and the composite f -> gamma_upper(f, n-2) -> t_upper of it at
    level n-1 an isomorphism.

    As in theorem 1, the composite is read on the opposite module: with
    g = gamma_lower(f^op, n-2), it is the transpose of t_lower(g, n-1) ->
    g -> f^op."""
    def conditions(n: int) -> tuple[bool, bool, bool]:
        g = gamma_lower(opposite_module(f), n - 2)
        return (pdim(f) <= n - 2,
                is_degree(f, n - 1) and is_cross_degree(f, n - 2),
                is_iso(g.canonical.compose(t_lower(g.module, n - 1).canonical)))
    return _pdim_check(2, f, n, strict, conditions)
