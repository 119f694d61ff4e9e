"""Slow, obviously-correct references for the calculus fast paths.

The global Kan-extension oracle computes a (co)limit over the whole
selected index below (above) an element as the cokernel of one incidence
map, with no sweep.  ``gamma_lower_oracle`` is the image of the canonical
map of the Kan extension ``t_lower``, the definition the image sweep of
``gamma_lower`` replaces.
"""

from __future__ import annotations

from typing import Callable

from pmodcalc.calculus import ApproxResult, t_lower
from pmodcalc.lattice import Lattice, _bits
from pmodcalc.linalg import Matrix, cokernel_projection, hstack, vstack
from pmodcalc.pmodule import PersistenceModule, image_of, opposite_module


class NotDownClosed(Exception):
    """The selected subset of the down-set is not down-closed."""


class NotUpClosed(Exception):
    """The selected subset of the up-set is not up-closed."""


def _diagram_colimit(f: PersistenceModule, subset: list[int]) -> tuple[int, dict[int, Matrix]]:
    """Colimit of f restricted to an induced subposet.

    Computed as the cokernel of the incidence map sending a vector at u
    (for an induced cover u < v) to transport(u,v)*x at v minus x at u.
    Returns (dimension, cocone component per subset element).
    """
    lat = f.lattice
    subset = sorted(subset)
    offsets: dict[int, int] = {}
    total = 0
    for v in subset:
        offsets[v] = total
        total += f.dim_i(v)
    blocks = [Matrix.zeros(f.field, total, 0)]
    for (u, v) in lat.induced_covers(subset):
        blocks.append(vstack([f.transport_i(u, v) if w == v else
                              -Matrix.identity(f.field, f.dim_i(u)) if w == u else
                              Matrix.zeros(f.field, f.dim_i(w), f.dim_i(u))
                              for w in subset]))
    q, _ = cokernel_projection(hstack(blocks))
    cocones = {v: q.take_cols(range(offsets[v], offsets[v] + f.dim_i(v)))
               for v in subset}
    return q.nrows, cocones


def _select_below(lat: Lattice, x: str, predicate: Callable[[str], bool],
                  error: type[Exception], relation: str) -> list[int]:
    """The elements of the down-set of x the predicate selects; raise
    ``error`` naming a missing element if they are not down-closed."""
    chosen = [v for v in _bits(lat.downset_mask(lat.index(x)))
              if predicate(lat.element(v))]
    chosen_mask = 0
    for v in chosen:
        chosen_mask |= 1 << v
    for v in chosen:
        below = lat.downset_mask(v) & ~chosen_mask
        if below:
            bad = next(_bits(below))
            raise error(f"{lat.element(bad)} {relation} {lat.element(v)} "
                        "is missing from the selection")
    return chosen


def colim_over_downset(f: PersistenceModule, x: str,
                       predicate: Callable[[str], bool]) -> tuple[int, dict[str, Matrix]]:
    """Colimit of f over the selected down-closed part of the down-set of x.

    Raises NotDownClosed when the predicate selects a set that is not
    down-closed inside the interval below x.
    """
    chosen = _select_below(f.lattice, x, predicate, NotDownClosed, "<=")
    dim, cocones = _diagram_colimit(f, chosen)
    return dim, {f.lattice.element(v): m for v, m in cocones.items()}


def lim_over_upset(f: PersistenceModule, x: str,
                   predicate: Callable[[str], bool]) -> tuple[int, dict[str, Matrix]]:
    """Limit of f over the selected up-closed part of the up-set of x: the
    colimit of the opposite module, with its cocones transposed into cones.

    Raises NotUpClosed when the selection is not up-closed above x.
    """
    op = opposite_module(f)
    chosen = _select_below(op.lattice, x, predicate, NotUpClosed, ">=")
    dim, cocones = _diagram_colimit(op, chosen)
    return dim, {f.lattice.element(v): m.transpose() for v, m in cocones.items()}


def gamma_lower_oracle(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-codegree-n approximation by its definition: the pointwise
    image of the canonical map t_lower(f, n) -> f, with its inclusion."""
    module, mono = image_of(t_lower(f, n).canonical)
    return ApproxResult("gamma_lower", module, mono)
