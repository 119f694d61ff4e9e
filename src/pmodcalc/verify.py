"""Randomized and exhaustive theorem suites.

Each suite exercises a family of structural facts (approximation
theorems, pdim equivalences, oracle agreement, pipeline bounds) over a
corpus of fixed modules plus seeded random ones, and aggregates results
in a machine-readable report.  Every failure entry carries a replayable
seed and the offending module serialized as PMOD.

The upper side is the lower side of the opposite module: gamma_upper(f, n)
is gamma_lower(f^op, n) transposed, and transposing keeps isomorphisms,
dimensions, naturality and factorisations while it swaps monos and epis.
So the theorem suite checks each approximation property once, in one
lower-side battery run on f and on f^op (f's companions taken opposite
too).  The second run is recorded under the upper names of ``_UPPER``,
the names reports have always used, with each counterexample mapped
back onto f's lattice.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

from . import generators
from .calculus import (PREDICATES, _dual_nat, _gamma_sweep, _t_sweep,
                       find_failing_cube, gamma_lower, gamma_upper,
                       is_codegree, is_cross_codegree,
                       is_cross_degree, is_degree, koszul, min_codegree,
                       min_cross_codegree, min_cross_degree, min_degree,
                       t_lower, t_upper, tcofib, tfib)
from .lattice import Lattice, bicartesian_cubes_cached, parent_cube
from .linalg import FieldSpec, Matrix, NoFactorization, hstack, rank, solve
from .linalg import direct_sum as block_diagonal
from .pmodule import (NatTrans, PersistenceModule, _free_on, cokernel_of,
                      direct_sum, interval_module, is_iso, opposite_module,
                      random_module, sum_inclusion, sum_projection)
from .pmod_io import print_pmod
from .resolution import betti, check_pdim_theorem_1, check_pdim_theorem_2, pdim


class UnknownSuite(Exception):
    """The requested suite name is not registered."""


@dataclass
class PropertyStat:
    passed: int = 0
    failed: int = 0
    counterexample: str | None = None
    counterexample_seed: str | None = None
    note: str | None = None


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int | None  # None for "all" run at each suite's default count
    properties: dict[str, PropertyStat] = dc_field(default_factory=dict)
    observations: dict[str, dict] = dc_field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(s.failed == 0 for s in self.properties.values())

    def record(self, prop: str, passed: bool,
               module: PersistenceModule | None = None,
               seed: str | None = None, note: str | None = None) -> None:
        stat = self.properties.setdefault(prop, PropertyStat())
        if passed:
            stat.passed += 1
        else:
            stat.failed += 1
            if stat.counterexample is None:
                stat.counterexample = print_pmod(module) if module is not None else "(n/a)"
                stat.counterexample_seed = seed
        if note and not stat.note:
            stat.note = note

    def observe(self, key: str, **kv) -> None:
        slot = self.observations.setdefault(key, {})
        for k, v in kv.items():
            slot[k] = slot.get(k, 0) + v if isinstance(v, int) else v

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "wall_time_s": round(self.wall_time_s, 3),
            "properties": {
                name: {"pass": s.passed, "fail": s.failed,
                       "counterexample": s.counterexample,
                       "counterexample_seed": s.counterexample_seed,
                       "note": s.note}
                for name, s in sorted(self.properties.items())
            },
            "observations": self.observations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


# -- fixed corpus ---------------------------------------------------------------

#: The interval modules over {0,1}^2 with their
#: (degree, cross-degree, codegree, cross-codegree) statistics.
TABLE1_ROWS: tuple[tuple[str, tuple[str, ...], tuple[int, int, int, int]], ...] = (
    ("corner",       ("0,0",),                   (2, 2, 1, 0)),
    ("atom-x",       ("1,0",),                   (2, 1, 2, 1)),
    ("atom-y",       ("0,1",),                   (2, 1, 2, 1)),
    ("top-only",     ("1,1",),                   (1, 0, 2, 2)),
    ("bottom-row",   ("0,0", "1,0"),             (1, 1, 1, 0)),
    ("left-column",  ("0,0", "0,1"),             (1, 1, 1, 0)),
    ("top-row",      ("0,1", "1,1"),             (1, 0, 1, 1)),
    ("right-column", ("1,0", "1,1"),             (1, 0, 1, 1)),
    ("lower-hook",   ("0,0", "1,0", "0,1"),      (2, 1, 2, 0)),
    ("upper-hook",   ("1,0", "0,1", "1,1"),      (2, 0, 2, 1)),
    ("full-square",  ("0,0", "1,0", "0,1", "1,1"), (0, 0, 0, 0)),
)


def table1_modules(field: FieldSpec) -> list[tuple[str, PersistenceModule,
                                                   tuple[int, int, int, int]]]:
    lat = Lattice.grid([1, 1])
    return [(name, interval_module(lat, field, support), expected)
            for name, support, expected in TABLE1_ROWS]


def nonexample_module(field: FieldSpec) -> PersistenceModule:
    """The indecomposable module over {0,1}^3 with one-dimensional spaces
    at the three coatoms mapping into a plane by (1 1), (1 0), (0 1)."""
    lat = Lattice.grid([1, 1, 1])
    # Element index = the binary numeral of the coordinates: 3 is "0,1,1".
    dims = [0, 0, 0, 1, 0, 1, 1, 2]
    maps = {(u, 7): Matrix(field, 2, 1, col)
            for u, col in ((6, [[1], [1]]), (5, [[1], [0]]), (3, [[0], [1]]))}
    return PersistenceModule(lat, field, dims, maps)


def gamma1_example(field: FieldSpec) -> tuple[PersistenceModule,
                                              PersistenceModule, NatTrans]:
    """The pair showing that the cross-codegree approximation does not
    commute with cokernels: the top-only interval included in the
    constant module over {0,1}^2."""
    lat = Lattice.grid([1, 1])
    f = interval_module(lat, field, ("1,1",))
    g = interval_module(lat, field, ("0,0", "1,0", "0,1", "1,1"))
    comps = [Matrix(field, g.dim_i(i), f.dim_i(i), [[1]] if f.dim_i(i) else None)
             for i in range(lat.n)]
    alpha = NatTrans(f, g, comps).validate()
    return f, g, alpha


# -- shared checks ----------------------------------------------------------------

#: How a battery records one outcome: (property, passed, module, seed).
Record = Callable[[str, bool, PersistenceModule, str], None]

#: The name under which each lower-side property of f^op is recorded as
#: an upper-side property of f.  Transposing swaps monos and epis, so the
#: inclusion's and the projection's checks trade names.
_UPPER = {
    "gamma-lower-is-cross-codegree": "gamma-upper-is-cross-degree",
    "gamma-lower-iso-on-cross-codegree": "gamma-upper-iso-on-cross-degree",
    "idempotent-comonad": "idempotent-monad",
    "tower-mono-lower": "tower-epi-upper",
    "direct-sum-lower": "direct-sum-upper",
    "preserves-mono-lower": "preserves-epi-upper",
    "preserves-epi-lower": "preserves-mono-upper",
    "universal-property-lower": "universal-property-upper",
    "tk-preserves-cross-codegree": "tk-preserves-cross-degree",
    "pdim-theorem-1": "pdim-theorem-1-dual",
    "pdim-theorem-2": "pdim-theorem-2-dual",
}
_UPPER_NOTES = {"pdim-theorem-1-dual": "injective-dimension analogue via the opposite lattice"}


def _upper_record(report: SuiteReport) -> Record:
    """Records f^op's lower-side battery as f's upper side: each name
    through ``_UPPER``, each module back on f's lattice (the opposite memo)."""
    def record(prop: str, passed: bool, module: PersistenceModule, seed: str) -> None:
        name = _UPPER[prop]
        report.record(name, passed, opposite_module(module), seed,
                      note=_UPPER_NOTES.get(name))
    return record


def _lift(alpha: NatTrans, mono: NatTrans) -> NatTrans:
    """The map β with mono β = alpha, solved element by element (unique,
    as mono is pointwise mono); NoFactorization where alpha does not
    factor through mono.  Naturality is left to the caller to check.  The
    map Γ_n F -> Γ_n G that alpha: F -> G induces is the lift of alpha
    after Γ_n F -> F through Γ_n G -> G."""
    return NatTrans(alpha.source, mono.source,
                    [solve(mono.component_i(i), alpha.component_i(i))
                     for i in range(alpha.source.lattice.n)])


def _gamma_battery(record: Record, f: PersistenceModule, seed: str) -> None:
    """Γ_n f is cross-codegree n, and Γ_n f -> f an iso when f already
    is (n = 0, 1, 2); Γ_0 and Γ_1 are idempotent, and the canonical maps
    make Γ_0 f -> Γ_1 f -> Γ_2 f a tower of natural monos.  The iso and
    the idempotence are read on the sweep: gamma_lower returns f, or Γ_n f,
    there by the read-off."""
    for n in (0, 1, 2):
        gl = gamma_lower(f, n)
        record("gamma-lower-is-cross-codegree", is_cross_codegree(gl.module, n), f, seed)
        if is_cross_codegree(f, n):
            record("gamma-lower-iso-on-cross-codegree",
                   is_iso(_gamma_sweep(f, n).canonical), f, seed)
    for n in (0, 1):
        gn, gm = gamma_lower(f, n), gamma_lower(f, n + 1)
        record("idempotent-comonad", is_iso(_gamma_sweep(gn.module, n).canonical), f, seed)
        try:
            step = _lift(gn.canonical, gm.canonical)
            ok = step.is_pointwise_mono() and step.is_natural()
        except NoFactorization:
            ok = False
        record("tower-mono-lower", ok, f, seed)


def _convergence_check(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    """T_d f -> f and f -> T^d f are isos at the lattice dimension d, read on
    the sweeps (t_upper is t_lower on f^op), where the read-off returns f."""
    d = f.lattice.poset_dimension()
    ok = all(is_iso(_t_sweep(m, d).canonical) for m in (f, opposite_module(f)))
    report.record("convergence-at-dimension", ok, f, seed)


def _spans_agree(a: Matrix, b: Matrix) -> bool:
    """Whether a and b factor through each other: equal column spaces."""
    try:
        solve(b, a)
        solve(a, b)
    except NoFactorization:
        return False
    return True


def _direct_sum_checks(record: Record, f: PersistenceModule,
                       g: PersistenceModule, s: PersistenceModule,
                       seed: str) -> None:
    """Γ_n of s = f + g is Γ_n f + Γ_n g, as a submodule of s; and Γ_1
    keeps the inclusion f -> s mono and the projection s -> g epi."""
    lat = f.lattice
    for n in (0, 1):
        gs, gf, gg = gamma_lower(s, n), gamma_lower(f, n), gamma_lower(g, n)
        # Same submodule of f + g: the block-diagonal monos must span the
        # same column space as the sum's mono, both ways.
        ok = all(gs.module.dim_i(i) == gf.module.dim_i(i) + gg.module.dim_i(i)
                 for i in range(lat.n)) and all(
            _spans_agree(block_diagonal([gf.canonical.component_i(i),
                                         gg.canonical.component_i(i)]),
                         gs.canonical.component_i(i)) for i in range(lat.n))
        record("direct-sum-lower", ok, s, seed)
    gf, gs, gg = gamma_lower(f, 1), gamma_lower(s, 1), gamma_lower(g, 1)
    for prop, alpha, src, tgt, holds in (
            ("preserves-mono-lower", sum_inclusion(f, g, 0, s), gf, gs,
             NatTrans.is_pointwise_mono),
            ("preserves-epi-lower", sum_projection(f, g, 1, s), gs, gg,
             NatTrans.is_pointwise_epi)):
        try:
            lowered = _lift(alpha.compose(src.canonical), tgt.canonical)
            ok = holds(lowered) and lowered.is_natural()
        except NoFactorization:
            ok = False
        record(prop, ok, f, seed)


def _distributive_law_check(report: SuiteReport, f: PersistenceModule,
                            m: int, n: int, seed: str) -> None:
    """Both legs of the canonical comparison
    gamma_lower gamma_upper F <- gamma_lower gamma_upper gamma_lower F -> gamma_upper gamma_lower F
    must be pointwise isomorphisms."""
    gl = gamma_lower(f, m)                       # G1 = Gm F, mono e: G1 -> F
    g2 = gamma_upper(gl.module, n)               # G2 = G^n Gm F, epi G1 -> G2
    c = gamma_lower(g2.module, m)                # C = Gm G^n Gm F, mono C -> G2
    leg2_ok = is_iso(c.canonical)
    h1 = gamma_upper(f, n)                       # H1 = G^n F, epi F -> H1
    a = gamma_lower(h1.module, m)                # A = Gm G^n F, mono A -> H1
    try:
        dual = _dual_nat(gl.canonical)                   # the mono, on f^op
        lifted = _dual_nat(_lift(dual.compose(gamma_lower(dual.source, n).canonical),
                                 gamma_lower(dual.target, n).canonical))  # G^n of it
        leg1 = _lift(lifted.compose(c.canonical), a.canonical)  # Gm of that map
        leg1_ok = is_iso(leg1) and leg1.is_natural()
    except NoFactorization:
        leg1_ok = False
    report.record("distributive-law", leg1_ok and leg2_ok, f, seed,
                  note=f"checked (m,n)=({m},{n}) legs of the canonical comparison")


def approximation_preserves_cross_predicate(f: PersistenceModule, k: int, n: int) -> bool:
    """If f is cross-codegree n, so is its level-k Kan approximation
    t_lower(f, k).  The cross-degree statement for t_upper is this one
    on the opposite module."""
    return not is_cross_codegree(f, n) or is_cross_codegree(t_lower(f, k).module, n)


def _lower_battery(record: Record, f: PersistenceModule, g: PersistenceModule,
                   s: PersistenceModule, rng: random.Random, seed: str) -> None:
    """Every lower-side property of f, with s = f + g.  Universality of
    Γ_1: a random map α into f from a free module P on 1-3 generators
    born at elements with at most one lower cover (so P is cross-codegree
    1, which is checked too) must factor uniquely through the canonical
    mono Γ_1 f -> f.  Every cross-codegree-1 module is a quotient of such
    a P, so these maps test the whole property.  By Yoneda, α is a random
    vector v of f(b) per generator born at b, sent to f(b -> x) v at x.
    Generators are born where f is nonzero, if any such element has at
    most one lower cover, and each v is nonzero there, so α is too."""
    _gamma_battery(record, f, seed)
    _direct_sum_checks(record, f, g, s, seed)
    lat, field, p = f.lattice, f.field, f.field.p
    low = [x for x in range(lat.n) if len(lat.parents_i(x)) <= 1]
    low = [x for x in low if f.dim_i(x)] or low
    gens = sorted(rng.choice(low) for _ in range(rng.randint(1, 3)))
    # v: the base-p digits of a draw c from 1..p^d - 1 (empty for d = 0).
    vecs = [Matrix(field, d, 1, [[c // p ** j % p] for j in range(d)])
            for d in map(f.dim_i, gens) for c in [rng.randrange(1, max(p ** d, 2))]]
    comps = []
    for x in range(lat.n):
        cols = [f.transport_i(b, x) @ v for b, v in zip(gens, vecs) if lat.leq_i(b, x)]
        comps.append(hstack(cols) if cols else Matrix.zeros(field, f.dim_i(x), 0))
    src = _free_on(lat, field, gens)
    alpha = NatTrans(src, f, comps)
    gl = gamma_lower(f, 1)
    try:
        lift = _lift(alpha, gl.canonical)
        recomposed = gl.canonical.compose(lift)
        # Uniqueness: the canonical map is pointwise mono, so any two
        # factorizations agree.
        ok = (is_cross_codegree(src, 1) and lift.is_natural()
              and gl.canonical.is_pointwise_mono() and all(
                  recomposed.component_i(i) == alpha.component_i(i) for i in range(lat.n)))
    except NoFactorization:
        ok = False
    record("universal-property-lower", ok, f, seed)
    for k, n in ((1, 0), (2, 1), (0, 1)):
        if is_cross_codegree(f, n):
            record("tk-preserves-cross-codegree",
                   approximation_preserves_cross_predicate(f, k, n), f, seed)
    d = lat.poset_dimension()
    if d >= 1:
        record("pdim-theorem-1", check_pdim_theorem_1(f, strict=False).consistent, f, seed)
    if d >= 2:
        record("pdim-theorem-2", check_pdim_theorem_2(f, strict=False).consistent, f, seed)


def _koszul_check(report: SuiteReport, f: PersistenceModule, cube: tuple[int, ...],
                  seed: str) -> None:
    """Koszul homology of f on the cube against the product and coproduct
    formulas."""
    beta = koszul(f, cube)
    report.record("koszul-total-fiber", beta[-1] == tfib(f, cube), f, seed)
    report.record("koszul-total-cofiber", beta[0] == tcofib(f, cube), f, seed)


def _restriction_and_koszul_checks(report: SuiteReport, f: PersistenceModule,
                                   rng: random.Random, seed: str) -> None:
    lat = f.lattice
    pd = pdim(f)
    cubes = [parent_cube(lat, x) for x in range(lat.n)]
    pool = bicartesian_cubes_cached(lat, 2)
    cubes.extend(rng.choice(pool) for _ in range(3))
    for cube in cubes:
        _koszul_check(report, f, cube, seed)
        report.record("restriction-pdim-bound", _restricted_pdim(f, cube) <= pd, f, seed)


def _restricted_pdim(f: PersistenceModule, cube: tuple[int, ...]) -> int:
    """pdim of f restricted along a k-cube, read on f with no module built:
    the largest i with beta^i != 0 on a face through cube[0], -1 if none.
    The face below cube[s] (cube[t] for t within s) is the parent cube of s
    in {0,1}^k, so these are the Betti numbers of the restriction."""
    faces = (tuple(cube[t] for t in range(s + 1) if t & s == t) for s in range(len(cube)))
    return max((i for face in faces for i, h in enumerate(koszul(f, face)) if h),
               default=-1)


def _open_question_observation(report: SuiteReport, f: PersistenceModule) -> None:
    """Whether the two composition orders of the top approximations agree
    in dimensions.  Logged only; the comparison is an open question."""
    d = f.lattice.poset_dimension()
    if d < 2:
        return
    lhs = gamma_upper(t_upper(f, d - 1).module, d - 2).module
    rhs = t_upper(gamma_upper(f, d - 2).module, d - 1).module
    same = all(lhs.dim_i(i) == rhs.dim_i(i) for i in range(f.lattice.n))
    report.observe("swap-order-upper-approximations",
                   equal_dims=1 if same else 0,
                   unequal_dims=0 if same else 1,
                   note="dimension comparison only; never asserted")


# -- suites -----------------------------------------------------------------------


def _suite_table1(report: SuiteReport, field: FieldSpec, seed: int, trials: int) -> None:
    for name, module, expected in table1_modules(field):
        got = (min_degree(module), min_cross_degree(module),
               min_codegree(module), min_cross_codegree(module))
        report.record("table1-values", got == expected, module, name,
                      note="statistics are (degree, cross-degree, codegree, cross-codegree)")
        if got != expected:
            report.observe("table1-mismatch", **{name: f"got {got}, want {expected}"})


def _suite_nonexample(report: SuiteReport, field: FieldSpec, seed: int,
                      trials: int) -> None:
    f = nonexample_module(field)
    report.record("nonexample-degree", min_degree(f) == 1, f, "nonexample")
    report.record("nonexample-cross-degree", min_cross_degree(f) == 0, f, "nonexample")
    report.record("nonexample-pdim", pdim(f) >= 1, f, "nonexample")
    report.record("nonexample-betti1-top", betti(f).value("1,1,1", 1) == 1,
                  f, "nonexample")
    honest = check_pdim_theorem_2(f, strict=False)
    report.record("nonexample-theorem2-at-dimension", honest.consistent, f,
                  "nonexample")
    off = check_pdim_theorem_2(f, n=2, strict=False)
    divergence = (not off.hypothesis_ok) and off.conditions[1] and not off.conditions[0]
    report.record("nonexample-divergence-off-hypothesis", divergence, f,
                  "nonexample",
                  note="degree/cross-degree conditions hold while the pdim bound "
                       "fails once the dimension hypothesis is dropped")


def _suite_gamma1_colimit(report: SuiteReport, field: FieldSpec, seed: int,
                          trials: int) -> None:
    f, g, alpha = gamma1_example(field)
    lat = f.lattice
    gl_f = gamma_lower(f, 1)
    gl_g = gamma_lower(g, 1)
    report.record("gamma1-F-vanishes", gl_f.module.is_zero(), f, "example")
    report.record("gamma1-G-full", is_iso(gl_g.canonical), g, "example")
    lowered = _lift(alpha.compose(gl_f.canonical), gl_g.canonical)
    coker_lowered, _ = cokernel_of(lowered)
    coker_alpha, _ = cokernel_of(alpha)
    gl_coker = gamma_lower(coker_alpha, 1)
    dims_left = [coker_lowered.dim_i(i) for i in range(lat.n)]
    dims_right = [gl_coker.module.dim_i(i) for i in range(lat.n)]
    report.record("gamma1-coker-of-gamma-has-G-dims",
                  dims_left == [g.dim_i(i) for i in range(lat.n)], g, "example")
    # The grid's elements are in lexicographic order: the top, 1,1, is last.
    report.record("gamma1-gamma-of-coker-is-hook",
                  dims_right == [1] * (lat.n - 1) + [0], coker_alpha, "example")
    report.record("gamma1-noncommutation-witnessed",
                  any(a != b for a, b in zip(dims_left, dims_right)), g, "example")
    report.observe("gamma1-dims", coker_of_gamma=dims_left, gamma_of_coker=dims_right)


def _theorem_suite(report: SuiteReport, field: FieldSpec, seed: int, trials: int,
                   shape: list[int], include_table1: bool) -> None:
    lattice = Lattice.grid(shape)
    corpus: list[tuple[str, PersistenceModule]] = []
    if include_table1:
        corpus.extend((f"table1:{name}", m) for name, m, _ in table1_modules(field))
        corpus.append(("nonexample", nonexample_module(field)))
    for i in range(trials):
        label = f"{seed}:{i}"
        corpus.append((f"random:{label}", random_module(lattice, field, label)))
    for label, f in corpus:
        rng = random.Random(f"battery:{label}")
        g = random_module(f.lattice, field, f"companion:{label}")
        modules = (f, g, direct_sum(f, g))
        _lower_battery(report.record, *modules, rng, label)
        _lower_battery(_upper_record(report), *map(opposite_module, modules), rng, label)
        _convergence_check(report, f, label)
        for m, n in ((1, 0), (0, 1)):
            _distributive_law_check(report, f, m, n, label)
        _restriction_and_koszul_checks(report, f, rng, label)
        _open_question_observation(report, f)


def _suite_oracle(report: SuiteReport, field: FieldSpec, seed: int,
                  trials: int) -> None:
    corpus: list[tuple[str, PersistenceModule]] = [
        (f"table1:{name}", m) for name, m, _ in table1_modules(field)]
    corpus.append(("nonexample", nonexample_module(field)))
    lat2, lat3 = Lattice.grid([2, 2]), Lattice.grid([1, 1, 1])
    per_lat = max(1, trials // 2)
    for i in range(per_lat):
        label = f"{seed}:sq:{i}"
        corpus.append((f"random-2param:{label}", random_module(lat2, field, label)))
        label = f"{seed}:cube:{i}"
        corpus.append((f"random-3param:{label}", random_module(lat3, field, label)))
    for (label, f), n in itertools.product(corpus, (0, 1, 2)):
        for kind, holds in PREDICATES.items():
            report.record(f"oracle-{kind.replace('_', '-')}",
                          holds(f, n) == (find_failing_cube(f, n, kind) is None), f, label)
        report.record("degree-implies-cross-degree",
                      not is_degree(f, n) or is_cross_degree(f, n), f, label)
        report.record("codegree-implies-cross-codegree",
                      not is_codegree(f, n) or is_cross_codegree(f, n), f, label)
    # Koszul homology against the product/coproduct formulas on random cubes.
    rng = random.Random(f"oracle-cubes:{seed}")
    cube_count = 0
    while cube_count < max(100, trials):
        lat = lat2 if rng.random() < 0.5 else lat3
        f = random_module(lat, field, f"cube-module:{seed}:{cube_count}")
        cube = rng.choice(bicartesian_cubes_cached(lat, rng.choice([1, 2, 3])))
        _koszul_check(report, f, cube, f"{seed}:{cube_count}")
        cube_count += 1


def _suite_pipelines(report: SuiteReport, field: FieldSpec, seed: int,
                     trials: int) -> None:
    for i in range(trials):
        label = f"image:{seed}:{i}"
        img = generators.random_image(random.Random(label), 5, 5, channels=2, max_value=2)
        h1 = generators.image_bifiltration_homology(img, 1, field)
        report.record("image-h1-cross-degree-le-1", min_cross_degree(h1) <= 1, h1, label)
        report.record("image-h1-pdim-le-1", pdim(h1) <= 1, h1, label)
        report.record("image-sublevel-intersections",
                      generators.sublevel_intersection_check(img), h1, label)
    for i in range(trials):
        label = f"rips:{seed}:{i}"
        space = generators.random_metric_space(random.Random(label), 6)
        h0 = generators.sublevel_rips_h0(space, field)
        report.record("rips-h0-cross-codegree-le-1", min_cross_codegree(h0) <= 1, h0, label)
        # Grid elements (a, r) are in lexicographic order: index a * R + r.
        r_count = len(space.r_levels)
        surjective = all(
            rank(h0.transport_i(u, v)) == h0.transport_i(u, v).nrows
            for (u, v) in h0.lattice.covers_i() if u // r_count == v // r_count)
        report.record("rips-h0-r-maps-surjective", surjective, h0, label)


_SUITES = {
    "table1": (_suite_table1, 1),
    "nonexample": (_suite_nonexample, 1),
    "gamma1-colimit": (_suite_gamma1_colimit, 1),
    "theorems-2param": (lambda *a: _theorem_suite(*a, [2, 2], include_table1=True), 200),
    "theorems-3param": (lambda *a: _theorem_suite(*a, [1, 1, 1], include_table1=False), 100),
    "oracle": (_suite_oracle, 12),
    "pipelines": (_suite_pipelines, 20),
}


def suite_names() -> list[str]:
    return list(_SUITES) + ["all"]


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              field_p: int = 2) -> SuiteReport:
    """Run a registered suite; deterministic given (name, seed, trials).
    Negative trials raise ValueError; zero trials check nothing and pass."""
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    field = FieldSpec(field_p)
    if name == "all":
        t0 = time.perf_counter()
        combined = SuiteReport("all", seed, trials)
        for sub in _SUITES:
            sub_report = run_suite(sub, seed=seed, trials=trials, field_p=field_p)
            for prop, stat in sub_report.properties.items():
                combined.properties[f"{sub}/{prop}"] = stat
            for key, val in sub_report.observations.items():
                combined.observations[f"{sub}/{key}"] = val
        combined.wall_time_s = time.perf_counter() - t0
        return combined
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    fn, default_trials = _SUITES[name]
    if trials is None:
        trials = default_trials
    report = SuiteReport(name, seed, trials)
    t0 = time.perf_counter()
    if trials > 0:
        fn(report, field, seed, trials)
    report.wall_time_s = time.perf_counter() - t0
    return report
