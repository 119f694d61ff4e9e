"""Randomized and exhaustive theorem suites.

Each suite exercises a family of structural facts (approximation
theorems, pdim equivalences, oracle agreement, pipeline bounds) over a
corpus of fixed modules plus seeded random ones, and aggregates results
in a machine-readable report.  Every failure entry carries a replayable
seed and the offending module serialized as PMOD.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field as dc_field

from . import generators
from .calculus import (PREDICATES, find_failing_cube, gamma_lower,
                       gamma_lower_map, gamma_upper, gamma_upper_map, is_codegree,
                       is_cross_codegree, is_cross_degree, is_degree, koszul,
                       min_codegree, min_cross_codegree, min_cross_degree,
                       min_degree, t_lower, t_upper, tcofib, tfib)
from .lattice import Lattice, bicartesian_cubes_cached
from .linalg import (FieldSpec, Matrix, NoFactorization, factor_through,
                     hstack, rank, solve_left, vstack)
from .linalg import direct_sum as block_diagonal
from .pmodule import (NatTrans, PersistenceModule, cokernel_of, direct_sum,
                      interval_module, is_iso, opposite_module, random_module,
                      random_hom, restrict_along_cube, sum_inclusion,
                      sum_projection)
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
    trials: int
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


def unit_square() -> Lattice:
    return Lattice.grid([1, 1])


def table1_modules(field: FieldSpec) -> list[tuple[str, PersistenceModule,
                                                   tuple[int, int, int, int]]]:
    lat = unit_square()
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
    lat = unit_square()
    f = interval_module(lat, field, ("1,1",))
    g = interval_module(lat, field, ("0,0", "1,0", "0,1", "1,1"))
    comps = [Matrix(field, g.dim_i(i), f.dim_i(i), [[1]] if f.dim_i(i) else None)
             for i in range(lat.n)]
    alpha = NatTrans(f, g, comps).validate()
    return f, g, alpha


# -- shared checks ----------------------------------------------------------------


def _gamma_battery(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    """Defining properties of the image approximations for n in {0,1,2}:
    each gamma module satisfies its cross predicate, and whenever the
    input already satisfies it the canonical map is an isomorphism."""
    for n in (0, 1, 2):
        gl = gamma_lower(f, n)
        report.record("gamma-lower-is-cross-codegree", is_cross_codegree(gl.module, n), f, seed)
        gu = gamma_upper(f, n)
        report.record("gamma-upper-is-cross-degree", is_cross_degree(gu.module, n), f, seed)
        if is_cross_codegree(f, n):
            report.record("gamma-lower-iso-on-cross-codegree", is_iso(gl.canonical), f, seed)
        if is_cross_degree(f, n):
            report.record("gamma-upper-iso-on-cross-degree", is_iso(gu.canonical), f, seed)


def _tower_checks(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    lat = f.lattice
    for n, m in ((0, 1), (1, 2)):
        gn, gm = gamma_lower(f, n), gamma_lower(f, m)
        try:
            comps = [factor_through(gn.canonical.component_i(i),
                                    gm.canonical.component_i(i))
                     for i in range(lat.n)]
            step = NatTrans(gn.module, gm.module, comps)
            ok = step.is_pointwise_mono() and step.is_natural()
        except NoFactorization:
            ok = False
        report.record("tower-mono-lower", ok, f, seed)
        un, um = gamma_upper(f, n), gamma_upper(f, m)
        try:
            comps = [solve_left(um.canonical.component_i(i),
                                un.canonical.component_i(i))
                     for i in range(lat.n)]
            step = NatTrans(um.module, un.module, comps)
            ok = step.is_pointwise_epi() and step.is_natural()
        except NoFactorization:
            ok = False
        report.record("tower-epi-upper", ok, f, seed)


def _idempotence_checks(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    for n in (0, 1):
        gl = gamma_lower(f, n)
        report.record("idempotent-comonad",
                      is_iso(gamma_lower(gl.module, n).canonical), f, seed)
        gu = gamma_upper(f, n)
        report.record("idempotent-monad",
                      is_iso(gamma_upper(gu.module, n).canonical), f, seed)


def _convergence_check(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    d = f.lattice.poset_dimension()
    ok = is_iso(t_lower(f, d).canonical) and is_iso(t_upper(f, d).canonical)
    report.record("convergence-at-dimension", ok, f, seed)


def _direct_sum_checks(report: SuiteReport, f: PersistenceModule,
                       g: PersistenceModule, s: PersistenceModule,
                       seed: str) -> None:
    lat = f.lattice
    for n in (0, 1):
        gs, gf, gg = gamma_lower(s, n), gamma_lower(f, n), gamma_lower(g, n)
        ok = all(gs.module.dim_i(i) == gf.module.dim_i(i) + gg.module.dim_i(i)
                 for i in range(lat.n))
        if ok:
            # Same submodule of f + g: the block-diagonal monos must span
            # the same column space as the sum's mono, both ways.
            for i in range(lat.n):
                blk = block_diagonal([gf.canonical.component_i(i),
                                      gg.canonical.component_i(i)])
                try:
                    factor_through(blk, gs.canonical.component_i(i))
                    factor_through(gs.canonical.component_i(i), blk)
                except NoFactorization:
                    ok = False
                    break
        report.record("direct-sum-lower", ok, s, seed)
        us, uf, ug = gamma_upper(s, n), gamma_upper(f, n), gamma_upper(g, n)
        ok = all(us.module.dim_i(i) == uf.module.dim_i(i) + ug.module.dim_i(i)
                 for i in range(lat.n))
        if ok:
            # The comparison map against the blocked epis must be an iso.
            try:
                for i in range(lat.n):
                    df = f.dim_i(i)
                    ds = s.dim_i(i)
                    uf_c = uf.canonical.component_i(i)
                    ug_c = ug.canonical.component_i(i)
                    blocked = vstack([
                        hstack([uf_c, Matrix.zeros(f.field, uf_c.nrows, ds - df)]),
                        hstack([Matrix.zeros(f.field, ug_c.nrows, df), ug_c]),
                    ])
                    cmp_map = solve_left(us.canonical.component_i(i), blocked)
                    if cmp_map.nrows != cmp_map.ncols or rank(cmp_map) != cmp_map.nrows:
                        ok = False
                        break
            except NoFactorization:
                ok = False
        report.record("direct-sum-upper", ok, s, seed)


def _mono_epi_checks(report: SuiteReport, f: PersistenceModule,
                     g: PersistenceModule, s: PersistenceModule,
                     seed: str) -> None:
    incl = sum_inclusion(f, g, 0, total=s)
    proj = sum_projection(f, g, 1, total=s)
    for n in (1,):
        gf, gs, gg = gamma_lower(f, n), gamma_lower(s, n), gamma_lower(g, n)
        try:
            lowered = gamma_lower_map(incl, gf, gs)
            ok = lowered.is_pointwise_mono() and lowered.is_natural()
        except NoFactorization:
            ok = False
        report.record("preserves-mono-lower", ok, f, seed)
        try:
            lowered = gamma_lower_map(proj, gs, gg)
            ok = lowered.is_pointwise_epi() and lowered.is_natural()
        except NoFactorization:
            ok = False
        report.record("preserves-epi-lower", ok, f, seed)
        uf, us, ug = gamma_upper(f, n), gamma_upper(s, n), gamma_upper(g, n)
        try:
            raised = gamma_upper_map(incl, uf, us)
            ok = raised.is_pointwise_mono() and raised.is_natural()
        except NoFactorization:
            ok = False
        report.record("preserves-mono-upper", ok, f, seed)
        try:
            raised = gamma_upper_map(proj, us, ug)
            ok = raised.is_pointwise_epi() and raised.is_natural()
        except NoFactorization:
            ok = False
        report.record("preserves-epi-upper", ok, f, seed)


def _distributive_law_check(report: SuiteReport, f: PersistenceModule,
                            m: int, n: int, seed: str) -> None:
    """Both legs of the canonical comparison
    gamma_lower gamma_upper F <- gamma_lower gamma_upper gamma_lower F -> gamma_upper gamma_lower F
    must be pointwise isomorphisms."""
    lat = f.lattice
    gl = gamma_lower(f, m)                       # G1 = Gm F, mono e: G1 -> F
    g2 = gamma_upper(gl.module, n)               # G2 = G^n Gm F, epi G1 -> G2
    c = gamma_lower(g2.module, m)                # C = Gm G^n Gm F, mono C -> G2
    leg2_ok = is_iso(c.canonical)
    h1 = gamma_upper(f, n)                       # H1 = G^n F, epi F -> H1
    a = gamma_lower(h1.module, m)                # A = Gm G^n F, mono A -> H1
    try:
        lifted = gamma_upper_map(gl.canonical, g2, h1)   # G^n of the mono
        leg1 = gamma_lower_map(lifted, c, a)             # Gm of that map
        leg1_ok = is_iso(leg1) and leg1.is_natural()
    except NoFactorization:
        leg1_ok = False
    report.record("distributive-law", leg1_ok and leg2_ok, f, seed,
                  note=f"checked (m,n)=({m},{n}) legs of the canonical comparison")


def _universal_property_checks(report: SuiteReport, f: PersistenceModule,
                               h: PersistenceModule, rng: random.Random,
                               seed: str) -> None:
    n = 1
    lat = f.lattice
    g = gamma_lower(h, n).module              # cross-codegree n by theorem A
    alpha = random_hom(g, f, rng)
    gl = gamma_lower(f, n)
    try:
        comps = [factor_through(alpha.component_i(i), gl.canonical.component_i(i))
                 for i in range(lat.n)]
        lift = NatTrans(g, gl.module, comps)
        recomposed = gl.canonical.compose(lift)
        ok = lift.is_natural() and all(
            recomposed.component_i(i) == alpha.component_i(i)
            for i in range(lat.n))
        # Uniqueness: the canonical map is pointwise mono, so any two
        # factorizations agree.
        ok = ok and gl.canonical.is_pointwise_mono()
    except NoFactorization:
        ok = False
    report.record("universal-property-lower", ok, f, seed)
    gup = gamma_upper(h, n).module            # cross-degree n by theorem A
    beta = random_hom(f, gup, rng)
    gu = gamma_upper(f, n)
    try:
        comps = [solve_left(gu.canonical.component_i(i), beta.component_i(i))
                 for i in range(lat.n)]
        lift = NatTrans(gu.module, gup, comps)
        recomposed = lift.compose(gu.canonical)
        ok = lift.is_natural() and all(
            recomposed.component_i(i) == beta.component_i(i)
            for i in range(lat.n))
        ok = ok and gu.canonical.is_pointwise_epi()
    except NoFactorization:
        ok = False
    report.record("universal-property-upper", ok, f, seed)


def _approximation_preserves_cross_predicates(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    for k, n in ((1, 0), (2, 1), (0, 1)):
        if is_cross_codegree(f, n):
            report.record("tk-preserves-cross-codegree",
                          approximation_preserves_cross_predicate(f, k, n, side="lower"), f, seed)
        if is_cross_degree(f, n):
            report.record("tk-preserves-cross-degree",
                          approximation_preserves_cross_predicate(f, k, n, side="upper"), f, seed)


def approximation_preserves_cross_predicate(f: PersistenceModule, k: int, n: int,
                    side: str = "lower") -> bool:
    """If f is cross-(co)degree n, so is its level-k Kan approximation."""
    if side == "lower":
        if not is_cross_codegree(f, n):
            return True
        return is_cross_codegree(t_lower(f, k).module, n)
    if side == "upper":
        if not is_cross_degree(f, n):
            return True
        return is_cross_degree(t_upper(f, k).module, n)
    raise ValueError(f"unknown side {side!r}")


def _pdim_checks(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    d = f.lattice.poset_dimension()
    if d >= 1:
        r1 = check_pdim_theorem_1(f, strict=False)
        report.record("pdim-theorem-1", r1.consistent, f, seed)
        r1d = check_pdim_theorem_1(opposite_module(f), strict=False)
        report.record("pdim-theorem-1-dual", r1d.consistent, f, seed,
                      note="injective-dimension analogue via the opposite lattice")
    if d >= 2:
        r2 = check_pdim_theorem_2(f, strict=False)
        report.record("pdim-theorem-2", r2.consistent, f, seed)
        r2d = check_pdim_theorem_2(opposite_module(f), strict=False)
        report.record("pdim-theorem-2-dual", r2d.consistent, f, seed)


def _restriction_and_koszul_checks(report: SuiteReport, f: PersistenceModule,
                                   rng: random.Random, seed: str) -> None:
    from .lattice import parent_cube
    lat = f.lattice
    pd = pdim(f)
    cubes = [parent_cube(lat, el) for el in lat.elements]
    pool = bicartesian_cubes_cached(lat, 2)
    cubes.extend(rng.choice(pool) for _ in range(3))
    for cube in cubes:
        vc = restrict_along_cube(f, cube)
        kx = koszul(vc)
        report.record("koszul-total-fiber",
                      kx.homology(cube.arity) == tfib(vc), f, seed)
        report.record("koszul-total-cofiber",
                      kx.homology(0) == tcofib(vc), f, seed)
        report.record("restriction-pdim-bound",
                      pdim(vc) <= pd, f, seed)


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


def _oracle_agreement(report: SuiteReport, f: PersistenceModule, seed: str) -> None:
    for n in (0, 1, 2):
        for kind, holds in PREDICATES.items():
            report.record(f"oracle-{kind.replace('_', '-')}",
                          holds(f, n) == (find_failing_cube(f, n, kind) is None),
                          f, seed)
        report.record("degree-implies-cross-degree",
                      (not is_degree(f, n)) or is_cross_degree(f, n), f, seed)
        report.record("codegree-implies-cross-codegree",
                      (not is_codegree(f, n)) or is_cross_codegree(f, n), f, seed)


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
    lowered = gamma_lower_map(alpha, gl_f, gl_g)
    coker_lowered, _ = cokernel_of(lowered)
    coker_alpha, _ = cokernel_of(alpha)
    gl_coker = gamma_lower(coker_alpha, 1)
    dims_left = [coker_lowered.dim_i(i) for i in range(lat.n)]
    dims_right = [gl_coker.module.dim_i(i) for i in range(lat.n)]
    report.record("gamma1-coker-of-gamma-has-G-dims",
                  dims_left == [g.dim_i(i) for i in range(lat.n)], g, "example")
    report.record("gamma1-gamma-of-coker-is-hook",
                  dims_right == [1 if lat.element(i) != "1,1" else 0
                                 for i in range(lat.n)], coker_alpha, "example")
    report.record("gamma1-noncommutation-witnessed",
                  any(a != b for a, b in zip(dims_left, dims_right)), g, "example")
    report.observe("gamma1-dims", coker_of_gamma=dims_left, gamma_of_coker=dims_right)


def _theorem_suite(report: SuiteReport, field: FieldSpec, seed: int, trials: int,
                   lattice: Lattice, include_table1: bool) -> None:
    corpus: list[tuple[str, PersistenceModule]] = []
    if include_table1:
        corpus.extend((f"table1:{name}", m) for name, m, _ in table1_modules(field))
        corpus.append(("nonexample", nonexample_module(field)))
    for i in range(trials):
        label = f"{seed}:{i}"
        corpus.append((f"random:{label}", random_module(lattice, field, label)))
    for label, f in corpus:
        rng = random.Random(f"battery:{label}")
        _gamma_battery(report, f, label)
        _idempotence_checks(report, f, label)
        _tower_checks(report, f, label)
        _convergence_check(report, f, label)
        g = random_module(f.lattice, field, f"companion:{label}")
        s = direct_sum(f, g)
        _direct_sum_checks(report, f, g, s, label)
        _mono_epi_checks(report, f, g, s, label)
        for m, n in ((1, 0), (0, 1)):
            _distributive_law_check(report, f, m, n, label)
        h = random_module(f.lattice, field, f"source:{label}")
        _universal_property_checks(report, f, h, rng, label)
        _approximation_preserves_cross_predicates(report, f, label)
        _pdim_checks(report, f, label)
        _restriction_and_koszul_checks(report, f, rng, label)
        _open_question_observation(report, f)


def _suite_theorems_2param(report: SuiteReport, field: FieldSpec, seed: int,
                           trials: int) -> None:
    _theorem_suite(report, field, seed, trials, Lattice.grid([2, 2]),
                   include_table1=True)


def _suite_theorems_3param(report: SuiteReport, field: FieldSpec, seed: int,
                           trials: int) -> None:
    _theorem_suite(report, field, seed, trials, Lattice.grid([1, 1, 1]),
                   include_table1=False)


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
    for label, f in corpus:
        _oracle_agreement(report, f, label)
    # Koszul homology against the product/coproduct formulas on random cubes.
    rng = random.Random(f"oracle-cubes:{seed}")
    cube_count = 0
    while cube_count < max(100, trials):
        lat = lat2 if rng.random() < 0.5 else lat3
        f = random_module(lat, field, f"cube-module:{seed}:{cube_count}")
        arity = rng.choice([1, 2, 3])
        pool = bicartesian_cubes_cached(lat, arity)
        cube = rng.choice(pool)
        vc = restrict_along_cube(f, cube)
        kx = koszul(vc)
        report.record("koszul-total-fiber", kx.homology(arity) == tfib(vc),
                      f, f"{seed}:{cube_count}")
        report.record("koszul-total-cofiber", kx.homology(0) == tcofib(vc),
                      f, f"{seed}:{cube_count}")
        cube_count += 1


def _suite_pipelines(report: SuiteReport, field: FieldSpec, seed: int,
                     trials: int) -> None:
    for i in range(trials):
        rng = random.Random(f"image:{seed}:{i}")
        img = generators.random_image(rng, 5, 5, channels=2, max_value=2)
        h1 = generators.image_bifiltration_homology(img, 1, field)
        report.record("image-h1-cross-degree-le-1",
                      min_cross_degree(h1) <= 1, h1, f"image:{seed}:{i}")
        report.record("image-h1-pdim-le-1", pdim(h1) <= 1, h1, f"image:{seed}:{i}")
        report.record("image-sublevel-intersections",
                      generators.sublevel_intersection_check(img), h1,
                      f"image:{seed}:{i}")
    for i in range(trials):
        rng = random.Random(f"rips:{seed}:{i}")
        space = generators.random_metric_space(rng, 6)
        h0 = generators.sublevel_rips_h0(space, field)
        report.record("rips-h0-cross-codegree-le-1",
                      min_cross_codegree(h0) <= 1, h0, f"rips:{seed}:{i}")
        lat = h0.lattice
        surjective = all(
            rank(h0.cover_matrix_i(u, v)) == h0.cover_matrix_i(u, v).nrows
            for (u, v) in lat.covers_i()
            if lat.element(u).split(",")[0] == lat.element(v).split(",")[0])
        report.record("rips-h0-r-maps-surjective", surjective, h0,
                      f"rips:{seed}:{i}")


_SUITES = {
    "table1": (_suite_table1, 1),
    "nonexample": (_suite_nonexample, 1),
    "gamma1-colimit": (_suite_gamma1_colimit, 1),
    "theorems-2param": (_suite_theorems_2param, 200),
    "theorems-3param": (_suite_theorems_3param, 100),
    "oracle": (_suite_oracle, 12),
    "pipelines": (_suite_pipelines, 20),
}


def suite_names() -> list[str]:
    return list(_SUITES) + ["all"]


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              field_p: int = 2) -> SuiteReport:
    """Run a registered suite; deterministic given (name, seed, trials)."""
    field = FieldSpec(field_p)
    if name == "all":
        t0 = time.perf_counter()
        combined = SuiteReport("all", seed, trials or 0)
        for sub in _SUITES:
            sub_report = run_suite(sub, seed=seed, trials=trials)
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
