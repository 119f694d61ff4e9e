"""Command-line front end.

Subcommands: analyze (degree statistics, Betti diagram, pdim theorem
conditions), approx (emit an approximation as PMOD), gen (produce PMOD
from constructors or data files), verify (run a theorem suite).

Exit codes: 0 success, 1 assertion/analysis failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .calculus import (NotAComplex, cr_lower, cr_upper, gamma_lower,
                       gamma_upper, min_codegree, min_cross_codegree,
                       min_cross_degree, min_degree, t_lower, t_upper)
from .generators import (EulerCountMismatch, ImageGrid, MetricFunctionSpace,
                         UnsupportedDimension, image_bifiltration_homology,
                         sublevel_rips_h0)
from .lattice import Lattice, NoBottom, NotDistributive, NotLattice
from .linalg import FieldSpec, NoFactorization, rank
from .pmodule import (NonCommutingSquare, NotConnected, NotConvex, NotNatural,
                      PersistenceModule, interval_module, free_module,
                      random_module)
from .pmod_io import MAX_TOTAL_DIM, ParseError, load_module, print_pmod
from .resolution import (EquivalenceViolated, betti, check_pdim_theorem_1,
                         check_pdim_theorem_2, pdim)
from .verify import UnknownSuite, run_suite

USAGE_ERROR = 2
ANALYSIS_ERROR = 1

#: Cap on elements * (max_gens + max_rels)**3 for ``gen random``, checked
#: before anything is built: each element eliminates and multiplies blocks
#: of at most max_gens + max_rels rows and columns.
MAX_RANDOM_COST = 1 << 23

#: Internal failures an analysis can raise; reported as exit 1, never as a
#: traceback.
ANALYSIS_FAILURES = (NoFactorization, NotAComplex, EquivalenceViolated,
                     NonCommutingSquare, NotNatural, EulerCountMismatch)


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load(path: str, field_p: int | None) -> PersistenceModule:
    try:
        return load_module(_read_file(path), field_p)
    except (ParseError, ValueError, NotLattice, NotDistributive, NoBottom,
            NonCommutingSquare) as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    module = _load(args.file, args.field)
    lat = module.lattice
    stats = {
        "degree": min_degree(module),
        "cross_degree": min_cross_degree(module),
        "codegree": min_codegree(module),
        "cross_codegree": min_cross_codegree(module),
    }
    diagram = betti(module)
    pd = pdim(module)
    reports = []
    if lat.poset_dimension() >= 1:
        reports.append(check_pdim_theorem_1(module))
    if lat.poset_dimension() >= 2:
        reports.append(check_pdim_theorem_2(module))
    if args.json:
        payload = {
            "field": module.field.p,
            "elements": lat.n,
            "lattice_dimension": lat.poset_dimension(),
            "total_dim": module.total_dim(),
            **stats,
            "pdim": pd,
            "pdim_zero_module": module.is_zero(),
            "betti": [[el, i, v] for el, i, v in diagram.triples()],
            "pdim_theorems": [
                {"theorem": r.theorem, "n": r.n, "conditions": list(r.conditions),
                 "consistent": r.consistent, "hypothesis_ok": r.hypothesis_ok}
                for r in reports
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"lattice: {lat.n} elements, dimension {lat.poset_dimension()}")
        print(f"module: total dim {module.total_dim()} over F_{module.field.p}")
        print(f"degree {stats['degree']} cross-degree {stats['cross_degree']} "
              f"codegree {stats['codegree']} cross-codegree {stats['cross_codegree']}")
        if module.is_zero():
            print("pdim -1 (zero module; treated as <= k for every k)")
        else:
            print(f"pdim {pd}")
        print("betti:")
        triples = diagram.triples()
        if triples:
            for el, i, v in triples:
                print(f"  {el} i={i} {v}")
        else:
            print("  (empty)")
        for r in reports:
            print(r.describe())
    return 0


_APPROX_OPS = {
    "t_lower": t_lower,
    "t_upper": t_upper,
    "gamma_lower": gamma_lower,
    "gamma_upper": gamma_upper,
    "cr_lower": cr_lower,
    "cr_upper": cr_upper,
}


def cmd_approx(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise CliError("--n must be >= 0")
    result = _APPROX_OPS[args.op](_load(args.file, args.field), args.n)
    sys.stdout.write(print_pmod(result.module))
    for i, el in enumerate(result.module.lattice.elements):
        print(f"# canonical-map-rank {el} {rank(result.canonical.component_i(i))}")
    return 0


def _parse_support(text: str) -> list[str]:
    items = [tok for tok in text.replace(";", " ").split() if tok]
    if not items:
        raise CliError("empty support list")
    return items


def _parse_generators(text: str) -> dict[str, int]:
    gens: dict[str, int] = {}
    for tok in text.replace(";", " ").split():
        el, _, mult = tok.partition(":")
        count = int(mult) if mult else 1
        gens[el] = gens.get(el, 0) + count
    if not gens:
        raise CliError("empty generator list")
    return gens


def _check_total_dim(total: int) -> None:
    if total > MAX_TOTAL_DIM:  # its PMOD would not load
        raise CliError(f"generated module has total dimension {total}, more than "
                       f"the cap of {MAX_TOTAL_DIM} a PMOD file may declare")


def cmd_gen(args: argparse.Namespace) -> int:
    field = FieldSpec(args.field)
    if args.kind in ("interval", "free"):
        lat = Lattice.grid(args.grid)
        try:
            if args.kind == "interval":
                module = interval_module(lat, field, _parse_support(args.support))
            else:  # bounded before it is built: a generator adds 1 across its up-set
                gens = _parse_generators(args.gens)
                _check_total_dim(sum(k * lat.upset_mask(lat.index(el)).bit_count()
                                     for el, k in gens.items()))
                module = free_module(lat, field, gens)
        except (KeyError, NotConvex, NotConnected) as exc:  # bad support or generators
            raise CliError(exc.args[0]) from exc
    elif args.kind == "random":
        lat = Lattice.grid(args.grid)
        for name, count in (("--max-gens", args.max_gens), ("--max-rels", args.max_rels)):
            if count < 0:
                raise CliError(f"{name} must be >= 0, got {count}")
        if (cost := lat.n * (args.max_gens + args.max_rels) ** 3) > MAX_RANDOM_COST:
            raise CliError(f"random module cost {cost} (elements x (max-gens + "
                           f"max-rels)^3) is more than the cap of {MAX_RANDOM_COST}")
        module = random_module(lat, field, args.seed,
                               max_gens=args.max_gens, max_rels=args.max_rels)
    elif args.kind == "image":
        if args.file is None:
            raise CliError("gen image needs --file")
        img = ImageGrid.parse(_read_file(args.file))
        try:
            module = image_bifiltration_homology(img, args.degree, field)
        except UnsupportedDimension as exc:
            raise CliError(str(exc)) from exc
    elif args.kind == "rips":
        if args.file is None:
            raise CliError("gen rips needs --file")
        space = MetricFunctionSpace.parse(_read_file(args.file))
        module = sublevel_rips_h0(space, field)
    else:  # pragma: no cover
        raise CliError(f"unknown generator {args.kind}")
    _check_total_dim(module.total_dim())
    sys.stdout.write(print_pmod(module))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = run_suite(args.suite, seed=args.seed, trials=args.trials,
                           field_p=args.field)
    except UnknownSuite as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        print(report.to_json())
    else:
        trials = "default" if report.trials is None else report.trials
        print(f"suite {report.suite}: seed={report.seed} trials={trials} "
              f"wall={report.wall_time_s:.2f}s")
        for name, stat in sorted(report.properties.items()):
            line = f"  {name}: pass={stat.passed} fail={stat.failed}"
            if stat.failed and stat.counterexample_seed:
                line += f" (first failure seed: {stat.counterexample_seed})"
            print(line)
        print("OK" if report.ok else "FAILED")
    return 0 if report.ok else ANALYSIS_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    is, so every ``main`` call shares it.  ``command`` names the subcommand,
    whose handler is ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="pmodcalc",
        description="Exact functor calculus on multipersistence modules "
                    "over finite distributive lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="degree statistics, Betti diagram, pdim")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--field", type=int, default=None,
                           help="override the field modulus from the file")
    p_analyze.add_argument("--json", action="store_true")

    p_approx = sub.add_parser("approx", help="emit an approximation as PMOD")
    p_approx.add_argument("file")
    p_approx.add_argument("--op", required=True,
                          choices=list(_APPROX_OPS))
    p_approx.add_argument("--n", type=int, required=True)
    p_approx.add_argument("--field", type=int, default=None)

    p_gen = sub.add_parser("gen", help="generate a module as PMOD")
    p_gen.add_argument("kind", choices=["interval", "free", "random", "image", "rips"])
    p_gen.add_argument("--grid", type=int, nargs="+", default=(1, 1),
                       help="chain bounds m1 m2 ... for {0..m1} x {0..m2} x ...")
    p_gen.add_argument("--support", default="",
                       help="interval support, e.g. '0,0 1,0'")
    p_gen.add_argument("--gens", default="",
                       help="free generators, e.g. '0,0:2 1,1'")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-gens", type=int, default=3)
    p_gen.add_argument("--max-rels", type=int, default=2)
    p_gen.add_argument("--file", default=None,
                       help="input data file for image/rips kinds")
    p_gen.add_argument("--degree", type=int, default=1,
                       help="homology degree for the image pipeline (0 or 1)")
    p_gen.add_argument("--field", type=int, default=2)

    p_verify = sub.add_parser("verify", help="run a theorem suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--field", type=int, default=2)
    p_verify.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        # Looked up at each call: the shared parser holds no handler.
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ANALYSIS_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ANALYSIS_ERROR


if __name__ == "__main__":
    sys.exit(main())
