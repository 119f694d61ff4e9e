"""Exact functor calculus on multipersistence modules over finite
distributive lattices: approximation functors, cross effects, total
(co)fibers, Koszul homology, Betti diagrams and projective dimension,
with theorem suites and generators for image and Rips bifiltrations."""

from .linalg import FieldSpec, GF2, Matrix, NoFactorization
from .lattice import (Lattice, NoBottom, NotDistributive, NotLattice,
                      enumerate_bicartesian_cubes, parent_cube)
from .pmodule import (LatticeMismatch, NatTrans, NonCommutingSquare,
                      NotComparable, NotConnected, NotConvex, NotNatural,
                      PersistenceModule, cokernel_of, direct_sum, free_module,
                      interval_module, is_iso, opposite_module, random_module)
from .calculus import (ApproxResult, NotAComplex, cr_lower, cr_upper,
                       find_failing_cube, gamma_lower, gamma_upper,
                       is_codegree, is_cross_codegree, is_cross_degree,
                       is_degree, koszul, min_codegree, min_cross_codegree,
                       min_cross_degree, min_degree, t_lower, t_upper, tcofib,
                       tfib)
from .resolution import (BettiDiagram, EquivalenceViolated, PdimReport, betti,
                         check_pdim_theorem_1, check_pdim_theorem_2, pdim)
from .generators import (CubicalComplex, ImageGrid, MetricFunctionSpace,
                         UnsupportedDimension, image_bifiltration_homology,
                         sublevel_rips_h0)
from .pmod_io import ParseError, load_module, print_pmod
from .verify import (SuiteReport, UnknownSuite, gamma1_example, approximation_preserves_cross_predicate,
                     nonexample_module, run_suite, suite_names, table1_modules)

__version__ = "0.1.0"
