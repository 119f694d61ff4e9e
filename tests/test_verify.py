import json

import pytest

from pmodcalc import Lattice, interval_module, random_module, verify
from pmodcalc.calculus import is_cross_codegree, is_cross_degree, t_upper
from pmodcalc.pmod_io import load_module
from pmodcalc.pmodule import cokernel_of, opposite_module
from pmodcalc.verify import (SuiteReport, UnknownSuite, gamma1_example,
                             approximation_preserves_cross_predicate,
                             nonexample_module, run_suite, suite_names,
                             TABLE1_ROWS)
from oracles import cover_matrix


class TestCorpus:
    def test_table1_has_all_intervals(self, gf2):
        # Every order-convex connected subset of {0,1}^2 appears exactly once.
        assert len(TABLE1_ROWS) == 11
        supports = {frozenset(s) for _, s, _ in TABLE1_ROWS}
        assert len(supports) == 11

    def test_nonexample_matrices(self, gf2):
        f = nonexample_module(gf2)
        assert cover_matrix(f, "0,1,1", "1,1,1").to_lists() == [[0], [1]]
        assert cover_matrix(f, "1,0,1", "1,1,1").to_lists() == [[1], [0]]
        assert cover_matrix(f, "1,1,0", "1,1,1").to_lists() == [[1], [1]]

    def test_gamma1_example_pieces(self, gf2):
        f, g, alpha = gamma1_example(gf2)
        assert f.dim("1,1") == 1 and f.total_dim() == 1
        assert g.total_dim() == 4
        alpha.validate()
        coker, _ = cokernel_of(alpha)
        assert coker.dims_by_element() == {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 0}


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("does-not-exist")

    def test_zero_trials_empty_passing_report(self):
        report = run_suite("theorems-2param", seed=1, trials=0)
        assert report.ok
        assert report.properties == {}

    def test_deterministic_given_seed(self):
        a = run_suite("theorems-2param", seed=11, trials=3)
        b = run_suite("theorems-2param", seed=11, trials=3)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert da == db

    def test_table1_suite(self):
        report = run_suite("table1")
        assert report.ok
        stat = report.properties["table1-values"]
        assert stat.passed == 11 and stat.failed == 0

    def test_seed_changes_corpus(self):
        a = run_suite("theorems-3param", seed=1, trials=2)
        b = run_suite("theorems-3param", seed=2, trials=2)
        assert a.ok and b.ok

    def test_json_roundtrip(self):
        report = run_suite("gamma1-colimit")
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["suite"] == "gamma1-colimit"
        for stat in payload["properties"].values():
            assert set(stat) == {"pass", "fail", "counterexample",
                                 "counterexample_seed", "note"}

    def test_all_suites_registered(self):
        names = suite_names()
        for expected in ("table1", "nonexample", "gamma1-colimit",
                         "theorems-2param", "theorems-3param", "oracle",
                         "pipelines", "all"):
            assert expected in names

    def test_all_suite_aggregates_with_prefixes(self):
        report = run_suite("all", seed=0, trials=1)
        assert report.ok
        assert any(name.startswith("table1/") for name in report.properties)
        assert any(name.startswith("pipelines/") for name in report.properties)

    def test_failure_carries_counterexample(self, gf2):
        report = SuiteReport("adhoc", 0, 1)
        f = interval_module(Lattice.grid([1, 1]), gf2, ("0,0",))
        report.record("always-fails", False, f, "seed-x")
        stat = report.properties["always-fails"]
        assert stat.failed == 1
        assert "pmod 1" in stat.counterexample
        assert stat.counterexample_seed == "seed-x"
        assert not report.ok

    def test_all_runs_every_suite_over_the_given_field(self, monkeypatch):
        seen = set()
        real = verify.random_module

        def spy(lattice, field, *args, **kwargs):
            seen.add(field.p)
            return real(lattice, field, *args, **kwargs)

        monkeypatch.setattr(verify, "random_module", spy)
        report = run_suite("all", seed=0, trials=1, field_p=3)
        assert report.ok
        assert seen == {3}


#: The theorem suites at trials 4, one column per run below: the pass
#: count of each property; every fail count is 0, and 0 passes means the
#: property is not recorded.  The upper-side properties come from the
#: lower-side battery run on the opposite module, so one that this run
#: stops recording, or records under another name, fails here.
PINNED_RUNS = [(suite, seed, p) for suite in ("theorems-2param", "theorems-3param")
               for seed in (0, 3) for p in (2, 3)]
PINNED_PASSES = {
    "convergence-at-dimension":          (16, 16, 16, 16, 4, 4, 4, 4),
    "direct-sum-lower":                  (32, 32, 32, 32, 8, 8, 8, 8),
    "direct-sum-upper":                  (32, 32, 32, 32, 8, 8, 8, 8),
    "distributive-law":                  (32, 32, 32, 32, 8, 8, 8, 8),
    "gamma-lower-is-cross-codegree":     (48, 48, 48, 48, 12, 12, 12, 12),
    "gamma-lower-iso-on-cross-codegree": (31, 31, 35, 35, 1, 1, 8, 8),
    "gamma-upper-is-cross-degree":       (48, 48, 48, 48, 12, 12, 12, 12),
    "gamma-upper-iso-on-cross-degree":   (39, 39, 40, 40, 12, 12, 11, 11),
    "idempotent-comonad":                (32, 32, 32, 32, 8, 8, 8, 8),
    "idempotent-monad":                  (32, 32, 32, 32, 8, 8, 8, 8),
    "koszul-total-cofiber":              (136, 136, 136, 136, 44, 44, 44, 44),
    "koszul-total-fiber":                (136, 136, 136, 136, 44, 44, 44, 44),
    "pdim-theorem-1":                    (16, 16, 16, 16, 4, 4, 4, 4),
    "pdim-theorem-1-dual":               (16, 16, 16, 16, 4, 4, 4, 4),
    "pdim-theorem-2":                    (16, 16, 16, 16, 4, 4, 4, 4),
    "pdim-theorem-2-dual":               (16, 16, 16, 16, 4, 4, 4, 4),
    "preserves-epi-lower":               (16, 16, 16, 16, 4, 4, 4, 4),
    "preserves-epi-upper":               (16, 16, 16, 16, 4, 4, 4, 4),
    "preserves-mono-lower":              (16, 16, 16, 16, 4, 4, 4, 4),
    "preserves-mono-upper":              (16, 16, 16, 16, 4, 4, 4, 4),
    "restriction-pdim-bound":            (136, 136, 136, 136, 44, 44, 44, 44),
    "tk-preserves-cross-codegree":       (25, 25, 31, 31, 0, 0, 6, 6),
    "tk-preserves-cross-degree":         (38, 38, 39, 39, 12, 12, 11, 11),
    "tower-epi-upper":                   (32, 32, 32, 32, 8, 8, 8, 8),
    "tower-mono-lower":                  (32, 32, 32, 32, 8, 8, 8, 8),
    "universal-property-lower":          (16, 16, 16, 16, 4, 4, 4, 4),
    "universal-property-upper":          (16, 16, 16, 16, 4, 4, 4, 4),
}


class TestTheoremSuites:
    @pytest.mark.parametrize("col", range(len(PINNED_RUNS)),
                             ids=["-".join(map(str, r)) for r in PINNED_RUNS])
    def test_property_counts_are_pinned(self, col):
        suite, seed, p = PINNED_RUNS[col]
        report = run_suite(suite, seed=seed, trials=4, field_p=p)
        got = {name: [s.passed, s.failed] for name, s in report.properties.items()}
        assert got == {name: [passes[col], 0]
                        for name, passes in PINNED_PASSES.items() if passes[col]}

    def test_upper_counterexample_is_on_the_lattice_of_f(self, monkeypatch):
        monkeypatch.setattr(verify, "is_iso", lambda nt: False)
        report = run_suite("theorems-2param", seed=0, trials=1)
        stat = report.properties["gamma-upper-iso-on-cross-degree"]
        assert stat.failed > 0
        assert "poset grid 1 1" in stat.counterexample.splitlines()
        f = load_module(stat.counterexample)
        assert f.lattice == Lattice.grid([1, 1])
        assert stat.counterexample_seed.startswith("table1:")


class TestApproximationPreservation:
    def test_direct_check(self, grid22, gf2):
        for seed in range(6):
            f = random_module(grid22, gf2, f"apc-{seed}")
            for k, n in ((0, 1), (1, 0), (2, 1)):
                assert approximation_preserves_cross_predicate(f, k, n)
                assert approximation_preserves_cross_predicate(opposite_module(f), k, n)

    def test_on_the_opposite_it_is_the_cross_degree_statement(self, grid22, gf3):
        for seed in range(6):
            f = random_module(grid22, gf3, f"apc-op-{seed}")
            for k, n in ((0, 1), (1, 0), (2, 1), (1, 1)):
                upper = (not is_cross_degree(f, n)
                         or is_cross_degree(t_upper(f, k).module, n))
                assert approximation_preserves_cross_predicate(
                    opposite_module(f), k, n) == upper

    def test_vacuous_when_hypothesis_fails(self, square, gf2):
        f = interval_module(square, gf2, ("1,1",))
        assert not is_cross_codegree(f, 1)
        assert approximation_preserves_cross_predicate(f, 2, 1)


class TestObservations:
    def test_open_question_logged_not_asserted(self):
        report = run_suite("theorems-2param", seed=5, trials=2)
        key = "swap-order-upper-approximations"
        assert key in report.observations
        obs = report.observations[key]
        assert obs.get("equal_dims", 0) + obs.get("unequal_dims", 0) > 0
        # The comparison never contributes pass/fail entries.
        assert all("swap-order" not in name for name in report.properties)
