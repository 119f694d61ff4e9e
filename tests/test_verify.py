import json

import pytest

from pmodcalc import Lattice, interval_module, random_module
from pmodcalc.calculus import is_cross_codegree
from pmodcalc.pmodule import cokernel_of
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


class TestApproximationPreservation:
    def test_direct_check(self, grid22, gf2):
        for seed in range(6):
            f = random_module(grid22, gf2, f"apc-{seed}")
            for k, n in ((0, 1), (1, 0), (2, 1)):
                assert approximation_preserves_cross_predicate(f, k, n, side="lower")
                assert approximation_preserves_cross_predicate(f, k, n, side="upper")

    def test_vacuous_when_hypothesis_fails(self, square, gf2):
        f = interval_module(square, gf2, ("1,1",))
        assert not is_cross_codegree(f, 1)
        assert approximation_preserves_cross_predicate(f, 2, 1, side="lower")

    def test_bad_side(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        with pytest.raises(ValueError):
            approximation_preserves_cross_predicate(f, 1, 1, side="diagonal")


class TestObservations:
    def test_open_question_logged_not_asserted(self):
        report = run_suite("theorems-2param", seed=5, trials=2)
        key = "swap-order-upper-approximations"
        assert key in report.observations
        obs = report.observations[key]
        assert obs.get("equal_dims", 0) + obs.get("unequal_dims", 0) > 0
        # The comparison never contributes pass/fail entries.
        assert all("swap-order" not in name for name in report.properties)
