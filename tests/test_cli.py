import json
from pathlib import Path

import pytest

from pmodcalc import cli
from pmodcalc.calculus import NotAComplex
from pmodcalc.cli import main
from pmodcalc.linalg import NoFactorization
from pmodcalc.pmodule import NonCommutingSquare, NotNatural
from pmodcalc.resolution import EquivalenceViolated
from pmodcalc.pmod_io import load_module

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_corner_text(self, capsys):
        code, out, _ = run(capsys, "analyze", str(FIXTURES / "corner.pmod"))
        assert code == 0
        assert "degree 2 cross-degree 2 codegree 1 cross-codegree 0" in out
        assert "pdim 2" in out

    def test_free_pdim_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", str(FIXTURES / "free.pmod"))
        assert code == 0
        assert "pdim 0" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "--json",
                           str(FIXTURES / "nonexample.pmod"))
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 1
        assert payload["cross_degree"] == 0
        assert payload["pdim"] == 1
        assert ["1,1,1", 1, 1] in payload["betti"]
        assert payload["pdim_theorems"][0]["theorem"] == "pdim-theorem-1"

    def test_explicit_poset_file(self, tmp_path, capsys):
        f = tmp_path / "pinched.pmod"
        f.write_text(
            "pmod 1\nfield 2\n"
            "poset elements 0 a b ab abt\n"
            "cover 0 a\ncover 0 b\ncover a ab\ncover b ab\ncover ab abt\n"
            "dim ab 1\ndim abt 1\nmap ab<abt 1\nend\n")
        code, out, _ = run(capsys, "analyze", str(f))
        assert code == 0
        assert "dimension 2" in out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmod"
        bad.write_text("pmod 1\nfield 2\nposet grid 1 1\n"
                       "dim 0,0 1\ndim 0,1 1\nmap 0,0<0,1 1 1\nend\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "0,0<0,1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent.pmod")
        assert code == 2

    def test_non_commuting_square_is_exit_2(self, tmp_path, capsys):
        f = tmp_path / "twisted.pmod"
        f.write_text("pmod 1\nfield 2\nposet grid 1 1\n"
                     "dim 0,0 1\ndim 0,1 1\ndim 1,0 1\ndim 1,1 1\n"
                     "map 0,0<0,1 1\nmap 0,0<1,0 1\n"
                     "map 0,1<1,1 1\nmap 1,0<1,1 0\nend\n")
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert err.startswith("error: ")
        assert "transports 0,0 -> 1,1 via 0,1 and via 1,0 disagree" in err
        assert "Traceback" not in out + err

    def test_non_distributive_poset_is_exit_2(self, tmp_path, capsys):
        f = tmp_path / "m3.pmod"
        f.write_text("pmod 1\nfield 2\nposet elements 0 a b c 1\n"
                     "cover 0 a\ncover 0 b\ncover 0 c\n"
                     "cover a 1\ncover b 1\ncover c 1\nend\n")
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert err.startswith("error: ")
        assert "lattice is not distributive" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("exc", [
        NoFactorization("no solution"), NotAComplex("d_1 o d_2 != 0"),
        EquivalenceViolated("conditions disagree"),
        NonCommutingSquare("0,0", "1,1", "0,1", "1,0"),
        NotNatural("naturality fails")])
    def test_internal_failure_is_exit_1_without_traceback(self, monkeypatch,
                                                           capsys, exc):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_analyze", fail)
        code, out, err = run(capsys, "analyze", str(FIXTURES / "corner.pmod"))
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in out + err


class TestApprox:
    def test_gamma_lower_of_top_only_is_zero(self, tmp_path, capsys):
        src = tmp_path / "top.pmod"
        src.write_text("pmod 1\nfield 2\nposet grid 1 1\ndim 1,1 1\nend\n")
        code, out, _ = run(capsys, "approx", str(src), "--op", "gamma_lower",
                           "--n", "1")
        assert code == 0
        module = load_module(out.split("# canonical")[0])
        assert module.is_zero()
        assert "# canonical-map-rank" in out

    def test_t_lower_above_dimension_reproduces_dims(self, capsys):
        path = FIXTURES / "nonexample.pmod"
        code, out, _ = run(capsys, "approx", str(path), "--op", "t_lower",
                           "--n", "3")
        assert code == 0
        original = load_module(path.read_text())
        approx = load_module(out.split("# canonical")[0])
        assert approx.dims_by_element() == original.dims_by_element()

    def test_negative_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "approx", str(FIXTURES / "corner.pmod"),
                           "--op", "t_lower", "--n", "-1")
        assert code == 2

    def test_cr_ops_emit_module(self, capsys):
        code, out, _ = run(capsys, "approx", str(FIXTURES / "corner.pmod"),
                           "--op", "cr_upper", "--n", "1")
        assert code == 0
        module = load_module(out)
        assert module.dim("0,0") == 1
        assert "# canonical-map-rank 0,0 1" in out


    @pytest.mark.parametrize("op, dims, ranks", [
        ("t_lower", [1, 1, 1, 1], [1, 1, 1, 0]),
        ("t_upper", [1, 1, 1, 1], [0, 1, 0, 1]),
        ("gamma_lower", [1, 1, 1, 0], [1, 1, 1, 0]),
        ("gamma_upper", [0, 1, 0, 1], [0, 1, 0, 1]),
        ("cr_lower", [0, 1, 0, 1], [0, 1, 0, 1]),
        ("cr_upper", [1, 1, 1, 0], [1, 1, 1, 0]),
    ])
    def test_every_op_dims_and_ranks(self, tmp_path, capsys, op, dims, ranks):
        # Emitted bases are not pinned: only dims and canonical-map ranks.
        _, text, _ = run(capsys, "gen", "random", "--grid", "1", "1", "--seed", "1")
        src = tmp_path / "random.pmod"
        src.write_text(text)
        code, out, _ = run(capsys, "approx", str(src), "--op", op, "--n", "0")
        assert code == 0
        module = load_module(out)
        assert [module.dim(x) for x in module.lattice.elements] == dims
        assert [int(line.split()[-1]) for line in out.splitlines()
                if line.startswith("# canonical-map-rank")] == ranks


class TestGen:
    def test_interval_matches_fixture_body(self, capsys):
        code, out, _ = run(capsys, "gen", "interval", "--grid", "1", "1",
                           "--support", "0,0")
        assert code == 0
        assert out == ("pmod 1\nfield 2\nposet grid 1 1\ndim 0,0 1\nend\n")

    def test_free_generator_spec(self, capsys):
        code, out, _ = run(capsys, "gen", "free", "--grid", "1", "1",
                           "--gens", "0,0:1 1,0:1")
        assert code == 0
        assert load_module(out) == load_module((FIXTURES / "free.pmod").read_text())

    def test_random_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "gen", "random", "--grid", "2", "2",
                             "--seed", "7")
        code2, out2, _ = run(capsys, "gen", "random", "--grid", "2", "2",
                             "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_image_pipeline(self, tmp_path, capsys):
        img = tmp_path / "img.txt"
        img.write_text("3 3 1 2\n0 0 0\n0 2 0\n0 0 0\n")
        code, out, _ = run(capsys, "gen", "image", "--file", str(img),
                           "--degree", "1")
        assert code == 0
        module = load_module(out)
        assert module.dims_by_element() == {"0": 1, "1": 1, "2": 0}

    def test_rips_pipeline(self, tmp_path, capsys):
        space = tmp_path / "space.txt"
        space.write_text("0 0\n0 4\n4 0\n")
        code, out, _ = run(capsys, "gen", "rips", "--file", str(space))
        assert code == 0
        module = load_module(out)
        assert module.dim("0,0") == 2

    def test_image_without_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "image")
        assert code == 2


class TestVerify:
    def test_table1_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "table1")
        assert code == 0
        assert "OK" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "nonexample", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "nonexample"
        assert payload["ok"] is True
        assert "nonexample-betti1-top" in payload["properties"]

    def test_unknown_suite_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_small_randomized_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorems-2param",
                           "--seed", "3", "--trials", "2")
        assert code == 0

    def test_usage_error_no_args(self, capsys):
        assert main([]) == 2
