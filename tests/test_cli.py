import json
import random
import resource
import time
from pathlib import Path

import pytest

from pmodcalc import cli, generators, resolution
from pmodcalc.calculus import NotAComplex
from pmodcalc.cli import main
from pmodcalc.linalg import NoFactorization
from pmodcalc.pmodule import NonCommutingSquare, NotNatural
from pmodcalc.resolution import EquivalenceViolated
from pmodcalc.pmod_io import load_module
from oracles import dim

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def address_space_cap():
    """Caps this process's address space at 1 GiB above its current size
    while the test runs, so that a grid built past its element cap fails
    with MemoryError instead of exhausting the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (used + 2**30, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


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

    @pytest.mark.parametrize("bounds", ["200 200", "1000 1000 1000"])
    def test_oversized_grid_is_exit_2(self, tmp_path, capsys, address_space_cap,
                                      bounds):
        f = tmp_path / "huge.pmod"
        f.write_text(f"pmod 1\nfield 2\nposet grid {bounds}\nend\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(f))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.startswith("error: ") and "more than the cap of 4096" in err
        assert "Traceback" not in out + err

    def test_oversized_explicit_poset_is_exit_2(self, tmp_path, capsys,
                                                address_space_cap):
        names = [f"e{i}" for i in range(129)]
        covers = "".join(f"cover {u} {v}\n" for u, v in zip(names, names[1:]))
        f = tmp_path / "long.pmod"
        f.write_text(f"pmod 1\nfield 2\nposet elements {' '.join(names)}\n"
                     f"{covers}end\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(f))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.startswith("error: ") and "more than the cap of 128" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("body", [
        "poset grid 1 1\ndim 0,0 1025\n",
        # Eight isolated elements of dim 256: no map line is needed.
        "poset grid 15\n" + "".join(f"dim {i} 256\n" for i in range(0, 16, 2)),
    ], ids=["one-dim-line", "eight-isolated-elements"])
    def test_oversized_total_dim_is_exit_2(self, tmp_path, capsys,
                                           address_space_cap, body):
        f = tmp_path / "heavy.pmod"
        f.write_text(f"pmod 1\nfield 2\n{body}end\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(f))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.startswith("error: ") and "exceeds the cap of 1024" in err
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

    def test_disagreeing_pdim_conditions_are_exit_1(self, monkeypatch, capsys):
        # analyze runs each pdim check at n = lattice dimension, where the
        # three conditions must agree; flipping the canonical-map one is
        # an implementation bug, reported as exit 1 with nothing on stdout.
        real = resolution.is_iso
        monkeypatch.setattr(resolution, "is_iso", lambda nt: not real(nt))
        code, out, err = run(capsys, "analyze", str(FIXTURES / "corner.pmod"),
                             "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "pdim-theorem-1" in err
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
        assert dim(module, "0,0") == 1
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
        assert [dim(module, x) for x in module.lattice.elements] == dims
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

    def test_oversized_random_grid_is_exit_2(self, capsys, address_space_cap):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "random", "--grid", "100", "100")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.startswith("error: ") and "10201 elements" in err
        assert "Traceback" not in out + err

    def test_image_pipeline(self, tmp_path, capsys):
        img = tmp_path / "img.txt"
        img.write_text("3 3 1 2\n0 0 0\n0 2 0\n0 0 0\n")
        code, out, _ = run(capsys, "gen", "image", "--file", str(img),
                           "--degree", "1")
        assert code == 0
        module = load_module(out)
        assert module.dims_by_element() == {"0": 1, "1": 1, "2": 0}

    def test_wrong_euler_count_is_exit_1(self, tmp_path, capsys, monkeypatch):
        img = tmp_path / "img.txt"
        img.write_text("3 3 1 2\n0 0 0\n0 2 0\n0 0 0\n")
        count = generators._h1_count
        monkeypatch.setattr(generators, "_h1_count",
                            lambda *sizes: count(*sizes) + 1)
        code, out, err = run(capsys, "gen", "image", "--file", str(img))
        assert code == 1
        assert out == "" and err.startswith("error: ") and "Euler count" in err
        assert "Traceback" not in err

    def test_rips_pipeline(self, tmp_path, capsys):
        space = tmp_path / "space.txt"
        space.write_text("0 0\n0 4\n4 0\n")
        code, out, _ = run(capsys, "gen", "rips", "--file", str(space))
        assert code == 0
        module = load_module(out)
        assert dim(module, "0,0") == 2

    def test_rips_over_the_total_dim_cap_is_exit_2(self, tmp_path, capsys):
        # H0 of 30 points has total dim 1431: its PMOD would not load again.
        rng, n = random.Random(1), 30
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = rng.randint(1, 20)
        space = tmp_path / "space.txt"
        space.write_text("".join(" ".join(map(str, row)) + "\n"
                                 for row in [list(range(n))] + dist))
        code, out, err = run(capsys, "gen", "rips", "--file", str(space))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "total dimension 1431" in err and "Traceback" not in err

    def test_oversized_image_is_exit_2(self, tmp_path, capsys):
        # 60 x 60 pixels at 16 levels: about 9 s of H1 elimination uncapped.
        img = tmp_path / "big.txt"
        img.write_text("60 60 1 15\n" + ("0 15 " * 30 + "\n") * 60)
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "image", "--file", str(img))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == ("error: image of 3600 pixels at 16 threshold levels costs "
                       "207360000 (levels x pixels^2), more than the cap of 16777216\n")

    def test_oversized_random_presentation_is_exit_2(self, capsys):
        # Uncapped, this builds for about a minute, then fails the total-dim cap.
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "random", "--grid", "16", "16", "--seed",
                             "3", "--max-gens", "3000", "--max-rels", "3000")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("error: random module cost 62424000000000 (elements x "
                       "(max-gens + max-rels)^3) is more than the cap of 8388608\n")

    @pytest.mark.parametrize("gens, total", [("0,0:100000", 400000),
                                             ("0,0:257", 1028),
                                             ("0,1:300 1,1:500", 1100)])
    def test_free_module_over_the_total_dim_cap_is_not_built(self, capsys, monkeypatch,
                                                             gens, total):
        # Its total dim is the multiplicities times the up-set sizes.  Uncapped,
        # 4,000 generators at 0,0 of [1,1] take 2.6 s and 269 MiB to build
        # before the cap on the result refuses them.
        def build(*args):
            raise AssertionError("free_module was called")
        monkeypatch.setattr(cli, "free_module", build)
        code, out, err = run(capsys, "gen", "free", "--grid", "1", "1", "--gens", gens)
        assert code == 2 and out == ""
        assert err == (f"error: generated module has total dimension {total}, more "
                       "than the cap of 1024 a PMOD file may declare\n")

    def test_free_module_at_the_total_dim_cap_is_built(self, capsys):
        code, out, _ = run(capsys, "gen", "free", "--grid", "1", "1", "--gens", "0,0:256")
        assert code == 0 and load_module(out).total_dim() == 1024

    @pytest.mark.parametrize("argv, message", [
        (("--max-gens", "-1"), "--max-gens must be >= 0, got -1"),
        (("--max-rels", "-1"), "--max-rels must be >= 0, got -1"),
        # A negative sum once made the cost negative and passed the cap.
        (("--max-gens", "-5", "--max-rels", "-5"), "--max-gens must be >= 0, got -5"),
    ])
    def test_negative_random_counts_are_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", "random", "--grid", "1", "1", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_largest_random_presentation_in_use_is_under_the_cap(self, capsys):
        code, out, _ = run(capsys, "gen", "random", "--grid", "4", "4", "4", "--field",
                           "3", "--seed", "5", "--max-gens", "20", "--max-rels", "15")
        assert code == 0
        assert load_module(out).lattice.n == 125

    def test_image_without_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "image")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("interval", "--grid", "2", "2", "--support", "0,1 1,1 1,2"),
         "support omits 0,2 between 0,1 and 1,2"),
        (("interval", "--grid", "1", "1", "--support", "1,0 0,1"),
         "support splits into incomparable pieces"),
        (("interval", "--grid", "1", "1", "--support", "9,9"),
         "unknown lattice element '9,9'"),
        (("free", "--grid", "1", "1", "--gens", "9,9"),
         "unknown lattice element '9,9'"),
        (("image", "--degree", "2"), "H_2 is out of scope"),
    ])
    def test_bad_input_is_exit_2(self, tmp_path, capsys, argv, message):
        if argv[0] == "image":
            img = tmp_path / "img.txt"
            img.write_text("3 3 1 2\n0 0 0\n0 2 0\n0 0 0\n")
            argv += ("--file", str(img))
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("suite, trials", [("table1", "-3"), ("all", "-1")])
    def test_negative_trials_is_exit_2(self, capsys, suite, trials):
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials)
        assert code == 2 and out == ""
        assert err == f"error: trials must be >= 0, got {trials}\n"

    def test_usage_error_no_args(self, capsys):
        assert main([]) == 2


class TestSharedParser:
    def test_one_parser_and_no_state_between_calls(self, capsys):
        # The parser is built once; a call's options do not reach the next,
        # and a usage error leaves it usable.
        assert cli.build_parser() is cli.build_parser()
        code, out, _ = run(capsys, "gen", "interval", "--grid", "2", "2",
                           "--support", "2,2", "--field", "3")
        assert code == 0 and "poset grid 2 2" in out and "field 3" in out
        assert main(["gen", "interval", "--grid"]) == 2
        code, out, _ = run(capsys, "gen", "interval", "--support", "0,0")
        assert code == 0
        assert out == "pmod 1\nfield 2\nposet grid 1 1\ndim 0,0 1\nend\n"
