from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, free_module, interval_module,
                      random_module)
from pmodcalc.pmod_io import MAX_TOTAL_DIM, ParseError, load_module, print_pmod
from pmodcalc.verify import nonexample_module
from oracles import cover_matrix, covers, dim, transport
from test_functor_check import lattices

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestRoundTrip:
    def test_parse_print_parse_is_identity(self, grid22, gf2):
        for seed in range(6):
            module = random_module(grid22, gf2, f"io{seed}")
            text = print_pmod(module)
            again = load_module(text)
            assert again == module
            assert print_pmod(again) == text

    def test_explicit_poset_roundtrip(self, gf2):
        lat = Lattice.from_covers(
            ["bot", "a", "b", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
        module = interval_module(lat, gf2, ("a", "top"))
        text = print_pmod(module)
        assert "poset elements bot a b top" in text
        again = load_module(text)
        assert again == module
        assert print_pmod(again) == text

    def test_canonical_key_ordering(self, square, gf2):
        module = free_module(square, gf2, {"0,0": 1, "1,0": 1})
        lines = print_pmod(module).splitlines()
        dims = [l for l in lines if l.startswith("dim")]
        maps = [l for l in lines if l.startswith("map")]
        assert dims == sorted(dims, key=lambda l: square.index(l.split()[1]))
        assert maps == [
            "map 0,0<0,1 1", "map 0,0<1,0 1 0",
            "map 0,1<1,1 1 0", "map 1,0<1,1 1 0 0 1"]


@st.composite
def modules(draw):
    """A random module on a grid or on a down-set lattice whose elements
    are declared in a random order, over GF(2) or F_3."""
    lat = draw(lattices())
    if lat.grid_shape is None:
        lat = Lattice.from_covers(draw(st.permutations(lat.elements)), covers(lat))
    field = FieldSpec(draw(st.sampled_from([2, 3])))
    return random_module(lat, field, draw(st.integers(0, 10 ** 6)),
                         max_gens=4, max_rels=3)


@settings(max_examples=80, deadline=None)
@given(modules())
def test_load_of_print_is_the_module(module):
    # Printing writes element names; loading resolves them back to indices.
    text = print_pmod(module)
    again = load_module(text)
    assert again == module
    assert print_pmod(again) == text


class TestFixtures:
    def test_corner_fixture(self, gf2):
        module = load_module((FIXTURES / "corner.pmod").read_text())
        lat = Lattice.grid([1, 1])
        assert module == interval_module(lat, gf2, ("0,0",))

    def test_diamond_fixture_is_read_by_name(self, gf2):
        # Declared top first: index order is not a linear extension.
        module = load_module((FIXTURES / "diamond.pmod").read_text())
        lat = module.lattice
        assert lat.elements == ("top", "a", "b", "bot")
        assert lat.topo_order()[0] == 3
        assert [module.dim_i(i) for i in range(4)] == [2, 2, 1, 1]
        assert cover_matrix(module, "a", "top") == Matrix(gf2, 2, 2, [[1, 0], [1, 0]])
        assert transport(module, "bot", "top") == Matrix(gf2, 2, 1, [[1], [1]])

    def test_nonexample_fixture(self, gf2):
        module = load_module((FIXTURES / "nonexample.pmod").read_text())
        assert module == nonexample_module(gf2)

    def test_free_fixture(self, gf2):
        module = load_module((FIXTURES / "free.pmod").read_text())
        lat = Lattice.grid([1, 1])
        assert module == free_module(lat, gf2, {"0,0": 1, "1,0": 1})

    def test_fixture_bodies_are_canonical(self):
        # Stripping comments from a fixture yields exactly the printer output.
        for name in ("corner", "nonexample", "free", "diamond"):
            text = (FIXTURES / f"{name}.pmod").read_text()
            body = "\n".join(
                stripped for line in text.splitlines()
                if (stripped := line.split("#", 1)[0].strip())) + "\n"
            assert body == print_pmod(load_module(text))


class TestFieldOverride:
    def test_load_with_other_field(self):
        text = (FIXTURES / "nonexample.pmod").read_text()
        module = load_module(text, field_p=5)
        assert module.field.p == 5
        assert dim(module, "1,1,1") == 2


class TestParseErrors:
    def good(self):
        return (FIXTURES / "free.pmod").read_text()

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_module("field 2\nposet grid 1 1\nend\n")

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            load_module("pmod 1\nfield 2\nposet grid 1 1\nfrobnicate 1\nend\n")

    def test_bad_matrix_shape_names_key(self):
        text = ("pmod 1\nfield 2\nposet grid 1 1\n"
                "dim 0,0 1\ndim 0,1 1\nmap 0,0<0,1 1 1\nend\n")
        with pytest.raises(ParseError, match="0,0<0,1"):
            load_module(text)

    def test_total_dim_cap(self):
        head = "pmod 1\nfield 2\nposet grid 1 1\n"
        module = load_module(head + "dim 0,0 1000\ndim 1,1 24\nend\n")
        assert module.total_dim() == MAX_TOTAL_DIM == 1024
        with pytest.raises(ParseError, match="total dimension 1025 exceeds the cap of 1024"):
            load_module(head + "dim 0,0 1000\ndim 1,1 25\nend\n")

    def test_zero_side_map_rejected(self):
        text = ("pmod 1\nfield 2\nposet grid 1 1\n"
                "dim 0,0 1\nmap 0,0<0,1\nend\n")
        with pytest.raises(ParseError, match="zero-dimensional"):
            load_module(text)

    def test_repeated_dim(self):
        text = "pmod 1\nfield 2\nposet grid 1 1\ndim 0,0 1\ndim 0,0 2\nend\n"
        with pytest.raises(ParseError, match="repeated dim"):
            load_module(text)

    def test_content_after_end(self):
        with pytest.raises(ParseError, match="after 'end'"):
            load_module("pmod 1\nfield 2\nposet grid 1 1\nend\ndim 0,0 1\n")

    def test_missing_end(self):
        with pytest.raises(ParseError, match="missing 'end'"):
            load_module("pmod 1\nfield 2\nposet grid 1 1\n")

    def test_unknown_element_in_dim(self):
        with pytest.raises(ParseError, match="unknown element"):
            load_module("pmod 1\nfield 2\nposet grid 1 1\ndim 5,5 1\nend\n")

    @pytest.mark.parametrize("poset", ["grid 1 1", "elements bot a b top\n"
                                       "cover bot a\ncover bot b\ncover a top\ncover b top"])
    def test_unknown_names_name_their_line(self, poset):
        head = f"pmod 1\nfield 2\nposet {poset}\n"
        lineno = head.count("\n") + 2  # after one comment or blank line
        line = f"^line {lineno}: "
        with pytest.raises(ParseError, match=line + "dim refers to unknown element 'zz'$"):
            load_module(head + "# comment\ndim zz 1\nend\n")
        with pytest.raises(ParseError, match=line + "map zz<yy mentions unknown elements$"):
            load_module(head + "\nmap zz<yy 1\nend\n")

    def test_cover_with_grid_rejected(self):
        text = "pmod 1\nfield 2\nposet grid 1 1\ncover 0,0 0,1\nend\n"
        with pytest.raises(ParseError, match="not allowed with grid"):
            load_module(text)

    def test_cover_before_grid_rejected(self):
        # Lines after the header may come in any order, so a cover line is
        # an error with a grid poset wherever it stands.
        text = "pmod 1\nfield 2\ncover 0,0 0,1\nposet grid 1 1\nend\n"
        with pytest.raises(ParseError, match="^line 3: cover lines not allowed with grid$"):
            load_module(text)

    def test_missing_cover_map_detected_at_build(self):
        # Every line is well formed, but the module constructor requires the map.
        text = ("pmod 1\nfield 2\nposet grid 1 1\n"
                "dim 0,0 1\ndim 0,1 1\nend\n")
        with pytest.raises(ValueError, match="missing cover map"):
            load_module(text)


class TestPrinter:
    def test_grid_module_prints_its_shape_and_nonzero_dims(self, square, gf2):
        module = interval_module(square, gf2, ("0,0",))
        assert print_pmod(module) == "pmod 1\nfield 2\nposet grid 1 1\ndim 0,0 1\nend\n"
