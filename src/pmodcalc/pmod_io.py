"""The PMOD text format: one persistence module per file.

Line-oriented, diff-friendly, canonical.  See docs/pmod_format.md for
the grammar and annotated fixtures.  Shape of the format:

    pmod 1
    field 2
    poset grid 1 1            # or: poset elements a b c  (+ cover lines)
    dim 0,0 1
    map 0,0<0,1 1
    end

Dims default to 0; maps whose source or target dimension is 0 are
omitted and reconstructed; every other cover map must be present.  The
dims may sum to at most MAX_TOTAL_DIM.
Canonical printing orders dims and maps by element declaration order,
so parse(print(m)) round-trips byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Lattice, grid_size
from .linalg import FieldSpec, Matrix
from .pmodule import PersistenceModule


class ParseError(Exception):
    """Malformed PMOD input; the message names the offending line."""


#: The largest total dimension (sum of all dim lines) a PMOD file may
#: declare.  One dim line needs no map lines, and the calculus costs grow
#: about quadratically in the dims, so the sum is checked as dims are parsed.
MAX_TOTAL_DIM = 1024


_ID_FORBIDDEN = set("<# \t\r\n")


def _check_id(token: str, lineno: int) -> str:
    if not token or any(ch in _ID_FORBIDDEN for ch in token):
        raise ParseError(f"line {lineno}: invalid element id {token!r}")
    return token


@dataclass
class PmodDocument:
    """Parsed (or to-be-printed) PMOD content, prior to module construction."""

    field_p: int
    grid: tuple[int, ...] | None
    elements: tuple[str, ...] | None          # explicit mode only
    covers: tuple[tuple[str, str], ...]       # explicit mode only
    dims: dict[str, int]
    maps: dict[tuple[str, str], list[list[int]]]

    def build_lattice(self) -> Lattice:
        if self.grid is not None:
            return Lattice.grid(self.grid)
        return Lattice.from_covers(self.elements, self.covers)

    def to_module(self, field_p: int | None = None) -> PersistenceModule:
        p = self.field_p if field_p is None else field_p
        field = FieldSpec(p)
        lattice = self.build_lattice()
        index = lattice.index
        dims = [0] * lattice.n
        for el, d in self.dims.items():
            dims[index(el)] = d
        maps = {}
        for (u, v), rows in self.maps.items():
            ui, vi = index(u), index(v)
            maps[(ui, vi)] = Matrix(field, dims[vi], dims[ui], rows)
        return PersistenceModule(lattice, field, dims, maps)

    @classmethod
    def from_module(cls, module: PersistenceModule) -> "PmodDocument":
        lat = module.lattice
        dims = {el: d for el, d in module.dims_by_element().items() if d}
        maps = {}
        for (u, v) in lat.covers_i():
            if module.dim_i(u) and module.dim_i(v):
                m = module.cover_matrix_i(u, v)
                maps[(lat.element(u), lat.element(v))] = m.to_lists()
        if lat.grid_shape is not None:
            return cls(module.field.p, lat.grid_shape, None, (), dims, maps)
        return cls(module.field.p, None, lat.elements, lat.covers(), dims, maps)


def parse_pmod(text: str) -> PmodDocument:
    field_p: int | None = None
    grid: tuple[int, ...] | None = None
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    dims: dict[str, int] = {}
    total_dim = 0
    maps: dict[tuple[str, str], tuple[int, list[int]]] = {}  # (lineno, entries)
    saw_header = False
    saw_poset = False
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError(f"line {lineno}: content after 'end'")
        tokens = line.split()
        key = tokens[0]
        if not saw_header:
            if key != "pmod" or tokens[1:] != ["1"]:
                raise ParseError(f"line {lineno}: expected 'pmod 1' header")
            saw_header = True
            continue
        if key == "field":
            if field_p is not None or len(tokens) != 2:
                raise ParseError(f"line {lineno}: bad or repeated field line")
            try:
                field_p = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: field modulus must be an integer")
        elif key == "poset":
            if saw_poset or len(tokens) < 2:
                raise ParseError(f"line {lineno}: bad or repeated poset line")
            saw_poset = True
            if tokens[1] == "grid":
                try:
                    grid = tuple(int(t) for t in tokens[2:])
                except ValueError:
                    raise ParseError(f"line {lineno}: grid bounds must be integers")
                if not grid or any(g < 0 for g in grid):
                    raise ParseError(f"line {lineno}: grid needs nonnegative bounds")
            elif tokens[1] == "elements":
                elements = [_check_id(t, lineno) for t in tokens[2:]]
                if not elements:
                    raise ParseError(f"line {lineno}: empty element list")
            else:
                raise ParseError(f"line {lineno}: poset must be 'grid' or 'elements'")
        elif key == "cover":
            if grid is not None:
                raise ParseError(f"line {lineno}: cover lines not allowed with grid")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: cover needs two elements")
            covers.append((_check_id(tokens[1], lineno), _check_id(tokens[2], lineno)))
        elif key == "dim":
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: dim needs element and value")
            el = _check_id(tokens[1], lineno)
            if el in dims:
                raise ParseError(f"line {lineno}: repeated dim for {el}")
            try:
                d = int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: dimension must be an integer")
            if d < 0:
                raise ParseError(f"line {lineno}: negative dimension")
            dims[el] = d
            total_dim += d
            if total_dim > MAX_TOTAL_DIM:
                raise ParseError(f"line {lineno}: total dimension {total_dim} "
                                 f"exceeds the cap of {MAX_TOTAL_DIM}")
        elif key == "map":
            if len(tokens) < 2 or "<" not in tokens[1]:
                raise ParseError(f"line {lineno}: map needs a u<v key")
            u, _, v = tokens[1].partition("<")
            _check_id(u, lineno)
            _check_id(v, lineno)
            if (u, v) in maps:
                raise ParseError(f"line {lineno}: repeated map {u}<{v}")
            try:
                entries = [int(t) for t in tokens[2:]]
            except ValueError:
                raise ParseError(f"line {lineno}: map entries must be integers")
            maps[(u, v)] = (lineno, entries)
        elif key == "end":
            if len(tokens) != 1:
                raise ParseError(f"line {lineno}: stray tokens after 'end'")
            ended = True
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if not saw_header:
        raise ParseError("missing 'pmod 1' header")
    if field_p is None:
        raise ParseError("missing field line")
    if not saw_poset:
        raise ParseError("missing poset line")
    if not ended:
        raise ParseError("missing 'end' line")
    known = set(elements) if grid is None else _grid_element_names(grid)
    for el in dims:
        if el not in known:
            raise ParseError(f"dim refers to unknown element {el!r}")
    shaped_maps: dict[tuple[str, str], list[list[int]]] = {}
    for (u, v), (lineno, entries) in maps.items():
        if u not in known or v not in known:
            raise ParseError(f"line {lineno}: map {u}<{v} mentions unknown elements")
        rows, cols = dims.get(v, 0), dims.get(u, 0)
        if rows * cols != len(entries):
            raise ParseError(
                f"line {lineno}: map {u}<{v} needs {rows}x{cols} = {rows * cols} "
                f"entries, got {len(entries)}")
        if rows == 0 or cols == 0:
            raise ParseError(
                f"line {lineno}: map {u}<{v} has a zero-dimensional side; omit it")
        shaped_maps[(u, v)] = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    return PmodDocument(field_p, grid, tuple(elements) or None,
                        tuple(covers), dims, shaped_maps)


def _grid_element_names(grid: tuple[int, ...]) -> set[str]:
    import itertools
    grid_size(grid)  # bounds the set below
    return {",".join(str(c) for c in t)
            for t in itertools.product(*(range(m + 1) for m in grid))}


def print_pmod(module: PersistenceModule) -> str:
    """Canonical PMOD text for a module (declaration-ordered, stable)."""
    doc = PmodDocument.from_module(module)
    lat = module.lattice
    out = ["pmod 1", f"field {doc.field_p}"]
    if doc.grid is not None:
        out.append("poset grid " + " ".join(str(g) for g in doc.grid))
    else:
        out.append("poset elements " + " ".join(doc.elements))
        for (u, v) in doc.covers:
            out.append(f"cover {u} {v}")
    for el in lat.elements:
        if doc.dims.get(el):
            out.append(f"dim {el} {doc.dims[el]}")
    for (u, v) in lat.covers():
        rows = doc.maps.get((u, v))
        if rows is not None:
            flat = " ".join(str(x) for row in rows for x in row)
            out.append(f"map {u}<{v} {flat}")
    out.append("end")
    return "\n".join(out) + "\n"


def load_module(text: str, field_p: int | None = None) -> PersistenceModule:
    """Parse PMOD text and build the validated module."""
    return parse_pmod(text).to_module(field_p)
