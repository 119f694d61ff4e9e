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
dims may sum to at most MAX_TOTAL_DIM.  The reader builds the lattice
once and resolves each name against it; the printer reads the module's
lattice, dims and stored cover maps, in element and cover order, so
load(print(m)) round-trips byte-identically.
"""

from __future__ import annotations

from .lattice import Lattice
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


def load_module(text: str, field_p: int | None = None) -> PersistenceModule:
    """Parse PMOD text and build the validated module, over F_field_p if
    given, else over the file's field.  Lines after the header may come in
    any order.  Errors come in this order: line checks (a ``cover`` line
    with a grid poset, wherever it is, among them), missing lines, the
    lattice, unknown names and map shapes (each naming its line), the
    field modulus, then the module's own checks."""
    file_p: int | None = None
    grid: tuple[int, ...] | None = None
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    first_cover = 0
    dims: dict[str, tuple[int, int]] = {}  # element -> (lineno, dim)
    total_dim = 0
    maps: dict[tuple[str, str], tuple[int, list[int]]] = {}  # (lineno, entries)
    saw_header = False
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
            if file_p is not None or len(tokens) != 2:
                raise ParseError(f"line {lineno}: bad or repeated field line")
            try:
                file_p = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: field modulus must be an integer")
        elif key == "poset":
            if grid is not None or elements or len(tokens) < 2:
                raise ParseError(f"line {lineno}: bad or repeated poset line")
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
            first_cover = first_cover or lineno
            if grid is None:
                if len(tokens) != 3:
                    raise ParseError(f"line {lineno}: cover needs two elements")
                covers.append((_check_id(tokens[1], lineno),
                               _check_id(tokens[2], lineno)))
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
            dims[el] = (lineno, d)
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
        # A cover line is an error with a grid poset, before or after it.
        if first_cover and grid is not None:
            raise ParseError(f"line {first_cover}: cover lines not allowed with grid")
    if not saw_header:
        raise ParseError("missing 'pmod 1' header")
    if file_p is None:
        raise ParseError("missing field line")
    if grid is None and not elements:
        raise ParseError("missing poset line")
    if not ended:
        raise ParseError("missing 'end' line")
    lattice = (Lattice.grid(grid) if grid is not None
               else Lattice.from_covers(elements, covers))
    dvec = [0] * lattice.n
    for el, (lineno, d) in dims.items():
        try:
            dvec[lattice.index(el)] = d
        except KeyError:
            raise ParseError(f"line {lineno}: dim refers to unknown element {el!r}") from None
    rows_of = {}
    for (u, v), (lineno, entries) in maps.items():
        try:
            ui, vi = lattice.index(u), lattice.index(v)
        except KeyError:
            raise ParseError(f"line {lineno}: map {u}<{v} mentions unknown elements") from None
        rows, cols = dvec[vi], dvec[ui]
        if rows * cols != len(entries):
            raise ParseError(
                f"line {lineno}: map {u}<{v} needs {rows}x{cols} = {rows * cols} "
                f"entries, got {len(entries)}")
        if rows == 0 or cols == 0:
            raise ParseError(f"line {lineno}: map {u}<{v} has a zero-dimensional side; omit it")
        rows_of[ui, vi] = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
    field = FieldSpec(file_p if field_p is None else field_p)
    return PersistenceModule(lattice, field, dvec, {
        (u, v): Matrix(field, dvec[v], dvec[u], rows) for (u, v), rows in rows_of.items()})


def print_pmod(module: PersistenceModule) -> str:
    """Canonical PMOD text for a module (declaration-ordered, stable)."""
    lat = module.lattice
    name = lat.element
    out = ["pmod 1", f"field {module.field.p}"]
    if lat.grid_shape is not None:
        out.append("poset grid " + " ".join(map(str, lat.grid_shape)))
    else:
        out.append("poset elements " + " ".join(lat.elements))
        out.extend(f"cover {name(u)} {name(v)}" for u, v in lat.covers_i())
    out.extend(f"dim {name(i)} {module.dim_i(i)}" for i in range(lat.n)
               if module.dim_i(i))
    for u, v in lat.covers_i():
        if module.dim_i(u) and module.dim_i(v):
            flat = " ".join(str(x) for row in module.transport_i(u, v).rows()
                            for x in row)
            out.append(f"map {name(u)}<{name(v)} {flat}")
    out.append("end")
    return "\n".join(out) + "\n"
