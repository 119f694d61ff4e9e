"""The three workloads: seeded inputs, the items a pass runs, and the gate.

Every input is built from the workload seed through pmodcalc's public
functions at set-up.  An item's output is reduced to a digest that does not
depend on the choice of basis (dimensions, statistics, Betti numbers,
property counts); the gate compares it with the pinned digest when the seed
is pinned, and always with invariants computed independently of pmodcalc.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

# Workload sizes.  A pass takes under two seconds on a 2-core host, so that
# a run repeats every item often enough for its fastest run to be one the
# host did not slow; and items of one kind cost about the same whatever the
# seed, so that the seed moves the cost of a pass little.
CORPUS_ITEMS = (("theorems-2param", 1),) + (("theorems-3param", 1),) * 8
SPARSE_SIDES = (12, 13)
IMAGE_SIDE, IMAGE_MAX, IMAGES = 9, 3, 3
SPACE_POINTS, SPACES = 20, 3
# Each image and space is the one of DRAWS random draws whose size (the sum
# of squared dimensions of its homology over the grid, computed without
# pmodcalc) is nearest the median size of such draws: elimination work
# follows that size, and varies about threefold between single draws.
DRAWS, IMAGE_TARGET_SIZE, SPACE_TARGET_SIZE = 8, 1285, 1060


class Item:
    """One timed unit of work: ``run`` is timed, ``digest`` and ``check`` are not."""

    def __init__(self, label, run, digest, check):
        self.label = label
        self.run = run
        self.digest = digest
        self.check = check


# -- shared helpers ---------------------------------------------------------


def _coords(el: str) -> tuple[int, ...]:
    return tuple(int(c) for c in el.split(","))


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def hilbert_mismatches(dims: dict[str, int], betti) -> list[str]:
    """Elements x of a grid where dim F(x) differs from the alternating sum
    of Betti numbers at or below x (the Hilbert function of a resolution)."""
    entries = [(_coords(el), i, v) for el, i, v in betti]
    bad = []
    for el, d in dims.items():
        x = _coords(el)
        total = sum((-1) ** i * v for a, i, v in entries if _leq(a, x))
        if total != d:
            bad.append(el)
    return bad


def _components(n: int, edges) -> int:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


# -- corpus -----------------------------------------------------------------


def _corpus(pm, seed, _tmpdir):
    rng = random.Random(f"corpus:{seed}")
    items = []
    for j, (suite, trials) in enumerate(CORPUS_ITEMS):
        suite_seed = rng.randrange(10 ** 6)

        def run(suite=suite, suite_seed=suite_seed, trials=trials):
            return pm.run_suite(suite, seed=suite_seed, trials=trials)

        items.append(Item(f"{j}:{suite}:{suite_seed}:{trials}", run,
                          _suite_digest, _suite_check))
    return items


def _suite_digest(report):
    return {name: [s.passed, s.failed] for name, s in sorted(report.properties.items())}


def _suite_check(digest):
    if not digest:
        return ["suite recorded no property"]
    return [f"{name} failed {failed} of {passed + failed}"
            for name, (passed, failed) in digest.items() if failed]


# -- analyze-sparse -----------------------------------------------------------


def _analyze_item(pm, label, path, module):
    dims = module.dims_by_element()
    total = module.total_dim()

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pm.cli.main(["analyze", path, "--json"])
        return code, out.getvalue()

    def digest(result):
        code, text = result
        if code != 0:
            return {"exit": code}
        p = json.loads(text)
        return {"total_dim": p["total_dim"], "degree": p["degree"],
                "cross_degree": p["cross_degree"], "codegree": p["codegree"],
                "cross_codegree": p["cross_codegree"], "pdim": p["pdim"],
                "betti": p["betti"],
                "pdim_consistent": all(r["consistent"] for r in p["pdim_theorems"])}

    def check(d):
        if "exit" in d:
            return [f"analyze exited {d['exit']}"]
        errs = []
        if d["total_dim"] != total:
            errs.append(f"total_dim {d['total_dim']} != generated {total}")
        bad = hilbert_mismatches(dims, d["betti"])
        if bad:
            errs.append(f"Betti numbers disagree with dims at {bad[:3]}")
        if not d["pdim_consistent"]:
            errs.append("pdim theorem conditions disagree")
        return errs

    return Item(label, run, digest, check)


def _write(tmpdir, label, text):
    path = os.path.join(tmpdir, label.replace(":", "_").replace(",", "-") + ".pmod")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _sparse(pm, seed, tmpdir):
    field = pm.FieldSpec(2)
    rng = random.Random(f"sparse:{seed}")
    items = []
    for j, side in enumerate(SPARSE_SIDES):
        lat = pm.Lattice.grid([side, side])
        label = f"sparse:{seed}:{side}"
        if j % 2 == 0:
            # Two free generators in the top 3x3 corner of the grid.
            gens = {f"{rng.randint(side - 2, side)},{rng.randint(side - 2, side)}": 1
                    for _ in range(2)}
            module = pm.free_module(lat, field, gens)
        else:
            # An interval: a rectangle in the top corner.
            x0, y0 = rng.randint(side - 3, side - 1), rng.randint(side - 3, side - 1)
            module = pm.interval_module(
                lat, field, [f"{x},{y}" for x in range(x0, side + 1)
                             for y in range(y0, side + 1)])
        path = _write(tmpdir, label, pm.print_pmod(module))
        items.append(_analyze_item(pm, label, path, module))
    return items


# -- pipelines --------------------------------------------------------------


def _image_dims(img) -> dict[int, dict[str, int]]:
    """H0 and H1 dims of the sublevel cubical complex at every threshold,
    from connected components and the Euler characteristic."""
    w, h, ch = img.width, img.height, img.channels
    pix = [(x, y) for y in range(h) for x in range(w)]
    val = {(x, y): tuple(img.values[c][y][x] for c in range(ch)) for (x, y) in pix}
    out = {0: {}, 1: {}}
    levels = [()]
    for _ in range(ch):
        levels = [lv + (a,) for lv in levels for a in range(img.max_value + 1)]
    for lv in levels:
        on = {p for p in pix if _leq(val[p], lv)}
        idx = {p: i for i, p in enumerate(sorted(on))}
        edges = [(idx[(x, y)], idx[q]) for (x, y) in on
                 for q in ((x + 1, y), (x, y + 1)) if q in on]
        squares = sum(1 for (x, y) in on
                      if {(x + 1, y), (x, y + 1), (x + 1, y + 1)} <= on)
        b0 = _components(len(on), edges)
        el = ",".join(str(a) for a in lv)
        out[0][el] = b0
        out[1][el] = b0 - len(on) + len(edges) - squares
    return out


def _rips_dims(space) -> dict[str, int]:
    """H0 dims of the sublevel-Rips bifiltration: connected components."""
    n = len(space.values)
    out = {}
    for ia, a in enumerate(space.a_levels):
        for ir, r in enumerate(space.r_levels):
            on = [i for i in range(n) if space.values[i] <= a]
            pos = {p: k for k, p in enumerate(on)}
            edges = [(pos[p], pos[q]) for p in on for q in on
                     if p < q and space.dist[p][q] <= r]
            out[f"{ia},{ir}"] = _components(len(on), edges)
    return out


def _size(dims: dict[str, int]) -> int:
    return sum(d * d for d in dims.values())


def _nearest_in_size(draws, size, target):
    """The first of the draws whose size is nearest the target."""
    return min(draws, key=lambda d: abs(size(d) - target))


def _module_digest(module, stat_name, stat, pd):
    return {"dims": module.dims_by_element(), stat_name: stat, "pdim": pd}


def _pipelines(pm, seed, _tmpdir):
    field = pm.FieldSpec(2)
    rng = random.Random(f"pipelines:{seed}")
    items = []
    for j in range(IMAGES):
        img = _nearest_in_size(
            [pm.generators.random_image(rng, IMAGE_SIDE, IMAGE_SIDE, channels=2,
                                        max_value=IMAGE_MAX) for _ in range(DRAWS)],
            lambda img: sum(map(_size, _image_dims(img).values())),
            IMAGE_TARGET_SIZE)

        def run(img=img):
            out = []
            for degree in (0, 1):
                m = pm.image_bifiltration_homology(img, degree, field)
                out.append((m, pm.min_cross_degree(m), pm.pdim(m)))
            return out

        def digest(result):
            return [_module_digest(m, "cross_degree", s, pd) for m, s, pd in result]

        def check(d, img=img):
            ref = _image_dims(img)
            errs = [f"H{k} dims disagree with the cubical complex"
                    for k in (0, 1) if d[k]["dims"] != ref[k]]
            if d[1]["cross_degree"] > 1 or d[1]["pdim"] > 1:
                errs.append("H1 of an image has cross-degree or pdim above 1")
            return errs

        items.append(Item(f"image:{seed}:{j}", run, digest, check))
    for j in range(SPACES):
        space = _nearest_in_size(
            [pm.generators.random_metric_space(rng, SPACE_POINTS) for _ in range(DRAWS)],
            lambda space: _size(_rips_dims(space)), SPACE_TARGET_SIZE)

        def run(space=space):
            m = pm.sublevel_rips_h0(space, field)
            return m, pm.min_cross_codegree(m), pm.pdim(m)

        def digest(result):
            m, stat, pd = result
            return _module_digest(m, "cross_codegree", stat, pd)

        def check(d, space=space):
            errs = []
            if d["dims"] != _rips_dims(space):
                errs.append("H0 dims disagree with connected components")
            if d["cross_codegree"] > 1:
                errs.append("sublevel-Rips H0 has cross-codegree above 1")
            return errs

        items.append(Item(f"rips:{seed}:{j}", run, digest, check))
    return items


WORKLOADS = {
    "corpus": _corpus,
    "analyze-sparse": _sparse,
    "pipelines": _pipelines,
}


def build(name, pm, seed, tmpdir):
    """The items of one workload, built from the seed into tmpdir."""
    return WORKLOADS[name](pm, seed, tmpdir)


def gate(item, digest, pinned):
    """Reasons the digest is wrong: a pinned mismatch or a broken invariant."""
    errs = []
    if pinned is not None:
        want = pinned.get(item.label)
        if want is None:
            errs.append("no pinned value for this item")
        elif json.loads(json.dumps(digest)) != want:
            errs.append("differs from the pinned value")
    try:
        errs.extend(item.check(digest))
    except (KeyError, TypeError, IndexError) as exc:
        errs.append(f"malformed output: {exc!r}")
    return errs
