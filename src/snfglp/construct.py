"""Constructive generators and substitution expansion.

Counterexamples arrange cells in a single odd ring whose steps are one
legal adjacency translation rotated through the r-th roots of unity
embedded in Z[zeta_k]; such a ring can never be labeled, and any
configuration containing it inherits the obstruction.  Example rings
place corner cells around the origin (with interleaved cells when 4
divides k, where corner cells alone would share whole edges).
"""
from __future__ import annotations

import math
import random
from functools import lru_cache
from operator import add, sub

from .cyclotomic import (
    CycInt,
    _canonical,
    _cyclic_product,
    _mapped_key,
    _permuted,
    _preset,
    cyc_add,
    cyc_div_int,
    cyc_mul,
    cyc_rotate,
    cyc_scale,
    cyc_sub,
    to_cartesian,
    zero,
    zeta,
)
from .glp import classify_k
from .model import (
    Cell,
    FractalSpec,
    SpecError,
    _conflicting,
    _Grid,
    derive_scaling,
    make_spec,
)


class GenerationError(ValueError):
    """Raised when a generator's preconditions fail or growth stalls."""


def _largest_odd_divisor_below(k: int) -> int | None:
    """Largest odd divisor of k usable as an odd ring length (must stay < k)."""
    best = None
    for d in range(3, k, 2):
        if k % d == 0:
            best = d
    return best


def base_step(k: int) -> CycInt:
    """One legal adjacency translation, fixed deterministically.

    Even k: a long diagonal 2 * zeta^0.  Odd k: zeta^a - zeta^b with
    a = ceil((k+1)/4) and b = k+1-a, whose shared-index difference is
    +-(k+1)/2 as legal odd-k adjacency requires.
    """
    if k % 2 == 0:
        return zeta(k, 0, 2)
    a = (k + 4) // 4 if k % 4 == 1 else (k + 1) // 4
    b = (k + 1 - a) % k
    return cyc_sub(zeta(k, a), zeta(k, b))


def generate_counterexample(k: int) -> FractalSpec:
    """A partial spec of r cells in one ring that cannot be labeled.

    r is the largest odd divisor of k below k.  The q-th barycenter is
    the partial sum of the base step rotated by h * (k/r) root-of-unity
    steps for h < q, so the steps are exactly the r-th roots of unity
    (scaled); the ring closes because those roots sum to zero.
    """
    kind = classify_k(k)
    if kind.always_glp:
        raise GenerationError(
            f"k={k} is {kind.reason}; every such configuration can be labeled"
        )
    r = _largest_odd_divisor_below(k)
    step = base_step(k)
    cells = []
    pos = zero(k)
    for q in range(r):
        cells.append(pos)
        pos = cyc_add(pos, cyc_rotate(step, q * (k // r)))
    return make_spec(k, cells, partial=True)


def _ring_radius_vector(k: int, step: CycInt) -> CycInt:
    """Exact b with b * (zeta - 1) = step, i.e. the ring radius on the real axis.

    Uses (1 - zeta) * sum(j * zeta^j) = -k, so b = step * sum(j * zeta^j) / k.
    For every k that `generate_glp_example` accepts, b is integral, real
    and positive: `TestFixedRings.test_example_ring_radius` in
    tests/test_construct.py proves it for k = 3..36.
    """
    return cyc_div_int(cyc_mul(step, CycInt(k, tuple(range(k)))), k)


def generate_glp_example(k: int) -> FractalSpec:
    """A labelable ring configuration: N = k cells, or N = 2k when 4 | k.

    For 4 | k the k corner cells are interleaved with one extra cell per
    corner pair, sharing a single vertex with each neighbor.
    """
    if k < 3:
        raise GenerationError("k must be >= 3")
    if k % 4 != 0:
        if k % 2 == 1:
            step = base_step(k)
        else:
            step = zeta(k, (k + 2) // 4, 2)
        b = _ring_radius_vector(k, step)
        return make_spec(k, [cyc_rotate(b, q) for q in range(k)])
    # 4 | k: corner cells at b4 * zeta^q, one mid cell between each pair.
    head = cyc_scale(cyc_add(zeta(k, k // 4), zeta(k, k // 4 + 1)), 2)
    b4 = _ring_radius_vector(k, head)
    cells = []
    for q in range(k):
        corner = cyc_rotate(b4, q)
        cells.append(corner)
        cells.append(cyc_add(corner, zeta(k, q + k // 4, 2)))
    return make_spec(k, cells)


def expand(spec: FractalSpec, level: int) -> FractalSpec:
    """All depth-`level` cells of the substitution: sums of L^j-scaled offsets.

    L comes from `derive_scaling`, which reads the spec's dihedral record,
    built from the spec alone; expand hands it nothing.  The spec is
    recentred by its key mean, which is exact wherever L is defined;
    positions are sums over every choice of one level-1 offset per depth.
    Duplicates are an error.  Offsets and their sums are kept as
    (coefficients, canonical key) pairs of Python ints, summed key by key,
    and each output cell is the one value built from its pair.
    """
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2 or 3")
    k = spec.k
    n = spec.n
    if n**level > 100_000:
        raise ValueError(f"{n}^{level} cells exceed the size cap")
    scaling = derive_scaling(spec)
    # derive_scaling found n dividing the corner's scaled key n*key - total,
    # so the mean total/n is exact; like cyc_div_int, the offset b - mean
    # has its reduced key as its coefficients
    keys = [c.barycenter.canonical_key() for c in spec.cells]
    mean = [sum(col) // n for col in zip(*keys)]
    offsets = []
    for key in keys:
        quot = tuple(map(sub, key, mean))
        offsets.append((quot + (0,) * (k - len(quot)), quot))
    scaled = [offsets]
    for _ in range(1, level):
        products = [_cyclic_product(scaling.coeffs, t) for t, _ in scaled[-1]]
        scaled.append([(t, _canonical(k, t)) for t in products])
    # one entry per choice of offsets, in the order of product(range(n), repeat=level)
    points = [((0,) * k, (0,) * len(offsets[0][1]))]
    for layer in scaled:
        points = [
            (tuple(map(add, c, tc)), tuple(map(add, key, tk)))
            for c, key in points
            for tc, tk in layer
        ]
    cells: list[CycInt] = []
    seen: set[tuple[int, ...]] = set()
    for idx, (coeffs, key) in enumerate(points):
        if key in seen:
            choice = tuple(idx // n ** (level - 1 - d) % n for d in range(level))
            raise SpecError(f"duplicate cell produced by offset choice {choice}")
        seen.add(key)
        cells.append(_preset(k, coeffs, key))
    return make_spec(k, cells, partial=True)


def _legal_steps(k: int) -> list[CycInt]:
    """All translations moving a cell to a legally adjacent position."""
    if k % 2 == 0:
        return [zeta(k, j, 2) for j in range(k)]
    s = base_step(k)
    out = [cyc_rotate(s, j) for j in range(k)]
    out += [cyc_rotate(cyc_scale(s, -1), j) for j in range(k)]
    return out


@lru_cache(maxsize=None)
def _growth_base(k: int, expanded: bool) -> tuple[tuple[CycInt, ...], float]:
    """Barycenters and corner radius of a symmetrized growth base: the
    example ring, or with `expanded` its level-2 expansion.

    They depend on (k, expanded) alone, so each base is built once and
    shared between calls; its CycInt values are immutable.
    """
    spec = generate_glp_example(k)
    if expanded:
        spec = make_spec(k, [c.barycenter for c in expand(spec, 2).cells])
    return tuple(c.barycenter for c in spec.cells), to_cartesian(derive_scaling(spec))[0] - 1.0


def random_valid_spec(
    k: int, target_cells: int, seed: int, symmetrize: bool = False
) -> FractalSpec:
    """Deterministic random growth of a conflict-free connected configuration.

    Growth adds whole orbits of a symmetry group, each orbit of a legal
    step from an accepted cell.  Plain growth is the trivial group: it
    grows cell by cell from the origin and returns a partial spec.  With
    `symmetrize` the group is the dihedral group D_k, growth starts from a
    labelable base (the example ring, or its level-2 expansion when small
    enough) and keeps to its interior, and the non-partial spec passes
    every axiom; the target size is then a goal, not a guarantee, since
    the interior may fill up.
    """
    hi = 12 if symmetrize else 16
    if not 3 <= k <= hi:
        raise GenerationError(f"k must be in 3..{hi}")
    if not 1 <= target_cells <= 100:
        raise GenerationError("target_cells must be in 1..100")
    rng = random.Random(seed)
    steps = _legal_steps(k)
    step_keys = [s.canonical_key() for s in steps]
    if symmetrize:
        base, corner_radius = _growth_base(k, False)
        if len(base) ** 2 <= 100 and rng.random() < 0.5:
            base, corner_radius = _growth_base(k, True)
        # the images (shift, sign) of _mapped_key other than the identity (0, 1),
        # in the order written: cyc_rotate(cand, j) is (j, 1) and
        # cyc_reflect(cand, -j) is (-j, -1)
        group = [(sign * j, sign) for j in range(k) for sign in (1, -1)][1:]
        budget, patience = 40 * target_cells, 300
    else:
        base, corner_radius, group = (zero(k),), math.inf, []
        budget, patience = 400 * target_cells, math.inf
    order = list(base)
    # the accepted keys and the keys whose rejection cannot be undone as the
    # accepted set grows; the draws are made before the check, so skipping
    # a seen key changes no output
    seen = {pos.canonical_key() for pos in order}
    grid = _Grid()
    for pos in order:
        grid.add(Cell(pos, 0))
    stale = 0
    while len(order) < target_cells and budget > 0 and stale < patience:
        budget -= 1
        stale += 1
        base = order[rng.randrange(len(order))]
        i = rng.randrange(len(steps))
        key = tuple(map(add, base.canonical_key(), step_keys[i]))
        if key in seen:
            continue
        cand = _preset(k, tuple(map(add, base.coeffs, steps[i].coeffs)), key)
        if not any(key):
            ok = k in (3, 4, 6)  # central cell only legal for triangles, squares, hexagons
        else:
            # a float filter on draws: a candidate is a base cell (1-norm <= 160)
            # plus at most 100 legal steps (1-norm 2), permuted, so to_cartesian
            # is within 36 * 360 * 2^-52 < 2^-38 of the point, far below 0.05
            ok = math.hypot(*to_cartesian(cand)) <= corner_radius - 0.05
        # one test per orbit: a conflict is decided on the key difference, which
        # each group element g maps to a key difference, so g(cand) meets an
        # accepted a as cand meets g^-1(a), accepted too (the accepted set is
        # closed under the group), and meets h(cand) as cand meets g^-1 h(cand)
        cell = Cell(cand, 0)
        if not ok or not grid.clear(cell):
            seen.add(key)
            continue
        # orbit key -> (shift, sign) of its member, cand's coefficients
        # permuted by (shift, sign) and keyed by the orbit key; the image
        # written last for a point is its member, built only when accepted,
        # so a member is cand's own cell only under the identity
        orbit = {key: (0, 1)}
        for shift, sign in group:
            orbit[_mapped_key(k, key, shift, sign)] = (shift, sign)
        if any(_conflicting(k, tuple(map(sub, okey, key))) for okey in orbit if okey != key):
            seen.add(key)
            continue
        # no image of cand is accepted already, as cand's own key is not, and
        # every image touches the accepted configuration: cand = base + step
        # with base accepted, and g(cand) = g(base) + g(step), where g(base) is
        # accepted and g(step) is a legal step (the steps are closed under
        # negation and the dihedral group)
        for okey, (shift, sign) in sorted(orbit.items()):
            coeffs = _permuted(cand.coeffs, shift, sign)
            member = cell if (shift, sign) == (0, 1) else Cell(_preset(k, coeffs, okey), 0)
            seen.add(okey)
            grid.add(member)
            order.append(member.barycenter)
        stale = 0
    if not symmetrize and len(order) < target_cells:
        raise GenerationError("growth stalled before reaching the target size")
    return make_spec(k, order, partial=not symmetrize)
