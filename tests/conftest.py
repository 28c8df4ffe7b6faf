"""Shared test oracles, independent of the library's decision paths."""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from unittest import mock

from snfglp.cyclotomic import CycInt, IntPolynomial, cyc_add, cyc_sub, cyclotomic_polynomial, zero, zeta
from snfglp.glp import build_constraint_graph, edge_weight
from snfglp.model import FractalSpec

PLAIN_ENUM_CAP = 200_000

# texts that `parse` rejects at its boundary checks, each with its error text
PARSE_ERRORS = [
    ("", "missing header line"),
    ("# only\n", "missing header line"),
    ("snf k=x\ncell 1 0 0\n", "bad k in header 'snf k=x'"),
    ("snf k=3 full\ncell 1 0 0\n", "unexpected tokens in header 'snf k=3 full'"),
    ("snf k=3\ncell 1 x 0\n", "line 2: bad integer in 'cell 1 x 0'"),
    # 2 + zeta + zeta^2 = 1: one point written two ways
    ("snf k=3\ncell 2 1 1\ncell 1 0 0\n", "duplicate barycenter at cell 1"),
]


@contextmanager
def recording(module, name: str):
    """Patch `module.<name>` for the block to append the arguments of each
    call, as a tuple, to the list it yields; the list outlives the block."""
    calls: list[tuple] = []
    f = getattr(module, name)

    def record(*args):
        calls.append(args)
        return f(*args)

    with mock.patch.object(module, name, record):
        yield calls


def remainder_key(k: int, coeffs) -> tuple[int, ...]:
    """The canonical key by long division: the remainder of the coefficient
    polynomial modulo Phi_k, padded to phi(k) entries."""
    phi = cyclotomic_polynomial(k)
    rem = IntPolynomial(*coeffs).divmod_exact(phi)[1].coeffs
    return rem + (0,) * (phi.degree() - len(rem))


def cell_sum(spec: FractalSpec) -> CycInt:
    """The exact sum of the cell barycenters, added one by one."""
    total = zero(spec.k)
    for cell in spec.cells:
        total = cyc_add(total, cell.barycenter)
    return total


def fold(k: int, coeffs, j: int, m: int) -> tuple[int, ...]:
    """The same point of Z[zeta_k] with m * zeta^j * Phi_k (which is 0) added
    to its coefficients."""
    row = list(coeffs)
    for d, c in enumerate(cyclotomic_polynomial(k).coeffs):
        row[(d + j) % k] += m * c
    return tuple(row)


def small_real(k: int) -> CycInt | None:
    """A real point of Z[zeta_k] with 0 < |u| <= 1/2: 2 cos(2 pi a / k) minus its
    nearest integer, for the first a where that is not an integer (None for
    k = 3, 4, 6, whose real points are all integers)."""
    for a in range(1, k // 2 + 1):
        c = 2.0 * math.cos(2.0 * math.pi * a / k)
        if abs(c - round(c)) > 1e-6:
            return cyc_sub(cyc_add(zeta(k, a), zeta(k, -a)), zeta(k, 0, round(c)))
    return None


def brute_force_glp(spec: FractalSpec) -> bool:
    """Exhaustive search over per-cell rotation assignments.

    All k^n assignments are enumerated directly when that is small
    enough; otherwise the same space is searched depth-first with the
    first cell of every component pinned to offset 0 (constraints only
    involve offset differences, so any solution shifts onto a pinned
    one) and branches abandoned as soon as an already-decided edge is
    violated.
    """
    graph = build_constraint_graph(spec)
    k = spec.k
    n = spec.n
    edges = [(e.a, e.b, edge_weight(e, k)) for e in graph.edges]

    if k**n <= PLAIN_ENUM_CAP:
        for assign in itertools.product(range(k), repeat=n):
            if all((assign[b] - assign[a] - w) % k == 0 for a, b, w in edges):
                return True
        return False

    earlier: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, w in edges:
        earlier[b].append((a, w))
    # the forest roots each component at its lowest-index cell
    roots = {i for i in range(n) if graph.parent[i] == -1}

    assign = [0] * n

    def search(i: int) -> bool:
        if i == n:
            return True
        candidates = (0,) if i in roots else range(k)
        for r in candidates:
            if all((r - assign[j] - w) % k == 0 for j, w in earlier[i]):
                assign[i] = r
                if search(i + 1):
                    return True
        return False

    return search(0)


def spec_targets(count: int) -> list[int]:
    """Deterministic spread of growth targets in 2..60."""
    return [2 + (i * 7) % 59 for i in range(count)]
