"""Shared test oracles, independent of the library's decision paths."""
from __future__ import annotations

import itertools

from snfglp.cyclotomic import CycInt, IntPolynomial, cyc_add, cyclotomic_polynomial, zero
from snfglp.glp import build_constraint_graph, edge_weight
from snfglp.model import FractalSpec

PLAIN_ENUM_CAP = 200_000


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
    roots = set()
    seen_components = set()
    for i in range(n):
        if graph.component[i] not in seen_components:
            seen_components.add(graph.component[i])
            roots.add(i)

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
