"""Graph topologies, incidence matrices, and weighted Laplacians.

Vertices are zero-based internally (text I/O in the CLI uses one-based
labels).  Edge weights may be negative: weight vectors are initialized from
a zero-mean Gaussian, and everything downstream needs only the symmetry of
the Laplacian, not positive semidefiniteness.  The incidence sign
convention is fixed (+1 at the smaller vertex index) so that the matrix is
bit-deterministic; the Laplacian is invariant to that choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph on ``n`` vertices with a fixed edge order.

    Edges are pairs ``(i, j)`` with ``0 <= i < j < n``, no duplicates,
    stored in the order they will index weight vectors.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidDimensionError(f"need at least 2 vertices, got n={self.n}")
        P, Q = self.endpoints.T
        bad = np.flatnonzero((P < 0) | (P >= Q) | (Q >= self.n))
        if bad.size:
            raise InvalidDimensionError(f"edge {self.edges[bad[0]]} invalid for n={self.n}")
        first = np.unique(P * self.n + Q, return_index=True)[1]
        if first.size < self.n_edges:  # report the earliest repeat, in edge order
            e = np.setdiff1d(np.arange(self.n_edges), first)[0]
            raise InvalidDimensionError(f"duplicate edge {self.edges[e]}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def endpoints(self) -> np.ndarray:
        """Read-only (n_edges, 2) index array; ``P, Q = t.endpoints.T``."""
        ends = np.array(self.edges, dtype=np.intp).reshape(len(self.edges), 2)
        ends.flags.writeable = False
        return ends


@dataclass
class WeightedGraph:
    """A topology together with one real (possibly negative) weight per edge."""

    topology: Topology
    w: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if self.w.shape != (self.topology.n_edges,):
            raise InvalidDimensionError(
                f"weight vector has length {self.w.shape[0]}, "
                f"topology has {self.topology.n_edges} edges"
            )
        if not np.all(np.isfinite(self.w)):
            raise InvalidInputError("edge weights must be finite")


def banded_topology(n: int, band: int) -> Topology:
    """All edges (i, j) with 0 < j - i <= band, in lexicographic order.

    With band=2 this is the fixed regular topology used for tap-delayed
    signals: it preserves temporal order and has 2n - 3 edges for n >= 3.
    """
    if band < 1:
        raise InvalidDimensionError(f"band must be positive, got {band}")
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, min(i + band, n - 1) + 1)
    )
    return Topology(n, edges)


def full_topology(n: int) -> Topology:
    """Fully connected topology: n(n-1)/2 edges in lexicographic order."""
    return Topology(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def incidence_matrix(t: Topology) -> np.ndarray:
    """n x |edges| incidence matrix: column e has +1 at row i, -1 at row j."""
    P, Q = t.endpoints.T
    B = np.zeros((t.n, t.n_edges))
    B[P, np.arange(t.n_edges)] = 1.0
    B[Q, np.arange(t.n_edges)] = -1.0
    return B


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian B diag(w) B^T.

    The diagonal is an ordered bincount that adds each vertex's weights in
    edge order, so the result is bitwise equal to the sum of w_i * theta_i.
    """
    return _laplacian(g.topology, g.w)


def _laplacian(t: Topology, w: np.ndarray) -> np.ndarray:
    # unchecked core of laplacian; exactly symmetric by construction
    P, Q = t.endpoints.T
    L = np.diag(_signed_degrees(t, w))
    L[P, Q] = L[Q, P] = 0.0 - w  # not -w: a zero weight stays +0.0
    return L


def theta(g: WeightedGraph, edge_index: int) -> np.ndarray:
    """Derivative of the Laplacian with respect to one edge weight.

    For edge (p, q) the matrix has exactly four nonzeros:
    (p,p) = (q,q) = +1 and (p,q) = (q,p) = -1.  Independent of w.
    """
    if not 0 <= edge_index < g.topology.n_edges:
        raise IndexError(
            f"edge index {edge_index} out of range for {g.topology.n_edges} edges"
        )
    p, q = g.topology.edges[edge_index]
    T = np.zeros((g.topology.n, g.topology.n))
    T[p, p] = T[q, q] = 1.0
    T[p, q] = T[q, p] = -1.0
    return T


def signed_degree_vector(g: WeightedGraph) -> np.ndarray:
    """Per-vertex sum of signed weights over incident edges (the Laplacian diagonal)."""
    return _signed_degrees(g.topology, g.w)


def _signed_degrees(t: Topology, w: np.ndarray) -> np.ndarray:
    # interleaved (p0, q0, p1, q1, ...): each vertex accumulates in edge order
    return np.bincount(t.endpoints.ravel(), weights=np.repeat(w, 2), minlength=t.n)
