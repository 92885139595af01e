"""Graph topologies and weighted Laplacians.

Vertices are zero-based internally (text I/O in the CLI uses one-based
labels).  Edge weights may be negative: weight vectors are initialized from
a zero-mean Gaussian, and everything downstream needs only the symmetry of
the Laplacian, not positive semidefiniteness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError, _check_count, _instance, _operand


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph on ``n`` vertices with a fixed edge order.

    Edges are pairs ``(i, j)`` with ``0 <= i < j < n``, no duplicates,
    stored in the order they will index weight vectors.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_count("n", self.n, 2)
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
        try:
            ends = np.array(self.edges)
        except ValueError:  # edges of unequal lengths; numpy >= 1.24 refuses a ragged array
            raise InvalidInputError("each edge must be a pair of vertices, got edges of "
                                    "unequal lengths") from None
        if self.n_edges and ends.shape != (self.n_edges, 2):
            raise InvalidInputError(f"each edge must be a pair of vertices, got an edge array "
                                    f"of shape {ends.shape}")
        ends = ends.reshape(self.n_edges, 2)  # no edges: a float64 array of shape (0,)
        if ends.size and ends.dtype.kind not in "iu":
            raise InvalidInputError(f"edge endpoints must be integers, got {ends.dtype}")
        ends = ends.astype(np.intp)
        ends.flags.writeable = False
        return ends

    @cached_property
    def flat_index(self) -> np.ndarray:
        """Read-only (4, n_edges) flat indices into an n x n array: rows pp, qq, pq, qp.

        Rows pq and qp place the off-diagonal Laplacian entries in one
        scatter; all four rows gather an edge's S[p,p], S[q,q], S[p,q], S[q,p].
        """
        P, Q = self.endpoints.T
        n = self.n
        flat = np.stack((P * (n + 1), Q * (n + 1), P * n + Q, Q * n + P))
        flat.flags.writeable = False
        return flat


@dataclass
class WeightedGraph:
    """A topology together with one real (possibly negative) weight per edge."""

    topology: Topology
    w: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _instance("topology", self.topology, Topology)
        shape = (self.topology.n_edges,)
        self.w = _operand("w", np.atleast_1d(self.w), shape.__eq__, f"have shape {shape}")


def banded_topology(n: int, band: int) -> Topology:
    """All edges (i, j) with 0 < j - i <= band, in lexicographic order.

    With band=2 this is the fixed regular topology used for tap-delayed
    signals: it preserves temporal order and has 2n - 3 edges for n >= 3.
    """
    _check_count("n", n, 2)
    _check_count("band", band)
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, min(i + band, n - 1) + 1)
    )
    return Topology(n, edges)


def full_topology(n: int) -> Topology:
    """Fully connected topology: n(n-1)/2 edges in lexicographic order."""
    _check_count("n", n, 2)
    return banded_topology(n, n - 1)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted graph Laplacian B diag(w) B^T, B the signed incidence matrix.

    The diagonal is an ordered bincount that adds each vertex's weights in
    edge order, so the result is bitwise equal to the sum of w_i * theta_i.
    """
    return _laplacian(g.topology, g.w)


def _laplacian(t: Topology, w: np.ndarray) -> np.ndarray:
    # unchecked core of laplacian; exactly symmetric by construction
    n = t.n
    L = np.zeros(n * n)
    # interleaved (p0, q0, p1, q1, ...): each vertex accumulates in edge order
    L[:: n + 1] = np.bincount(t.endpoints.ravel(), weights=w.repeat(2), minlength=n)
    L[t.flat_index[2:]] = 0.0 - w  # both triangles at once; not -w: a zero weight stays +0.0
    return L.reshape(n, n)


def theta(g: WeightedGraph, edge_index: int) -> np.ndarray:
    """Derivative of the Laplacian with respect to one edge weight.

    For edge (p, q) the matrix has exactly four nonzeros:
    (p,p) = (q,q) = +1 and (p,q) = (q,p) = -1.  Independent of w.
    """
    _check_count("edge_index", edge_index, 0, g.topology.n_edges)
    p, q = g.topology.edges[edge_index]
    T = np.zeros((g.topology.n, g.topology.n))
    T[p, p] = T[q, q] = 1.0
    T[p, q] = T[q, p] = -1.0
    return T

