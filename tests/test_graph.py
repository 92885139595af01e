import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precog.errors import InvalidDimensionError, InvalidInputError
from precog.graph import (
    Topology,
    WeightedGraph,
    banded_topology,
    full_topology,
    laplacian,
    theta,
)


def graph_from(n, edges, w):
    return WeightedGraph(Topology(n, tuple(edges)), np.asarray(w, dtype=float))


def laplacian_loop(g):
    """Oracle: the Laplacian accumulated edge by edge."""
    n = g.topology.n
    L = np.zeros((n, n))
    for e, (i, j) in enumerate(g.topology.edges):
        we = g.w[e]
        L[i, i] += we
        L[j, j] += we
        L[i, j] -= we
        L[j, i] -= we
    return L


def incidence_loop(t):
    """Oracle: the n x |edges| incidence matrix, +1 at the smaller vertex of each edge."""
    B = np.zeros((t.n, t.n_edges))
    for e, (i, j) in enumerate(t.edges):
        B[i, e] = 1.0
        B[j, e] = -1.0
    return B


def degree_loop(g):
    """Oracle: the signed degree accumulated edge by edge."""
    d = np.zeros(g.topology.n)
    for e, (i, j) in enumerate(g.topology.edges):
        d[i] += g.w[e]
        d[j] += g.w[e]
    return d


@st.composite
def large_weighted_graphs(draw):
    """Full or banded topologies up to n=128 with signed weights, zeros and -0.0."""
    n = draw(st.integers(min_value=2, max_value=128))
    band = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
    t = full_topology(n) if band is None else banded_topology(n, band)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    w = rng.standard_normal(t.n_edges) * 10.0 ** rng.integers(-8, 9, t.n_edges)
    w[rng.random(t.n_edges) < 0.05] = 0.0
    w[rng.random(t.n_edges) < 0.05] = -0.0
    return WeightedGraph(t, w)


@st.composite
def weighted_graphs(draw, max_n=7, nonnegative=False):
    n = draw(st.integers(min_value=2, max_value=max_n))
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1))
    lo = 0.0 if nonnegative else -5.0
    w = draw(
        st.lists(
            st.floats(min_value=lo, max_value=5.0, allow_nan=False),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return graph_from(n, sorted(edges), w)


class TestTopologies:
    def test_banded_n4_band2(self):
        t = banded_topology(4, 2)
        assert t.edges == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
        assert t.n_edges == 2 * 4 - 3

    def test_banded_n2(self):
        assert banded_topology(2, 2).edges == ((0, 1),)

    def test_banded_saturates_to_full(self):
        assert banded_topology(5, 4).edges == full_topology(5).edges
        assert banded_topology(5, 4).n_edges == 10
        for n in (2, 3, 10, 12, 128):  # the CLI builds --topology full this way
            assert banded_topology(n, n - 1) == full_topology(n)

    @given(st.integers(min_value=3, max_value=40))
    def test_band2_edge_count(self, n):
        assert banded_topology(n, 2).n_edges == 2 * n - 3

    def test_full_small(self):
        assert full_topology(3).edges == ((0, 1), (0, 2), (1, 2))
        assert full_topology(2).edges == ((0, 1),)
        assert full_topology(10).n_edges == 45

    def test_too_few_vertices(self):
        with pytest.raises(InvalidDimensionError):
            banded_topology(1, 2)
        with pytest.raises(InvalidDimensionError):
            full_topology(1)

    def test_topology_validation(self):
        with pytest.raises(InvalidDimensionError):
            Topology(3, ((0, 3),))
        with pytest.raises(InvalidDimensionError):
            Topology(3, ((1, 0),))
        with pytest.raises(InvalidDimensionError):
            Topology(3, ((0, 1), (0, 1)))

    def test_weight_length_checked(self):
        with pytest.raises(InvalidDimensionError):
            WeightedGraph(full_topology(3), np.ones(2))
        with pytest.raises(InvalidInputError):
            WeightedGraph(full_topology(3), np.array([1.0, np.nan, 0.0]))


class TestIncidence:
    # the oracle behind the B diag(w) B^T checks below
    def test_single_edge(self):
        B = incidence_loop(Topology(2, ((0, 1),)))
        assert np.array_equal(B, np.array([[1.0], [-1.0]]))

    def test_path(self):
        B = incidence_loop(Topology(3, ((0, 1), (1, 2))))
        assert np.array_equal(B[:, 0], [1.0, -1.0, 0.0])
        assert np.array_equal(B[:, 1], [0.0, 1.0, -1.0])

    @given(large_weighted_graphs())
    @settings(max_examples=20, deadline=None)
    def test_unit_weight_laplacian_is_incidence_gram(self, g):
        # entries of B B^T are small integers, so the product is exact
        B = incidence_loop(g.topology)
        unit = WeightedGraph(g.topology, np.ones(g.topology.n_edges))
        assert np.array_equal(laplacian(unit), B @ B.T)

    @given(weighted_graphs())
    def test_columns_sum_to_zero(self, g):
        B = incidence_loop(g.topology)
        assert np.all(B.sum(axis=0) == 0.0)


class TestLaplacian:
    def test_single_edge(self):
        L = laplacian(graph_from(2, [(0, 1)], [1.0]))
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path(self):
        L = laplacian(graph_from(3, [(0, 1), (1, 2)], [1.0, 1.0]))
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1.0]])

    @given(weighted_graphs())
    def test_row_sums_vanish(self, g):
        L = laplacian(g)
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12

    @given(weighted_graphs())
    def test_matches_incidence_product(self, g):
        L = laplacian(g)
        B = incidence_loop(g.topology)
        assert np.allclose(L, B @ np.diag(g.w) @ B.T, atol=1e-12)

    def test_elementwise_construction_all_graphs_n_le_5(self):
        # brute force over every nonempty topology on up to 5 vertices
        rng = np.random.default_rng(7)
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for r in range(1, len(pairs) + 1):
                for edges in itertools.combinations(pairs, r):
                    w = rng.standard_normal(len(edges))
                    g = graph_from(n, edges, w)
                    expected = np.zeros((n, n))
                    for e, (p, q) in enumerate(edges):
                        expected[p, q] = expected[q, p] = -w[e]
                    np.fill_diagonal(expected, degree_loop(g))
                    assert np.allclose(laplacian(g), expected, atol=1e-12)

    @given(weighted_graphs(nonnegative=True))
    @settings(max_examples=50)
    def test_psd_for_nonnegative_weights(self, g):
        assert np.linalg.eigvalsh(laplacian(g))[0] >= -1e-10

    @given(large_weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_edge_loop(self, g):
        assert laplacian(g).tobytes() == laplacian_loop(g).tobytes()

    @given(weighted_graphs())
    def test_sum_of_thetas_is_laplacian_exactly(self, g):
        total = np.zeros((g.topology.n, g.topology.n))
        for e in range(g.topology.n_edges):
            total = total + g.w[e] * theta(g, e)
        assert np.array_equal(total, laplacian(g))


class TestTheta:
    def test_four_nonzeros(self):
        g = graph_from(3, [(0, 2)], [5.0])
        T = theta(g, 0)
        assert T[0, 0] == 1.0 and T[2, 2] == 1.0
        assert T[0, 2] == -1.0 and T[2, 0] == -1.0
        assert np.count_nonzero(T) == 4

    @given(weighted_graphs())
    def test_trace_and_rowsums(self, g):
        for e in range(g.topology.n_edges):
            T = theta(g, e)
            assert np.trace(T) == 2.0
            assert np.all(T @ np.ones(g.topology.n) == 0.0)
            assert np.count_nonzero(T) == 4

    def test_independent_of_weights(self):
        t = full_topology(4)
        a = theta(WeightedGraph(t, np.ones(6)), 3)
        b = theta(WeightedGraph(t, -7.0 * np.ones(6)), 3)
        assert np.array_equal(a, b)

    def test_index_out_of_range(self):
        g = graph_from(3, [(0, 1)], [1.0])
        with pytest.raises(IndexError):
            theta(g, 1)

    @given(weighted_graphs())
    @settings(max_examples=30)
    def test_invariant_under_incidence_sign_flip(self, g):
        # theta_e equals b_e b_e^T for column e; flipping the column sign
        # (or any per-column signs) leaves the outer product unchanged
        B = incidence_loop(g.topology)
        rng = np.random.default_rng(0)
        signs = rng.choice([-1.0, 1.0], size=g.topology.n_edges)
        for e in range(g.topology.n_edges):
            flipped = signs[e] * B[:, e]
            assert np.array_equal(np.outer(flipped, flipped), theta(g, e))
        L_flip = (B * signs) @ np.diag(g.w) @ (B * signs).T
        assert np.allclose(L_flip, laplacian(g), atol=1e-12)


class TestDegrees:
    # the Laplacian diagonal is the signed degree vector
    def test_single_edge(self):
        g = graph_from(2, [(0, 1)], [3.0])
        assert np.array_equal(laplacian(g).diagonal(), [3.0, 3.0])

    def test_path(self):
        g = graph_from(3, [(0, 1), (1, 2)], [1.0, 2.0])
        assert np.array_equal(laplacian(g).diagonal(), [1.0, 3.0, 2.0])

    def test_negative_weight_absolute_convention(self):
        g = graph_from(2, [(0, 1)], [-1.0])
        assert np.array_equal(laplacian(g).diagonal(), [-1.0, -1.0])

    @given(weighted_graphs())
    def test_oracle_direct_summation(self, g):
        assert np.allclose(laplacian(g).diagonal(), degree_loop(g), atol=0)

    @given(large_weighted_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bitwise_equal_to_edge_loop(self, g):
        assert laplacian(g).diagonal().tobytes() == degree_loop(g).tobytes()

    def test_endpoints_cached_and_read_only(self):
        t = banded_topology(5, 2)
        assert t.endpoints is t.endpoints
        assert np.array_equal(t.endpoints, np.array(t.edges))
        with pytest.raises(ValueError):
            t.endpoints[0, 0] = 3

    def test_flat_index_cached_read_only_and_in_edge_order(self):
        t = banded_topology(5, 2)
        assert t.flat_index is t.flat_index
        M = np.arange(25.0).reshape(5, 5)
        P, Q = t.endpoints.T
        assert np.array_equal(M.take(t.flat_index), [M[P, P], M[Q, Q], M[P, Q], M[Q, P]])
        with pytest.raises(ValueError):
            t.flat_index[0, 0] = 3

    def test_laplacian_plan_cached_read_only_and_equal_to_the_edge_arrays(self):
        # _laplacian reads endpoints.ravel() and flat_index[2:]: read-only views, not copies
        t = full_topology(6)
        for cached, plan in ((t.endpoints, t.endpoints.ravel()),
                             (t.flat_index, t.flat_index[2:])):
            assert np.shares_memory(plan, cached)
            assert not plan.flags.writeable
            with pytest.raises(ValueError):
                plan[0] = 3
        assert t.endpoints is t.endpoints
        assert t.flat_index is t.flat_index
