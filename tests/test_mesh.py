"""Grid construction, barycentric interpolation, and the slab map."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duhamelcheb import (
    CGLGrid,
    TimePartition,
    build_grid,
    interpolate,
    lagrange_eval,
)


def product_form_lagrange(nodes: np.ndarray, j: int, s: float) -> float:
    """Brute-force oracle: prod_{i != j} (s - s_i) / (s_j - s_i)."""
    val = 1.0
    for i, si in enumerate(nodes):
        if i != j:
            val *= (s - si) / (nodes[j] - si)
    return val


def test_nodes_n2():
    g = build_grid(2)
    assert np.allclose(g.nodes, [-1.0, 0.0, 1.0], atol=1e-15)


def test_nodes_n4():
    g = build_grid(4)
    r = np.sqrt(2.0) / 2.0
    assert np.allclose(g.nodes, [-1.0, -r, 0.0, r, 1.0], atol=1e-15)


def test_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        build_grid(0)


@pytest.mark.parametrize("count", [0, -2, 2.5, 2.0, np.float64(3.0), "3", True, None], ids=repr)
def test_grid_degree_and_slab_count_must_be_integers(count):
    with pytest.raises(ValueError, match=f"^grid degree must be an integer >= 1, got {re.escape(repr(count))}"):
        build_grid(count)
    with pytest.raises(ValueError, match=f"^slab count must be an integer >= 1, got {re.escape(repr(count))}"):
        TimePartition(1.0, count)


def test_grid_degree_and_slab_count_accept_numpy_integers():
    assert np.array_equal(build_grid(np.int64(6)).nodes, build_grid(6).nodes)
    assert TimePartition(1.0, np.int32(4)).tau == TimePartition(1.0, 4).tau


@pytest.mark.parametrize("N", [2, 3, 5, 8, 13])
def test_node_symmetry(N):
    g = build_grid(N)
    assert np.abs(g.nodes + g.nodes[::-1]).max() <= 1e-15


def test_max_spacing_bounded_by_pi_over_n():
    for N in (2, 4, 8, 16):
        g = build_grid(N)
        assert g.spacings.max() <= np.pi / N + 1e-15
        assert (g.spacings > 0).all()


def test_lagrange_kronecker_property():
    g = build_grid(6)
    for j in range(7):
        vals = lagrange_eval(g, j, g.nodes)
        expect = np.zeros(7)
        expect[j] = 1.0
        assert np.array_equal(vals, expect)


def test_lagrange_matches_product_form():
    g = build_grid(4)
    assert lagrange_eval(g, 2, 0.3) == pytest.approx(
        product_form_lagrange(g.nodes, 2, 0.3), abs=1e-13
    )


@given(st.integers(min_value=1, max_value=12), st.floats(-1, 1))
def test_partition_of_unity(N, s):
    g = build_grid(N)
    total = sum(lagrange_eval(g, j, s) for j in range(N + 1))
    assert total == pytest.approx(1.0, abs=5e-13)


@given(st.integers(min_value=1, max_value=10), st.floats(-1, 1))
def test_interpolating_constants(N, s):
    g = build_grid(N)
    vals = np.full(N + 1, 3.25)
    assert interpolate(g, vals, s) == pytest.approx(3.25, abs=1e-13)


@given(st.integers(min_value=2, max_value=10))
def test_interpolation_idempotent(N):
    """Interpolation is a projection: re-sampling the interpolant at the
    nodes and interpolating again changes nothing."""
    g = build_grid(N)
    vals = np.sin(1.0 + 2.0 * g.nodes)
    probes = np.linspace(-1, 1, 37)
    once = np.array([interpolate(g, vals, s) for s in probes])
    resampled = np.array([interpolate(g, vals, s) for s in g.nodes])
    twice = np.array([interpolate(g, resampled, s) for s in probes])
    assert np.abs(once - twice).max() <= 1e-13


@pytest.mark.parametrize("N", [3, 6, 9])
def test_monomial_exactness_up_to_degree(N):
    g = build_grid(N)
    rng = np.random.default_rng(7)
    probes = rng.uniform(-1, 1, size=50)
    for m in range(N + 1):
        vals = g.nodes**m
        err = max(abs(interpolate(g, vals, s) - s**m) for s in probes)
        assert err <= 1e-12
    # one degree higher must show a defect somewhere
    vals = g.nodes ** (N + 1)
    defect = max(abs(interpolate(g, vals, s) - s ** (N + 1)) for s in probes)
    assert defect > 1e-8


def test_interpolation_of_vector_data():
    g = build_grid(5)
    vals = np.stack([np.exp(g.nodes), np.cos(g.nodes)], axis=1)
    out = interpolate(g, vals, 0.4)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(np.exp(0.4), abs=2e-4)
    assert out[1] == pytest.approx(np.cos(0.4), abs=2e-4)


def test_interpolate_rejects_length_mismatch():
    g = build_grid(3)
    with pytest.raises(ValueError):
        interpolate(g, np.ones(3), 0.0)


def test_nan_point_interpolates_to_nan():
    g = build_grid(4)
    assert np.isnan(interpolate(g, [10, 20, 30, 40, 50], np.nan))
    assert np.isnan(lagrange_eval(g, 0, np.nan))
    out = interpolate(g, np.arange(10.0).reshape(5, 2), [0.0, np.nan, 1.0])
    assert np.array_equal(out[[0, 2]], [[4.0, 5.0], [8.0, 9.0]])
    assert np.isnan(out[1]).all()
    assert np.isnan(interpolate(g, np.ones((5, 3)), np.nan)).all()


def plain_barycentric(grid, vals, s):
    """The second barycentric form with no node-hit handling."""
    terms = grid.barycentric_weights / (np.asarray(s)[:, None] - grid.nodes)
    return (terms @ vals) / terms.sum(axis=1)


@pytest.mark.parametrize("N", [1, 4, 7, 16])
def test_points_on_and_next_to_nodes_keep_their_bits(N):
    """Node hits, and points so close to the centre node 0.0 that its term
    overflows, take the nodal value; the neighbouring floats of every other
    node take the plain formula."""
    g = build_grid(N)
    vals = np.cos(3.0 * g.nodes + 0.25)
    assert interpolate(g, vals, g.nodes).tobytes() == vals.tobytes()
    for j, node in enumerate(g.nodes):
        assert interpolate(g, vals, node) == vals[j]
        if node == 0.0:
            continue
        near = np.array([np.nextafter(node, -2.0), np.nextafter(node, 2.0)])
        assert interpolate(g, vals, near).tobytes() == plain_barycentric(g, vals, near).tobytes()
    if N % 2 == 0:
        centre = np.array([1e-310, -1e-310, 5e-324, -5e-324])  # w / s overflows
        assert np.array_equal(interpolate(g, vals, centre), [vals[N // 2]] * 4)


def test_exp_interpolation_error_within_lebesgue_bound():
    g = build_grid(8)
    vals = np.exp(g.nodes)
    fine = np.linspace(-1, 1, 400)
    approx = np.array([interpolate(g, vals, s) for s in fine])
    err = np.abs(approx - np.exp(fine)).max()
    # best uniform approximation of e^s by degree-8 polynomials is below
    # 2^{-8} (8+1)! ~ 1e-9 by the standard derivative bound; allow the
    # Lebesgue factor on top: the maximum over the sample of the Lebesgue
    # function sum_j |L_j(s)|
    lam = np.abs(interpolate(g, np.eye(9), fine)).sum(axis=1).max()
    assert lam <= 1.0 + (2.0 / np.pi) * np.log(9.0)
    assert err <= (1.0 + lam) * 1e-8


def test_partition_tiles_horizon():
    part = TimePartition(1.0, 4)
    for l in range(1, 4):
        assert part.map_to_slab(l, 1.0) == part.map_to_slab(l + 1, -1.0)
    assert part.map_to_slab(1, -1.0) == 0.0
    assert part.map_to_slab(4, 1.0) == 1.0


def test_slab_map_values():
    part = TimePartition(1.0, 2)
    assert part.map_to_slab(1, -1.0) == 0.0
    assert part.map_to_slab(2, 1.0) == 1.0
    s = np.cos(np.pi / 4)
    assert part.map_to_slab(2, s) == pytest.approx(0.25 * s + 0.75, abs=1e-15)


def test_slab_map_monotone_in_s():
    part = TimePartition(2.0, 3)
    ss = np.linspace(-1, 1, 11)
    ts = [part.map_to_slab(2, s) for s in ss]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_slab_index_validated():
    part = TimePartition(1.0, 2)
    with pytest.raises(ValueError):
        part.map_to_slab(0, 0.0)
    with pytest.raises(ValueError):
        part.map_to_slab(3, 0.0)


@pytest.mark.parametrize(
    "s",
    [np.nan, -1.0 - 1e-9, 1.0 + 1e-9, np.inf, np.array([0.0, np.nan]), np.array([[0.5], [-2.0]])],
    ids=["nan", "below", "above", "inf", "array-nan", "array-below"],
)
def test_reference_coordinate_off_the_slab_raises(s):
    """A NaN coordinate fails the range check like any point off [-1, 1]
    (beyond the 1e-12 slack), as a scalar and inside an array."""
    with pytest.raises(ValueError, match=r"reference coordinate outside \[-1, 1\]"):
        TimePartition(1.0, 2).map_to_slab(1, s)


def test_reference_coordinate_slack_admits_the_ends():
    part = TimePartition(1.0, 2)
    assert part.map_to_slab(1, -1.0 - 1e-13) == pytest.approx(0.0, abs=1e-13)
    assert part.map_to_slab(2, np.array([1.0 + 1e-13]))[0] == pytest.approx(1.0, abs=1e-13)


def test_slab_times_shares_junction_bits():
    part = TimePartition(1.0, 5)
    g = build_grid(6)
    for l in range(1, 5):
        left = part.map_to_slab(l, g.nodes)
        right = part.map_to_slab(l + 1, g.nodes)
        assert left[-1] == right[0]


def test_grid_is_frozen():
    g = build_grid(4)
    assert isinstance(g, CGLGrid)
    with pytest.raises(AttributeError):
        g.nodes = np.zeros(5)

