"""Tests for shortcut candidates (Definitions 6-7, Fact 1)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import profile_search
from repro.core import build_shortcut_catalog
from repro.core.shortcuts import (
    ShortcutPair,
    _build_pairs_batched,
    _build_pairs_scalar,
    _dependency_closure,
)
from repro.functions import PiecewiseLinearFunction


@pytest.fixture(scope="module")
def exact_catalog(request):
    small_tree = request.getfixturevalue("small_tree")
    return build_shortcut_catalog(small_tree, max_points=None)


class TestCatalogStructure:
    def test_one_pair_per_node_ancestor_combination(self, small_tree, exact_catalog):
        expected = sum(len(small_tree.ancestors(v)) for v in small_tree.nodes)
        assert len(exact_catalog) == expected

    def test_pairs_point_to_ancestors(self, small_tree, exact_catalog):
        for pair in exact_catalog:
            assert small_tree.is_ancestor(pair.upper, pair.lower)
            assert pair.lower != pair.upper

    def test_weight_counts_both_directions(self, exact_catalog):
        for pair in exact_catalog:
            forward = pair.forward.size if pair.forward is not None else 0
            backward = pair.backward.size if pair.backward is not None else 0
            assert pair.weight == forward + backward

    def test_total_weight_and_utility_are_sums(self, exact_catalog):
        assert exact_catalog.total_weight == sum(p.weight for p in exact_catalog)
        assert exact_catalog.total_utility == pytest.approx(
            sum(p.utility for p in exact_catalog)
        )

    def test_get_and_function_between(self, exact_catalog):
        pair = next(iter(exact_catalog))
        assert exact_catalog.get(pair.lower, pair.upper) is pair
        assert exact_catalog.get(pair.upper, pair.lower) is None
        forward = exact_catalog.function_between(pair.lower, pair.upper)
        backward = exact_catalog.function_between(pair.upper, pair.lower)
        assert forward is pair.forward
        assert backward is pair.backward
        zero = exact_catalog.function_between(pair.lower, pair.lower)
        assert zero.evaluate(0.0) == 0.0

    def test_max_points_cap_applies_to_all_shortcuts(self, small_tree):
        catalog = build_shortcut_catalog(small_tree, max_points=6)
        for pair in catalog:
            if pair.forward is not None:
                assert pair.forward.size <= 6
            if pair.backward is not None:
                assert pair.backward.size <= 6


class TestShortcutExactness:
    def test_shortcuts_equal_true_shortest_functions(self, small_grid, exact_catalog, small_tree):
        """Fact 1 must reproduce the exact shortest travel-cost functions."""
        vertices = sorted(small_tree.nodes)[:4]
        for lower in vertices:
            exact_from = profile_search(small_grid, lower)
            for upper in small_tree.ancestors(lower):
                pair = exact_catalog.get(lower, upper)
                assert pair is not None
                assert pair.forward is not None
                assert (
                    pair.forward.max_difference(exact_from[upper], samples=300) < 1e-6
                )

    def test_backward_shortcuts_are_exact_too(self, small_grid, exact_catalog, small_tree):
        lower = sorted(small_tree.nodes, key=lambda v: -small_tree.height(v))[0]
        ancestors = small_tree.ancestors(lower)
        for upper in ancestors[-3:]:
            pair = exact_catalog.get(lower, upper)
            exact = profile_search(small_grid, upper)[lower]
            assert pair.backward.max_difference(exact, samples=300) < 1e-6

    def test_shortcut_never_below_free_flow_distance(self, exact_catalog):
        for pair in list(exact_catalog)[:50]:
            if pair.forward is not None:
                assert pair.forward.min_cost >= 0.0


def _catalog_keys(tree):
    return [(v, upper) for v in tree.nodes for upper in tree.ancestors(v)]


@pytest.fixture(scope="module")
def full_passes(request):
    """Full batched and scalar passes over the small tree, both capped at 6 points."""
    small_tree = request.getfixturevalue("small_tree")
    batched = _build_pairs_batched(
        small_tree, _catalog_keys(small_tree), max_points=6, tolerance=0.0
    )
    scalar = _build_pairs_scalar(small_tree, max_points=6, tolerance=0.0)
    return batched, scalar


class TestSubsetPass:
    """The incremental repair runs the batched pass over a dependency-closed subset."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_subset_pass_equals_the_full_pass(self, small_tree, full_passes, data):
        batched, scalar = full_passes
        seeds = data.draw(
            st.lists(st.sampled_from(sorted(small_tree.nodes)), min_size=1, max_size=6),
            label="seed vertices",
        )
        vertices = set()
        for vertex in seeds:
            vertices.update(small_tree.root_path(vertex))
        # Every pair on an ancestor-closed vertex set is dependency-closed.
        keys = [key for key in _catalog_keys(small_tree) if key[0] in vertices]
        assert _dependency_closure(small_tree, keys) == set(keys)

        subset = _build_pairs_batched(small_tree, keys, max_points=6, tolerance=0.0)

        expected = {key for key in batched if key[0] in vertices}
        assert set(subset) == expected
        for key, pair in subset.items():
            for reference in (batched[key], scalar[key]):
                assert pair.forward == reference.forward
                assert pair.backward == reference.backward

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_closure_pass_equals_the_full_catalog(self, small_tree, full_passes, data):
        batched, scalar = full_passes
        selected = data.draw(
            st.lists(
                st.sampled_from(sorted(batched)), min_size=1, max_size=12, unique=True
            ),
            label="selected pairs",
        )
        keys = _dependency_closure(small_tree, selected)
        assert set(selected) <= keys
        assert _dependency_closure(small_tree, keys) == keys

        subset = _build_pairs_batched(small_tree, keys, max_points=6, tolerance=0.0)

        assert set(selected) <= set(subset)
        assert set(subset) == {key for key in keys if key in batched}
        for key, pair in subset.items():
            for reference in (batched[key], scalar[key]):
                assert pair.forward == reference.forward
                assert pair.backward == reference.backward

    def test_closure_of_a_deep_pair_skips_unread_pairs(self, small_tree):
        deepest = max(small_tree.nodes, key=small_tree.height)
        root_path_pairs = {
            (v, upper)
            for v in small_tree.root_path(deepest)
            for upper in small_tree.ancestors(v)
        }
        parent = small_tree.parent(deepest)
        keys = _dependency_closure(small_tree, [(deepest, parent)])
        assert keys <= root_path_pairs
        assert len(keys) < len(root_path_pairs)


class TestUtilities:
    def test_utilities_are_nonnegative(self, exact_catalog):
        assert all(pair.utility >= 0.0 for pair in exact_catalog)

    def test_utility_formula_matches_definition(self, small_tree, exact_catalog):
        """u_<i,j> = (height gap) * treewidth * p_<i,j> with p from LCA counts."""
        width = small_tree.treewidth
        total = small_tree.num_nodes
        for pair in list(exact_catalog)[:40]:
            expected_count = sum(
                1
                for k in small_tree.nodes
                if small_tree.lca(pair.lower, k) == pair.upper
            )
            expected = (
                (small_tree.height(pair.lower) - small_tree.height(pair.upper))
                * width
                * (expected_count / total)
            )
            assert pair.utility == pytest.approx(expected, rel=1e-9)

    def test_density_is_utility_per_point(self):
        pair = ShortcutPair(
            lower=1,
            upper=2,
            forward=PiecewiseLinearFunction.constant(1.0),
            backward=PiecewiseLinearFunction.from_points([(0, 1), (10, 2)]),
            utility=6.0,
        )
        assert pair.weight == 3
        assert pair.density == pytest.approx(2.0)

    def test_density_of_empty_pair_is_zero(self):
        pair = ShortcutPair(lower=1, upper=2, forward=None, backward=None, utility=5.0)
        assert pair.weight == 0
        assert pair.density == 0.0

    def test_pairs_closer_to_the_root_have_larger_height_gap_factor(
        self, small_tree, exact_catalog
    ):
        """For a fixed lower vertex, the utility's height-gap factor grows as
        the ancestor gets closer to the root (coverage may shrink, so only the
        gap factor is monotone)."""
        lower = max(small_tree.nodes, key=lambda v: small_tree.height(v))
        ancestors = small_tree.ancestors(lower)
        gaps = [small_tree.height(lower) - small_tree.height(a) for a in ancestors]
        assert gaps == sorted(gaps, reverse=True)
