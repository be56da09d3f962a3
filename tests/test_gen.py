"""Generators and the frozen figure fixtures."""

import pytest

from outerstring.gen import (GenSpec, figure_fixture, generate, random_grounded_polylines,
                             random_grounded_segments)
from outerstring.geom import find_violations


class TestRandomSegments:
    def test_single_curve(self):
        fam = random_grounded_segments(GenSpec(kind="segments", n=1, seed=3))
        assert len(fam) == 1

    def test_deterministic_in_seed(self):
        a = random_grounded_segments(GenSpec(kind="segments", n=6, seed=11))
        b = random_grounded_segments(GenSpec(kind="segments", n=6, seed=11))
        assert [c.vertices for c in a] == [c.vertices for c in b]

    @pytest.mark.parametrize("seed", range(100))
    def test_always_valid(self, seed):
        fam = random_grounded_segments(GenSpec(kind="segments", n=8, seed=seed))
        assert not find_violations(list(fam))


class TestRandomPolylines:
    def test_single_curve(self):
        fam = random_grounded_polylines(GenSpec(kind="polylines", n=1, seed=5))
        assert len(fam) == 1

    def test_deterministic_in_seed(self):
        a = random_grounded_polylines(GenSpec(kind="polylines", n=5, seed=2, bends=4))
        b = random_grounded_polylines(GenSpec(kind="polylines", n=5, seed=2, bends=4))
        assert [c.vertices for c in a] == [c.vertices for c in b]

    @pytest.mark.parametrize("seed", range(60))
    def test_always_valid(self, seed):
        fam = random_grounded_polylines(GenSpec(kind="polylines", n=7, seed=seed, bends=4))
        assert not find_violations(list(fam))
        for c in fam:
            assert 2 <= len(c.vertices) <= 4

    def test_bend_budget_respected(self):
        fam = random_grounded_polylines(GenSpec(kind="polylines", n=9, seed=1, bends=3))
        assert all(len(c.vertices) <= 3 for c in fam)


class TestSpecRanges:
    @pytest.mark.parametrize("kind,grid", [("segments", 0), ("segments", -3), ("polylines", 1)])
    def test_grid_too_small_rejected(self, kind, grid):
        with pytest.raises(ValueError, match="grid"):
            GenSpec(kind=kind, grid=grid)

    @pytest.mark.parametrize("kind,grid", [("segments", 1), ("polylines", 2)])
    def test_smallest_grid_generates(self, kind, grid):
        fam = generate(GenSpec(kind=kind, n=2, grid=grid, seed=0))
        assert not find_violations(list(fam))


class TestFigureFixtures:
    @pytest.mark.parametrize("which", [1, 2, 3, 4])
    def test_families_validate(self, which):
        fam, _ = figure_fixture(which)
        assert not find_violations(list(fam))

    def test_fixture2_relations_shape(self):
        _, rel = figure_fixture(2)
        assert rel["supported"] == ["p2", "p4"]
        assert rel["unsupported"] == ["p1", "p3"]

    def test_fixture4_sigma(self):
        _, rel = figure_fixture(4)
        assert rel["sigma_s"] == [1, 1]

    def test_bad_index(self):
        with pytest.raises(ValueError):
            figure_fixture(5)
