"""Tests for the shared utilities: identifiers, seeding and validation."""

from __future__ import annotations

import pytest

from repro.utils.ids import normalize_node_id
from repro.utils.seeding import derive_seed, spawn_rng
from repro.utils.validation import require_non_negative, require_positive


class TestNodeIds:
    def test_normalize_accepts_ints(self):
        assert normalize_node_id(7) == 7

    def test_normalize_accepts_integral_floats_and_strings(self):
        assert normalize_node_id(4.0) == 4
        assert normalize_node_id("12") == 12

    def test_normalize_rejects_fractional_floats(self):
        with pytest.raises(ValueError):
            normalize_node_id(3.5)

    def test_normalize_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_node_id(-1)

    def test_normalize_rejects_booleans_and_other_types(self):
        with pytest.raises(TypeError):
            normalize_node_id(True)
        with pytest.raises(TypeError):
            normalize_node_id(object())


class TestSeeding:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(42, "topology", 3) == derive_seed(42, "topology", 3)

    def test_derive_seed_changes_with_components(self):
        assert derive_seed(42, "topology", 3) != derive_seed(42, "topology", 4)
        assert derive_seed(42, "topology", 3) != derive_seed(43, "topology", 3)

    def test_derive_seed_fits_in_63_bits(self):
        for component in range(50):
            assert 0 <= derive_seed(1, component) < 2 ** 63

    def test_spawn_rng_streams_are_independent_and_reproducible(self):
        first = spawn_rng(7, "a").random()
        second = spawn_rng(7, "a").random()
        other = spawn_rng(7, "b").random()
        assert first == second
        assert first != other


class TestValidation:
    def test_require_positive_passes_and_returns(self):
        assert require_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("value", [0, -1, float("inf"), float("nan")])
    def test_require_positive_rejects(self, value):
        with pytest.raises(ValueError):
            require_positive(value, "x")

    def test_require_positive_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            require_positive("3", "x")

    def test_require_non_negative(self):
        assert require_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")
