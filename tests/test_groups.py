"""Structure enumeration, element indexing, characters, and table laws."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from helpers import oracle_character
from wordlength import (
    AbelianStructure,
    ResourceLimitError,
    character_table,
    enumerate_structures,
    parse_structure,
)
from wordlength.groups import canonical_cyclic_orders, cyclic_character_table, root_of_unity


def all_structures_up_to(max_order):
    for order in range(1, max_order + 1):
        yield from enumerate_structures(order)


class TestEnumerate:
    def test_order_four(self):
        assert [s.cyclic_orders for s in enumerate_structures(4)] == [(4,), (2, 2)]

    def test_trivial_group(self):
        assert [s.cyclic_orders for s in enumerate_structures(1)] == [()]

    def test_order_eight(self):
        assert [s.cyclic_orders for s in enumerate_structures(8)] == [
            (8,),
            (4, 2),
            (2, 2, 2),
        ]

    def test_order_twelve(self):
        assert [s.cyclic_orders for s in enumerate_structures(12)] == [
            (4, 3),
            (2, 2, 3),
        ]

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            enumerate_structures(0)

    def test_counts_match_partition_products(self):
        # Independent oracle: the class count is the product over primes of
        # the number of partitions of each exponent.
        def partitions(n):
            if n == 0:
                return [[]]
            out = []
            for first in range(n, 0, -1):
                for rest in partitions(n - first):
                    if not rest or rest[0] <= first:
                        out.append([first] + rest)
            return out

        for order in range(1, 65):
            expected = 1
            n = order
            d = 2
            while d * d <= n:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                if e:
                    expected *= len(partitions(e))
                d += 1
            if n > 1:
                expected *= len(partitions(1))
            assert len(enumerate_structures(order)) == expected

    def test_orders_and_canonical_form(self):
        for st in all_structures_up_to(32):
            assert st.order == math.prod(st.cyclic_orders)
            assert st.cyclic_orders == canonical_cyclic_orders(st.cyclic_orders)


class TestStructureForm:
    def test_canonicalization_merges_isomorphic_presentations(self):
        assert parse_structure("6").cyclic_orders == (2, 3)
        assert parse_structure("3x2").cyclic_orders == (2, 3)
        assert parse_structure("6x4").cyclic_orders == (4, 2, 3)
        assert parse_structure("12").cyclic_orders == (4, 3)

    def test_literal_round_trip(self):
        for st in all_structures_up_to(24):
            assert parse_structure(st.literal()) == st

    def test_non_canonical_constructor_rejected(self):
        with pytest.raises(ValueError):
            AbelianStructure((2, 4))

    def test_bad_literals(self):
        for text in ("", "x", "4x", "0", "-2", "2,2"):
            with pytest.raises(ValueError):
                parse_structure(text)


class TestElements:
    def test_identity_is_index_zero(self):
        st = parse_structure("2x2")
        assert st.element_of_index(0) == (0, 0)

    def test_first_digit_most_significant(self):
        st = parse_structure("2x2")
        assert st.element_of_index(2) == (1, 0)

    def test_single_part(self):
        assert parse_structure("4").element_of_index(3) == (3,)

    def test_round_trip(self):
        for st in all_structures_up_to(24):
            for index in range(st.order):
                assert st.index_of_element(st.element_of_index(index)) == index

    def test_out_of_range(self):
        st = parse_structure("4")
        with pytest.raises(ValueError):
            st.element_of_index(4)
        with pytest.raises(ValueError):
            st.element_of_index(-1)

    def test_add_inverse(self):
        st = parse_structure("4x3")
        for i, j in itertools.product(range(st.order), repeat=2):
            g, h = st.element_of_index(i), st.element_of_index(j)
            assert st.add(g, st.inverse(g)) == st.identity
            assert st.add(g, h) == st.add(h, g)


class TestCharacterValues:
    def test_sign_character_of_order_two(self):
        assert parse_structure("2").character_value(1, 1) == -1

    def test_fourth_root_is_i(self):
        assert parse_structure("4").character_value(1, 1) == 1j

    def test_klein_group_product(self):
        assert parse_structure("2x2").character_value((0, 1), (1, 1)) == -1

    def test_identity_row_and_column(self):
        for st in all_structures_up_to(16):
            for g in range(st.order):
                assert st.character_value(0, g) == 1
                assert st.character_value(g, 0) == 1

    def test_matches_direct_formula(self):
        for st in all_structures_up_to(16):
            for g, h in itertools.product(range(st.order), repeat=2):
                expected = oracle_character(
                    st.cyclic_orders, st.element_of_index(g), st.element_of_index(h)
                )
                assert st.character_value(g, h) == pytest.approx(expected, abs=1e-12)
                assert abs(abs(st.character_value(g, h)) - 1) < 1e-12


class TestCharacterTables:
    def test_order_two_table(self):
        table = character_table(parse_structure("2")).entries
        assert np.array_equal(table, np.array([[1, 1], [1, -1]]))

    def test_klein_is_kron_square(self):
        klein = character_table(parse_structure("2x2")).entries
        z2 = character_table(parse_structure("2")).entries
        assert np.array_equal(klein, np.kron(z2, z2))

    def test_entries_match_character_value(self):
        for st in all_structures_up_to(16):
            table = character_table(st).entries
            for g, h in itertools.product(range(st.order), repeat=2):
                assert table[g, h] == pytest.approx(st.character_value(g, h), abs=1e-12)

    def test_hadamard_law(self):
        for st in all_structures_up_to(16):
            h = character_table(st).entries
            s = st.order
            assert np.abs(h.conj().T @ h - s * np.eye(s)).max() < 1e-9
            assert np.abs(h @ h.conj().T - s * np.eye(s)).max() < 1e-9

    def test_bordered_by_ones(self):
        for st in all_structures_up_to(16):
            h = character_table(st).entries
            assert np.abs(h[0] - 1).max() == 0
            assert np.abs(h[:, 0] - 1).max() == 0

    def test_normalized_is_unitary_and_maps_e_to_b(self):
        for st in all_structures_up_to(16):
            u = character_table(st).normalized
            s = st.order
            assert np.abs(u.conj().T @ u - np.eye(s)).max() < 1e-9
            e = np.zeros(s)
            e[0] = 1
            b = np.full(s, 1 / math.sqrt(s))
            assert np.abs(u @ e - b).max() < 1e-12
            assert np.abs(u.conj().T @ e - b).max() < 1e-12

    def test_rows_closed_under_pointwise_product(self):
        # Row g .* row g' equals the row of the group sum g + g'.
        for st in all_structures_up_to(16):
            h = character_table(st).entries
            for g, gp in itertools.product(range(st.order), repeat=2):
                target = st.index_of_element(st.add(g, gp))
                assert np.abs(h[g] * h[gp] - h[target]).max() < 1e-9

    def test_kron_factorization_over_parts(self):
        for st in all_structures_up_to(16):
            if not st.cyclic_orders:
                continue
            dense = character_table(st).entries
            parts = [cyclic_character_table(d) for d in st.cyclic_orders]
            product = parts[0]
            for p in parts[1:]:
                product = np.kron(product, p)
            assert np.abs(dense - product).max() < 1e-12

    def test_cyclic_table_entries_are_the_roots(self):
        # Entry (g, h) is root_of_unity(g*h, d) itself: exact 1, i, -1, -i.
        for order in range(1, 25):
            table = cyclic_character_table(order)
            assert table.dtype == np.complex128
            for g, h in itertools.product(range(order), repeat=2):
                assert table[g, h] == root_of_unity(g * h, order)
        assert set(cyclic_character_table(4).ravel().tolist()) == {1, 1j, -1, -1j}

    def test_dense_cap(self):
        big = parse_structure("4097")
        with pytest.raises(ResourceLimitError):
            character_table(big)
