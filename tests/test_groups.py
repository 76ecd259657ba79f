"""Structure enumeration, canonical form, element indexing, and character-table laws."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from helpers import oracle_character, traced, yates_elements
from wordlength import (
    AbelianStructure,
    ResourceLimitError,
    enumerate_structures,
    parse_structure,
)
from wordlength import groups
from wordlength.groups import (
    DENSE_TABLE_CAP,
    MAX_ORDER,
    canonical_cyclic_orders,
    character_table,
    cyclic_character_table,
    element_components,
    root_of_unity,
)
from wordlength.spectra import assignment_character_table


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

    def test_every_order_comes_in_descending_order_unsorted(self):
        # Neither enumerate_structures nor _factorize sorts: their loops build the order.
        for order in range(1, 4097):
            orders = [st.cyclic_orders for st in enumerate_structures(order)]
            assert orders == sorted(set(orders), reverse=True), order
            primes = list(groups._factorize(order))
            assert primes == sorted(primes), order

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            enumerate_structures(0)
        with pytest.raises(ValueError, match="cyclic order must be a positive integer, got 0"):
            canonical_cyclic_orders([0])

    def test_orders_past_the_cap_are_refused(self):
        # A prime just below the cap still factors; the next order past it does not.
        assert [s.cyclic_orders for s in enumerate_structures(4294967291)] == [(4294967291,)]
        with pytest.raises(ResourceLimitError, match=f"order {MAX_ORDER + 1} exceeds the cap"):
            enumerate_structures(MAX_ORDER + 1)

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

    def test_constructor_canonicalizes(self):
        assert AbelianStructure((2, 4)) == AbelianStructure((4, 2))
        assert AbelianStructure((6,)) == parse_structure("3x2")

    def test_bad_literals(self):
        # Orders are ASCII digits: no sign, digit separator, other script or inner space.
        for text in ("", "x", "4x", "0", "-2", "2,2", "+4", "4_0", "\u0664", "2 x 2", "00"):
            with pytest.raises(ValueError, match=re.escape(f"bad structure literal {text!r}")):
                parse_structure(text)

    def test_outer_whitespace_and_leading_zeros_are_kept(self):
        assert parse_structure(" 4 ") == parse_structure("04") == AbelianStructure((4,))
        assert parse_structure("\t2x02\n") == AbelianStructure((2, 2))


class TestElements:
    # Element indices are Yates: element_components reads one as its residues.
    def test_identity_is_index_zero(self):
        assert element_components(0, parse_structure("2x2").cyclic_orders) == (0, 0)

    def test_first_digit_most_significant(self):
        assert element_components(2, parse_structure("2x2").cyclic_orders) == (1, 0)

    def test_single_part(self):
        assert element_components(3, parse_structure("4").cyclic_orders) == (3,)

    def test_round_trip(self):
        for st in all_structures_up_to(24):
            digits, index = yates_elements(st.cyclic_orders)
            for i in range(st.order):
                residues = element_components(i, st.cyclic_orders)
                assert residues == tuple(digits[i])
                assert element_components(residues, st.cyclic_orders) == residues
                assert index(np.array([residues], dtype=np.int64))[0] == i

    def test_out_of_range(self):
        orders = parse_structure("4").cyclic_orders
        for index in (4, -1):
            with pytest.raises(ValueError, match=f"element index {index} out of range"):
                element_components(index, orders)


class TestCharacterValues:
    def test_fourth_root_is_i(self):
        assert character_table(parse_structure("4"))[1, 1] == 1j

    def test_klein_group_product(self):
        # Character (0, 1) at element (1, 1): Yates indices 1 and 3.
        assert character_table(parse_structure("2x2"))[1, 3] == -1


class TestCharacterTables:
    def test_order_two_table(self):
        table = character_table(parse_structure("2"))
        assert np.array_equal(table, np.array([[1, 1], [1, -1]]))

    def test_klein_is_kron_square(self):
        klein = character_table(parse_structure("2x2"))
        z2 = character_table(parse_structure("2"))
        assert np.array_equal(klein, np.kron(z2, z2))

    def test_entries_match_character_value(self):
        # The cmath oracle shares no code with the tables' root_of_unity.
        for st in all_structures_up_to(16):
            table = character_table(st)
            digits, _ = yates_elements(st.cyclic_orders)
            for g, h in itertools.product(range(st.order), repeat=2):
                expected = oracle_character(st.cyclic_orders, digits[g], digits[h])
                assert table[g, h] == pytest.approx(expected, abs=1e-12)

    def test_hadamard_law(self):
        for st in all_structures_up_to(16):
            h = character_table(st)
            s = st.order
            assert np.abs(h.conj().T @ h - s * np.eye(s)).max() < 1e-9
            assert np.abs(h @ h.conj().T - s * np.eye(s)).max() < 1e-9

    def test_bordered_by_ones(self):
        for st in all_structures_up_to(16):
            h = character_table(st)
            assert np.abs(h[0] - 1).max() == 0
            assert np.abs(h[:, 0] - 1).max() == 0

    def test_rows_closed_under_pointwise_product(self):
        # Row g .* row g' equals the row of the group sum g + g'.
        for st in all_structures_up_to(16):
            h = character_table(st)
            digits, index = yates_elements(st.cyclic_orders)
            target = index(digits[:, None] + digits[None])
            assert np.abs(h[:, None] * h[None] - h[target]).max() < 1e-9

    def test_kron_factorization_over_parts(self):
        for st in all_structures_up_to(16):
            if not st.cyclic_orders:
                continue
            dense = character_table(st)
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

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 12, 97, 1021])
    def test_cyclic_table_matches_the_int64_index_construction(self, order):
        roots = np.array([root_of_unity(m, order) for m in range(order)])
        r = np.arange(order, dtype=np.int64)
        expected = roots[np.outer(r, r) % order]
        table = groups._cyclic_table(order)  # leaves the cache as it was
        assert table.view(np.float64).tobytes() == expected.view(np.float64).tobytes()
        # The int32 exponent index holds every product below the cap.
        assert (DENSE_TABLE_CAP - 1) ** 2 < 2**31

    @pytest.mark.memory_bound
    def test_uncached_cyclic_table_peaks_near_its_size(self):
        # An int64 index beside the table took about 1.5 times its size.
        table, peak = traced(lambda: groups._cyclic_table(1021))
        assert peak <= 1.4 * table.nbytes, f"{peak} bytes for a {table.nbytes}-byte table"

    def test_one_source_of_tables(self):
        # The dense table is the product of the same cached, read-only cyclic
        # tables the factorized routes read.
        for st in all_structures_up_to(64):
            table = character_table(st)
            expected = assignment_character_table((st,))
            assert np.array_equal(table.view(np.float64), expected.view(np.float64))
            assert table.flags.writeable
            for d in st.cyclic_orders:
                part = cyclic_character_table(d)
                assert part is cyclic_character_table(d)
                assert not part.flags.writeable

    def test_only_tables_within_the_block_budget_are_kept(self):
        # A kept Z_2039 table held 63 MiB for the life of the process.
        assert groups.DENSE_BLOCK_ENTRIES == 256**2
        assert cyclic_character_table(256) is cyclic_character_table(256)
        for order in (257, 509):
            table = cyclic_character_table(order)
            again = cyclic_character_table(order)
            assert again is not table
            assert not table.flags.writeable and not again.flags.writeable
            assert np.array_equal(table.view(np.float64), again.view(np.float64))

    def test_cyclic_cap_is_checked_before_building(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a table past the cap was being built")

        monkeypatch.setattr(groups, "root_of_unity", unexpected)
        with pytest.raises(ResourceLimitError, match="Z_4099 exceeds the cap 4096"):
            cyclic_character_table(4099)
        with pytest.raises(ResourceLimitError, match="Z_4097 exceeds the cap 4096"):
            cyclic_character_table(DENSE_TABLE_CAP + 1)

    def test_dense_cap(self):
        big = parse_structure("4097")
        with pytest.raises(ResourceLimitError):
            character_table(big)
