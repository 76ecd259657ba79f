"""Kronecker products, factorized application, and axis projectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import traced
from wordlength import parse_structure
from wordlength.groups import character_table, cyclic_character_table
from wordlength.kron import build_projector, factored_apply, kron, kron_all, projector_factors


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_matrices(dtype):
    values = st.floats(-8, 8) if dtype == np.float64 else st.complex_numbers(max_magnitude=8)
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0), elements=values)


# Random float and complex matrices, sides of 0 included, and the cyclic
# tables the dense route folds.
OPERANDS = st.one_of(
    random_matrices(np.float64),
    random_matrices(np.complex128),
    st.integers(2, 16).map(cyclic_character_table),
)


class TestKron:
    @settings(max_examples=300, deadline=None)
    @given(OPERANDS, OPERANDS)
    @example(np.array([[2.5]]), np.array([[1 + 3j]]))
    @example(np.array([[0.3 - 1.7j]]), np.array([[0.7 - 0.1j]]))  # loops can round these apart
    @example(np.array([[0.3, -1.7, 2.9]]), cyclic_character_table(3))
    @example(cyclic_character_table(16), np.arange(5.0).reshape(1, 5) / 3)
    def test_matches_numpy_bit_for_bit(self, a, b):
        # Each multiply takes the whole larger operand, so its products must
        # come out of the same ufunc loop as np.kron's, in either order, and
        # on a transposed view and a stepped slice as on the arrays.
        for x, y in ((a, b), (a.T, b[::-1, ::2])):
            for first, second in ((x, y), (y, x)):
                expected, product = np.kron(first, second), kron(first, second)
                assert type(product) is type(expected)
                assert (product.dtype, product.shape) == (expected.dtype, expected.shape)
                assert product.tobytes() == expected.tobytes()

    def test_reproduces_klein_table(self):
        z2 = np.array([[1, 1], [1, -1]], dtype=complex)
        klein = parse_structure("2x2")
        expected = character_table(klein)
        assert np.array_equal(kron(z2, z2), expected)

    def test_identity_times_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_first_axis_vectors(self):
        e0 = np.array([[1.0, 0.0]])
        out = kron(e0, e0)
        expected = np.zeros((1, 4))
        expected[0, 0] = 1
        assert np.array_equal(out, expected)

    def test_block_shape(self):
        a = np.arange(6).reshape(2, 3)
        b = np.ones((5, 7))
        assert kron(a, b).shape == (10, 21)

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = random_complex(rng, 1, int(rng.integers(1, 9)))
            w = random_complex(rng, 1, int(rng.integers(1, 9)))
            product = kron(v, w)
            assert np.linalg.norm(product) == pytest.approx(
                np.linalg.norm(v) * np.linalg.norm(w), rel=1e-12
            )

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            s1, t1 = random_complex(rng, m, m), random_complex(rng, m, m)
            s2, t2 = random_complex(rng, n, n), random_complex(rng, n, n)
            left = kron(s1, s2) @ kron(t1, t2)
            right = kron(s1 @ t1, s2 @ t2)
            assert np.abs(left - right).max() < 1e-10

    def test_rank_multiplicativity_for_projectors(self):
        for kinds_a, size_a in (("P", 2), ("Q", 3), ("I", 4)):
            for kinds_b, size_b in (("P", 3), ("Q", 4), ("I", 2)):
                a = projector_factors([kinds_a], [size_a])[0]
                b = projector_factors([kinds_b], [size_b])[0]
                product = kron(a, b)
                rank = np.linalg.matrix_rank(product)
                assert rank == np.linalg.matrix_rank(a) * np.linalg.matrix_rank(b)

    @pytest.mark.memory_bound
    def test_peak_is_no_higher_than_numpys(self):
        # A (32, 512) complex block of rows times Z_2, as the dense route folds
        # one: the product is 1 MiB.  np.kron's own peak is the bound.
        rng = np.random.default_rng(14)
        block, z2 = random_complex(rng, 32, 512), cyclic_character_table(2)
        _, numpy_peak = traced(lambda: np.kron(block, z2))
        product, peak = traced(lambda: kron(block, z2))
        assert product.nbytes == 2**20
        assert peak <= numpy_peak, f"kron peaked at {peak} bytes, np.kron at {numpy_peak}"


class TestFactoredApply:
    def test_identity_factors(self):
        rng = np.random.default_rng(9)
        v = random_complex(rng, 24)
        out = factored_apply([np.eye(2), np.eye(3), np.eye(4)], v)
        assert np.abs(out - v).max() == 0

    def test_single_factor_is_matvec(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 5, 5)
        v = random_complex(rng, 5)
        assert np.abs(factored_apply([a], v) - a @ v).max() < 1e-12

    def test_matches_dense_kron(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 2, 2)
        b = random_complex(rng, 3, 3)
        v = random_complex(rng, 6)
        dense = kron(a, b) @ v
        assert np.abs(factored_apply([a, b], v) - dense).max() < 1e-10

    def test_random_shapes_match_dense(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n_factors = int(rng.integers(1, 5))
            sizes = [int(rng.integers(1, 5)) for _ in range(n_factors)]
            factors = [random_complex(rng, s, s) for s in sizes]
            v = random_complex(rng, int(np.prod(sizes)))
            dense = kron_all(factors) @ v
            assert np.abs(factored_apply(factors, v) - dense).max() < 1e-10

    def test_yates_order_against_permuted_factors(self):
        # Reordering factors must change the answer unless the vector is reindexed,
        # i.e. the first factor really owns the most significant digit.
        rng = np.random.default_rng(13)
        a, b = random_complex(rng, 2, 2), random_complex(rng, 3, 3)
        v = random_complex(rng, 6)
        direct = factored_apply([a, b], v)
        swapped = factored_apply([b, a], v.reshape(2, 3).T.reshape(-1))
        assert np.abs(direct - swapped.reshape(3, 2).T.reshape(-1)).max() < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            factored_apply([np.eye(2), np.eye(2)], np.ones(5))
        with pytest.raises(ValueError):
            factored_apply([np.ones((2, 3))], np.ones(2))

    def test_no_factors_is_identity_on_scalars(self):
        out = factored_apply([], np.array([3.0 + 1j]))
        assert out.shape == (1,)
        assert out[0] == 3.0 + 1j


class TestProjectors:
    def test_p_on_two_levels(self):
        assert np.array_equal(
            build_projector(["P"], [2]), np.array([[1, 0], [0, 0]], dtype=complex)
        )

    def test_q_on_two_levels(self):
        assert np.array_equal(
            build_projector(["Q"], [2]), np.array([[0, 0], [0, 1]], dtype=complex)
        )

    def test_qp_single_entry(self):
        qp = build_projector(["Q", "P"], [2, 2])
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1
        assert np.array_equal(qp, expected)

    def test_p_plus_q_is_identity(self):
        for size in (2, 3, 5):
            p = build_projector(["P"], [size])
            q = build_projector(["Q"], [size])
            assert np.array_equal(p + q, np.eye(size))

    def test_projector_idempotent_and_hermitian(self):
        m = build_projector(["Q", "I", "P"], [2, 3, 2])
        assert np.abs(m @ m - m).max() == 0
        assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize("kind", ["X", "p", "", None])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="P, Q or I"):
            projector_factors([kind], [2])

    def test_one_kind_per_coordinate(self):
        with pytest.raises(ValueError, match="^one kind per coordinate required$"):
            projector_factors(["P", "Q"], [2])

    @pytest.mark.parametrize("size", [0, -1])
    def test_nonpositive_size(self, size):
        with pytest.raises(ValueError, match=f"^coordinate size must be positive, got {size}$"):
            projector_factors(["P"], [size])
