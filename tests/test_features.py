import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elorantd.errors import DataError
from elorantd.features import (
    PolyTermIndex,
    ScalarStandardizer,
    Standardizer,
    poly_expand,
    term_count,
)


def test_term_count_formula():
    assert term_count(1, 1) == 1
    assert term_count(2, 2) == 5  # C(2,1) + C(3,2)
    assert term_count(7, 3) == 119  # 7 + 28 + 84
    assert term_count(3, 3) == 19


def test_poly_expand_single_variable():
    index = PolyTermIndex.build(1, 2)
    out = poly_expand(np.array([[3.0]]), index)
    np.testing.assert_allclose(out[0], [1.0, 3.0, 9.0])


def test_poly_expand_two_variables_degree_two():
    index = PolyTermIndex.build(2, 2)
    out = poly_expand(np.array([[2.0, 3.0]]), index)
    # constant, x1, x2, x1^2, x1 x2, x2^2
    np.testing.assert_allclose(out[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])


def test_poly_expand_zero_vector():
    index = PolyTermIndex.build(4, 3)
    out = poly_expand(np.zeros((1, 4)), index)
    assert out[0, 0] == 1.0
    np.testing.assert_array_equal(out[0, 1:], 0.0)


def test_poly_expand_dimension_check():
    index = PolyTermIndex.build(3, 2)
    with pytest.raises(DataError, match=r"input shape \(5, 2\) does not match 3 features"):
        poly_expand(np.zeros((5, 2)), index)


def test_poly_index_graded_order_no_duplicates():
    index = PolyTermIndex.build(3, 3)
    degrees = [len(t) for t in index.terms]
    assert degrees == sorted(degrees), "terms must be graded by total degree"
    assert len(set(index.terms)) == len(index.terms)
    assert len(index.terms) == term_count(3, 3)
    assert index.n_columns == len(index.terms) + 1
    for term in index.terms:
        assert tuple(sorted(term)) == term, "indices inside a monomial non-decreasing"


def test_poly_expand_matches_nested_loop_oracle():
    """Dot(beta, expansion) equals explicit monomial summation."""
    rng = np.random.default_rng(12)
    n, m = 4, 3
    index = PolyTermIndex.build(n, m)
    x = rng.normal(size=n)
    beta = rng.normal(size=index.n_columns)
    design = poly_expand(x[None, :], index)[0]
    # brute-force: constant + sum over stored monomials
    total = beta[0]
    for j, term in enumerate(index.terms):
        prod = 1.0
        for i in term:
            prod *= x[i]
        total += beta[j + 1] * prod
    assert float(design @ beta) == pytest.approx(total, rel=1e-12)


def test_standardizer_hand_example():
    s = Standardizer.fit(np.array([[1.0], [2.0], [3.0]]))
    assert s.mean[0] == pytest.approx(2.0)
    assert s.sd[0] == pytest.approx(1.0)  # sample (n-1) sd
    np.testing.assert_allclose(
        s.transform(np.array([[1.0], [2.0], [3.0]]))[:, 0], [-1.0, 0.0, 1.0]
    )


def test_standardizer_fit_set_is_centered():
    rng = np.random.default_rng(4)
    x = rng.normal(5.0, 3.0, size=(40, 3))
    s = Standardizer.fit(x)
    z = s.transform(x)
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0, ddof=1) - 1.0).max() < 1e-12


def test_standardizer_rejects_constant_column():
    x = np.ones((10, 2))
    x[:, 0] = np.arange(10.0)
    with pytest.raises(DataError, match="column 1 is constant"):
        Standardizer.fit(x)


def test_scalar_standardizer():
    y = np.array([1.0, 2.0, 3.0])
    s = ScalarStandardizer.fit(y)
    np.testing.assert_allclose(s.transform(y), [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(s.inverse(s.transform(y)), y, rtol=1e-12)
    with pytest.raises(DataError, match="column target is constant"):
        ScalarStandardizer.fit(np.ones(5))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 4),
)
def test_poly_expand_multiplicativity_property(n, m):
    """Expansion of all-ones input is all ones (every monomial is 1)."""
    index = PolyTermIndex.build(n, m)
    out = poly_expand(np.ones((1, n)), index)
    np.testing.assert_array_equal(out[0], 1.0)
    assert out.shape == (1, term_count(n, m) + 1)
