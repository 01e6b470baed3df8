import numpy as np
import pytest
from numpy.testing import assert_allclose

from geomedian import ar1_shape, read_csv, symmetric_sqrt, validate_sample, write_csv
from geomedian.data import ShapeMatrix, validate_vector
from geomedian.errors import EmptyInput, InvalidRho, NonFiniteEntry, NotPSD


def test_validate_sample_well_formed():
    s = validate_sample([[1, 2], [3, 4]])
    assert (s.n, s.p) == (2, 2)
    assert s.values.dtype == np.float64
    assert not s.values.flags.writeable


def test_validate_sample_rejects_nan_with_location():
    raw = np.array([[1.0, np.nan], [3.0, 4.0]])
    with pytest.raises(NonFiniteEntry) as err:
        validate_sample(raw)
    assert (err.value.row, err.value.col) == (0, 1)


def test_validate_sample_rejects_empty():
    with pytest.raises(EmptyInput):
        validate_sample(np.empty((0, 0)))


def test_validate_sample_accepts_one_dim_column():
    s = validate_sample([1.0, 2.0, 3.0])
    assert (s.n, s.p) == (3, 1)


def test_validate_vector_checks_length_and_finiteness():
    assert_allclose(validate_vector([1, 2], 2), [1.0, 2.0])
    with pytest.raises(EmptyInput):
        validate_vector([1, 2], 3)
    with pytest.raises(NonFiniteEntry):
        validate_vector([np.inf, 0.0])


def test_ar1_identity_at_zero_rho():
    assert_allclose(ar1_shape(3, 0.0).omega, np.eye(3))


def test_ar1_pairwise_entries():
    assert_allclose(ar1_shape(2, 0.8).omega, [[1.0, 0.8], [0.8, 1.0]])
    omega = ar1_shape(3, 0.5).omega
    assert omega[0, 2] == omega[2, 0] == 0.25


def test_ar1_symmetric_unit_diagonal_trace():
    for p, rho in [(1, 0.0), (4, 0.3), (7, 0.95), (12, 0.8)]:
        m = ar1_shape(p, rho)
        assert np.array_equal(m.omega, m.omega.T)
        assert_allclose(np.diag(m.omega), 1.0)
        assert abs(np.trace(m.omega) - p) < 1e-8 * p


def test_ar1_rejects_bad_rho():
    with pytest.raises(InvalidRho):
        ar1_shape(3, 1.0)
    with pytest.raises(InvalidRho):
        ar1_shape(3, -0.1)


def test_symmetric_sqrt_identity_and_diagonal():
    assert_allclose(symmetric_sqrt(np.eye(4)), np.eye(4))
    assert_allclose(symmetric_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("p,rho", [(2, 0.8), (5, 0.5), (9, 0.9)])
def test_symmetric_sqrt_squares_back(p, rho):
    omega = ar1_shape(p, rho)
    root = symmetric_sqrt(omega)
    assert_allclose(root @ root, omega.omega, atol=1e-10)
    assert_allclose(root, root.T)


def test_symmetric_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        symmetric_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_shape_matrix_normalizes_trace():
    m = ShapeMatrix.normalized(np.diag([2.0, 6.0]))
    assert_allclose(np.trace(m.omega), 2.0)
    with pytest.raises(NotPSD):
        ShapeMatrix.normalized(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_csv_round_trip_plain(tmp_path):
    path = tmp_path / "data.csv"
    values = np.array([[1.0, -2.5], [0.125, 4.0], [3.0, 0.0]])
    write_csv(path, values)
    assert_allclose(read_csv(path).values, values)


def test_csv_header_detected_and_skipped(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2\n1.5,2.0\n3.0,4.0\n")
    s = read_csv(path)
    assert (s.n, s.p) == (2, 2)
    assert_allclose(s.values[0], [1.5, 2.0])


def test_csv_all_numeric_first_row_is_data(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n")
    assert read_csv(path).n == 2


def test_csv_rejects_empty_and_ragged(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyInput):
        read_csv(empty)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(EmptyInput):
        read_csv(ragged)


def test_csv_values_survive_exactly(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((20, 3))
    path = tmp_path / "exact.csv"
    write_csv(path, values)
    assert np.array_equal(read_csv(path).values, values)
