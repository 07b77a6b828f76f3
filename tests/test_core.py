import math

import numpy as np
import pytest

from mixpc import CoveringRow, PackingSystem, violation
from mixpc.rng import rng_for
from reference_maths import rates, smooth_max, step_size


def test_smooth_max_all_zero_exponents():
    assert smooth_max(np.eye(2), np.zeros(2)) == pytest.approx(math.log(2), abs=1e-12)


def test_smooth_max_single_row_identity():
    for t in (0.0, 0.5, 3.25, 40.0):
        assert smooth_max(np.array([[1.0]]), np.array([t])) == pytest.approx(t, abs=1e-12)


def test_smooth_max_sandwich_random():
    g = rng_for(11, "core-sandwich")
    for _ in range(200):
        pt = g.random((3, 4)) * 2.0
        x = g.random(4) * 3.0
        est = smooth_max(pt, x)
        exact = float((pt @ x).max())
        assert exact <= est <= exact + math.log(3) + 1e-12


def test_smooth_max_dimension_mismatch():
    with pytest.raises(ValueError):
        smooth_max(np.eye(2), np.zeros(3))


def test_rates_single_constraint_is_constant():
    pt = np.array([[1.0, 1.0]])
    for t in (0.0, 1.0, 7.0):
        assert rates(pt, np.full(2, t)) == pytest.approx([1.0, 1.0])


def test_rates_equal_weights_half():
    pt = np.array([[1.0], [0.0]])
    assert rates(pt, np.zeros(1))[0] == pytest.approx(0.5, abs=1e-14)


def test_rates_match_central_difference():
    g = rng_for(12, "core-fd")
    h = 1e-5
    for _ in range(50):
        pt = g.random((4, 5)) * 1.5
        x = g.random(5)
        r = rates(pt, x)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (smooth_max(pt, x + e) - smooth_max(pt, x - e)) / (2 * h)
            assert abs(r[j] - fd) <= 1e-6


def test_step_size_single_entry():
    row = CoveringRow(np.array([0]), np.array([1.0]))
    eps = step_size(row, np.array([0.5]), mu=1.2)
    assert eps == pytest.approx(0.2 * 0.5 / 1.0, abs=1e-15)


def test_step_size_min_over_row():
    row = CoveringRow(np.array([0, 1]), np.array([1.0, 2.0]))
    mu = 1.1
    eps = step_size(row, np.array([1.0, 1.0]), mu)
    assert eps == pytest.approx((mu - 1.0) / 2.0, abs=1e-15)


def test_step_size_cap_attained_at_argmin():
    g = rng_for(13, "core-step")
    for _ in range(100):
        nnz = int(g.integers(1, 6))
        idx = np.arange(nnz)
        val = 0.5 + g.random(nnz)
        rate_vec = 0.1 + g.random(nnz)
        row = CoveringRow(idx, val)
        mu = 1.0 + 0.3 * g.random()
        eps = step_size(row, rate_vec, mu)
        mults = eps * val / rate_vec
        assert mults.max() == pytest.approx(mu - 1.0, rel=1e-12)


def test_step_size_rejects_no_overlap():
    row = CoveringRow(np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        step_size(row, np.array([0.0]), 1.2)


def test_violation_basics():
    eye = PackingSystem(np.eye(2))
    assert violation(eye, np.zeros(2)) == 0.0
    assert violation(eye, np.array([1.0, 2.0])) == 2.0


def test_violation_matches_direct_product():
    g = rng_for(14, "core-viol")
    for _ in range(50):
        p = g.random((3, 6))
        x = g.random(6)
        expected = max(float(p[k] @ x) for k in range(3))
        assert violation(PackingSystem(p), x) == pytest.approx(expected, rel=1e-15)


def test_packing_system_validation():
    with pytest.raises(ValueError):
        PackingSystem(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PackingSystem(np.array([[1.0, -0.5]]))
    sys_ = PackingSystem(np.array([[2.0, 0.0], [0.5, 1.0]]))
    assert sys_.d == 2
    assert sys_.rho == pytest.approx(4.0)


def test_packing_system_d_and_rho_are_kept():
    g = rng_for(17, "core-cache")
    p = g.random((5, 9)) * (g.random((5, 9)) < 0.4)
    p[0, 0] = 3.0
    sys_ = PackingSystem(p)
    d = int(np.count_nonzero(p, axis=1).max())
    pos = p[p > 0]
    rho = float(pos.max() / pos.min())
    assert sys_.d == d
    assert sys_.rho == rho  # the same formula, so the same bits
    assert sys_.__dict__["d"] == d and sys_.__dict__["rho"] == rho
    # a second read returns the kept values, even if the matrix moved since
    sys_.matrix[:] = 1.0
    assert sys_.d == d and sys_.rho == rho


def test_scaled_matrix_is_kept_for_one_gamma():
    g = rng_for(23, "core-scaled")
    p = g.random((4, 7)) * (g.random((4, 7)) < 0.5)
    p[0, 0] = 2.0
    sys_ = PackingSystem(p)
    a = sys_.scaled(0.3)
    assert a.tobytes() == (sys_.matrix / 0.3).tobytes()
    assert sys_.scaled(0.3) is a
    b = sys_.scaled(0.6)
    assert b is not a
    assert b.tobytes() == (sys_.matrix / 0.6).tobytes()
    assert list(sys_._scaled_memo) == [0.6]
    assert sys_.scaled(0.6) is b
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    for bad in (0, -1):
        with pytest.raises(ValueError):
            sys_.scaled(bad)
    assert list(sys_._scaled_memo) == [0.6]


def test_column_nonzeros_is_kept_and_read_only():
    g = rng_for(29, "core-colnnz")
    p = g.random((5, 8)) * (g.random((5, 8)) < 0.4)
    p[1, 2] = 1.0
    sys_ = PackingSystem(p)
    cnz = sys_.column_nonzeros()
    assert np.array_equal(cnz, np.count_nonzero(sys_.matrix, axis=0))
    assert sys_.column_nonzeros() is cnz
    with pytest.raises(ValueError):
        cnz[0] = 7


def test_covering_row_validation():
    with pytest.raises(ValueError):
        CoveringRow(np.array([], dtype=int), np.array([]))
    with pytest.raises(ValueError):
        CoveringRow(np.array([0]), np.array([0.0]))
    with pytest.raises(ValueError):
        CoveringRow(np.array([0, 0]), np.array([1.0, 2.0]))
    row = CoveringRow(np.array([3, 1]), np.array([2.0, 1.0]))
    assert row.indices.tolist() == [1, 3]  # stored sorted
    assert row.values.tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "idx, val, message",
    [
        ([], [], "at least one entry"),
        ([0, 1], [1.0], "length mismatch"),
        ([0, 0], [1.0, 2.0], "duplicate"),
        ([0, 2, 2], [1.0, 2.0, 3.0], "duplicate"),
        ([2, 0, 2], [1.0, 2.0, 3.0], "duplicate"),
        ([-1, 2], [1.0, 2.0], "nonnegative"),
        ([2, -1], [1.0, 2.0], "nonnegative"),
        ([-1, -1], [1.0, 2.0], "duplicate"),  # duplicates are checked first
        ([0, 1], [1.0, 0.0], "finite and positive"),
        ([1, 0], [1.0, -2.0], "finite and positive"),
        ([0, 1], [np.nan, 1.0], "finite and positive"),
        ([1, 0], [1.0, np.nan], "finite and positive"),
        ([0, 1], [1.0, np.inf], "finite and positive"),
        ([1, 0], [-np.inf, 1.0], "finite and positive"),
    ],
)
def test_covering_row_errors_on_sorted_and_unsorted_input(idx, val, message):
    with pytest.raises(ValueError, match=message):
        CoveringRow(np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64))


@pytest.mark.parametrize("idx", [[0, 2, 5], [5, 0, 2]])
def test_covering_row_owns_its_arrays(idx):
    src_idx = np.array(idx)
    src_val = np.array([1.0, 2.0, 3.0])
    row = CoveringRow(src_idx, src_val)
    before = (row.indices.copy(), row.values.copy())
    src_idx[:] = 7
    src_val[:] = -1.0
    assert np.array_equal(row.indices, before[0])
    assert np.array_equal(row.values, before[1])


@pytest.mark.parametrize(
    "idx, val",
    [
        ([3, 1, 2], [1.0, 2.0, 3.0]),  # lists
        (np.array([1, 2, 3], dtype=np.int32), np.array([1, 2, 3], dtype=np.float32)),
        (np.arange(8)[::3], np.linspace(1.0, 2.0, 9)[::3]),  # strided views
        (np.array([[1, 4]]).T, np.asfortranarray([[1.0], [2.0]])),  # 2-d
        (np.int64(3), 2.5),  # scalars
    ],
)
def test_covering_row_stores_contiguous_int64_and_float64(idx, val):
    row = CoveringRow(idx, val)
    assert row.indices.dtype == np.int64 and row.values.dtype == np.float64
    assert row.indices.ndim == 1 and row.values.ndim == 1
    assert row.indices.flags.c_contiguous and row.values.flags.c_contiguous
    # no views: each stored array holds its own buffer
    assert row.indices.base is None and row.values.base is None
    assert np.array_equal(row.indices, np.sort(np.ravel(idx)))


# -- appendix-style inequalities, exercised at modest volume here (the
#    full 1e4-trial sweeps live in the acceptance suite) -------------------


def prefix_sum_bound_holds(a: np.ndarray) -> bool:
    lhs = float((a / np.cumsum(a)).sum())
    return lhs <= 1.0 + math.log(float(a.sum() / a[0])) + 1e-9


def test_prefix_sum_log_inequality_small_sweep():
    g = rng_for(15, "core-prefix")
    for _ in range(500):
        length = int(g.integers(1, 40))
        a = g.random(length) + 1e-9
        assert prefix_sum_bound_holds(a)


def test_rate_growth_under_mu_scaling():
    # componentwise e-factor bound when x grows by at most mu per entry
    g = rng_for(16, "core-growth")
    for _ in range(300):
        m, n = int(g.integers(1, 6)), int(g.integers(1, 7))
        mu = 1.0 + 1.0 / (3.0 * math.log(math.e * m))
        pt = g.random((m, n))
        x1 = g.random(n)
        lam = float((pt @ x1).max())
        cap = 3.0 * math.log(math.e * m)
        if lam > cap:  # rescale into the admissible region
            x1 *= cap / lam
        x2 = x1 * (1.0 + (mu - 1.0) * g.random(n))
        r1 = rates(pt, x1)
        r2 = rates(pt, x2)
        assert np.all(r2 <= math.e * r1 + 1e-9)
