import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nightrider.lie import (
    SMALL_ANGLE,
    ExtendedPose,
    adjoint_se23,
    right_invariant_error,
    se23_exp,
    se23_hat,
    se23_log,
    se23_vee,
    skew,
    skew_many,
    so3_exp,
    so3_exp_many,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
    so3_log_many,
    unskew,
)


# ---------------------------------------------------------------- oracles


def _series_exp5(xi, n_terms=20):
    """Truncated matrix exponential of the 5x5 embedding, built locally."""
    M = np.zeros((5, 5))
    a, b, c = xi[0:3], xi[3:6], xi[6:9]
    M[:3, :3] = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    M[:3, 3] = b
    M[:3, 4] = c
    out = np.eye(5)
    term = np.eye(5)
    for k in range(1, n_terms + 1):
        term = term @ M / k
        out = out + term
    return out


def _random_rotvec(rng, max_angle=math.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


# ---------------------------------------------------------------- skew


def test_skew_matches_cross_product():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-14)


def test_skew_antisymmetric_and_unskew():
    rng = np.random.default_rng(8)
    v = rng.normal(size=3)
    S = skew(v)
    assert np.allclose(S, -S.T)
    np.testing.assert_allclose(unskew(S), v)


# ---------------------------------------------------------------- so3


def test_so3_exp_zero_is_identity():
    np.testing.assert_allclose(so3_exp(np.zeros(3)), np.eye(3))


def test_so3_exp_quarter_turn_z():
    R = so3_exp([0.0, 0.0, math.pi / 2])
    np.testing.assert_allclose(
        R, [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-12
    )


def test_so3_exp_is_orthonormal():
    rng = np.random.default_rng(9)
    for _ in range(500):
        R = so3_exp(rng.normal(size=3))
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) > 0.0


def test_so3_log_half_turn_about_z():
    R = np.diag([-1.0, -1.0, 1.0])
    np.testing.assert_allclose(so3_log(R), [0.0, 0.0, math.pi], atol=1e-12)


def test_so3_log_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        so3_log(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        so3_log(np.diag([1.0, 1.0, -1.0]))  # reflection


def test_so3_log_many_equals_scalar_log_bitwise():
    rng = np.random.default_rng(13)
    angles = [0.0, 1e-12, 1e-3, 0.5, 1.9, 2.0, 2.5, math.pi - 1e-9, math.pi]
    mats = []
    for ang in angles:
        for _ in range(20):
            axis = rng.normal(size=3)
            mats.append(so3_exp(axis / np.linalg.norm(axis) * ang))
    mats.append(np.diag([-1.0, -1.0, 1.0]))
    out = so3_log_many(np.array(mats))
    for R, row in zip(mats, out):
        assert row.tobytes() == so3_log(R).tobytes()


def test_so3_exp_jacobian_many_matches_scalar_functions():
    rng = np.random.default_rng(14)
    phis = [np.zeros(3), np.array([1e-9, 0.0, 0.0]), np.array([0.0, 2e-8, 0.0])]
    for ang in [1e-6, 1e-3, 0.5, 2.0, 3.0, math.pi]:
        for _ in range(10):
            axis = rng.normal(size=3)
            phis.append(axis / np.linalg.norm(axis) * ang)
    E, J = so3_exp_many(np.array(phis), jacobian=True)
    assert E.tobytes() == so3_exp_many(np.array(phis)).tobytes()
    for phi, e, j in zip(phis, E, J):
        assert e.tobytes() == so3_exp(phi).tobytes()
        np.testing.assert_allclose(j, so3_left_jacobian(phi), rtol=0, atol=1e-15)


def test_so3_log_many_rejects_any_bad_matrix():
    good = np.stack([so3_exp([0.1, 0.2, 0.3])] * 4)
    for bad in (2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan)):
        stack = good.copy()
        stack[2] = bad
        with pytest.raises(ValueError):
            so3_log_many(stack)


def test_so3_roundtrip_10k():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10_000):
        phi = _random_rotvec(rng)
        err = np.abs(so3_log(so3_exp(phi)) - phi).max()
        worst = max(worst, err)
    assert worst < 1e-9, worst


def test_so3_roundtrip_near_pi_matrix_level():
    # axis recovery must stay accurate arbitrarily close to a half turn
    rng = np.random.default_rng(11)
    for gap in [1e-3, 1e-5, 1e-8, 1e-12, 0.0]:
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            R = so3_exp(axis * (math.pi - gap))
            R2 = so3_exp(so3_log(R))
            np.testing.assert_allclose(R2, R, atol=1e-9)


def test_so3_roundtrip_tiny_angles():
    rng = np.random.default_rng(12)
    for scale in [1e-6, 1e-9, 1e-12]:
        phi = rng.normal(size=3) * scale
        np.testing.assert_allclose(so3_log(so3_exp(phi)), phi, atol=1e-15)


def test_left_jacobian_inverse_pairs():
    rng = np.random.default_rng(13)
    for scale in [1e-10, 1e-5, 0.1, 1.0, 3.0]:
        phi = _random_rotvec(rng) * scale / max(scale, 1.0)
        phi = phi if np.linalg.norm(phi) > 0 else phi
        J = so3_left_jacobian(phi)
        Jinv = so3_left_jacobian_inv(phi)
        np.testing.assert_allclose(J @ Jinv, np.eye(3), atol=1e-10)


def test_left_jacobian_series_oracle():
    # J_l = sum_k hat(phi)^k / (k+1)!  -- compare against the raw series
    rng = np.random.default_rng(14)
    for _ in range(100):
        phi = _random_rotvec(rng, max_angle=2.0)
        S = skew(phi)
        J = np.eye(3)
        term = np.eye(3)
        for k in range(1, 25):
            term = term @ S / (k + 1)
            J = J + term
        np.testing.assert_allclose(so3_left_jacobian(phi), J, atol=1e-12)


# ---------------------------------------------------------------- se23


def test_se23_exp_pure_velocity():
    pose = se23_exp([0, 0, 0, 1.0, 2.0, 3.0, 0, 0, 0])
    np.testing.assert_allclose(pose.rot, np.eye(3))
    np.testing.assert_allclose(pose.vel, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(pose.pos, np.zeros(3))


def test_se23_exp_matches_series_oracle():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(1000):
        xi = rng.normal(size=9)
        n = np.linalg.norm(xi)
        if n > 1.0:
            xi = xi / n * rng.uniform(0.0, 1.0)
        M = se23_exp(xi).as_matrix()
        worst = max(worst, np.abs(M - _series_exp5(xi)).max())
    assert worst < 1e-10, worst


def test_se23_hat_vee_roundtrip():
    rng = np.random.default_rng(16)
    xi = rng.normal(size=9)
    np.testing.assert_allclose(se23_vee(se23_hat(xi)), xi)


def test_se23_log_roundtrip():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(2000):
        xi = np.concatenate([_random_rotvec(rng), rng.normal(size=6) * 5.0])
        err = np.abs(se23_log(se23_exp(xi)) - xi).max()
        worst = max(worst, err)
    assert worst < 1e-9, worst


def test_extended_pose_group_ops():
    rng = np.random.default_rng(18)
    X = se23_exp(rng.normal(size=9))
    Y = se23_exp(rng.normal(size=9))
    Ident = X.compose(X.inverse())
    np.testing.assert_allclose(Ident.as_matrix(), np.eye(5), atol=1e-12)
    np.testing.assert_allclose(
        (X @ Y).as_matrix(), X.as_matrix() @ Y.as_matrix(), atol=1e-12
    )
    np.testing.assert_allclose(
        ExtendedPose.from_matrix(X.as_matrix()).as_matrix(), X.as_matrix()
    )


# ------------------------------------------------- invariant error, adjoint


def test_right_invariant_error_zero_for_equal_poses():
    rng = np.random.default_rng(19)
    X = se23_exp(rng.normal(size=9))
    np.testing.assert_allclose(right_invariant_error(X, X), np.zeros(9), atol=1e-12)


def test_right_invariant_error_recovers_perturbation():
    rng = np.random.default_rng(20)
    for _ in range(200):
        ref = se23_exp(rng.normal(size=9))
        xi = np.concatenate([_random_rotvec(rng, 1.0), rng.normal(size=6)])
        est = se23_exp(xi).compose(ref)
        np.testing.assert_allclose(right_invariant_error(est, ref), xi, atol=1e-9)


def test_adjoint_identity_pose_is_identity():
    np.testing.assert_allclose(adjoint_se23(ExtendedPose()), np.eye(9))


def test_adjoint_matches_conjugation_oracle():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(1000):
        X = se23_exp(rng.normal(size=9))
        xi = rng.normal(size=9)
        M = X.as_matrix()
        conj = M @ se23_hat(xi) @ np.linalg.inv(M)
        oracle = np.concatenate(
            [unskew(conj[:3, :3]), conj[:3, 3], conj[:3, 4]]
        )
        worst = max(worst, np.abs(adjoint_se23(X) @ xi - oracle).max())
    assert worst < 1e-10, worst


def test_adjoint_exp_conjugation_identity():
    # exp(Ad_X xi) == X exp(xi) X^-1 as 5x5 matrices
    rng = np.random.default_rng(22)
    X = se23_exp(rng.normal(size=9) * 0.5)
    xi = rng.normal(size=9) * 0.3
    lhs = se23_exp(adjoint_se23(X) @ xi).as_matrix()
    rhs = X.as_matrix() @ se23_exp(xi).as_matrix() @ np.linalg.inv(X.as_matrix())
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ------------------------------------------- bit-for-bit reference code
# Each function computed on its own, the byte-level oracle of the shared
# or batched version.


def _skew_many_by_stack(phis):
    x, y, z = phis.T
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)


def _so3_exp_alone(phi):
    theta2 = float(phi @ phi)
    S = skew(phi)
    if theta2 < SMALL_ANGLE**2:
        return np.eye(3) + S + 0.5 * (S @ S)
    theta = math.sqrt(theta2)
    half_sin = np.sin(theta / 2.0)
    return (
        np.eye(3)
        + (np.sin(theta) / theta) * S
        + (2.0 * half_sin * half_sin / theta2) * (S @ S)
    )


def _so3_left_jacobian_alone(phi):
    theta2 = float(phi @ phi)
    S = skew(phi)
    if theta2 < SMALL_ANGLE**2:
        return np.eye(3) + 0.5 * S + (S @ S) / 6.0
    theta = np.sqrt(theta2)
    half_sin = np.sin(theta / 2.0)
    return (
        np.eye(3)
        + (2.0 * half_sin * half_sin / theta2) * S
        + ((theta - np.sin(theta)) / (theta2 * theta)) * (S @ S)
    )


_finite = st.floats(-1e3, 1e3, allow_subnormal=False)
# magnitudes from zero through the small-angle switch to several turns
_rotvec = st.tuples(_finite, _finite, _finite).map(np.array) | st.tuples(
    st.floats(-1e-7, 1e-7), st.floats(-1e-7, 1e-7), st.floats(-1e-7, 1e-7)
).map(np.array)


@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=_finite))
def test_skew_many_equals_stack_construction(phis):
    got = skew_many(phis)
    assert got.shape == (len(phis), 3, 3)
    assert got.tobytes() == _skew_many_by_stack(phis).tobytes()


@given(_rotvec, st.tuples(_finite, _finite, _finite, _finite, _finite, _finite))
def test_so3_exp_jacobian_and_se23_exp_equal_separate_formulas(phi, rest):
    assert so3_exp(phi).tobytes() == _so3_exp_alone(phi).tobytes()
    J = _so3_left_jacobian_alone(phi)
    assert so3_left_jacobian(phi).tobytes() == J.tobytes()
    xi = np.concatenate([phi, rest])
    pose = se23_exp(xi)
    assert pose.rot.tobytes() == _so3_exp_alone(phi).tobytes()
    assert pose.vel.tobytes() == (J @ xi[3:6]).tobytes()
    assert pose.pos.tobytes() == (J @ xi[6:9]).tobytes()
