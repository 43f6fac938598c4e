import json

import numpy as np
import pytest
from scipy.linalg import expm

from beamilc.kinematics import (KinematicChain, chain_from_dict, forward_kinematics,
                                frame_state, load_chain, orientation_error)
from chain_file import save_chain
from conftest import REFERENCE_Q0_7DOF


def rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def single_joint_chain(radius=0.7):
    ones = np.ones(1)
    return KinematicChain(
        np.zeros((1, 3)), np.eye(3)[None], np.array([[0.0, 0.0, 1.0]]),
        np.array([radius, 0.0, 0.0]), np.eye(3),
        -3 * ones, 3 * ones, 2 * ones, 10 * ones, 100 * ones)


# ---------------------------------------------------------------------------
# forward kinematics


def test_fk_straight_arm(chain2):
    pose = forward_kinematics(chain2, [0.0, 0.0])
    np.testing.assert_allclose(pose.position, [2.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-14)


def test_fk_base_rotation(chain2):
    pose = forward_kinematics(chain2, [np.pi / 2, 0.0])
    np.testing.assert_allclose(pose.position, [0.0, 2.0, 0.0], atol=1e-12)


def poe_oracle(chain, q):
    """Independent product-of-exponentials FK: screws from the zero pose."""
    n = chain.n_joints
    # accumulate the zero-configuration frames directly from the constants
    r = np.eye(3)
    o = np.zeros(3)
    axes, origins = [], []
    for i in range(n):
        r_pre = r @ chain.joint_rotations[i]
        o = o + r @ chain.joint_translations[i]
        axes.append(r_pre @ chain.joint_axes[i])
        origins.append(o.copy())
        r = r_pre
    m_home = np.eye(4)
    m_home[:3, :3] = r @ chain.tool_rotation
    m_home[:3, 3] = o + r @ chain.tool_translation

    t = np.eye(4)
    for i in range(n):
        w = axes[i]
        v = -np.cross(w, origins[i])
        twist = np.zeros((4, 4))
        twist[:3, :3] = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
        twist[:3, 3] = v
        t = t @ expm(twist * q[i])
    return t @ m_home


def test_fk_seven_dof_against_poe(chain7):
    t = poe_oracle(chain7, REFERENCE_Q0_7DOF)
    pose = forward_kinematics(chain7, REFERENCE_Q0_7DOF)
    np.testing.assert_allclose(pose.position, t[:3, 3], atol=1e-10)
    np.testing.assert_allclose(pose.rotation, t[:3, :3], atol=1e-10)


def test_fk_rotation_stays_orthonormal(chain7):
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = rng.uniform(chain7.q_min, chain7.q_max)
        r = forward_kinematics(chain7, q).rotation
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_fk_dimension_mismatch(chain2):
    with pytest.raises(ValueError):
        forward_kinematics(chain2, [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# frame motion


def test_frame_motion_stationary(chain7):
    fr = frame_state(chain7, REFERENCE_Q0_7DOF, np.zeros(7), np.zeros(7))
    for key in ("a", "w", "dw"):
        np.testing.assert_allclose(fr[key], 0.0, atol=1e-15)


def test_frame_motion_single_revolute():
    ch = single_joint_chain(radius=0.7)
    w = 1.3
    fr = frame_state(ch, np.array([0.4]), np.array([w]), np.array([0.0]))
    np.testing.assert_allclose(fr["w"], [0, 0, w], atol=1e-14)
    np.testing.assert_allclose(fr["dw"], 0.0, atol=1e-14)
    # uniform rotation: centripetal acceleration toward the axis
    radial = 0.7 * np.array([np.cos(0.4), np.sin(0.4), 0.0])
    np.testing.assert_allclose(fr["a"], -w * w * radial, atol=1e-14)


def random_path(seed):
    """Joint path ``q + t dq + t^2/2 ddq`` on the 7-DOF arm, with its rates at ``t``."""
    rng = np.random.default_rng(seed)
    q, dq, ddq = (rng.uniform(-1, 1, 7) for _ in range(3))
    return lambda t: (q + dq * t + 0.5 * ddq * t * t, dq + ddq * t, ddq)


def test_frame_motion_matches_finite_differences(chain7):
    path = random_path(5)
    fr = frame_state(chain7, *path(0.0))

    def pos(t):
        return forward_kinematics(chain7, path(t)[0]).position

    h = 1e-5
    a_fd = (pos(h) - 2 * pos(0) + pos(-h)) / h**2
    assert np.max(np.abs(fr["a"] - a_fd)) / max(np.max(np.abs(a_fd)), 1.0) < 1e-5


@pytest.mark.parametrize("seed", [5, 8, 13])
def test_frame_angular_velocity_matches_rotation_rate(chain7, seed):
    path = random_path(seed)
    fr = frame_state(chain7, *path(0.0))

    def rot(t):
        return forward_kinematics(chain7, path(t)[0]).rotation

    h = 1e-6
    omega = (rot(h) - rot(-h)) / (2 * h) @ fr["R"].T   # dR/dt R^T = S(w)
    w_fd = np.array([omega[2, 1], omega[0, 2], omega[1, 0]])
    np.testing.assert_allclose(omega + omega.T, 0.0, atol=1e-8)
    assert np.max(np.abs(fr["w"] - w_fd)) / max(np.max(np.abs(w_fd)), 1.0) < 1e-8


@pytest.mark.parametrize("seed", [5, 8, 13])
def test_frame_angular_acceleration_matches_finite_differences(chain7, seed):
    path = random_path(seed)
    fr = frame_state(chain7, *path(0.0))

    def ang_vel(t):
        return frame_state(chain7, *path(t))["w"]

    h = 1e-6
    dw_fd = (ang_vel(h) - ang_vel(-h)) / (2 * h)
    assert np.max(np.abs(fr["dw"] - dw_fd)) / max(np.max(np.abs(dw_fd)), 1.0) < 1e-8


# ---------------------------------------------------------------------------
# orientation error


def test_orientation_error_identity(chain7):
    r = forward_kinematics(chain7, REFERENCE_Q0_7DOF).rotation
    np.testing.assert_allclose(orientation_error(r, r), 0.0, atol=1e-14)


def test_orientation_error_single_axis(chain7):
    r_des = forward_kinematics(chain7, REFERENCE_Q0_7DOF).rotation
    e = orientation_error(r_des @ rot_z(0.1), r_des)
    np.testing.assert_allclose(e, [0.0, 0.0, 0.1], atol=1e-12)


def test_orientation_error_matches_geodesic_angle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w1 = rng.standard_normal(3)
        w2 = rng.standard_normal(3)

        def to_rot(w):
            k = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
            return expm(k)

        r, r_des = to_rot(w1), to_rot(w2)
        e = orientation_error(r, r_des)
        m = r_des.T @ r
        angle = np.arccos(np.clip((np.trace(m) - 1) / 2, -1, 1))
        assert abs(np.linalg.norm(e) - angle) < 1e-9


def test_orientation_error_antisymmetry():
    rng = np.random.default_rng(10)
    w = rng.standard_normal(3)
    k = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
    r = expm(k)
    e_fwd = orientation_error(r, np.eye(3))
    e_rev = orientation_error(np.eye(3), r)
    assert np.linalg.norm(e_fwd) == pytest.approx(np.linalg.norm(e_rev), abs=1e-12)
    assert np.linalg.norm(e_fwd) > 0


def test_orientation_error_rejects_bad_input():
    with pytest.raises(ValueError):
        orientation_error(np.eye(3) * 1.1, np.eye(3))


# ---------------------------------------------------------------------------
# chain validation and serialization


def test_chain_rejects_bad_rotation():
    bad = np.eye(3) * 1.001
    ones = np.ones(1)
    with pytest.raises(ValueError):
        KinematicChain(np.zeros((1, 3)), bad[None], np.array([[0, 0, 1.0]]),
                       np.zeros(3), np.eye(3), -ones, ones, ones, ones, ones)


def test_chain_rejects_non_unit_axis():
    ones = np.ones(1)
    with pytest.raises(ValueError):
        KinematicChain(np.zeros((1, 3)), np.eye(3)[None], np.array([[0, 0, 1.1]]),
                       np.zeros(3), np.eye(3), -ones, ones, ones, ones, ones)


def test_chain_rejects_inverted_limits():
    ones = np.ones(1)
    with pytest.raises(ValueError):
        KinematicChain(np.zeros((1, 3)), np.eye(3)[None], np.array([[0, 0, 1.0]]),
                       np.zeros(3), np.eye(3), ones, -ones, ones, ones, ones)


def test_chain_file_round_trip(tmp_path, chain7):
    path = tmp_path / "chain.json"
    save_chain(chain7, path)
    loaded = load_chain(path)
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, 7)
    np.testing.assert_allclose(forward_kinematics(loaded, q).position,
                               forward_kinematics(chain7, q).position, atol=1e-12)
    np.testing.assert_allclose(loaded.q_min, chain7.q_min)
    np.testing.assert_allclose(loaded.jerk_max, chain7.jerk_max)


@pytest.mark.parametrize("entry, value", [("translation", "NaN"), ("dq_max", "Infinity")])
def test_chain_file_rejects_non_finite(tmp_path, chain3, entry, value):
    path = tmp_path / "chain.json"
    save_chain(chain3, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    joint = doc["joints"][1]
    joint[entry] = [float(value), 0.0, 0.0] if entry == "translation" else float(value)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert value in path.read_text(encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite") as err:
        load_chain(path)
    assert str(path) in str(err.value)


def test_chain_from_dict_quaternion():
    doc = {"joints": [{"translation": [0, 0, 0.3], "quaternion": [1, 0, 0, 0],
                       "axis": [0, 0, 1], "q_min": -1, "q_max": 1, "dq_max": 2,
                       "ddq_max": 10, "jerk_max": 100}],
           "tool": {"translation": [0.1, 0, 0]}}
    ch = chain_from_dict(doc)
    pose = forward_kinematics(ch, [0.0])
    np.testing.assert_allclose(pose.position, [0.1, 0.0, 0.3], atol=1e-14)
