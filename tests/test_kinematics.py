import json

import numpy as np
import pytest
from scipy.linalg import expm

from beamilc.kinematics import (KinematicChain, chain_from_dict, forward_kinematics,
                                frame_motion, geometric_jacobian, load_chain,
                                orientation_error)
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
    fm = frame_motion(chain7, REFERENCE_Q0_7DOF, np.zeros(7), np.zeros(7))
    for v in (fm.lin_vel, fm.ang_vel, fm.lin_acc, fm.ang_acc):
        np.testing.assert_allclose(v, 0.0, atol=1e-15)


def test_frame_motion_single_revolute():
    ch = single_joint_chain(radius=0.7)
    w = 1.3
    fm = frame_motion(ch, [0.4], [w], [0.0])
    np.testing.assert_allclose(fm.ang_vel, [0, 0, w], atol=1e-14)
    assert np.linalg.norm(fm.lin_vel) == pytest.approx(w * 0.7, abs=1e-12)


def test_frame_motion_matches_finite_differences(chain7):
    rng = np.random.default_rng(5)
    q = rng.uniform(-1, 1, 7)
    dq = rng.uniform(-1, 1, 7)
    ddq = rng.uniform(-1, 1, 7)
    fm = frame_motion(chain7, q, dq, ddq)

    def pos(t):
        return forward_kinematics(chain7, q + dq * t + 0.5 * ddq * t * t).position

    h = 1e-6
    v_fd = (pos(h) - pos(-h)) / (2 * h)
    assert np.max(np.abs(fm.lin_vel - v_fd)) / max(np.max(np.abs(v_fd)), 1.0) < 1e-4
    h = 1e-5
    a_fd = (pos(h) - 2 * pos(0) + pos(-h)) / h**2
    assert np.max(np.abs(fm.lin_acc - a_fd)) / max(np.max(np.abs(a_fd)), 1.0) < 1e-5


# ---------------------------------------------------------------------------
# geometric jacobian


def test_jacobian_zero_velocity(chain7):
    j = geometric_jacobian(chain7, REFERENCE_Q0_7DOF)
    np.testing.assert_allclose(j @ np.zeros(7), 0.0)


def test_jacobian_single_revolute_column():
    ch = single_joint_chain(radius=0.7)
    j = geometric_jacobian(ch, [0.9])
    np.testing.assert_allclose(j[:, 0], [0.0, 0.7, 0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_jacobian_consistent_with_frame_motion(chain7):
    rng = np.random.default_rng(6)
    for _ in range(5):
        q = rng.uniform(-1.5, 1.5, 7)
        dq = rng.uniform(-1, 1, 7)
        fm = frame_motion(chain7, q, dq, np.zeros(7))
        pose = forward_kinematics(chain7, q)
        twist = np.concatenate([pose.rotation.T @ fm.lin_vel,
                                pose.rotation.T @ fm.ang_vel])
        j = geometric_jacobian(chain7, q)
        assert np.max(np.abs(j @ dq - twist)) < 1e-10


def test_jacobian_matches_pose_sensitivity(chain7):
    rng = np.random.default_rng(7)
    q = rng.uniform(-1, 1, 7)
    j = geometric_jacobian(chain7, q)
    pose = forward_kinematics(chain7, q)
    h = 1e-6
    for i in range(7):
        dq = np.zeros(7)
        dq[i] = h
        dp = (forward_kinematics(chain7, q + dq).position
              - forward_kinematics(chain7, q - dq).position) / (2 * h)
        fd_col = pose.rotation.T @ dp
        assert np.max(np.abs(j[:3, i] - fd_col)) / max(np.max(np.abs(fd_col)), 1.0) < 1e-5


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
