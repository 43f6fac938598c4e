"""Serial-chain kinematics for the end-effector attachment frame {b}.

The chain is described joint by joint: a fixed transform from the parent
frame followed by a rotation of angle ``q_i`` about a fixed axis, then a
fixed tool transform to frame {b}. All quantities are expressed in the
base frame {0} unless suffixed otherwise. Every function accepts plain
arrays (batched over leading axes) or :class:`beamilc.ad.Dual` inputs, so
the optimizers obtain exact derivatives through the same code path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import ad

GRAVITY = np.array([0.0, 0.0, -9.81])

ROT_TOL = 1e-10
AXIS_TOL = 1e-12


def _check_rotation(r, tol=ROT_TOL, what="rotation"):
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"{what} must be 3x3, got {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol or abs(np.linalg.det(r) - 1.0) > tol:
        raise ValueError(f"{what} is not orthonormal with determinant +1")
    return r


@dataclass(frozen=True)
class FramePose:
    """Position and orientation of frame {b} in the base frame."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "rotation", _check_rotation(self.rotation))


@dataclass(frozen=True)
class KinematicChain:
    """Geometry and limits of a serial arm with revolute joints.

    joint_translations : (n, 3) fixed translation to each joint, meters
    joint_rotations    : (n, 3, 3) fixed rotation to each joint
    joint_axes         : (n, 3) unit rotation axis of each joint
    tool_translation   : (3,) last joint frame -> {b}
    tool_rotation      : (3, 3)
    q_min, q_max       : (n,) joint position limits, rad
    dq_max             : (n,) velocity limits, rad/s
    ddq_max            : (n,) acceleration limits, rad/s^2
    jerk_max           : (n,) jerk limits, rad/s^3
    """

    joint_translations: np.ndarray
    joint_rotations: np.ndarray
    joint_axes: np.ndarray
    tool_translation: np.ndarray
    tool_rotation: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    dq_max: np.ndarray
    ddq_max: np.ndarray
    jerk_max: np.ndarray
    name: str = field(default="chain")

    def __post_init__(self):
        for nm in ("joint_translations", "joint_rotations", "joint_axes", "tool_translation",
                   "tool_rotation", "q_min", "q_max", "dq_max", "ddq_max", "jerk_max"):
            v = np.asarray(getattr(self, nm), dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{nm} has a non-finite entry")
            object.__setattr__(self, nm, v)
        t, r, a = self.joint_translations, self.joint_rotations, self.joint_axes
        n = t.shape[0]
        if t.shape != (n, 3) or r.shape != (n, 3, 3) or a.shape != (n, 3):
            raise ValueError("inconsistent joint geometry arrays")
        for i in range(n):
            _check_rotation(r[i], what=f"joint {i} rotation")
            if abs(np.linalg.norm(a[i]) - 1.0) > AXIS_TOL:
                raise ValueError(f"joint {i} axis is not unit norm")
        _check_rotation(self.tool_rotation, what="tool rotation")
        for nm in ("q_min", "q_max", "dq_max", "ddq_max", "jerk_max"):
            if getattr(self, nm).shape != (n,):
                raise ValueError(f"{nm} must have shape ({n},)")
        if not np.all(self.q_min < self.q_max):
            raise ValueError("q_min must be below q_max elementwise")

    @property
    def n_joints(self):
        return self.joint_translations.shape[0]


def _rot_about_axis(axis, angle):
    """Rodrigues rotation about a fixed unit axis; angle may be batched/dual."""
    a = np.asarray(axis, dtype=float)
    eye = np.eye(3)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    aat = np.outer(a, a)
    c = ad.cos(angle)
    s = ad.sin(angle)
    one = 1.0
    return ad.tail(c, 2) * eye + ad.tail(s, 2) * k + ad.tail(one - c, 2) * aat


def frame_state(chain, q, dq=None, ddq=None):
    """Outward recursion over the chain to frame {b}.

    Returns a dict with the pose ``p`` and ``R`` of {b}, plus its linear
    acceleration ``a``, angular velocity ``w`` and angular acceleration
    ``dw`` when dq/ddq are given. Inputs are plain arrays batched over
    leading axes, or duals; q[..., i] is joint i.
    """
    n = chain.n_joints
    if ad.value(q).shape[-1] != n:
        raise ValueError(f"expected {n} joint angles, got {ad.value(q).shape[-1]}")
    want_motion = dq is not None
    if want_motion and ddq is None:
        raise ValueError("ddq required when dq is given")
    if want_motion:
        for v in (dq, ddq):
            if ad.value(v).shape[-1] != n:
                raise ValueError("dimension mismatch in joint rates")

    lead = ad.value(q).shape[:-1]
    zeros3 = np.zeros(lead + (3,))
    r_cur = np.broadcast_to(np.eye(3), lead + (3, 3))
    o_cur = zeros3
    w_cur = zeros3
    dw_cur = zeros3
    a_cur = zeros3

    for i in range(n):
        r_pre = ad.matmat(r_cur, chain.joint_rotations[i])
        o_i = o_cur + ad.matvec(r_cur, chain.joint_translations[i])
        if want_motion:
            z_i = ad.matvec(r_pre, chain.joint_axes[i])
            rel = o_i - o_cur
            a_cur = a_cur + ad.cross(dw_cur, rel) + ad.cross(w_cur, ad.cross(w_cur, rel))
            dqi = ad.tail(ad.comp(dq, i), 1)
            dw_cur = dw_cur + ad.cross(w_cur, z_i) * dqi + z_i * ad.tail(ad.comp(ddq, i), 1)
            w_cur = w_cur + z_i * dqi
        r_cur = ad.matmat(r_pre, _rot_about_axis(chain.joint_axes[i], ad.comp(q, i)))
        o_cur = o_i

    tool = ad.matvec(r_cur, chain.tool_translation)
    out = {"p": o_cur + tool, "R": ad.matmat(r_cur, chain.tool_rotation)}
    if want_motion:
        out["a"] = a_cur + ad.cross(dw_cur, tool) + ad.cross(w_cur, ad.cross(w_cur, tool))
        out["w"] = w_cur
        out["dw"] = dw_cur
    return out


def forward_kinematics(chain, q):
    """Pose of frame {b} for joint configuration ``q``."""
    res = frame_state(chain, np.asarray(q, dtype=float))
    return FramePose(res["p"], res["R"])


def orientation_error(r, r_des):
    """Axis-angle vector of ``r_des^T r`` (zero iff the rotations agree).

    Accepts plain rotation matrices or duals; plain inputs are validated.
    Smooth for relative angles away from pi.
    """
    plain = not (ad.is_dual(r) or ad.is_dual(r_des))
    if plain:
        _check_rotation(r, what="r")
        _check_rotation(r_des, what="r_des")
    m = ad.matmat(ad.mtranspose(r_des), r)
    w = ad.stack_last([
        (ad.entry(m, 2, 1) - ad.entry(m, 1, 2)) * 0.5,
        (ad.entry(m, 0, 2) - ad.entry(m, 2, 0)) * 0.5,
        (ad.entry(m, 1, 0) - ad.entry(m, 0, 1)) * 0.5,
    ])
    trace = ad.entry(m, 0, 0) + ad.entry(m, 1, 1) + ad.entry(m, 2, 2)
    cos_th = (trace - 1.0) * 0.5
    s2 = ad.inner(w, w)
    s2v = float(np.max(ad.value(s2)))
    cv = float(np.min(ad.value(cos_th)))
    if cv < -1.0 + 1e-10:
        raise ValueError("orientation error is not defined at a relative angle of pi")
    if s2v < 1e-8:
        # series for theta/sin(theta) in sin^2(theta); exact to O(theta^4)
        scale = 1.0 + s2 * (1.0 / 6.0) + s2 * s2 * (3.0 / 40.0)
    else:
        sn = ad.sqrt(s2)
        scale = ad.arctan2(sn, cos_th) / sn
    return ad.tail(scale, 1) * w


# ---------------------------------------------------------------------------
# chain construction and serialization


def _rpy_matrix(rpy):
    r, p, y = rpy
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1.0]])
    ry = np.array([[cp, 0, sp], [0, 1.0, 0], [-sp, 0, cp]])
    rx = np.array([[1.0, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def _quat_matrix(wxyz):
    w, x, y, z = np.asarray(wxyz, dtype=float) / np.linalg.norm(wxyz)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def chain_from_dict(spec):
    """Build a chain from the declarative description (see chain file format)."""
    joints = spec["joints"]
    n = len(joints)
    trans = np.zeros((n, 3))
    rots = np.zeros((n, 3, 3))
    axes = np.zeros((n, 3))
    limits = {k: np.zeros(n) for k in ("q_min", "q_max", "dq_max", "ddq_max", "jerk_max")}
    for i, j in enumerate(joints):
        trans[i] = j.get("translation", [0.0, 0.0, 0.0])
        if "quaternion" in j:
            rots[i] = _quat_matrix(j["quaternion"])
        else:
            rots[i] = _rpy_matrix(j.get("rpy", [0.0, 0.0, 0.0]))
        axes[i] = j["axis"]
        for k in limits:
            limits[k][i] = j[k]
    tool = spec.get("tool", {})
    tool_t = np.asarray(tool.get("translation", [0.0, 0.0, 0.0]), dtype=float)
    if "quaternion" in tool:
        tool_r = _quat_matrix(tool["quaternion"])
    else:
        tool_r = _rpy_matrix(tool.get("rpy", [0.0, 0.0, 0.0]))
    return KinematicChain(trans, rots, axes, tool_t, tool_r,
                          limits["q_min"], limits["q_max"], limits["dq_max"],
                          limits["ddq_max"], limits["jerk_max"],
                          name=spec.get("name", "chain"))


def load_chain(path):
    """Load a chain description file (JSON).

    Malformed JSON or an entry the chain rejects, such as a non-finite
    number (``NaN``, ``Infinity``), raises a ``ValueError`` naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return chain_from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# every joint of a planar chain has the same limits
_PLANAR_LIMITS = {"q_max": 3.0, "dq_max": 2.5, "ddq_max": 15.0, "jerk_max": 4000.0}


def planar_chain(link_lengths):
    """Planar arm in the xy-plane, all joints about +z, links along local x.

    The tool frame sits at the tip of the last link with identity rotation,
    so Z_b is vertical and the pendulum swing plane is horizontal.
    """
    lengths = list(link_lengths)
    n = len(lengths)
    trans = np.zeros((n, 3))
    for i in range(1, n):
        trans[i, 0] = lengths[i - 1]
    rots = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    axes = np.tile([0.0, 0.0, 1.0], (n, 1))
    lim = {k: np.full(n, v) for k, v in _PLANAR_LIMITS.items()}
    return KinematicChain(
        trans, rots, axes,
        np.array([lengths[-1], 0.0, 0.0]), np.eye(3),
        -lim["q_max"], lim["q_max"], lim["dq_max"], lim["ddq_max"], lim["jerk_max"],
        name=f"planar{n}",
    )


# Reference 7-joint arm: external data, a Panda-like geometry assembled from
# the widely published modified-DH table (alpha, a, d) and public limits.
# Tests that need exact numbers use the planar chains instead.
_SEVEN_DOF_MDH = [
    # (a, alpha, d)
    (0.0, 0.0, 0.333),
    (0.0, -math.pi / 2, 0.0),
    (0.0, math.pi / 2, 0.316),
    (0.0825, math.pi / 2, 0.0),
    (-0.0825, -math.pi / 2, 0.384),
    (0.0, math.pi / 2, 0.0),
    (0.088, math.pi / 2, 0.0),
]
_SEVEN_DOF_LIMITS = {
    "q_min": [-2.8973, -1.7628, -2.8973, -3.0718, -2.8973, -0.0175, -2.8973],
    "q_max": [2.8973, 1.7628, 2.8973, -0.0698, 2.8973, 3.7525, 2.8973],
    "dq_max": [2.175, 2.175, 2.175, 2.175, 2.61, 2.61, 2.61],
    "ddq_max": [15.0, 7.5, 10.0, 12.5, 15.0, 20.0, 20.0],
    "jerk_max": [7500.0, 3750.0, 5000.0, 6250.0, 7500.0, 10000.0, 10000.0],
}
_SEVEN_DOF_TOOL_OFFSET = 0.11   # m


def seven_dof_chain():
    """Built-in 7R spatial arm with a tool plate offset along the flange z."""
    n = 7
    trans = np.zeros((n, 3))
    rots = np.zeros((n, 3, 3))
    for i, (a, alpha, d) in enumerate(_SEVEN_DOF_MDH):
        ca, sa = math.cos(alpha), math.sin(alpha)
        rx = np.array([[1.0, 0, 0], [0, ca, -sa], [0, sa, ca]])
        rots[i] = rx
        trans[i] = np.array([a, 0.0, 0.0]) + rx @ np.array([0.0, 0.0, d])
    axes = np.tile([0.0, 0.0, 1.0], (n, 1))
    lim = {k: np.asarray(v, dtype=float) for k, v in _SEVEN_DOF_LIMITS.items()}
    return KinematicChain(
        trans, rots, axes,
        np.array([0.0, 0.0, _SEVEN_DOF_TOOL_OFFSET]), np.eye(3),
        lim["q_min"], lim["q_max"], lim["dq_max"], lim["ddq_max"], lim["jerk_max"],
        name="seven_dof",
    )


def builtin_chain(name):
    if name == "planar2":
        return planar_chain([1.0, 1.0])
    if name == "planar3":
        return planar_chain([0.4, 0.3, 0.2])
    if name == "seven_dof":
        return seven_dof_chain()
    raise ValueError(f"unknown builtin chain '{name}'")
