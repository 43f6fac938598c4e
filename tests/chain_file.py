"""Writing a chain description file, the inverse of ``kinematics.load_chain``."""
import json
import math


def _matrix_rpy(r):
    """Roll, pitch and yaw of ``r`` by ZYX decomposition; the inverse of ``_rpy_matrix``."""
    return [math.atan2(r[2, 1], r[2, 2]), math.atan2(-r[2, 0], math.hypot(r[0, 0], r[1, 0])),
            math.atan2(r[1, 0], r[0, 0])]


def save_chain(chain, path):
    joints = []
    for i in range(chain.n_joints):
        joints.append({
            "translation": chain.joint_translations[i].tolist(),
            "rpy": _matrix_rpy(chain.joint_rotations[i]),
            "axis": chain.joint_axes[i].tolist(),
            "q_min": chain.q_min[i], "q_max": chain.q_max[i],
            "dq_max": chain.dq_max[i], "ddq_max": chain.ddq_max[i],
            "jerk_max": chain.jerk_max[i],
        })
    doc = {"name": chain.name, "joints": joints,
           "tool": {"translation": chain.tool_translation.tolist(),
                    "rpy": _matrix_rpy(chain.tool_rotation)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
