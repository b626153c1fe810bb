"""Quaternion and rotation helpers.

Convention: quaternions are (w, x, y, z), right-handed frames, Z-up.
All functions broadcast over leading axes; the last axis is the component
axis (4 for quaternions, 3 for vectors).
"""
from __future__ import annotations

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity: first nonzero component of (w,x,y,z) positive."""
    q = np.asarray(q, dtype=float)
    flat = q.reshape(-1, 4)
    first_nz = np.argmax(flat != 0.0, axis=1)
    lead = flat[np.arange(flat.shape[0]), first_nz]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return (flat * sign[:, None]).reshape(q.shape)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    w = aw * bw - ax * bx - ay * by - az * bz
    # every component has the broadcast shape of a and b, so the first
    # one sizes the output
    out = np.empty(w.shape + (4,))
    out[..., 0] = w
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _rotate(w, x, y, z, vx, vy, vz):
    """quat_rotate's arithmetic on components, Python floats or arrays alike."""
    tx = y * vz - z * vy
    ty = z * vx - x * vz
    tz = x * vy - y * vx
    rx = vx + 2.0 * (w * tx + (y * tz - z * ty))
    ry = vy + 2.0 * (w * ty + (z * tx - x * tz))
    rz = vz + 2.0 * (w * tz + (x * ty - y * tx))
    return rx, ry, rz


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by unit quaternion(s) q: v + 2 (w t + u x t), t = u x v.

    The cross products are written out with np.cross's own formulas
    (a1*b2 - a2*b1, ...), so the result is bit-identical to it. One
    quaternion (4,) and one vector (3,) are computed on Python floats, with
    the same operations in the same order, so they give the bits of the
    array path that every other shape takes, at a fraction of its cost.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if q.shape == (4,) and v.shape == (3,):
        w, x, y, z = q.tolist()
        vx, vy, vz = v.tolist()
        return np.array(_rotate(w, x, y, z, vx, vy, vz))
    rx, ry, rz = _rotate(q[..., 0], q[..., 1], q[..., 2], q[..., 3], v[..., 0], v[..., 1], v[..., 2])
    out = np.empty(rx.shape + (3,))
    out[..., 0] = rx
    out[..., 1] = ry
    out[..., 2] = rz
    return out


def quat_rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate v by the conjugate of q. One quaternion (4,) and one vector (3,)
    are conjugated on Python floats, by quat_conjugate's multiply by -1.0
    (so -0.0 and even a NaN keep the array path's bits), and take
    quat_rotate's float path."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if q.shape == (4,) and v.shape == (3,):
        w, x, y, z = q.tolist()
        vx, vy, vz = v.tolist()
        return np.array(_rotate(w, x * -1.0, y * -1.0, z * -1.0, vx, vy, vz))
    return quat_rotate(quat_conjugate(q), v)


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    half = angle / 2.0
    s = np.sin(half)
    return np.concatenate(
        [np.cos(half)[..., None], axis * s[..., None]], axis=-1
    )


def quat_from_yaw(yaw) -> np.ndarray:
    return quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)
