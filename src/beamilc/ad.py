"""Forward-mode automatic differentiation on batched numpy arrays.

A :class:`Dual` carries a value array of shape ``S`` and a derivative array
of shape ``S + (m,)`` holding the partials with respect to ``m`` seed
directions. All operations broadcast like numpy and keep the derivative
axis last, so the same numerical code runs on plain arrays (cheap
evaluation) and on duals (evaluation plus Jacobian), batched over any
leading axes.

Only the operations needed by the kinematics/dynamics expressions are
provided; everything here is pure and allocation-based.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Dual", "value", "seed", "constant", "is_dual",
    "sin", "cos", "sqrt", "arctan2",
    "comp", "stack_last", "concat_last", "matmat", "matvec", "inner",
    "cross", "mtranspose", "moveaxis", "tail", "where",
]


class Dual:
    __slots__ = ("val", "dot")

    # make numpy defer mixed ndarray-Dual arithmetic to the reflected ops
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = np.asarray(val, dtype=float)
        self.dot = np.asarray(dot, dtype=float)

    @property
    def nseeds(self):
        return self.dot.shape[-1]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot + np.zeros(np.shape(other) + (1,)))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Dual) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self).__add__(np.asarray(other))

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                self.dot * other.val[..., None] + self.val[..., None] * other.dot,
            )
        other = np.asarray(other, dtype=float)
        return Dual(self.val * other, self.dot * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            val = self.val * inv
            dot = (self.dot - val[..., None] * other.dot) * inv[..., None]
            return Dual(val, dot)
        other = np.asarray(other, dtype=float)
        return Dual(self.val / other, self.dot / other[..., None])

    def __rtruediv__(self, other):
        other = np.asarray(other, dtype=float)
        inv = 1.0 / self.val
        val = other * inv
        return Dual(val, -val[..., None] * inv[..., None] * self.dot)

    def __pow__(self, n):
        if not np.isscalar(n):
            raise TypeError("only scalar exponents are supported")
        return Dual(self.val ** n, (n * self.val ** (n - 1))[..., None] * self.dot)

    # -- structure ----------------------------------------------------
    def __getitem__(self, key):
        # keys must address leading (value) axes only
        return Dual(self.val[key], self.dot[key])

    @property
    def shape(self):
        return self.val.shape

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Dual(val={self.val!r})"


def is_dual(x):
    return isinstance(x, Dual)


def value(x):
    """Value part of ``x`` whether dual or plain."""
    return x.val if isinstance(x, Dual) else np.asarray(x, dtype=float)


def constant(x, m):
    """Lift a plain array to a dual with zero derivatives."""
    x = np.asarray(x, dtype=float)
    return Dual(x, np.zeros(x.shape + (m,)))


def seed(x, m, offset):
    """Dual for ``x`` whose entries are independent seed directions.

    ``x`` has shape ``(..., d)``; direction ``offset + i`` is attached to
    entry ``i`` of the last axis, identically across leading axes.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    dot = np.zeros(x.shape + (m,))
    idx = np.arange(d)
    dot[..., idx, offset + idx] = 1.0
    return Dual(x, dot)


# -- scalar functions ---------------------------------------------------

def sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val)[..., None] * x.dot)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val)[..., None] * x.dot)
    return np.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        v = np.sqrt(x.val)
        return Dual(v, (0.5 / v)[..., None] * x.dot)
    return np.sqrt(x)


def arctan2(y, x):
    if not (isinstance(y, Dual) or isinstance(x, Dual)):
        return np.arctan2(y, x)
    m = y.nseeds if isinstance(y, Dual) else x.nseeds
    if not isinstance(y, Dual):
        y = constant(y, m)
    if not isinstance(x, Dual):
        x = constant(x, m)
    denom = x.val**2 + y.val**2
    val = np.arctan2(y.val, x.val)
    dot = (x.val[..., None] * y.dot - y.val[..., None] * x.dot) / denom[..., None]
    return Dual(val, dot)


# -- array structure ----------------------------------------------------

def comp(x, i):
    """Component ``i`` of the last value axis."""
    if isinstance(x, Dual):
        return Dual(x.val[..., i], x.dot[..., i, :])
    return np.asarray(x)[..., i]


def sub(x, sl):
    """Slice the last value axis with ``sl``."""
    if isinstance(x, Dual):
        return Dual(x.val[..., sl], x.dot[..., sl, :])
    return np.asarray(x)[..., sl]


def entry(m, i, j):
    """Entry ``(i, j)`` of the trailing matrix axes."""
    if isinstance(m, Dual):
        return Dual(m.val[..., i, j], m.dot[..., i, j, :])
    return np.asarray(m)[..., i, j]


def stack_last(parts):
    """Stack scalars-like parts into a new last value axis."""
    if any(isinstance(p, Dual) for p in parts):
        m = next(p.nseeds for p in parts if isinstance(p, Dual))
        parts = [p if isinstance(p, Dual) else constant(np.asarray(p, dtype=float), m) for p in parts]
        shape = np.broadcast_shapes(*[p.val.shape for p in parts])
        vals = [np.broadcast_to(p.val, shape) for p in parts]
        dots = [np.broadcast_to(p.dot, shape + (m,)) for p in parts]
        return Dual(np.stack(vals, axis=-1), np.stack(dots, axis=-2))
    return np.stack([np.broadcast_to(np.asarray(p, dtype=float), np.broadcast_shapes(*[np.shape(q) for q in parts])) for p in parts], axis=-1)


def concat_last(parts):
    """Concatenate along the last value axis."""
    if any(isinstance(p, Dual) for p in parts):
        m = next(p.nseeds for p in parts if isinstance(p, Dual))
        parts = [p if isinstance(p, Dual) else constant(p, m) for p in parts]
        lead = np.broadcast_shapes(*[p.val.shape[:-1] for p in parts])
        vals = [np.broadcast_to(p.val, lead + p.val.shape[-1:]) for p in parts]
        dots = [np.broadcast_to(p.dot, lead + p.dot.shape[-2:]) for p in parts]
        return Dual(np.concatenate(vals, axis=-1), np.concatenate(dots, axis=-2))
    lead = np.broadcast_shapes(*[np.shape(p)[:-1] for p in parts])
    return np.concatenate([np.broadcast_to(p, lead + np.shape(p)[-1:]) for p in parts], axis=-1)


def _bilinear(spec, a, b):
    """``np.einsum(spec, a, b)``, with the product rule when either factor is dual."""
    if not (isinstance(a, Dual) or isinstance(b, Dual)):
        return np.einsum(spec, a, b)
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    av, bv = value(a), value(b)
    parts = []
    if isinstance(a, Dual):
        parts.append(np.einsum(f"{sa}m,{sb}->{out}m", a.dot, bv))
    if isinstance(b, Dual):
        parts.append(np.einsum(f"{sa},{sb}m->{out}m", av, b.dot))
    # two parts are added directly, in place: a sum started at 0 would turn
    # -0.0 into +0.0
    if len(parts) == 2:
        parts[0] += parts[1]
    return Dual(np.einsum(spec, av, bv), parts[0])


def matmat(a, b):
    """Matrix product over the last two axes, batched over the rest."""
    return _bilinear("...ij,...jk->...ik", a, b)


def matvec(a, v):
    """Matrix-vector product over the last axes, batched over the rest."""
    return _bilinear("...ij,...j->...i", a, v)


def inner(u, v):
    """Inner product over the last axis."""
    return _bilinear("...i,...i->...", u, v)


def cross(u, v):
    """Cross product over the last axis (length 3)."""
    u0, u1, u2 = comp(u, 0), comp(u, 1), comp(u, 2)
    v0, v1, v2 = comp(v, 0), comp(v, 1), comp(v, 2)
    return stack_last([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def mtranspose(a):
    """Transpose of the last two value axes."""
    if isinstance(a, Dual):
        return Dual(np.swapaxes(a.val, -2, -1), np.swapaxes(a.dot, -3, -2))
    return np.swapaxes(a, -2, -1)


def moveaxis(x, source, destination):
    """``np.moveaxis`` over the value axes; negative axes count from the last one.

    ``source`` and ``destination`` are axes or sequences of axes.
    """
    if isinstance(x, Dual):
        nd = x.val.ndim
        return Dual(np.moveaxis(x.val, source, destination),
                    np.moveaxis(x.dot, np.mod(source, nd), np.mod(destination, nd)))
    return np.moveaxis(x, source, destination)


def where(cond, a, b):
    """``np.where`` over the value axes; a dual's derivative is that of the branch taken."""
    if not (isinstance(a, Dual) or isinstance(b, Dual)):
        return np.where(cond, a, b)
    m = a.nseeds if isinstance(a, Dual) else b.nseeds
    a, b = (v if isinstance(v, Dual) else constant(v, m) for v in (a, b))
    cond = np.asarray(cond)
    return Dual(np.where(cond, a.val, b.val), np.where(cond[..., None], a.dot, b.dot))


def tail(x, k):
    """Append ``k`` singleton value axes (for broadcasting against matrices)."""
    if isinstance(x, Dual):
        val = x.val.reshape(x.val.shape + (1,) * k)
        dot = x.dot.reshape(x.dot.shape[:-1] + (1,) * k + (x.dot.shape[-1],))
        return Dual(val, dot)
    x = np.asarray(x)
    return x.reshape(x.shape + (1,) * k)
