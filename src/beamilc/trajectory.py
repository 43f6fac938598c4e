"""Uniformly sampled multi-channel time series with CSV round-tripping."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def format_sig(x):
    """Format a float with 9 significant digits (CSV convention)."""
    return f"{x:.9g}"


@dataclass(frozen=True)
class Trajectory:
    """Row-per-sample series: ``data[k, j]`` is channel ``j`` at ``t0 + k*dt``."""

    dt: float
    data: np.ndarray
    labels: tuple
    t0: float = 0.0

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if data.shape[0] < 1:
            raise ValueError("trajectory needs at least one row")
        labels = tuple(self.labels)
        if len(labels) != data.shape[1]:
            raise ValueError("label count must match column count")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.data.shape[0]

    @property
    def n_channels(self):
        return self.data.shape[1]

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(len(self))

    @property
    def duration(self):
        return self.dt * (len(self) - 1)

    def column(self, label):
        return self.data[:, self.labels.index(label)]

    def sample_hold(self, t):
        """Zero-order-hold values at times ``t`` (zero outside the horizon)."""
        t = np.asarray(t, dtype=float)
        idx = np.floor((t - self.t0) / self.dt + 1e-9).astype(int)
        out = np.zeros(t.shape + (self.n_channels,))
        ok = (idx >= 0) & (idx < len(self))
        out[ok] = self.data[idx[ok]]
        return out

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time," + ",".join(self.labels) + "\n")
            for k, row in enumerate(self.data):
                t = self.t0 + k * self.dt
                fh.write(format_sig(t) + "," + ",".join(format_sig(v) for v in row) + "\n")

    @staticmethod
    def from_csv(path):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[0] != "time":
                raise ValueError(f"{path}: first column must be 'time'")
            labels = tuple(header[1:])
            rows = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
        arr = np.asarray(rows, dtype=float)
        if arr.shape[0] < 2:
            dt = 1.0
        else:
            steps = np.diff(arr[:, 0])
            dt = float(np.mean(steps))
            if np.max(np.abs(steps - dt)) > 1e-6 * max(dt, 1.0):
                raise ValueError(f"{path}: time column is not uniform")
        return Trajectory(dt, arr[:, 1:], labels, t0=float(arr[0, 0]))
