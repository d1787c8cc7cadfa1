"""Brute-force references that the tests check the library against.

Each is a deliberately naive re-implementation (scalar loops, no
stabilization), valid only on small, well-scaled inputs; keep them
independent of the optimized code in elorantd.  The weather and hourly
TD helpers at the bottom build and read the ingest stores cell by cell.
"""
import math

import numpy as np

from elorantd.ingest import WeatherSeries
from elorantd.types import ALL_FACTORS


def wlr_forward(params, x) -> float:
    """Scalar WLR expert output w2 . (w1 x + b1) + b2 for one factor vector."""
    hidden = [
        sum(float(params.w1[i, k]) * float(x[k]) for k in range(len(x))) + float(params.b1[i])
        for i in range(len(params.w2))
    ]
    return sum(float(params.w2[i]) * hidden[i] for i in range(len(hidden))) + float(params.b2)


def adam_oracle(theta, loss_and_grad, lr: float, steps: int,
                beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as Kingma & Ba (2015), Algorithm 1, entry by entry on a list of
    floats: steps updates of theta, each by the gradient at the current
    theta.  loss_and_grad(theta) returns (loss, gradient list); returns the
    final theta and the loss before each update."""
    theta = [float(v) for v in theta]
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    losses = []
    for t in range(1, steps + 1):
        loss, g = loss_and_grad(theta)
        losses.append(loss)
        for i in range(len(theta)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            theta[i] -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta, losses


def soft_threshold(z: float, gamma: float) -> float:
    """The scalar lasso shrinkage: z moved gamma toward 0, and 0 within +-gamma."""
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def kernel_oracle(query, bank, y, sigmas) -> float:
    """Direct anisotropic-kernel evaluation: nested loops, no stabilization.

    bank is (l, T): one column per bank epoch, one bandwidth per row.
    """
    query = [float(v) for v in query]
    num = 0.0
    den = 0.0
    for t in range(len(y)):
        expo = 0.0
        for j in range(len(query)):
            diff = query[j] - float(bank[j][t])
            expo += diff * diff / (2.0 * float(sigmas[j]) ** 2)
        kval = math.exp(-expo)
        num += kval * float(y[t])
        den += kval
    return num / den


def wrss_loss(params, x, y, h_tilde, sigmas, w) -> float:
    """Leave-one-out WRSS at fixed sigmas: epoch t is predicted by
    kernel_oracle on the bank of the expert outputs with column t removed."""
    t_count, l_count = len(y), len(h_tilde)
    bank = [[wlr_forward(params, x[t][j]) * float(h_tilde[j]) for t in range(t_count)]
            for j in range(l_count)]
    total = 0.0
    for t in range(t_count):
        keep = [s for s in range(t_count) if s != t]
        yhat = kernel_oracle([row[t] for row in bank], [[row[s] for s in keep] for row in bank],
                             [y[s] for s in keep], sigmas)
        r = float(y[t]) - yhat
        total += float(w[t]) * r * r
    return total


def idw_combine(values, distances_km) -> float:
    """Inverse-distance weighted mean with weights 1/d.

    A zero distance short-circuits to that value: the query point
    coincides with an assigned cell.
    """
    values = np.asarray(values, dtype=float)
    d = np.asarray(distances_km, dtype=float)
    if values.size == 0 or values.shape != d.shape:
        raise ValueError("values and distances must be equal-length and nonempty")
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        return float(values[zero[0]])
    w = 1.0 / d
    return float(np.dot(w, values) / w.sum())


def weather_from_cells(station_ids, cells):
    """A weather store holding exactly ``cells``, filled one cell at a time.

    cells maps (station_id, EpochHour, MetFactor) to a value.
    """
    hours = sorted({epoch.hours_since_epoch for _, epoch, _ in cells})
    shape = (len(hours), len(station_ids), len(ALL_FACTORS))
    values, present = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    for (sid, epoch, factor), value in cells.items():
        at = (hours.index(epoch.hours_since_epoch), list(station_ids).index(sid),
              ALL_FACTORS.index(factor))
        values[at], present[at] = value, True
    return WeatherSeries(np.array(hours, dtype=np.int64), tuple(station_ids), values, present)


def hourly_value(series, epoch):
    """The hourly TD mean of ``epoch``, or None when the hour was dropped."""
    if epoch not in series.epochs:
        return None
    return float(series.values[series.epochs.index(epoch)])
