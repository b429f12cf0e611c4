"""One network at a time, kept as the test oracle of the stacked
``ebae.learners.fit_networks``.

``fit_network`` is the one-network gradient-descent loop on 2-D arrays, with
its own loss and gradients; every network of a stack must equal it exactly.
"""

import numpy as np

from ebae import learners
from ebae.learners import FeedForwardNet, FitError


def network_loss_and_grads_2d(w1, b1, w2, b2, X, y):
    """MSE loss and its analytic gradients for one 1-hidden-layer network."""
    hidden = np.tanh(X @ w1.T + b1)
    pred = hidden @ w2 + b2
    err = pred - y
    n = len(y)
    loss = float(np.mean(err**2))
    d_pred = 2.0 * err / n
    g_w2 = hidden.T @ d_pred
    g_b2 = float(np.sum(d_pred))
    d_hidden = np.outer(d_pred, w2) * (1.0 - hidden**2)
    g_w1 = d_hidden.T @ X
    g_b1 = d_hidden.sum(axis=0)
    return loss, (g_w1, g_b1, g_w2, g_b2)


def fit_network(X, y, config, seed):
    if len(y) < 4:
        raise FitError(f"network needs at least 4 pairs, got {len(y)}")
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    x_std = np.where(x_std > 0, x_std, 1.0)
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std == 0:
        y_mean, y_std = 0.0, 1.0
    Xs = (X - x_mean) / x_std
    ys = (y - y_mean) / y_std

    rng = np.random.default_rng(seed)
    m = X.shape[1]
    h = learners.NN_HIDDEN
    w1 = rng.standard_normal((h, m)) / np.sqrt(m)
    b1 = np.zeros(h)
    w2 = 0.1 * rng.standard_normal(h) / np.sqrt(h)
    b2 = 0.0
    lr = learners.NN_LR
    for _ in range(config.nn_epochs):
        loss, (g_w1, g_b1, g_w2, g_b2) = network_loss_and_grads_2d(w1, b1, w2, b2, Xs, ys)
        if not np.isfinite(loss):
            raise FitError("network training diverged (non-finite loss)")
        w1 = w1 - lr * g_w1
        b1 = b1 - lr * g_b1
        w2 = w2 - lr * g_w2
        b2 = b2 - lr * g_b2
    return FeedForwardNet(w1=w1, b1=b1, w2=w2, b2=b2,
                          x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)
