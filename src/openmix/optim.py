"""RMSprop with all running second moments in one flat vector."""

from __future__ import annotations

import numpy as np

from .nn import Affine, TwoHeadMLP, iter_params


class RmspropState:
    """Running mean of squared gradients for every model parameter.

    Update rule per parameter: v <- rho*v + (1-rho)*g^2, then
    p <- p - lr * g / (sqrt(v) + eps). Deterministic and in-place. Every v
    lives in one flat vector, `flat`; square_avg holds model-shaped views of
    it, and a step runs each ufunc once over the whole vector.
    """

    def __init__(self, model: TwoHeadMLP, lr: float = 1e-4, rho: float = 0.9, eps: float = 1e-8):
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError("learning rate must be positive and finite")
        if not 0.0 <= rho < 1.0:
            raise ValueError("decay rho must be in [0, 1)")
        if not (np.isfinite(eps) and eps > 0):
            raise ValueError("eps must be positive and finite")
        self.lr, self.rho, self.eps = lr, rho, eps
        self._shapes = [p.shape for _, p in iter_params(model)]
        ends = np.cumsum([p.size for _, p in iter_params(model)])
        self.flat, self._g, self._t, self._u = (np.zeros(ends[-1]) for _ in range(4))

        def views(buf):  # one view per parameter, shaped like it
            return [a.reshape(s) for a, s in zip(np.split(buf, ends[:-1]), self._shapes)]

        self._u_views = views(self._u)
        v = views(self.flat)
        layers = [Affine(w, b) for w, b in zip(v[::2], v[1::2])]
        self.square_avg = TwoHeadMLP(layers[:-2], layers[-2], layers[-1])

    def step(self, params: TwoHeadMLP, grads: TwoHeadMLP) -> None:
        """Apply one update to params in place."""
        ps = [p for _, p in iter_params(params)]
        gs = [g for _, g in iter_params(grads)]
        if [p.shape for p in ps] != self._shapes:
            raise ValueError("parameter shapes do not match the optimizer state")
        if [g.shape for g in gs] != self._shapes:
            raise ValueError("gradient shape does not match parameter shape")
        g, t, u, v = self._g, self._t, self._u, self.flat
        np.concatenate([a.ravel() for a in gs], out=g)
        v *= self.rho
        np.multiply(1.0 - self.rho, g, out=t)
        t *= g
        v += t
        np.multiply(self.lr, g, out=u)
        np.sqrt(v, out=t)
        t += self.eps
        u /= t
        for p, du in zip(ps, self._u_views):
            p -= du
