"""Diffusion noise schedule, forward process, and reverse-posterior identities."""
from __future__ import annotations

import numpy as np

from ..config import MIN_DIFFUSION_STEPS
from ..numcore import Tensor, add, mul


class ScheduleError(Exception):
    pass


class DiffusionSchedule:
    """Linear beta schedule with derived cumulative and posterior tables.

    Endpoints scale the conventional 1000-step values (1e-4, 0.02) by
    1000/T so that alpha_bar stays near zero at t = T for any T; beta_T < 1
    needs T >= MIN_DIFFUSION_STEPS. Indexing is 1-based through
    :meth:`beta` .. :meth:`posterior_var`; ``alpha_bar(0) == 1``.
    """

    def __init__(self, T: int):
        if T < MIN_DIFFUSION_STEPS:
            raise ScheduleError(f"T must be >= {MIN_DIFFUSION_STEPS}")
        self.T = int(T)
        self._beta = np.linspace(1e-4 * (1000.0 / T), 0.02 * (1000.0 / T), T)
        self._alpha = 1.0 - self._beta
        self._alpha_bar = np.cumprod(self._alpha)

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self._beta[t - 1])

    def alpha(self, t: int) -> float:
        self._check_t(t)
        return float(self._alpha[t - 1])

    def alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self._alpha_bar[t - 1])

    def posterior_var(self, t: int) -> float:
        """beta_tilde_t = (1 - alpha_bar_{t-1}) * beta_t / (1 - alpha_bar_t)."""
        if t < 2:
            raise ScheduleError("posterior variance defined for t >= 2")
        return ((1.0 - self.alpha_bar(t - 1)) * self.beta(t)
                / (1.0 - self.alpha_bar(t)))

    def posterior_coefficients(self, t: int) -> tuple[float, float]:
        """Coefficients (on x0, on x_t) of the exact reverse posterior mean."""
        if t < 2:
            raise ScheduleError("posterior mean defined for t >= 2")
        denom = 1.0 - self.alpha_bar(t)
        c0 = np.sqrt(self.alpha_bar(t - 1)) * self.beta(t) / denom
        ct = np.sqrt(self.alpha(t)) * (1.0 - self.alpha_bar(t - 1)) / denom
        return float(c0), float(ct)

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.T:
            raise ScheduleError(f"t={t} outside 1..{self.T}")


def forward_diffuse(x0: Tensor, t, eps: Tensor,
                    sched: DiffusionSchedule) -> Tensor:
    """x_t = sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps.

    ``t`` is one timestep or a [B] array of them, one per row of x0.
    """
    t = np.asarray(t)
    if t.ndim > 1 or (t.ndim == 1 and t.size != x0.shape[0]):
        raise ScheduleError(f"t shape {t.shape} does not match x0 {x0.shape}")
    for ti in t.flat:
        sched._check_t(ti)
    if eps.shape != x0.shape:
        raise ScheduleError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    ab = np.array([sched.alpha_bar(int(ti)) for ti in t.flat]).reshape(
        t.shape + (1,) * (x0.ndim - t.ndim))
    return add(mul(x0, Tensor(np.sqrt(ab))),
               mul(eps, Tensor(np.sqrt(1.0 - ab))))


def posterior_mean_exact(x_t: np.ndarray, x0: np.ndarray, t: int,
                         sched: DiffusionSchedule) -> np.ndarray:
    """Exact reverse-posterior mean under the clean-signal parameterization."""
    c0, ct = sched.posterior_coefficients(t)
    return c0 * np.asarray(x0) + ct * np.asarray(x_t)


def kl_weight(t: int, sched: DiffusionSchedule) -> float:
    """w_t = alpha_bar_{t-1} * beta_t^2 / (2 * sigma_t^2 * (1 - alpha_bar_t)^2),
    with sigma_t^2 fixed to the exact posterior variance."""
    if t < 2:
        raise ScheduleError("kl_weight defined for t >= 2")
    sigma2 = sched.posterior_var(t)
    return float(sched.alpha_bar(t - 1) * sched.beta(t) ** 2
                 / (2.0 * sigma2 * (1.0 - sched.alpha_bar(t)) ** 2))
