"""Skeel condition numbers of the eigenvector subsystems, the analytic bound,
and componentwise-relative perturbation experiments.

The Skeel number kappa_inf(B, x) = || |B^-1| |B| |x| ||_inf / ||x||_inf is the
right condition number for perturbations |dB| <= eps |B|: it stays small for
this matrix family even while the solution components explode, which is the
whole point of the test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .extscalar import ExtScalar
from .matgen import GammaRatio, GeneralSystem, MatrixParams, build_eigvec_subsystem
from .oracle import OmegaSequence, solve_closed_form


def skeel_exact(sys: GeneralSystem) -> float:
    """Exact Skeel condition number of G x = f: the last entry of skeel_exact_prefixes."""
    return skeel_exact_prefixes(sys)[-1]


def skeel_exact_prefixes(sys: GeneralSystem) -> list[float]:
    """Exact Skeel condition numbers of every leading n-prefix of G x = f, n = 1..sys.n.

    y = |G||x| comes from prefix sums of |x|; z = |G^-1| y uses the separable
    closed-form entries |h_ij| = |a_i omega_i| / |d_j omega_{j+1}| when all
    signs are positive, and explicit partial products otherwise (omega ratios
    can hit 0/0 for sign-mixed diagonals). x_i and z_i depend only on the
    first i equations, so one pass with running maxima of z and |x| gives
    every prefix's max(z) / max|x|, converted to float only at the end.
    """
    if sys.n == 0:
        raise ValueError("condition number of an empty system is undefined")
    if sys.c == 0.0:
        # f = c makes x = 0 and G diagonal; |G^-1||G||v| = |v| for every v
        sys.require_nonsingular()
        return [1.0] * sys.n
    seq = OmegaSequence.from_system(sys)
    x = [ak * wk for ak, wk in zip(seq.a, seq.omega)]
    n = sys.n
    d = [Fraction(float(v)) for v in sys.d]
    c_abs = abs(Fraction(sys.c))
    ax = [abs(v) for v in x]
    y = []
    run = Fraction(0)
    for i in range(n):
        y.append(abs(d[i]) * ax[i] + c_abs * run)
        run += ax[i]
    positive = sys.c > 0.0 and all(float(v) > 0.0 for v in sys.d)
    z = []
    if positive:
        partial = Fraction(0)  # sum_{j<i} y_j / (d_j omega_{j+1})
        for i in range(n):
            ai, wi = seq.a[i], seq.omega[i]
            z.append(y[i] / d[i] + ai * wi * partial)
            partial += y[i] / (d[i] * wi * (1 + ai))
    else:
        for i in range(n):
            zi = y[i] / abs(d[i])
            prod = Fraction(1)
            for j in range(i - 1, -1, -1):
                zi += abs(seq.a[i] / d[j] * prod) * y[j]
                prod = prod * (1 + seq.a[j])
            z.append(zi)
    out = []
    zmax = xmax = Fraction(0)
    for zi, xi in zip(z, ax):
        zmax, xmax = max(zmax, zi), max(xmax, xi)
        out.append(float(zmax / xmax))  # x_1 = c / d_1 != 0, so xmax > 0
    return out


def skeel_bound(gamma: Union[GammaRatio, Fraction, float, int], n: int) -> float:
    """Analytic bound 2 (1 + gamma log((gamma + n - 1)/gamma)); needs gamma > 1."""
    g = gamma.as_float() if isinstance(gamma, GammaRatio) else float(gamma)
    if not math.isfinite(g):
        raise ValueError(f"the bound requires a finite gamma, got {g}")
    if not g > 1.0:
        raise ValueError(f"the bound requires gamma > 1, got {g}")
    if n < 1:
        raise ValueError(f"subsystem size must be >= 1, got {n}")
    return 2.0 * (1.0 + g * math.log((g + n - 1.0) / g))


# trials are substituted in batches of about this many bytes of perturbed matrices
_BATCH_BYTES = 2 << 20


@dataclass(frozen=True)
class PerturbStats:
    """Outcome of a seeded componentwise-relative perturbation experiment."""

    epsilon: float
    trials: int
    max_componentwise_error_ratio: float
    seed: int


def perturbation_experiment(
    params: MatrixParams,
    j: int,
    epsilon: float,
    trials: int,
    seed: int,
) -> PerturbStats:
    """Perturb every nonzero entry of B and f by independent (1 + delta), |delta| <= eps.

    Each perturbed system is substituted in float64 on exactly shifted data:
    unknown k is carried as u_k = x~_k 2**-e_k, e_k the exponent of the exact
    x_k, and every row in units of its own unknown's scale, so each product
    and sum rounds as in double arithmetic with an unbounded exponent
    (isolating the perturbation response from native-solver overflow), except
    that terms more than ~1074 binary orders below their row enter as zero.
    The result is compared against the exact unperturbed solution. The
    reported ratio is max |x~_i - x_i| / (eps ||x||_inf kappa_bound),
    maximized over trials; values <= 4 certify well-conditioned behavior.
    Per-trial RNG streams are spawned from the seed, so the result is
    order-independent and reproducible. The trials share the shifts, which
    come from the exact solution, so they are substituted in batches along a
    trial axis (about 2 MiB of perturbed matrices a batch, at least one
    trial); each trial still draws its diagonal, lower triangle (row-major)
    and right-hand side from its own stream in that order, and the batched
    arithmetic is elementwise that of one trial at a time.
    """
    if not (params.b > 0.0 and params.c > 0.0):
        raise ValueError("perturbation experiment requires b > 0 and c > 0")
    if not (0.0 < epsilon <= 1e-4):
        raise ValueError(f"epsilon must be in (0, 1e-4], got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (1 <= j <= params.m - 1):
        raise ValueError(f"eigen-index must have a nonempty subsystem: 1 <= j <= {params.m - 1}")
    sub = build_eigvec_subsystem(params, j)
    n = sub.n
    x = solve_closed_form(sub)
    kappa_bound = skeel_bound(params.gamma().as_float(), n)
    denom = ExtScalar.from_fraction(
        Fraction(float(epsilon)) * max(abs(v) for v in x) * Fraction(kappa_bound)
    )
    x_ext = [ExtScalar.from_fraction(v) for v in x]
    sig = np.array([v.significand for v in x_ext])  # x > 0 since b, c > 0
    e = np.array([v.exponent for v in x_ext], dtype=np.int64)
    c = float(sub.c)
    # f and the strict lower triangle ~ c, the diagonal ~ k b: shifting each by
    # its own exponent keeps every product normal whatever the sizes of b and c
    ec, eb = math.frexp(c)[1], math.frexp(params.b)[1]
    r = e + (eb - ec)  # row i is carried in units of 2**(r_i + ec)
    rows, cols = np.tril_indices(n, -1)
    batch = max(1, _BATCH_BYTES // (8 * n * n))
    lt = np.empty((min(batch, trials), n, n))  # lt[t, k, i] = trial t's B[i, k] * 2**-ec, i > k
    never = np.iinfo(np.int64).min
    worst = (never, 0.0)  # largest |x~_k - x_k| over the trials as (exponent, mantissa)
    streams = np.random.SeedSequence(seed).spawn(trials)
    for start in range(0, trials, batch):
        chunk = streams[start : start + batch]
        t = len(chunk)
        dd = np.empty((t, n))
        low = np.empty((t, len(rows)))
        f = np.empty((t, n))
        for s, stream in enumerate(chunk):  # each trial draws dd, low, f in turn
            rng = np.random.default_rng(stream)
            dd[s] = rng.uniform(-epsilon, epsilon, n)
            low[s] = rng.uniform(-epsilon, epsilon, len(rows))
            f[s] = rng.uniform(-epsilon, epsilon, n)
        dd = np.ldexp(sub.d * (1.0 + dd), -eb)
        lt[:t, cols, rows] = np.ldexp(c * (1.0 + low), -ec)
        acc = np.ldexp(c * (1.0 + f), -ec - r)
        u = np.empty((t, n))
        for k in range(n):  # row i still adds its terms k = 0..i-1 in order
            u[:, k] = acc[:, k] / dd[:, k]
            acc[:, k + 1 :] += np.ldexp(lt[:t, k, k + 1 :] * u[:, k : k + 1], e[k] - r[k + 1 :])
        mant, ex = np.frexp(np.abs(u - sig))  # |x~_k - x_k| = mant_k 2**(ex_k + e_k)
        ex = np.where(mant > 0.0, ex + e, never).ravel()
        mant = mant.ravel()
        k = np.lexsort((mant, ex))[-1]
        worst = max(worst, (int(ex[k]), float(mant[k])))
    ratio = (ExtScalar(worst[1]).scale_pow2(worst[0]) / denom).to_native()
    if not isinstance(ratio, float):
        raise ValueError("perturbation error ratio is outside the double range")
    return PerturbStats(
        epsilon=float(epsilon),
        trials=trials,
        max_componentwise_error_ratio=ratio,
        seed=seed,
    )


@dataclass(frozen=True)
class CondReport:
    """Conditioning summary for one eigenvector subsystem."""

    j: int
    n: int
    kappa_exact: float
    kappa_bound: Optional[float]  # None when gamma <= 1 (outside the bound's hypothesis)
    perturb_stats: Optional[PerturbStats] = None

    def to_jsonable(self) -> dict:
        out = {
            "j": self.j,
            "n": self.n,
            "kappa_exact": self.kappa_exact,
            "kappa_bound": self.kappa_bound,
        }
        if self.perturb_stats is not None:
            out["perturb"] = {
                "epsilon": self.perturb_stats.epsilon,
                "trials": self.perturb_stats.trials,
                "max_componentwise_error_ratio": self.perturb_stats.max_componentwise_error_ratio,
                "seed": self.perturb_stats.seed,
            }
        return out


def condition_reports(params: MatrixParams) -> list[CondReport]:
    """Exact kappa and, when gamma > 1, the analytic bound for every j = 1..m-1.

    The column-j subsystem is the leading (m-j)-prefix of the column-1
    subsystem, so one exact Skeel pass over the latter gives every kappa.
    """
    m = params.m
    kappas = skeel_exact_prefixes(build_eigvec_subsystem(params, 1))
    gamma = params.gamma().as_float()
    return [
        CondReport(
            j=j,
            n=m - j,
            kappa_exact=kappas[m - j - 1],
            kappa_bound=skeel_bound(gamma, m - j) if gamma > 1.0 else None,
        )
        for j in range(1, m)
    ]
