"""Continuous-time quantum walk on a path, in its exact eigenbasis.

The Hamiltonian is minus the adjacency matrix of the path on l positions;
its eigenpairs are known in closed form, so evolution is one transform into
the eigenbasis with no time-stepping error:

    lambda_k = -2 cos(k pi / (l+1)),            k = 1..l
    v_k(t)   = sqrt(2/(l+1)) sin(k (t+1) pi / (l+1)),   t = 0..l-1

The path is bipartite: lambda_{l+1-k} = -lambda_k, c_{l+1-k} = c_k for
c_k = <k|0>, and v_{l+1-k}(m) = (-1)^m v_k(m); folded into k <= h = ceil(l/2),

    |psi_m(tau)|^2 = (sum_{k<=h} g_k v_k(m) c_k f_m(lambda_k tau))^2

with f_m = cos for even m, sin for odd m, and g_k = 2 (1 at lambda_k = 0).

The time average of the position distribution converges to the limiting
distribution pi(m) = (2 + [m=0] + [m=l-1]) / (2(l+1)); the deviation decays
like l/tau*, and the probability of landing in the far fraction F of the
line is bounded below by F minus errors of order l/tau* and 1/l.  Those
orders carry unknown constants, so the envelope fitters below measure them
over a sweep instead of assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Longest line whose batched probabilities use the dense eigenvector product,
# not the DST-I: on 4e6/l columns, one BLAS thread (2-core x86_64 VM), dense/
# DST time was 0.19 at l = 256, 0.72-0.91 at 511-512, 0.20-0.28 at 513-768
# (FFT length 2(l+1)), 0.80-0.88 at 1000, 1024, 1500, 1.27-1.92 at 1023, 2047.
DENSE_MAX_LENGTH = 512


class WalkLine:
    """Path of l positions with its exact eigendecomposition.

    The orthonormal type-I sine transform is exactly this Hamiltonian's
    eigenbasis (O(l log l)); lines up to DENSE_MAX_LENGTH use the cached
    eigenvector matrix (<= 2 MB).  Eigenvalues are exactly odd in k -> l+1-k.
    """

    def __init__(self, l: int):
        if l < 1:
            raise ValueError("need at least one position")
        self.l = l
        c = np.cos(np.arange(1, l + 1) * np.pi / (l + 1))
        self.eigenvalues = c[::-1] - c

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        k = np.arange(1, self.l + 1)
        return np.sqrt(2.0 / (self.l + 1)) * np.sin(
            np.outer(k, k) * np.pi / (self.l + 1))

    def eigenbasis_coeffs(self) -> np.ndarray:
        """Row <k|0> of the eigenbasis: the walk starts at position 0."""
        k = np.arange(1, self.l + 1)
        return np.sqrt(2.0 / (self.l + 1)) * np.sin(k * np.pi / (self.l + 1))

    def hamiltonian(self) -> np.ndarray:
        """Dense -adjacency matrix (for oracle comparisons)."""
        return -np.eye(self.l, k=1) - np.eye(self.l, k=-1)


def evolve(line: WalkLine, tau: float) -> np.ndarray:
    """Amplitudes <m| exp(-i H tau) |0> on all positions."""
    from scipy.fft import dst  # imported here: it costs most of a cold import
    coeff = line.eigenbasis_coeffs() * np.exp(-1j * line.eigenvalues * tau)
    return dst(coeff, type=1, norm="ortho")


def position_distributions(line: WalkLine, taus) -> np.ndarray:
    """|<m| exp(-i H tau) |0>|^2 in real arithmetic, one column per tau.

    One tangent tan(lambda_k tau / 2) per k <= h gives cos and sin (numpy
    vectorises float64 tan, not cos and sin); dense lines take two half-size
    products, O(l h T), longer lines the DST-I of c_k (cos -+ sin).
    """
    taus = np.asarray(taus, dtype=float)
    l, h = line.l, (line.l + 1) // 2
    c = line.eigenbasis_coeffs()[:h, None]
    w = c * (2.0 if l <= DENSE_MAX_LENGTH else 1.0)
    w[l - h:] = c[l - h:]  # an odd line's zero eigenvalue is its own partner
    sin = np.multiply.outer(0.5 * line.eigenvalues[:h], taus)
    np.tan(sin, out=sin)
    cos = np.square(sin)
    cos += 1.0
    np.divide(2.0 * w, cos, out=cos)  # w (1 + cos), with no third buffer
    sin *= cos
    cos -= w
    p = np.empty((l, taus.size))
    if l <= DENSE_MAX_LENGTH:
        for r, f in ((0, cos), (1, sin)):
            np.matmul(line.eigenvectors[r::2, :h], f, out=p[r::2])
    else:
        from scipy.fft import dst
        np.subtract(cos, sin, out=p[:h])
        np.add(cos, sin, out=p[::-1][:h])
        p = dst(p, type=1, norm="ortho", axis=0, overwrite_x=True)
    return np.square(p, out=p)


def position_distribution(line: WalkLine, tau: float) -> np.ndarray:
    return position_distributions(line, [tau])[:, 0]


@dataclass
class WalkDistribution:
    probabilities: np.ndarray
    stderr: np.ndarray = None  # per-position standard error for estimates

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if (not np.all(np.isfinite(p)) or np.any(p < -1e-12)
                or abs(p.sum() - 1.0) > 1e-9):
            raise ValueError("not a probability distribution")
        self.probabilities = p

    def total_variation(self, other: "WalkDistribution") -> float:
        return 0.5 * float(np.abs(self.probabilities
                                  - other.probabilities).sum())

    def far_mass(self, far_fraction: float) -> float:
        """Probability of the far fraction F: positions m > (1 - F) l."""
        l = len(self.probabilities)
        far = np.arange(l) > (1.0 - far_fraction) * l
        return float(self.probabilities[far].sum())


def limiting_distribution(line: WalkLine) -> WalkDistribution:
    """Infinite-time average of the position distribution from an endpoint."""
    l = line.l
    p = np.full(l, 2.0)
    p[0] += 1.0
    p[-1] += 1.0
    return WalkDistribution(p / (2.0 * (l + 1)))


def time_averaged_distribution(line: WalkLine, tau_star: float, samples: int,
                               rng) -> WalkDistribution:
    """Monte-Carlo estimate of the tau-uniform average of |psi_m(tau)|^2.

    Averages position_distributions at `samples` uniform times in [0, tau*],
    with per-position stderr, in chunks of O(l * chunk) memory.
    """
    if tau_star < 0 or samples < 1:
        raise ValueError("need tau_star >= 0 and samples >= 1")
    chunk = max(1, 4_000_000 // line.l)
    total, total_sq = np.zeros(line.l), np.zeros(line.l)
    for done in range(0, samples, chunk):
        taus = rng.uniform(0.0, tau_star, size=min(chunk, samples - done))
        probs = position_distributions(line, taus)
        total += probs.sum(axis=1)
        total_sq += np.square(probs, out=probs).sum(axis=1)
    mean = total / samples
    var = (total_sq - samples * mean ** 2) / max(samples - 1, 1)
    return WalkDistribution(mean / mean.sum(),
                            np.sqrt(np.maximum(var, 0.0) / samples))


def exact_time_averaged_distribution(line: WalkLine,
                                     tau_star: float) -> WalkDistribution:
    """Closed-form quadrature of the time average (no sampling error).

    The average of exp(-i d tau) over tau in [0, tau*] is
    (sin(d tau*) - i (1 - cos(d tau*))) / (d tau*).  The imaginary part is
    odd in d = lambda_j - lambda_k and cancels in the double sum over
    eigenpairs, which is symmetric in j and k, so the averaged distribution
    is a real quadratic form: 2 a (K- +- K+) a for even (odd) m, a = g_k v_k(m)
    c_k / 2, K-+ = sinc((lambda_j -+ lambda_k) tau* / pi), k <= h; O(l h^2).
    """
    l, h = line.l, (line.l + 1) // 2
    x = line.eigenvalues[:h] * (tau_star / np.pi)
    a = line.eigenvectors[:, :h] * line.eigenbasis_coeffs()[:h]
    a[:, l - h:] *= 0.5  # an odd line's zero eigenvalue is its own partner
    k_minus, k_plus = (np.sinc(f.outer(x, x)) for f in (np.subtract, np.add))
    p = np.empty(l)
    for r, kernel in ((0, k_minus + k_plus), (1, k_minus - k_plus)):
        p[r::2] = 2.0 * ((a[r::2] @ kernel) * a[r::2]).sum(1).clip(0.0)
    return WalkDistribution(p / p.sum(), np.zeros(l))


def success_probability(line: WalkLine, far_fraction: float, tau_star: float,
                        samples: int, rng):
    """Estimated probability of measuring m > (1 - F) l at a uniform time.

    Returns (p_star, deficit) where deficit = F - p_star is the quantity the
    l/tau* + 1/l envelope bounds.
    """
    if not 0.0 <= far_fraction <= 1.0:
        raise ValueError("far_fraction must lie in [0, 1]")
    if far_fraction == 0.0:
        return 0.0, 0.0
    avg = time_averaged_distribution(line, tau_star, samples, rng)
    p_star = avg.far_mass(far_fraction)
    return p_star, far_fraction - p_star


def fit_tv_envelope(lines, tau_factor: float, samples: int, rng):
    """Fit TV(p_bar, pi) <= c * l / tau* over a sweep of line lengths.

    tau* = tau_factor * l for each line.  Returns (c, per-line TVs, relative
    residuals of the one-parameter fit).
    """
    xs, tvs = [], []
    for line in lines:
        tau_star = tau_factor * line.l
        avg = time_averaged_distribution(line, tau_star, samples, rng)
        tvs.append(avg.total_variation(limiting_distribution(line)))
        xs.append(line.l / tau_star)  # = 1/tau_factor for every line
    x = np.array(xs)
    tvs = np.array(tvs)
    c = float((x @ tvs) / (x @ x))
    residuals = (tvs - c * x) / np.maximum(tvs, 1e-12)
    return c, tvs, residuals


def fit_success_envelope(lines, far_fraction: float, tau_factor: float,
                         samples: int, rng):
    """Least-squares constants (c1, c2) in  F - p* <= c1 l/tau* + c2 / l.

    Negative deficits (p* above F) are clamped to zero for the fit; the
    returned record keeps the raw values for reporting.
    """
    rows, deficits, raw = [], [], []
    for line in lines:
        tau_star = tau_factor * line.l
        _, deficit = success_probability(line, far_fraction, tau_star,
                                         samples, rng)
        rows.append((line.l / tau_star, 1.0 / line.l))
        raw.append(deficit)
        deficits.append(max(deficit, 0.0))
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(deficits), rcond=None)
    c1, c2 = (float(max(c, 0.0)) for c in coef)
    return {"c1": c1, "c2": c2, "deficits": raw,
            "bound": [c1 * r[0] + c2 * r[1] for r in rows]}


def simulate_measurement(trajectory, tau: float, rng):
    """Sample a position of the walk over a trajectory's states at time tau.

    Returns (m, state_m, clock value at m).  Reproducible for a fixed rng
    state; independent draws should use spawned generators so results do
    not depend on scheduling.  A draw costs the O(l log l) position
    distribution and one Trajectory.state(m), a replay from the start at
    block speed that keeps nothing: on a 10^6-step tier-III line 0.5-0.7 s,
    of which the DST-I takes 0.44 s and the replay 0.09-0.14 s.
    """
    l = len(trajectory)
    probs = position_distribution(WalkLine(l), tau)
    m = int(rng.choice(l, p=probs / probs.sum()))
    state = trajectory.state(m)
    from .engine import clock_value
    return m, state, clock_value(state)


def distribution_dump(dist: WalkDistribution) -> str:
    """Text dump: one `m p(m)` line per position."""
    return "\n".join(f"{m} {p:.12g}" for m, p in enumerate(dist.probabilities))
