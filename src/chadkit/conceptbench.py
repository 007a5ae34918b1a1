"""Two-dimensional benchmark contrasting density estimation by contrast
with clustering-based anomaly scores.

Nominal points come from two independent bivariate Gamma clusters (skewed,
roughly triangular); anomalies from small Gaussian blobs placed between and
beside the clusters. Four scorers are compared by average precision: a
full-covariance Gaussian mixture, K-means with the right and with a wrong
cluster count, and a contrastive discriminator trained against uniform
negatives filtered to low-density regions of the generating distributions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .estimator import contrastive_loss_terms
from .evaluate import average_precision
from .nn import Adam, Array, DenseStack, pack


@dataclass
class GammaClusterSpec:
    """Componentwise-independent bivariate Gamma: shape/scale per axis, offset."""

    shape: tuple[float, float] = (2.0, 2.0)
    scale: tuple[float, float] = (1.0, 1.0)
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if any(len(v) != 2 for v in (self.shape, self.scale, self.offset)):
            raise ConfigError("Gamma shape, scale and offset need two values each")
        # below shape 1 the density at the offset is infinite, and so would be
        # the mode density that sets the uniform negatives' rejection threshold
        if any(s < 1 for s in self.shape) or any(s <= 0 for s in self.scale):
            raise ConfigError("Gamma shape must be >= 1 and scale positive")

    def sample(self, n: int, rng: np.random.Generator) -> Array:
        cols = [rng.gamma(self.shape[i], self.scale[i], size=n) + self.offset[i]
                for i in range(2)]
        return np.stack(cols, axis=1)

    def pdf(self, points: Array) -> Array:
        """Product of the two axes' densities ``exp((k - 1) log y - y -
        lgamma(k)) / scale`` at ``y = (x - offset) / scale``, 0 where y < 0."""
        points = np.atleast_2d(points)
        out = np.ones(points.shape[0])
        for k, scale, offset, x in zip(self.shape, self.scale, self.offset, points.T):
            y = (x - offset) / scale
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                log_density = -y if k == 1 else (k - 1.0) * np.log(y) - y
                density = np.exp(log_density - math.lgamma(k)) / scale
            out *= np.where(y >= 0, density, 0.0)
        return out

    def mode_density(self) -> float:
        mode = [self.offset[i] + (self.shape[i] - 1.0) * self.scale[i] for i in range(2)]
        return float(self.pdf(np.array([mode]))[0])


@dataclass
class GaussianBlobSpec:
    mean: tuple[float, float]
    cov: float = 0.25  # isotropic variance

    def __post_init__(self):
        if len(self.mean) != 2 or self.cov < 0:
            raise ConfigError("a blob needs a two-value mean and a variance >= 0")

    def sample(self, n: int, rng: np.random.Generator) -> Array:
        return rng.multivariate_normal(self.mean, self.cov * np.eye(2), size=n)


@dataclass
class ConceptConfig:
    clusters: tuple = (
        GammaClusterSpec(offset=(0.0, 0.0)),
        GammaClusterSpec(offset=(8.0, 8.0)),
    )
    blobs: tuple = (
        GaussianBlobSpec(mean=(6.5, 6.5)),
        GaussianBlobSpec(mean=(-0.5, -0.5)),
    )
    n_per_cluster: int = 500
    n_per_blob: int = 50
    eps_factor: float = 1e-3          # fraction of each cluster's mode density
    box_expand: float = 0.10

    def __post_init__(self):
        if len(self.clusters) < 1 or len(self.blobs) < 1:
            raise ConfigError("need at least one nominal cluster and one anomaly blob")
        if self.n_per_cluster < 1 or self.n_per_blob < 1:
            raise ConfigError("sample counts must be >= 1")
        if self.eps_factor <= 0:
            raise ConfigError("eps_factor must be > 0")


def gen_nominal(config: ConceptConfig, rng: np.random.Generator) -> Array:
    return np.concatenate([c.sample(config.n_per_cluster, rng) for c in config.clusters])


def gen_anomalies(config: ConceptConfig, rng: np.random.Generator) -> Array:
    return np.concatenate([b.sample(config.n_per_blob, rng) for b in config.blobs])


def gen_concept_data(config: ConceptConfig, rng: np.random.Generator):
    """Labelled 2-D dataset: nominal cluster draws plus anomaly blobs."""
    nominal = gen_nominal(config, rng)
    anomalies = gen_anomalies(config, rng)
    points = np.concatenate([nominal, anomalies])
    labels = np.concatenate([np.zeros(len(nominal), dtype=np.int8),
                             np.ones(len(anomalies), dtype=np.int8)])
    return points, labels


# ---- K-means ---------------------------------------------------------------


@dataclass
class KMeansModel:
    centers: Array
    inertia_history: list = field(default_factory=list)

    def score(self, points: Array) -> Array:
        """Distance to the assigned (nearest) center; high means anomalous."""
        d = np.linalg.norm(np.atleast_2d(points)[:, None, :] - self.centers[None], axis=2)
        return d.min(axis=1)


def _kmeanspp_seeds(points: Array, k: int, rng: np.random.Generator) -> Array:
    centers = [points[rng.integers(len(points))]]
    for _ in range(1, k):
        d2 = np.min(np.linalg.norm(points[:, None, :] - np.array(centers)[None], axis=2) ** 2,
                    axis=1)
        total = d2.sum()
        if total == 0:
            centers.append(points[rng.integers(len(points))])
            continue
        centers.append(points[rng.choice(len(points), p=d2 / total)])
    return np.array(centers)


KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-8


def fit_kmeans(points: Array, k: int, seed: int) -> KMeansModel:
    """Lloyd's iterations from k-means++ style seeding.

    Converges when the largest center shift drops below ``KMEANS_TOL`` or at
    ``KMEANS_MAX_ITER``. An emptied cluster is re-seeded at the point
    farthest from its assigned center.
    """
    points = np.asarray(points, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(points) < k:
        raise ValueError("need at least k points")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_seeds(points, k, rng)
    model = KMeansModel(centers)
    for _ in range(KMEANS_MAX_ITER):
        d = np.linalg.norm(points[:, None, :] - centers[None], axis=2)
        assign = d.argmin(axis=1)
        model.inertia_history.append(float((d.min(axis=1) ** 2).sum()))
        new_centers = centers.copy()
        for c in range(k):
            members = assign == c
            if members.any():
                new_centers[c] = points[members].mean(axis=0)
            else:
                farthest = d.min(axis=1).argmax()
                new_centers[c] = points[farthest]
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        model.centers = centers
        if shift < KMEANS_TOL:
            break
    return model


# ---- Gaussian mixture ------------------------------------------------------


@dataclass
class GmmModel:
    weights: Array
    means: Array
    covs: Array
    ll_history: list = field(default_factory=list)

    def component_logpdf(self, points: Array) -> Array:
        points = np.atleast_2d(points)
        n, d = points.shape
        k = len(self.weights)
        out = np.empty((n, k))
        for c in range(k):
            chol = np.linalg.cholesky(self.covs[c])
            diff = points - self.means[c]
            # forward substitution: chol @ sol = diff.T
            sol = np.empty((d, n))
            for i in range(d):
                sol[i] = (diff[:, i] - chol[i, :i] @ sol[:i]) / chol[i, i]
            out[:, c] = (-0.5 * (sol ** 2).sum(axis=0)
                         - np.log(np.diag(chol)).sum()
                         - 0.5 * d * np.log(2.0 * np.pi))
        return out

    def score(self, points: Array) -> Array:
        """Per-point log-likelihood under the mixture; low means anomalous."""
        lp = self.component_logpdf(points) + np.log(self.weights)[None, :]
        m = lp.max(axis=1, keepdims=True)
        return (m[:, 0] + np.log(np.exp(lp - m).sum(axis=1)))


GMM_MAX_ITER = 500
GMM_TOL = 1e-8
GMM_REG = 1e-6
GMM_MAX_RESTARTS = 5


def fit_gmm_em(points: Array, k: int, seed: int) -> GmmModel:
    """Full-covariance EM; covariances are regularized every M step.

    Stops when the total log-likelihood improves by less than ``GMM_TOL`` or
    at ``GMM_MAX_ITER``; ``GMM_REG`` is added to every covariance's diagonal.
    A numerically singular covariance triggers a restart with a fresh seed,
    up to ``GMM_MAX_RESTARTS`` times.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    last_error = None
    for attempt in range(GMM_MAX_RESTARTS + 1):
        rng = np.random.default_rng(seed + attempt)
        try:
            return _fit_gmm_once(points, k, rng)
        except np.linalg.LinAlgError as err:
            last_error = err
    raise TrainingDiverged(f"mixture covariance stayed singular after "
                           f"{GMM_MAX_RESTARTS} restarts: {last_error}")


def _fit_gmm_once(points: Array, k: int, rng: np.random.Generator) -> GmmModel:
    n, d = points.shape
    means = _kmeanspp_seeds(points, k, rng)
    base_cov = np.cov(points.T, bias=True).reshape(d, d) + GMM_REG * np.eye(d)
    model = GmmModel(np.full(k, 1.0 / k), means, np.array([base_cov] * k))
    prev_ll = -np.inf
    for _ in range(GMM_MAX_ITER):
        lp = model.component_logpdf(points) + np.log(model.weights)[None, :]
        m = lp.max(axis=1, keepdims=True)
        log_norm = m[:, 0] + np.log(np.exp(lp - m).sum(axis=1))
        ll = float(log_norm.sum())
        model.ll_history.append(ll)
        resp = np.exp(lp - log_norm[:, None])

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-12)
        model.weights = nk / n
        model.means = (resp.T @ points) / nk[:, None]
        covs = np.empty((k, d, d))
        for c in range(k):
            diff = points - model.means[c]
            covs[c] = (resp[:, c][:, None] * diff).T @ diff / nk[c] + GMM_REG * np.eye(d)
        model.covs = covs
        if abs(ll - prev_ll) < GMM_TOL:
            break
        prev_ll = ll
    return model


# ---- contrastive discriminator ---------------------------------------------


@dataclass
class NceModel:
    stack: DenseStack
    center: Array
    scale: Array

    def score(self, points: Array) -> Array:
        """Posterior of belonging to the nominal region; low means anomalous."""
        x = (np.atleast_2d(points) - self.center) / self.scale
        out, _ = self.stack.forward(x)
        return out[:, 0]


def data_box(points: Array, expand: float) -> tuple[Array, Array]:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    pad = (hi - lo) * expand
    return lo - pad, hi + pad


def uniform_negatives(config: ConceptConfig, n: int, box, rng: np.random.Generator,
                      max_batches: int = 1000) -> Array:
    """Uniform draws over the box, rejecting any point where some generating
    cluster still has non-negligible density (above eps_factor of its mode)."""
    lo, hi = box
    thresholds = [c.mode_density() * config.eps_factor for c in config.clusters]
    accepted, got, drawn = [], 0, 0
    for _ in range(max_batches):
        u = rng.uniform(lo, hi, size=(max(n, 256), 2))
        ok = np.ones(len(u), dtype=bool)
        for cluster, eps in zip(config.clusters, thresholds):
            ok &= cluster.pdf(u) < eps
        drawn += len(u)
        if ok.any():
            accepted.append(u[ok])
            got += int(ok.sum())
        if got >= n:
            break
        if drawn >= 10_000 and got < drawn * 0.001:
            break
    if got < n:
        raise ConfigError("uniform negative rejection rate above 99.9%; "
                          "eps_factor is too strict for this configuration")
    return np.concatenate(accepted)[:n]


# hidden widths and Adam learning rate of the contrastive discriminator
NCE_HIDDEN = (32, 16)
NCE_LR = 5e-3


def nce_concept(points: Array, config: ConceptConfig, rng: np.random.Generator,
                epochs: int = 700) -> NceModel:
    """Train a small MLP to separate nominal points from uniform negatives."""
    points = np.asarray(points, dtype=float)
    box = data_box(points, config.box_expand)
    negatives = uniform_negatives(config, len(points), box, rng)

    center = points.mean(axis=0)
    scale = np.maximum(points.std(axis=0), 1e-12)
    x_pos = (points - center) / scale
    x_neg = (negatives - center) / scale

    sizes = [2, *NCE_HIDDEN, 1]
    stack = DenseStack(sizes, ["tanh"] * len(NCE_HIDDEN) + ["sigmoid"], 0.0, rng)
    flat, grad, params, _ = pack({"": stack})
    opt = Adam(flat, grad, params, NCE_LR)
    for _ in range(epochs):
        f_pos, pos_caches = stack.forward(x_pos)
        f_neg, neg_caches = stack.forward(x_neg)
        _, d_pos, d_neg = contrastive_loss_terms(f_pos[:, 0], f_neg, 1.0)
        stack.zero_grad()
        stack.backward(pos_caches, d_pos[:, None])
        stack.backward(neg_caches, d_neg)
        opt.step()
    return NceModel(stack, center, scale)


# ---- the benchmark ---------------------------------------------------------

METHODS = ("GMM k=2", "K-means k=2", "K-means k=1", "NCE")


def run_concept_bench(config: ConceptConfig | None = None, seeds=range(10)) -> dict:
    """Fit all four scorers per seed and report average precision.

    Models are fitted on a nominal-only training draw and evaluated on a
    fresh labelled mix of nominal points and anomalies.
    """
    if config is None:
        config = ConceptConfig()
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        train_points = gen_nominal(config, rng)
        test_points, test_labels = gen_concept_data(config, rng)

        gmm = fit_gmm_em(train_points, 2, seed)
        km2 = fit_kmeans(train_points, 2, seed)
        km1 = fit_kmeans(train_points, 1, seed)
        nce = nce_concept(train_points, config, rng)

        scores = {
            "GMM k=2": (gmm.score(test_points), True),
            "K-means k=2": (km2.score(test_points), False),
            "K-means k=1": (km1.score(test_points), False),
            "NCE": (nce.score(test_points), True),
        }
        for method in METHODS:
            s, low_is_anomalous = scores[method]
            ap = average_precision(s, test_labels, anomaly_is_low_score=low_is_anomalous)
            rows.append({"method": method, "seed": int(seed), "ap": ap})

    summary = {}
    for method in METHODS:
        aps = [r["ap"] for r in rows if r["method"] == method]
        summary[method] = {"ap_mean": float(np.mean(aps)),
                           "ap_sd": float(np.std(aps, ddof=1)) if len(aps) > 1 else 0.0}
    return {"rows": rows, "summary": summary}
