"""Deliberately naive reference implementations for certification.

Everything here is written as explicit loops over definitions, or as a
direct numpy transcription of the README's definitions, shares no code
with the optimized modules it checks, and is only meant to be fast
enough for tests and `trimix gradcheck`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateFeatureError, NumericError


@dataclass
class OracleReport:
    case_id: str
    max_abs_diff: float
    tolerance: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_abs_diff < self.tolerance

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.case_id}: max |diff| {self.max_abs_diff:.3e} "
            f"(tolerance {self.tolerance:g}, seed {self.seed}) {status}"
        )


def naive_correlation(z: np.ndarray, z2: np.ndarray, mode: str) -> np.ndarray:
    """Correlation with explicit square-root denominators, entry by entry."""
    z = np.asarray(z, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z.shape != z2.shape or z.ndim != 2:
        raise ContractError(f"naive_correlation: need equal BxD inputs, got {z.shape} and {z2.shape}")
    if mode not in ("features", "samples"):
        raise ContractError(f"naive_correlation: unknown mode {mode!r}")
    if mode == "samples":  # sample pairs are the feature pairs of the transposes
        z, z2 = z.T, z2.T
    n, k = z.shape
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            num = 0.0
            den_a = 0.0
            den_b = 0.0
            for s in range(n):
                num += z[s, i] * z2[s, j]
                den_a += z[s, i] ** 2
                den_b += z2[s, j] ** 2
            if den_a == 0.0 or den_b == 0.0:
                raise DegenerateFeatureError(
                    f"naive_correlation: zero denominator at {mode[:-1]} pair ({i}, {j})"
                )
            out[i, j] = num / (math.sqrt(den_a) * math.sqrt(den_b))
    return out


def naive_bt_terms(c: np.ndarray) -> tuple[float, float]:
    """Invariance and off-diagonal redundancy sums, as plain double loops."""
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    l_inv = 0.0
    l_rr = 0.0
    for i in range(d):
        l_inv += (1.0 - c[i, i]) ** 2
        for j in range(d):
            if j != i:
                l_rr += c[i, j] ** 2
    return l_inv, l_rr


def naive_mean_abs(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        total += abs(x - y)
    return total / a.size


def finite_diff(loss_fn, params: list, h: float = 1e-5) -> list:
    """Central differences per coordinate over in-place perturbed arrays.

    `loss_fn` takes no arguments and must depend on `params` (a list of
    float64 arrays) only through their current contents.
    """
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn())
            flat[i] = orig - h
            f_minus = float(loss_fn())
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError(f"finite_diff: non-finite loss at coordinate {i}")
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def directional_diff(loss_fn, params: list, direction: np.ndarray, h: float = 1e-5) -> float:
    """Central difference along one direction through all of `params`.

    `direction` is one flat vector covering the arrays of `params` in
    order; `loss_fn` is as in `finite_diff`.  The parameters are restored
    exactly afterwards.
    """
    saved = [p.copy() for p in params]
    ends = np.cumsum([p.size for p in params])
    pieces = [direction[e - p.size:e].reshape(p.shape) for p, e in zip(params, ends)]
    try:
        for p, s, d in zip(params, saved, pieces):
            np.add(s, h * d, out=p)
        f_plus = float(loss_fn())
        for p, s, d in zip(params, saved, pieces):
            np.subtract(s, h * d, out=p)
        f_minus = float(loss_fn())
    finally:
        for p, s in zip(params, saved):
            np.copyto(p, s)
    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
        raise NumericError("directional_diff: non-finite loss")
    return (f_plus - f_minus) / (2.0 * h)


# perturbed objective evaluations per batch: bounds the evaluator's arrays
# (about 3 MB on the default arch at B=8) while amortizing per-call overhead
FD_CHUNK = 64
STD_FLOOR = 1e-12


def _standardize(v: np.ndarray, axis: int) -> np.ndarray:
    """Mean 0, population std 1 along `axis` (-2: over the batch, -1: over
    the features); a slice with no spread is an error."""
    centered = v - v.mean(axis=axis, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=axis, keepdims=True))
    low = std < STD_FLOOR
    if low.any():
        slice_name, other = ("feature", -1) if axis == -2 else ("sample", -2)
        idx = int(np.argwhere(low)[0][other])
        raise DegenerateFeatureError(
            f"objective oracle: {slice_name} {idx} has standard deviation below {STD_FLOOR:g}"
        )
    return centered / std


def _batched_objective(z, z_p, y, z_v, y_v, cfg, lam: float) -> np.ndarray:
    """The TriMix objective for every slice of a leading perturbation axis.

    `z`, `z_p`, `z_v` are the embeddings of x, x' and the mixed batch,
    `y`, `y_v` the representations of x and the mixed batch, all PxBxD.
    """
    norm = cfg.normalize_on
    batch = z.shape[-2]
    zs = _standardize(z, -2) if norm else z
    zs_p = _standardize(z_p, -2) if norm else z_p
    c = np.swapaxes(zs, -1, -2) @ zs_p / batch
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    l_inv = ((1.0 - diag) ** 2).sum(axis=-1)
    l_rr = (c * c).sum(axis=(-2, -1)) - (diag * diag).sum(axis=-1)
    total = l_inv + l_rr * cfg.alpha

    @functools.cache
    def base(level: str) -> np.ndarray:
        if level == "Z":
            return zs
        return _standardize(y, -2) if norm else y

    @functools.cache
    def virtual(level: str) -> np.ndarray:
        v = z_v if level == "Z" else y_v
        if norm:
            v = _standardize(v, -2)
            if cfg.enable_feature_norm:
                v = _standardize(v, -1)
        return v

    vrt_level, con_level = cfg.placement[0], cfg.placement[1]
    if cfg.beta != 0.0:
        virt = virtual(vrt_level)
        m = base(vrt_level) @ np.swapaxes(virt, -1, -2) / virt.shape[-1]
        scaled = m / cfg.tau
        e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
        m_soft = e / e.sum(axis=-1, keepdims=True)
        eye = np.eye(batch)
        gt = lam * eye + (1.0 - lam) * eye[::-1]
        total = total + np.abs(m_soft - gt).mean(axis=(-2, -1)) * cfg.beta
    if cfg.gamma != 0.0:
        con_base = base(con_level)
        z_tilde = lam * con_base + (1.0 - lam) * con_base[..., ::-1, :]
        total = total + np.abs(z_tilde - virtual(con_level)).mean(axis=(-2, -1)) * cfg.gamma
    return total


def objective_finite_diff(x, x_prime, params: list, cfg, lam: float,
                          h: float = 1e-5) -> tuple[float, list]:
    """Central differences of the full TriMix objective, per coordinate,
    evaluated in batches of FD_CHUNK perturbations.

    `x`, `x_prime` are the flattened BxIn views; `params` is the flat
    list of parameter arrays, encoder layers then projector layers, each
    weight (laid out for x @ W) then bias.  `cfg` supplies the layer
    counts (encoder_widths, projector_widths) and the objective settings
    (alpha, beta, gamma, tau, placement, normalize_on,
    enable_feature_norm, activation; a zero beta or gamma leaves its term
    out) and `lam` is the mixing factor.  The objective is re-derived here
    from the README: ReLU after every layer but the last of each stack,
    population-std standardization (a slice with no spread is a
    DegenerateFeatureError), divide-by-count correlations, temperature row
    softmax, the lam/1-lam ground truth and the L1 terms.

    Perturbing W_l[i, j] by +-h only shifts column j of layer l's
    pre-activation by +-h * input_l[:, i] (and b_l[j] by +-h), so each
    batch reuses the unperturbed activations up to layer l, applies the
    moved column to layer l+1 as a rank-1 change, and recomputes the
    layers above for x, x' and the mixed batch.

    Returns the unperturbed objective value, taken from the same forward
    pass the perturbations start from, and one gradient array per
    parameter, in the order of `params`.
    """
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.ndim != 2 or x.shape != x_prime.shape:
        raise ContractError(
            f"objective_finite_diff: need equal BxIn views, got {x.shape} and {x_prime.shape}"
        )
    n_enc, n_proj = len(cfg.encoder_widths), len(cfg.projector_widths)
    if len(params) != 2 * (n_enc + n_proj):
        raise ContractError(
            f"objective_finite_diff: {len(params)} arrays do not fit {n_enc} encoder and "
            f"{n_proj} projector layers of (weight, bias)"
        )
    arrays = [np.asarray(p, dtype=np.float64) for p in params]
    layers = list(zip(arrays[0::2], arrays[1::2]))
    y_layer = n_enc - 1
    linear = {y_layer, len(layers) - 1}  # stack outputs: no activation
    relu = cfg.activation == "relu"

    def act(k: int, pre: np.ndarray) -> np.ndarray:
        return np.maximum(pre, 0.0) if relu and k not in linear else pre

    def run_from(l: int, pre: np.ndarray, y: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Layers l.. from layer l's PxBxD pre-activations: (Y, Z)."""
        out = None
        for k in range(l, len(layers)):
            if k > l:
                w, b = layers[k]
                p, bsz, _ = out.shape
                pre = (out.reshape(p * bsz, -1) @ w).reshape(p, bsz, -1) + b
            if k == y_layer:
                y = pre
            out = act(k, pre)
        return y, pre

    # unperturbed layer inputs (with a ones column standing in for the
    # bias) and pre-activations, for x, x' and the mixed batch
    batches = (x, x_prime, lam * x + (1.0 - lam) * x[::-1])
    inputs, pres = [], []
    for v in batches:
        ins, outs = [], []
        for k, (w, b) in enumerate(layers):
            pre = v @ w
            pre += b
            ins.append(np.hstack([v, np.ones((v.shape[0], 1))]))
            outs.append(pre)
            v = act(k, pre)
        inputs.append(ins)
        pres.append(outs)

    def with_column(base: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One copy of BxD `base` per perturbation p, column cols[p] set to values[p]."""
        out = np.repeat(base[None], cols.size, axis=0)
        out[np.arange(cols.size), :, cols] = values
        return out

    def perturbed(s: int, l: int, cols: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Y, Z) of batch s with column cols[p] of layer l's pre-activation
        shifted by step[p] (PxB)."""
        layer_pre = pres[s]
        col0 = layer_pre[l][:, cols].T
        col = col0 + step
        y = layer_pre[y_layer][None] if l > y_layer else None
        if l == len(layers) - 1:
            return y, with_column(layer_pre[l], cols, col)
        if l == y_layer:
            y = with_column(layer_pre[l], cols, col)
        # only column cols[p] of layer l's output moves, so layer l+1's
        # pre-activation changes by a rank-1 term
        moved = act(l, col) - act(l, col0)
        nxt = layer_pre[l + 1][None] + moved[:, :, None] * layers[l + 1][0][cols][:, None, :]
        return run_from(l + 1, nxt, y)

    def objective(outputs) -> np.ndarray:
        (y, z), (_, z_p), (y_v, z_v) = outputs
        return _batched_objective(z, z_p, y, z_v, y_v, cfg, lam)

    with np.errstate(over="ignore", invalid="ignore"):
        value = float(objective([(p[y_layer][None], p[-1][None]) for p in pres])[0])
        grads = []
        half = FD_CHUNK // 2
        for l, (w, b) in enumerate(layers):
            dout = w.shape[1]
            g = np.empty(w.size + b.size)  # weights row-major, then bias
            for start in range(0, g.size, half):
                coords = np.arange(start, min(start + half, g.size))
                n = coords.size
                rows, cols = np.divmod(coords, dout)  # row din is the bias
                cols = np.concatenate([cols, cols])  # +h for the first n, -h for the rest
                outputs = []
                for s in range(3):
                    step = h * inputs[s][l][:, rows].T
                    outputs.append(perturbed(s, l, cols, np.concatenate([step, -step])))
                f = objective(outputs)
                f_plus, f_minus = f[:n], f[n:]
                bad = ~(np.isfinite(f_plus) & np.isfinite(f_minus))
                if bad.any():
                    c = int(coords[np.argmax(bad)])
                    param, coord = (2 * l, c) if c < w.size else (2 * l + 1, c - w.size)
                    raise NumericError(
                        f"objective_finite_diff: non-finite loss at parameter {param} coordinate {coord}"
                    )
                g[coords] = (f_plus - f_minus) / (2.0 * h)
            grads.append(g[:w.size].reshape(w.shape))
            grads.append(g[w.size:])
    return value, grads


def naive_synthetic_blobs(spec, *key: int) -> tuple[np.ndarray, np.ndarray]:
    """The synthetic dataset of `spec`, one image at a time: image i, of
    class i mod classes, draws from its own generator, seeded by
    SeedSequence(spec.seed, spawn_key=(*key, i)), its center's jitter, its
    amplitude, its background offset and its pixel noise, in that order."""
    g = spec.size
    sigma = g / 7.0
    rows = g * (np.arange(spec.classes) + 1.0) / (spec.classes + 1.0)
    centers = np.stack([rows, np.full(spec.classes, (g - 1) / 2.0)], axis=1)
    yy, xx = np.mgrid[0:g, 0:g].astype(np.float64)
    images = np.empty((spec.n, 1, g, g), dtype=np.float64)
    labels = np.arange(spec.n, dtype=np.int64) % spec.classes
    for i in range(spec.n):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(*key, i)))
        center = centers[labels[i]] + rng.normal(0.0, spec.center_jitter, size=2)
        amp = rng.uniform(spec.amp_low, spec.amp_high)
        offset = rng.uniform(0.0, spec.background)
        d2 = (yy - center[0]) ** 2 + (xx - center[1]) ** 2
        img = offset + amp * np.exp(-d2 / (2.0 * sigma * sigma))
        img = img + rng.normal(0.0, spec.noise, size=(g, g))
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels


def naive_two_views(batch_images: np.ndarray, policy, seed: int, *key: int) -> tuple[np.ndarray, np.ndarray]:
    """Both augmented views of a batch, one image at a time: image i of
    view v draws from its own generator, seeded by
    SeedSequence(seed, spawn_key=(*key, i, v)), in pipeline order, and a
    transform the policy turns off draws nothing."""
    views = []
    for v in (0, 1):
        stack = np.empty_like(batch_images)
        for i in range(batch_images.shape[0]):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*key, i, v)))
            out = batch_images[i]
            c, h, w = out.shape
            if policy.pad > 0:
                p = policy.pad
                padded = np.pad(out, ((0, 0), (p, p), (p, p)), mode="reflect")
                oy = int(rng.integers(0, 2 * p + 1))
                ox = int(rng.integers(0, 2 * p + 1))
                out = padded[:, oy:oy + h, ox:ox + w]
            if policy.hflip_p > 0 and rng.random() < policy.hflip_p:
                out = out[:, :, ::-1]
            if policy.brightness > 0:
                out = out * (1.0 + rng.uniform(-policy.brightness, policy.brightness))
            if policy.contrast > 0:
                f = 1.0 + rng.uniform(-policy.contrast, policy.contrast)
                m = out.mean()
                out = (out - m) * f + m
            if policy.grayscale_p > 0 and rng.random() < policy.grayscale_p:
                out = np.repeat(out.mean(axis=0, keepdims=True), c, axis=0)
            stack[i] = np.clip(out, 0.0, 1.0)
        views.append(stack)
    return views[0], views[1]


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Coordinate-wise |a-b| / max(1, |a|, |b|), reduced with max.

    The unit floor keeps negligible coordinates from inflating the
    metric; large coordinates are compared relatively.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def naive_knn_predict(
    train_feats: np.ndarray, train_labels: np.ndarray, test_feats: np.ndarray, k: int
) -> np.ndarray:
    """Full-sort cosine KNN: sort all similarities, vote, tie-break by
    summed similarity then smaller class id."""
    def unit(rows):
        out = np.array(rows, dtype=np.float64)
        for i in range(out.shape[0]):
            norm = math.sqrt(float((out[i] ** 2).sum()))
            if norm < 1e-12:
                raise DegenerateFeatureError(f"naive_knn: zero-norm row {i}")
            out[i] = out[i] / norm
        return out

    train = unit(train_feats)
    test = unit(test_feats)
    preds = np.empty(test.shape[0], dtype=np.int64)
    for i in range(test.shape[0]):
        sims = [float(np.dot(test[i], train[j])) for j in range(train.shape[0])]
        ranked = sorted(range(len(sims)), key=lambda j: (-sims[j], j))[:k]
        counts: dict[int, int] = {}
        weights: dict[int, float] = {}
        for j in ranked:
            cls = int(train_labels[j])
            counts[cls] = counts.get(cls, 0) + 1
            weights[cls] = weights.get(cls, 0.0) + sims[j]
        best = sorted(counts, key=lambda cls: (-counts[cls], -weights[cls], cls))
        preds[i] = best[0]
    return preds


def reference_adam(
    grad_fn, theta0: float, lr: float, steps: int,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0,
) -> list:
    """Scalar Adam trajectory, one float at a time; returns theta after each step."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    out = []
    for t in range(1, steps + 1):
        g = float(grad_fn(theta)) + weight_decay * theta
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out
