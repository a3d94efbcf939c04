"""The TriMix objective.

One training step mixes a view with its row-reversed batch by the
step's mixing factor λ, stacks both views and this virtual batch into
one (3B, in) tensor, pushes it through the network in one pass with the
three row blocks' bounds, and combines three terms: the
redundancy-reduction loss on the feature correlation matrix, the
decomposition loss tying the sample-similarity matrix to its mixing
ground truth, and the consistency loss tying virtual embeddings to the
linear mix of the originals'.  A non-finite value is reported with the
name of the term it came from.  The objective is a function of the
views, the parameters and λ; the caller chooses λ.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BatchParityError, ContractError, DimensionError, NumericError
from .model import ModelParams, forward
from .stats import cross_correlation, row_softmax, standardize
from .tensor import Tensor, add, apply_op, rows, scalar_mul


@dataclass
class LossBreakdown:
    total: float
    l_bt_inv: float
    l_bt_rr: float
    l_vrt: float
    l_con: float
    loss: Tensor = field(repr=False, default=None)  # on-tape scalar for backward


def mixup(x: Tensor, lam: float) -> Tensor:
    """lam * x + (1 - lam) * x[::-1]; even batch so no self-mixing."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"mix factor must lie in [0, 1], got {lam}")
    xd = x.data
    if xd.shape[0] % 2 != 0:
        raise BatchParityError(
            f"mixup: batch size {xd.shape[0]} is odd; the flip pairing needs an even batch"
        )
    out = lam * xd + (1.0 - lam) * xd[::-1]

    # the reversal permutation is symmetric, so the adjoint mixes the
    # upstream gradient with the same coefficients
    def rule(g):
        return (lam * g + (1.0 - lam) * g[::-1],)

    return apply_op("mixup", (x,), out, rule)


def ground_truth_matrix(batch: int, lam: float) -> Tensor:
    """lam on the diagonal, 1-lam on the anti-diagonal, zero elsewhere."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"mix factor must lie in [0, 1], got {lam}")
    if batch < 2:
        raise ContractError(f"ground_truth_matrix: batch must be >= 2, got {batch}")
    if batch % 2 != 0:
        raise BatchParityError(
            f"ground_truth_matrix: batch size {batch} is odd; the center row would "
            "conflate a mixed sample with a pure one"
        )
    # the cells of lam * eye + (1 - lam) * fliplr(eye), written directly:
    # an even batch keeps the two diagonals apart
    gt = np.zeros((batch, batch))
    gt.flat[::batch + 1] = lam
    gt.flat[batch - 1:-1:batch - 1] = 1.0 - lam
    return Tensor(gt)


def loss_bt(c: Tensor) -> tuple[Tensor, Tensor]:
    """Invariance and redundancy terms of the correlation-to-identity loss.

    Returns (sum_i (1 - C_ii)^2, sum_{i != j} C_ij^2); the caller weights
    and combines them.
    """
    cd = c.data
    if cd.ndim != 2 or cd.shape[0] != cd.shape[1]:
        raise DimensionError(f"loss_bt: expected a square matrix, got shape {list(cd.shape)}")
    d = cd.shape[0]
    diag = cd.diagonal().copy()
    resid = 1.0 - diag

    def rule_inv(g):
        dc = np.zeros((d, d))
        dc.flat[::d + 1] = -2.0 * resid * float(g.reshape(-1)[0])  # np.fill_diagonal's write
        return (dc,)

    l_inv = apply_op("bt_invariance", (c,), np.array([np.add.reduce(resid * resid, axis=None)]), rule_inv)

    def rule_rr(g):
        dc = 2.0 * float(g.reshape(-1)[0]) * cd
        dc.flat[::d + 1] = 0.0
        return (dc,)

    off_diag = np.add.reduce(cd * cd, axis=None) - np.add.reduce(diag * diag, axis=None)
    l_rr = apply_op("bt_redundancy", (c,), np.array([off_diag]), rule_rr)
    return l_inv, l_rr


def mean_abs_diff(a: Tensor, b: Tensor, kind: str = "mean_abs_diff") -> Tensor:
    """Mean of |a - b| over all cells, as one tape node (L1 with mean
    reduction; subgradient 0 where the operands tie)."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise DimensionError(
            f"{kind}: shapes {list(ad.shape)} and {list(bd.shape)} do not match"
        )
    diff = ad - bd
    n = diff.size
    out = np.array([np.add.reduce(np.abs(diff), axis=None) / n])  # ndarray.mean's arithmetic

    def rule(g):
        scaled = (float(g.reshape(-1)[0]) / n) * np.sign(diff)
        return (scaled, -scaled)

    return apply_op(kind, (a, b), out, rule)


def loss_vrt(m_soft: Tensor, gt: Tensor) -> Tensor:
    """Mean absolute difference between the softmaxed similarity matrix and GT."""
    return mean_abs_diff(m_soft, gt, kind="loss_vrt")


def loss_con(z_tilde: Tensor, z_vrt: Tensor) -> Tensor:
    """Mean absolute difference between mixed-up and virtual embeddings."""
    return mean_abs_diff(z_tilde, z_vrt, kind="loss_con")


def _flatten_views(views) -> tuple[Tensor, Tensor]:
    xb, xpb = views.x, views.x_prime
    if xb.shape != xpb.shape:
        raise DimensionError(
            f"view pair shapes {list(xb.shape)} and {list(xpb.shape)} do not match"
        )
    b = xb.shape[0]
    return Tensor(xb.reshape(b, -1)), Tensor(xpb.reshape(b, -1))


def trimix_step_loss(views, params: ModelParams, cfg, lam: float, trace: dict | None = None) -> LossBreakdown:
    """One full objective evaluation on a view pair at mixing factor `lam`.

    `params` should be tape-attached when gradients are wanted; the
    returned breakdown carries the on-tape total in `.loss`.  Passing a
    dict as `trace` captures intermediate arrays for verification.
    """
    x, xp = _flatten_views(views)
    b = x.data.shape[0]
    norm = cfg.normalize_on
    vrt_level, con_level = cfg.placement[0], cfg.placement[1]

    term = "forward"  # names the term a NumericError comes from
    try:
        # x, x' and the virtual batch share one pass as row blocks 0, 1, 2
        x_vrt = mixup(x, lam)
        stack = Tensor(np.concatenate((x.data, xp.data, x_vrt.data)))
        out = forward(stack, params, (0, b, 2 * b, 3 * b))
        z, z_p, z_vrt = (rows(out.z, i * b, (i + 1) * b) for i in range(3))
        if "Y" in cfg.placement:
            y, y_vrt = rows(out.y, 0, b), rows(out.y, 2 * b, 3 * b)

        term = "l_bt"
        zs = standardize(z, "batch") if norm else z
        zs_p = standardize(z_p, "batch") if norm else z_p
        c = cross_correlation(zs, zs_p, "features")
        l_inv, l_rr = loss_bt(c)
        l_bt = add(l_inv, scalar_mul(l_rr, cfg.alpha))

        bases = {"Z": zs}

        def base_for(level: str) -> Tensor:
            if level not in bases:  # Y, standardized once for both terms
                bases[level] = standardize(y, "batch") if norm else y
            return bases[level]

        def virtual_for(level: str) -> Tensor:
            v = z_vrt if level == "Z" else y_vrt
            if norm:
                v = standardize(v, "batch")
                if cfg.enable_feature_norm:
                    v = standardize(v, "feature")
            return v

        term = "l_vrt"
        m_base = base_for(vrt_level)
        m_virt = virtual_for(vrt_level)
        m = cross_correlation(m_base, m_virt, "samples")
        m_soft = row_softmax(m, cfg.tau)
        gt = ground_truth_matrix(b, lam)
        l_vrt_t = loss_vrt(m_soft, gt)

        term = "l_con"
        c_base = base_for(con_level)
        c_virt = m_virt if con_level == vrt_level else virtual_for(con_level)
        z_tilde = mixup(c_base, lam)
        l_con_t = loss_con(z_tilde, c_virt)
    except NumericError as exc:
        raise NumericError(f"{term}: {exc}") from exc

    total = l_bt
    if cfg.beta != 0.0:
        total = add(total, scalar_mul(l_vrt_t, cfg.beta))
    if cfg.gamma != 0.0:
        total = add(total, scalar_mul(l_con_t, cfg.gamma))

    if trace is not None:
        trace.update(
            x_vrt=x_vrt.data,
            z_tilde=z_tilde.data,
            base_std=zs.data,
            con_base=c_base.data,
            virt_norm=m_virt.data,
            m=m.data,
            m_soft=m_soft.data,
            gt=gt.data,
        )

    return LossBreakdown(
        total=total.item(),
        l_bt_inv=l_inv.item(),
        l_bt_rr=l_rr.item(),
        l_vrt=l_vrt_t.item(),
        l_con=l_con_t.item(),
        loss=total,
    )
