"""Command-line front end: pretrain, evaluate, fine-tune, verify, export."""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data, eval as evaluation, oracle
from .config import TriMixConfig, apply_setting, load_config
from .errors import ContractError, NumericError, TriMixError
from .model import init_params
from .objective import ground_truth_matrix, loss_bt, loss_con, loss_vrt, trimix_step_loss
from .stats import cross_correlation, standardize
from .tensor import Tape, Tensor, backward
from .train import Checkpoint, load_checkpoint, pretrain

GRADCHECK_TOLERANCE = 1e-4
# 2 objective evaluations each: about 2% of a default-arch gradcheck
GRADCHECK_DIRECTIONS = 64
ORACLE_TOLERANCE = 1e-10
ORACLE_CASES = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trimix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", help="config file (flat key=value)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory (defaults to config out_dir)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file to load")

    common(sub.add_parser("pretrain", help="run self-supervised pretraining"))
    sub.choices["pretrain"].add_argument("--resume", help="checkpoint to resume from")
    common(sub.add_parser("knn", help="KNN evaluation on frozen features"), checkpoint=True)
    common(sub.add_parser("probe", help="linear probe on frozen features"), checkpoint=True)
    common(sub.add_parser("finetune", help="semi-supervised fine-tuning"), checkpoint=True)
    common(sub.add_parser("gradcheck", help="tape gradients vs central finite differences"))
    common(sub.add_parser("verify-oracle", help="optimized paths vs naive oracle"))
    p = sub.add_parser("export-embeddings", help="write encoder features to CSV")
    common(p, checkpoint=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    return parser


def resolve_config(args) -> TriMixConfig:
    cfg = load_config(args.config) if args.config else TriMixConfig()
    for item in args.set:
        if "=" not in item:
            raise ContractError(f"--set expects KEY=VALUE, got {item!r}")
        name, raw = item.split("=", 1)
        apply_setting(cfg, name, raw)
    env_seed = os.environ.get("TRIMIX_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ContractError(f"TRIMIX_SEED must be an integer, got {env_seed!r}") from exc
        print(f"seed overridden by TRIMIX_SEED={cfg.seed}")
    if args.out:
        cfg.out_dir = args.out
    return cfg.validate()


def load_datasets(cfg: TriMixConfig) -> tuple[data.Dataset, data.Dataset]:
    if cfg.dataset == "synthetic":
        return (
            data.synthetic_blobs(cfg.synthetic_spec("train")),
            data.synthetic_blobs(cfg.synthetic_spec("test")),
        )
    if cfg.dataset == "idx":
        return (
            data.load_idx(cfg.idx_train_images, cfg.idx_train_labels),
            data.load_idx(cfg.idx_test_images, cfg.idx_test_labels),
        )
    return data.load_csv(cfg.csv_train), data.load_csv(cfg.csv_test)


def write_snapshot(cfg: TriMixConfig, command: str) -> None:
    """One snapshot per command so runs sharing an out dir never clobber
    each other's provenance; replaying a snapshot reproduces that run."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, f"resolved_config_{command}.txt"), "w") as f:
        f.write(cfg.render())


def publish_report(cfg: TriMixConfig, report: evaluation.EvalReport) -> int:
    """Append the report to reports.csv and print it; returns exit code 0."""
    path = os.path.join(cfg.out_dir, "reports.csv")
    fresh = not os.path.exists(path)
    with open(path, "a") as f:
        if fresh:
            f.write("protocol,top1,n,config_digest\n")
        f.write(report.csv_row() + "\n")
    print(report.describe())
    return 0


def _probe_cfg(cfg: TriMixConfig) -> evaluation.ProbeConfig:
    return evaluation.ProbeConfig(
        epochs=cfg.probe_epochs,
        lr=cfg.probe_lr,
        momentum=cfg.probe_momentum,
        weight_decay=cfg.probe_weight_decay,
        batch_size=cfg.probe_batch,
        seed=cfg.seed,
    )


def cmd_pretrain(args) -> int:
    cfg = resolve_config(args)
    train_ds, _ = load_datasets(cfg)
    write_snapshot(cfg, "pretrain")
    resume = load_checkpoint(args.resume) if args.resume else None
    ckpt, rows = pretrain(cfg, train_ds, out_dir=cfg.out_dir, resume=resume)
    last = rows[-1] if rows else None
    print(f"pretrained {ckpt.epoch} epochs, {len(rows)} steps logged to {cfg.out_dir}/metrics.csv")
    if last is not None:
        print(f"final step loss: total {last['total']:.6f} "
              f"(bt {last['l_bt_inv'] + cfg.alpha * last['l_bt_rr']:.6f}, "
              f"vrt {last['l_vrt']:.6f}, con {last['l_con']:.6f})")
    return 0


def _load_for_eval(args, command: str) -> tuple[TriMixConfig, Checkpoint, data.Dataset, data.Dataset, str]:
    """Resolve the config, load the checkpoint, then the datasets, and only
    then write the snapshot, so a bad input leaves no snapshot behind."""
    cfg = resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    train_ds, test_ds = load_datasets(cfg)
    write_snapshot(cfg, command)
    return cfg, ckpt, train_ds, test_ds, evaluation.config_digest(cfg.render())


def cmd_knn(args) -> int:
    cfg, ckpt, train_ds, test_ds, digest = _load_for_eval(args, "knn")
    train_bank, test_bank = (evaluation.extract_features(ckpt, ds) for ds in (train_ds, test_ds))
    return publish_report(cfg, evaluation.knn_eval(train_bank, test_bank, cfg.knn_k, digest))


def cmd_probe(args) -> int:
    cfg, ckpt, train_ds, test_ds, digest = _load_for_eval(args, "probe")
    train_bank, test_bank = (evaluation.extract_features(ckpt, ds) for ds in (train_ds, test_ds))
    return publish_report(cfg, evaluation.linear_probe(train_bank, test_bank, _probe_cfg(cfg), digest))


def cmd_finetune(args) -> int:
    cfg, ckpt, train_ds, test_ds, digest = _load_for_eval(args, "finetune")
    return publish_report(cfg, evaluation.finetune_semi(
        ckpt, train_ds, test_ds, cfg.finetune_fraction, _probe_cfg(cfg), digest
    ))


def cmd_export(args) -> int:
    cfg, ckpt, train_ds, test_ds, _ = _load_for_eval(args, "export-embeddings")
    ds = train_ds if args.split == "train" else test_ds
    bank = evaluation.extract_features(ckpt, ds, l2_normalize=False)
    path = os.path.join(cfg.out_dir, f"embeddings_{args.split}.csv")
    with open(path, "w") as f:
        f.write("label," + ",".join(f"y{i}" for i in range(bank.features.shape[1])) + "\n")
        for label, row in zip(bank.labels, bank.features):
            f.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {len(bank)} rows to {path}")
    return 0


def gradcheck(cfg: TriMixConfig, batch: int = 8, side: int = 16) -> float:
    """Max relative error of tape gradients vs central finite differences
    for the full objective with all three terms active and fixed mixing.

    Two checks at h = 1e-5 share the result:
    - every parameter coordinate, with the perturbed objectives evaluated
      in batches by `oracle.objective_finite_diff` from its own derivation
      of the objective;
    - GRADCHECK_DIRECTIONS random unit directions through all parameters,
      with `trimix_step_loss` itself evaluated, so the tape's backward is
      also held to the forward that training runs.
    """
    cfg = dataclasses.replace(cfg, lambda_policy="fixed", lambda_fixed=0.3)
    spec = data.SyntheticSpec(n=batch, classes=2, size=side, seed=cfg.seed)
    ds = data.synthetic_blobs(spec)
    views = data.two_views(ds.images, data.AugmentPolicy(), cfg.seed, labels=ds.labels)
    params = init_params(cfg.arch_for(side * side), seed=cfg.seed)
    rng = data.derived_rng(0)

    tape = Tape()
    attached = params.attach(tape)
    bd = trimix_step_loss(views, attached, cfg, rng)
    grad_map = backward(bd.loss)
    tape_grads = [grad_map[t.node].data for t in attached.tensors()]

    flat = [t.data for t in params.tensors()]
    tape_flat = np.concatenate([g.reshape(-1) for g in tape_grads])
    draw = data.derived_rng(cfg.seed)
    along, tape_along = [], []
    for _ in range(GRADCHECK_DIRECTIONS):
        d = draw.normal(size=tape_flat.size)
        d /= np.sqrt(d @ d)
        along.append(oracle.directional_diff(lambda: trimix_step_loss(views, params, cfg, rng).total, flat, d))
        tape_along.append(float(tape_flat @ d))

    def arrays(layers):
        return [(w.data, b.data) for w, b in layers]

    _, fd_grads = oracle.objective_finite_diff(
        views.x.data.reshape(batch, -1), views.x_prime.data.reshape(batch, -1),
        arrays(params.encoder_layers), arrays(params.projector_layers), cfg, bd.lam,
    )
    return max(
        oracle.max_relative_error(tape_along, along),
        *(oracle.max_relative_error(tg, fg) for tg, fg in zip(tape_grads, fd_grads)),
    )


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    err = gradcheck(cfg)
    status = "PASS" if err < GRADCHECK_TOLERANCE else "FAIL"
    print(f"gradcheck: max relative error {err:.3e} (tolerance {GRADCHECK_TOLERANCE:g}) {status}")
    return 0 if status == "PASS" else 2


def oracle_equivalence_reports(cases: int = ORACLE_CASES, seed: int = 0) -> list[oracle.OracleReport]:
    """Seeded random agreement checks between optimized paths and the oracle."""
    reports = []
    tol = ORACLE_TOLERANCE

    def record(case_id: str, diffs: list, case_seed: int):
        reports.append(oracle.OracleReport(case_id, max(diffs), tol, case_seed))

    diffs_c, diffs_m, diffs_inv, diffs_rr, diffs_vrt, diffs_con = [], [], [], [], [], []
    for case in range(cases):
        rng = data.derived_rng(seed, case)
        b = 2 * int(rng.integers(2, 9))  # even batch in [4, 16]
        d = int(rng.integers(3, 17))
        z = rng.normal(size=(b, d))
        z2 = rng.normal(size=(b, d))

        zs = standardize(Tensor(z), "batch").data
        z2s = standardize(Tensor(z2), "batch").data
        c_fast = cross_correlation(Tensor(zs), Tensor(z2s), "features").data
        c_slow = oracle.naive_correlation(zs, z2s, "features")
        diffs_c.append(float(np.abs(c_fast - c_slow).max()))

        zf = standardize(Tensor(z), "feature").data
        z2f = standardize(Tensor(z2), "feature").data
        m_fast = cross_correlation(Tensor(zf), Tensor(z2f), "samples").data
        m_slow = oracle.naive_correlation(zf, z2f, "samples")
        diffs_m.append(float(np.abs(m_fast - m_slow).max()))

        c_raw = rng.uniform(-1.0, 1.0, size=(d, d))
        l_inv, l_rr = loss_bt(Tensor(c_raw))
        n_inv, n_rr = oracle.naive_bt_terms(c_raw)
        diffs_inv.append(abs(l_inv.item() - n_inv))
        diffs_rr.append(abs(l_rr.item() - n_rr))

        logits = rng.normal(size=(b, b))
        m_soft = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        gt = ground_truth_matrix(b, float(rng.random()))
        fast = loss_vrt(Tensor(m_soft), gt).item()
        slow = oracle.naive_mean_abs(m_soft, gt.data)
        diffs_vrt.append(abs(fast - slow))

        za = rng.normal(size=(b, d))
        zb = rng.normal(size=(b, d))
        fast = loss_con(Tensor(za), Tensor(zb)).item()
        slow = oracle.naive_mean_abs(za, zb)
        diffs_con.append(abs(fast - slow))

    record("cross_correlation/features vs explicit denominators", diffs_c, seed)
    record("cross_correlation/samples vs explicit denominators", diffs_m, seed)
    record("loss_bt invariance vs double loop", diffs_inv, seed)
    record("loss_bt redundancy vs double loop", diffs_rr, seed)
    record("loss_vrt vs elementwise loop", diffs_vrt, seed)
    record("loss_con vs elementwise loop", diffs_con, seed)
    return reports


def cmd_verify_oracle(args) -> int:
    cfg = resolve_config(args)
    reports = oracle_equivalence_reports(seed=cfg.seed)
    for report in reports:
        print(report.describe())
    if all(r.passed for r in reports):
        print(f"verify-oracle: {len(reports)} suites x {ORACLE_CASES} cases PASS")
        return 0
    print("verify-oracle: FAIL")
    return 2


COMMANDS = {
    "pretrain": cmd_pretrain,
    "knn": cmd_knn,
    "probe": cmd_probe,
    "finetune": cmd_finetune,
    "gradcheck": cmd_gradcheck,
    "verify-oracle": cmd_verify_oracle,
    "export-embeddings": cmd_export,
}


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except TriMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericError) else exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
