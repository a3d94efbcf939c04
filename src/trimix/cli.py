"""Command-line front end: pretrain, evaluate, fine-tune, verify, export."""
from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import data, eval as evaluation, oracle
from .config import TriMixConfig, apply_setting, load_config
from .errors import ContractError, TriMixError
from .model import init_params
from .objective import ground_truth_matrix, loss_bt, loss_con, loss_vrt, trimix_step_loss
from .stats import cross_correlation, standardize
from .tensor import Tape, Tensor, backward
from .train import Checkpoint, check_resume, load_checkpoint, pretrain

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_LAMBDA = 0.3
# 2 objective evaluations each: about 2% of a default-arch gradcheck
GRADCHECK_DIRECTIONS = 64
ORACLE_TOLERANCE = 1e-10
ORACLE_CASES = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trimix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False, writes=True):
        p.add_argument("--config", help="config file (flat key=value)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if writes:  # the verification commands only print
            p.add_argument("--out", default="runs/trimix", help="output directory (default: %(default)s)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file to load")

    common(sub.add_parser("pretrain", help="run self-supervised pretraining"))
    sub.choices["pretrain"].add_argument("--resume", help="checkpoint to resume from")
    common(sub.add_parser("knn", help="KNN evaluation on frozen features"), checkpoint=True)
    common(sub.add_parser("probe", help="linear probe on frozen features"), checkpoint=True)
    common(sub.add_parser("finetune", help="semi-supervised fine-tuning"), checkpoint=True)
    common(sub.add_parser("gradcheck", help="tape gradients vs central finite differences"), writes=False)
    common(sub.add_parser("verify-oracle", help="optimized paths vs naive oracle"), writes=False)
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
    return cfg.validate()


def load_split(cfg: TriMixConfig, split: str) -> data.Dataset:
    """The "train" or "test" split of the configured dataset; an unset file
    path the split needs, or an IDX split with no image, is an error naming its key."""
    if cfg.dataset == "synthetic":
        return data.synthetic_blobs(cfg.synthetic_spec(split))
    keys = (f"idx_{split}_images", f"idx_{split}_labels")
    for key in keys:
        if not getattr(cfg, key):
            raise ContractError(f"dataset=idx needs {key} for the {split} split, but it is unset")
    ds = data.load_idx(*(getattr(cfg, key) for key in keys))
    if len(ds) == 0:
        raise ContractError(f"{keys[0]}={getattr(cfg, keys[0])} holds no image; the {split} split needs one")
    return ds


def write_snapshot(args, cfg: TriMixConfig) -> None:
    """One snapshot per command in `--out`, so runs sharing an out dir never
    clobber each other's provenance; replaying a snapshot reproduces that run."""
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"resolved_config_{args.command}.txt"), "w") as f:
        f.write(cfg.render())


def publish_report(args, cfg: TriMixConfig, report: evaluation.EvalReport) -> int:
    """Write the command's snapshot, append the report to reports.csv and
    print it; returns exit code 0."""
    write_snapshot(args, cfg)
    path = os.path.join(args.out, "reports.csv")
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
    """Every input (a resume checkpoint, its arch and the epochs it leaves,
    the batch size against the training split) is checked before the
    snapshot is written, and the snapshot before training, so a run that
    fails mid-way keeps its provenance.  Only the training split is read.

    A resumed run's metrics.csv holds only the steps it runs, so it must
    not replace the one an earlier run left in `--out`."""
    cfg, out = resolve_config(args), args.out
    resume = load_checkpoint(args.resume) if args.resume else None
    train_ds = load_split(cfg, "train")
    if resume is not None:
        check_resume(resume, cfg.arch_for(train_ds.input_width), cfg.epochs)
        metrics = os.path.join(out, "metrics.csv")
        if os.path.exists(metrics):
            raise ContractError(f"{metrics} already exists; resume into a fresh --out")
    data.check_batch_size(len(train_ds), cfg.batch_size)
    if resume is None and os.path.isdir(out):
        # a fresh run replaces what an earlier one left, so a run that fails
        # leaves its snapshot beside no other run's outputs
        for name in os.listdir(out):
            if name in ("metrics.csv", "checkpoint.tmx") or re.fullmatch(r"checkpoint_epoch\d{4,}\.tmx", name):
                os.remove(os.path.join(out, name))
    write_snapshot(args, cfg)
    resumed_at = resume.epoch if resume is not None else 0
    ckpt, rows = pretrain(cfg, train_ds, out_dir=out, resume=resume)
    last = rows[-1] if rows else None
    print(f"pretrained {ckpt.epoch - resumed_at} epochs, {len(rows)} steps logged to {out}/metrics.csv")
    if last is not None:
        print(f"final step loss: total {last['total']:.6f} "
              f"(bt {last['l_bt_inv'] + cfg.alpha * last['l_bt_rr']:.6f}, "
              f"vrt {last['l_vrt']:.6f}, con {last['l_con']:.6f})")
    return 0


def _load_for_eval(args, splits=("train", "test")) -> tuple[TriMixConfig, Checkpoint, list, str]:
    """Resolve the config, load the checkpoint, then the datasets of the
    `splits` the command reads.  The command writes its snapshot only once
    its work has succeeded, so a bad input leaves no snapshot behind."""
    cfg = resolve_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    datasets = [load_split(cfg, split) for split in splits]
    return cfg, ckpt, datasets, evaluation.config_digest(cfg.render())


def cmd_knn(args) -> int:
    cfg, ckpt, datasets, digest = _load_for_eval(args)
    train_bank, test_bank = (evaluation.extract_features(ckpt, ds) for ds in datasets)
    return publish_report(args, cfg, evaluation.knn_eval(train_bank, test_bank, cfg.knn_k, digest))


def cmd_probe(args) -> int:
    cfg, ckpt, datasets, digest = _load_for_eval(args)
    train_bank, test_bank = (evaluation.extract_features(ckpt, ds) for ds in datasets)
    return publish_report(args, cfg, evaluation.linear_probe(train_bank, test_bank, _probe_cfg(cfg), digest))


def cmd_finetune(args) -> int:
    cfg, ckpt, (train_ds, test_ds), digest = _load_for_eval(args)
    return publish_report(args, cfg, evaluation.finetune_semi(
        ckpt, train_ds, test_ds, cfg.finetune_fraction, _probe_cfg(cfg), digest
    ))


def cmd_export(args) -> int:
    cfg, ckpt, (ds,), _ = _load_for_eval(args, (args.split,))
    bank = evaluation.extract_features(ckpt, ds, l2_normalize=False)
    write_snapshot(args, cfg)
    path = os.path.join(args.out, f"embeddings_{args.split}.csv")
    with open(path, "w") as f:
        f.write("label," + ",".join(f"y{i}" for i in range(bank.features.shape[1])) + "\n")
        for label, row in zip(bank.labels, bank.features):
            f.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {len(bank)} rows to {path}")
    return 0


def gradcheck(cfg: TriMixConfig, batch: int = 8, side: int = 16) -> float:
    """Max relative error of tape gradients vs central finite differences
    for the full objective with all three terms active at the fixed mixing
    factor GRADCHECK_LAMBDA.

    Two checks at h = 1e-5 share the result:
    - every parameter coordinate, with the perturbed objectives evaluated
      in batches by `oracle.objective_finite_diff` from its own derivation
      of the objective;
    - GRADCHECK_DIRECTIONS random unit directions through all parameters,
      with `trimix_step_loss` itself evaluated, so the tape's backward is
      also held to the forward that training runs.
    """
    spec = data.SyntheticSpec(n=batch, classes=2, size=side, seed=cfg.seed)
    ds = data.synthetic_blobs(spec)
    views = data.two_views(ds.images, data.AugmentPolicy(), cfg.seed)
    params = init_params(cfg.arch_for(side * side), seed=cfg.seed)

    tape = Tape()
    attached = params.attach(tape)
    bd = trimix_step_loss(views, attached, cfg, GRADCHECK_LAMBDA)
    tape_grads = backward(bd.loss)

    flat = [t.data for t in params.flat]
    tape_flat = np.concatenate([g.reshape(-1) for g in tape_grads])
    draw = data.derived_rng(cfg.seed)
    along, tape_along = [], []
    for _ in range(GRADCHECK_DIRECTIONS):
        d = draw.normal(size=tape_flat.size)
        d /= np.sqrt(d @ d)
        along.append(oracle.directional_diff(
            lambda: trimix_step_loss(views, params, cfg, GRADCHECK_LAMBDA).total, flat, d))
        tape_along.append(float(tape_flat @ d))

    _, fd_grads = oracle.objective_finite_diff(
        views.x.reshape(batch, -1), views.x_prime.reshape(batch, -1), flat, cfg, GRADCHECK_LAMBDA,
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
    diffs = {case_id: [] for case_id in (
        "cross_correlation/features vs explicit denominators",
        "cross_correlation/samples vs explicit denominators",
        "loss_bt invariance vs double loop",
        "loss_bt redundancy vs double loop",
        "loss_vrt vs elementwise loop",
        "loss_con vs elementwise loop",
    )}
    for case in range(cases):
        rng = data.derived_rng(seed, case)
        b = 2 * int(rng.integers(2, 9))  # even batch in [4, 16]
        d = int(rng.integers(3, 17))
        z = rng.normal(size=(b, d))
        z2 = rng.normal(size=(b, d))

        zs = standardize(Tensor(z), "batch").data
        z2s = standardize(Tensor(z2), "batch").data
        c_fast = cross_correlation(Tensor(zs), Tensor(z2s), "features").data
        c_diff = float(np.abs(c_fast - oracle.naive_correlation(zs, z2s, "features")).max())

        zf = standardize(Tensor(z), "feature").data
        z2f = standardize(Tensor(z2), "feature").data
        m_fast = cross_correlation(Tensor(zf), Tensor(z2f), "samples").data
        m_diff = float(np.abs(m_fast - oracle.naive_correlation(zf, z2f, "samples")).max())

        c_raw = rng.uniform(-1.0, 1.0, size=(d, d))
        l_inv, l_rr = loss_bt(Tensor(c_raw))
        n_inv, n_rr = oracle.naive_bt_terms(c_raw)

        logits = rng.normal(size=(b, b))
        m_soft = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        gt = ground_truth_matrix(b, float(rng.random()))
        vrt_diff = abs(loss_vrt(Tensor(m_soft), gt).item() - oracle.naive_mean_abs(m_soft, gt.data))

        za = rng.normal(size=(b, d))
        zb = rng.normal(size=(b, d))
        con_diff = abs(loss_con(Tensor(za), Tensor(zb)).item() - oracle.naive_mean_abs(za, zb))

        case_diffs = (c_diff, m_diff, abs(l_inv.item() - n_inv), abs(l_rr.item() - n_rr), vrt_diff, con_diff)
        for found, diff in zip(diffs.values(), case_diffs):
            found.append(diff)
    return [oracle.OracleReport(case_id, max(found), ORACLE_TOLERANCE, seed) for case_id, found in diffs.items()]


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
    """Run one command; every failure, a refused allocation too, is one
    `error:` line.  Floating-point warnings are silenced: the tape's
    finiteness checks report a diverging run."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](args)
    except TriMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
