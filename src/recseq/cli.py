"""Command line interface.

Subcommands:

    synth      generate a toy dataset directory
    train      fit a model on a dataset directory, write a checkpoint
    eval       score a checkpoint on a dataset (nll, accuracy, bleu, ...)
    generate   decode token sequences from a checkpoint
    gradcheck  verify analytic gradients on small standard models

Exit codes: 0 success, 1 bad usage or configuration, 2 malformed data,
3 numeric failure (non-finite values or a failed gradient check).

``train`` accepts a flat key=value config file; explicit flags override
file values, and file values override the built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    SequenceBatch,
    example_tuple,
    gen_copy_task,
    gen_lag_recall,
    gen_order_task,
    gen_toy_captioning,
    load_kv,
    load_task_dir,
    save_task_dir,
)
from .decoding import beam_search, greedy_decode, sample_decode
from .errors import DataFormatError, NumericError, UsageError
from .evaluation import (
    classification_accuracy,
    corpus_bleu,
    exact_match_rate,
    greedy_corpus,
    retrieval_metrics,
    score_pairs,
    ScoreMatrix,
)
from .features import make_extractor, phi_forward
from .models import build_model
from .training import (
    GRADCHECK_TOPOLOGIES,
    TrainConfig,
    fit,
    run_standard_gradcheck,
    sequence_nll,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (cast, default, choices); each key is also the flag --key (with
# dashes), and flags override file values override defaults
_TRAIN_SCHEMA = {
    "hidden": (int, 32, None),
    "layers": (int, 1, None),
    "cell": (str, "lstm", ("lstm", "rnn")),
    "rnn_nonlinearity": (str, "tanh", ("tanh", "sigmoid")),
    "extractor": (str, "identity", ("identity", "linear", "mlp1", "smallconv")),
    "extractor_dim": (int, None, None),
    "embed_dim": (int, 16, None),
    "factored": (_parse_bool, False, None),
    "epochs": (int, 10, None),
    "lr": (float, 0.1, None),
    "batch_size": (int, 16, None),
    "dropout": (float, 0.0, None),
    "seed": (int, 0, None),
    "clip_norm": (float, None, None),
    "clip_len": (int, None, None),
}


def _resolve_train_options(args):
    """(resolved options, the keys given by a flag or the config file)."""
    file_cfg = load_kv(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - set(_TRAIN_SCHEMA))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for key, (cast, default, choices) in _TRAIN_SCHEMA.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_cfg:
            try:
                resolved[key] = cast(file_cfg[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
            if choices and resolved[key] not in choices:
                raise UsageError(f"config key {key}: {resolved[key]!r} is not one of {', '.join(choices)}")
        else:
            resolved[key] = default
    given = {key for key in _TRAIN_SCHEMA if getattr(args, key) is not None or key in file_cfg}
    return resolved, given


def _refuse_unread_options(task, opts, given):
    """A given option that the task's model never reads is a usage error, not a silent no-op."""
    unread = (
        ("factored", task != "caption", ""),
        ("clip_len", task != "classify", ""),
        ("extractor", task == "encode_decode", ""),
        ("extractor_dim", task == "encode_decode", ""),
        ("extractor_dim", opts["extractor"] == "identity", " with the identity extractor"),
        ("embed_dim", task == "classify", ""),
        ("rnn_nonlinearity", opts["cell"] == "lstm", " with lstm cells"),
    )
    for key, unused, qualifier in unread:
        if unused and key in given:
            raise UsageError(f"option {key} is not read by {task} models{qualifier}")


def _build_from_data(task, examples, aux, opts):
    rng = np.random.default_rng(opts["seed"])
    common = dict(
        rng=rng,
        hidden=opts["hidden"],
        layers=opts["layers"],
        cell=opts["cell"],
        rnn_nonlinearity=opts["rnn_nonlinearity"],
    )
    x = example_tuple(examples[0])[0]
    if task == "encode_decode":
        return build_model("encode_decode", vocab=aux, embed_dim=opts["embed_dim"], input_dim=x.shape[1], **common)
    shape = x.shape[1:] if task == "classify" else x.shape
    if opts["extractor"] == "smallconv" and len(shape) != 3:
        raise UsageError(f"smallconv needs (C, H, W) frames; this dataset's frames have shape {shape}")
    ext = make_extractor(opts["extractor"], shape, out_dim=opts["extractor_dim"], rng=rng)
    if task == "classify":
        return build_model("classify", extractor=ext, n_classes=aux, **common)
    return build_model("caption", extractor=ext, vocab=aux, embed_dim=opts["embed_dim"],
                       factored=opts["factored"], **common)


def _cmd_train(args) -> int:
    opts, given = _resolve_train_options(args)
    task, examples, aux = load_task_dir(args.data)
    _refuse_unread_options(task, opts, given)
    m = _build_from_data(task, examples, aux, opts)
    cfg = TrainConfig(**{f.name: opts[f.name] for f in dataclasses.fields(TrainConfig) if f.name in opts})
    m, reports = fit(m, examples, cfg, log=sys.stdout)
    save_checkpoint(args.out, m, step=len(reports))
    print(f"saved {args.out}")
    return 0


def _default_max_len(examples) -> int:
    return max(len(example_tuple(ex)[1]) for ex in examples) + 2


def _strip_eos(m, ids):
    ids = list(ids)
    if ids and ids[-1] == m.vocab.eos:
        ids = ids[:-1]
    return ids


def _load_model_and_data(args):
    """The checkpoint's model plus the dataset, whose task must match it."""
    m = load_checkpoint(args.model).model
    task, examples, _ = load_task_dir(args.data)
    if task != m.task:
        raise UsageError(f"dataset task {task!r} does not match model task {m.task!r}")
    return m, task, examples


def _cmd_eval(args) -> int:
    m, task, examples = _load_model_and_data(args)
    metric = args.metric
    if metric == "nll":
        batch = SequenceBatch.from_examples(task, examples)
        report = sequence_nll(m, batch)
        print(f"sequences {report.n_sequences}")
        print(f"mean_sequence_nll {report.mean_sequence_nll:.6f}")
        print(f"mean_target_nll {report.mean_target_nll:.6f}")
        return 0
    if metric == "accuracy":
        if task != "classify":
            raise UsageError("accuracy applies to classification datasets")
        acc = classification_accuracy(m, examples, clip_len=args.clip_len, stride=args.stride)
        print(f"accuracy {acc:.6f}")
        return 0
    if metric in ("exact", "bleu"):
        if task == "classify":
            raise UsageError(f"{metric} applies to token tasks")
        max_len = args.max_len or _default_max_len(examples)
        if metric == "exact":
            rate = exact_match_rate(m, examples, max_len)
            print(f"exact_match {rate:.6f}")
            return 0
        pairs = greedy_corpus(m, examples, max_len)
        hyps = [_strip_eos(m, hyp) for hyp, _ in pairs]
        refs = [[_strip_eos(m, gold)] for _, gold in pairs]
        print(f"bleu {corpus_bleu(hyps, refs, max_n=args.max_n):.6f}")
        return 0
    if metric == "retrieval":
        if task != "caption":
            raise UsageError("retrieval applies to caption datasets")
        feats, _ = phi_forward(m.extractor, np.array([ex.image for ex in examples]))
        captions = [list(ex.tokens) for ex in examples]
        scores = score_pairs(m, feats, captions)
        # An image's correct captions are every caption identical to its own.
        correct = []
        for i, ex in enumerate(examples):
            mine = tuple(ex.tokens)
            correct.append([j for j, cap in enumerate(captions) if tuple(cap) == mine])
        report = retrieval_metrics(ScoreMatrix(scores, tuple(correct)))
        for k in sorted(report.recall_at):
            print(f"recall_at_{k} {report.recall_at[k]:.6f}")
        print(f"median_rank {report.median_rank:.6f}")
        return 0
    raise UsageError(f"unknown metric {metric!r}")


def _cmd_generate(args) -> int:
    m, task, examples = _load_model_and_data(args)
    if task == "classify":
        raise UsageError("generate applies to token tasks")
    max_len = args.max_len or _default_max_len(examples)
    for idx, ex in enumerate(examples):
        features = example_tuple(ex)[0]
        if args.strategy == "greedy":
            hyps = [greedy_decode(m, features, max_len)]
        elif args.strategy == "beam":
            hyps = beam_search(m, features, args.width, max_len)
            if not hyps:
                hyps = [greedy_decode(m, features, max_len)]
        else:
            hyps = sample_decode(m, features, args.n_samples, args.temperature, max_len, seed=args.seed)
        for hyp in hyps:
            words = " ".join(m.vocab.decode(_strip_eos(m, hyp.tokens)))
            print(f"{idx}\t{hyp.logp:.6f}\t{words}")
    return 0


def _cmd_gradcheck(args) -> int:
    topologies = GRADCHECK_TOPOLOGIES if args.task == "all" else (args.task,)
    failed = False
    for topology in topologies:
        report = run_standard_gradcheck(topology, seed=args.seed, eps=args.eps, tol=args.tol, cell=args.cell)
        worst = report.worst()
        status = "ok" if report.passed else "FAIL"
        print(f"{topology} {status} worst {worst.name} rel {worst.max_rel_err:.3e}")
        if not report.passed:
            print(report.summary())
            failed = True
    if failed:
        raise NumericError("gradient check failed")
    return 0


def _cmd_synth(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed must be at least 0, got {args.seed}")
    if args.task == "copy":
        examples, vocab = gen_copy_task(args.seed, args.vocab_size, args.seq_len, args.count)
        save_task_dir(args.out, "encode_decode", examples, vocab)
    elif args.task == "caption":
        examples, vocab = gen_toy_captioning(args.seed, args.count, noise=args.noise)
        save_task_dir(args.out, "caption", examples, vocab)
    elif args.task == "order":
        examples, n_classes = gen_order_task(args.seed, args.count, seq_len=args.seq_len, n_fillers=args.n_fillers)
        save_task_dir(args.out, "classify", examples, meta={"classes": n_classes})
    else:
        examples, vocab = gen_lag_recall(args.seed, args.count, vocab_size=args.vocab_size, lag=args.lag)
        save_task_dir(args.out, "encode_decode", examples, vocab)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="recseq", description="Train and evaluate small recurrent sequence models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a toy dataset directory")
    p.add_argument("--task", required=True, choices=("copy", "caption", "order", "lag"))
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=128)
    p.add_argument("--vocab-size", type=int, default=6, dest="vocab_size")
    p.add_argument("--seq-len", type=int, default=3, dest="seq_len")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--lag", type=int, default=8)
    p.add_argument("--n-fillers", type=int, default=4, dest="n_fillers")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--config", help="key=value config file")
    for key, (cast, _, choices) in _TRAIN_SCHEMA.items():
        flag = "--" + key.replace("_", "-")
        if cast is _parse_bool:  # a bare switch
            p.add_argument(flag, action="store_const", const=True, default=None, dest=key)
        else:
            p.add_argument(flag, type=cast, choices=choices, dest=key)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--metric", required=True, choices=("nll", "accuracy", "exact", "bleu", "retrieval"))
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--clip-len", type=int, dest="clip_len")
    p.add_argument("--stride", type=int, default=8)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("generate", help="decode token sequences from a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--strategy", default="greedy", choices=("greedy", "beam", "sample"))
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--n-samples", type=int, default=1, dest="n_samples")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--task", default="all", choices=("all",) + GRADCHECK_TOPOLOGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--cell", default="lstm", choices=("lstm", "rnn"))
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
