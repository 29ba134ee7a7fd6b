"""Command-line entry point: verification, toy training, decoding, and
lattice inspection.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 data/IO
error.  All randomness flows from one seeded generator per run and the
seed appears in every report; timing lines go to stderr so reports on
stdout are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import verify
from .decode import (
    GREEDY, PREFIX_BEAM, CountsLm, DecodeConfig, ModelPosteriors,
    beam_search, edit_distance, greedy_search,
)
from .lattice import (
    CTC_LIKE, TOPOLOGIES, InvalidSpecError, LatticeFormatError, TopologySpec,
    build_lattice, serialize, to_dot,
)
from .loss import InfeasibleLengthError
from .model import (
    ToyModel, load_model, make_synthetic_task, save_model, train_step,
)

PASS, FAIL, USAGE_ERROR, DATA_ERROR = 0, 1, 2, 3


def _count(minimum: int = 1):
    """argparse type of a count flag: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}; got {text!r}")
        return value

    return parse


def _number(positive: bool = False):
    """argparse type of a float flag: finite, and above 0 if ``positive``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (positive and value <= 0.0):
            kind = "a positive finite" if positive else "a finite"
            raise argparse.ArgumentTypeError(f"must be {kind} number; got {text!r}")
        return value

    return parse


def _add_case_flags(p: argparse.ArgumentParser, max_t: int, max_u: int, vocab: int, cases: int):
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--cases", type=_count(), default=cases, help=f"number of random cases (default {cases})")
    p.add_argument("--topology", choices=TOPOLOGIES, default=CTC_LIKE)
    p.add_argument("--max-t", type=_count(), default=max_t, help="largest frame count to sample")
    p.add_argument("--max-u", type=_count(0), default=max_u, help="longest label sequence to sample")
    p.add_argument("--vocab", type=_count(2), default=vocab, help="label vocabulary size incl. blank")


def _add_task_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--topology", choices=TOPOLOGIES, default=CTC_LIKE)
    p.add_argument("--utts", type=_count(), default=20, help="synthetic utterance count")
    p.add_argument("--vocab", type=_count(2), default=6, help="label vocabulary size incl. blank")
    p.add_argument("--max-len", type=_count(), default=5, help="longest label sequence")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="graphtransducer", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-grad", help="analytic gradient vs central finite differences")
    _add_case_flags(p, max_t=4, max_u=2, vocab=3, cases=200)
    p.add_argument("--eps", type=_number(positive=True), default=1e-5, help="finite-difference step")
    p.add_argument(
        "--mutation", choices=("none", "sign-flip"), default="none",
        help="deliberately corrupt the analytic gradient to prove the harness can fail",
    )

    p = sub.add_parser("check-oracle", help="DP marginal vs brute force, plus reduction laws")
    _add_case_flags(p, max_t=5, max_u=3, vocab=4, cases=200)

    p = sub.add_parser("train-toy", help="train the toy model on a synthetic task")
    _add_task_flags(p)
    p.add_argument("--steps", type=_count(), default=500)
    p.add_argument("--lr", type=_number(), default=0.3)
    p.add_argument("--hidden", type=_count(), default=32)
    p.add_argument("--out", required=True, help="output directory for checkpoint and loss curve")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = sub.add_parser("decode", help="decode the synthetic task with a trained checkpoint")
    p.add_argument("--ckpt", required=True, help="toy-model checkpoint")
    _add_task_flags(p)
    p.add_argument("--search", choices=(GREEDY, PREFIX_BEAM), default=GREEDY)
    p.add_argument("--beam", type=int, default=10, help="beam size P")
    p.add_argument("--theta1", type=float, default=0.0, help="linear-domain posterior floor")
    p.add_argument("--theta2", type=float, default=math.inf, help="log-domain score width")
    p.add_argument("--lm-weight", type=float, default=0.0)
    p.add_argument("--insertion-bonus", type=float, default=0.0)
    p.add_argument("--lm-counts", default=None, help="n-gram counts file for shallow fusion")

    p = sub.add_parser("dump-graph", help="print a lattice as JSON or DOT")
    p.add_argument("--labels", type=int, nargs="*", default=[], help="label ids (blank-free)")
    p.add_argument("--topology", choices=TOPOLOGIES, default=CTC_LIKE)
    p.add_argument("--vocab", type=int, default=None, help="vocab size incl. blank (default max+1)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    return top


def _cmd_check_grad(args) -> int:
    print(
        f"# check-grad seed={args.seed} cases={args.cases} topology={args.topology} "
        f"max_t={args.max_t} max_u={args.max_u} vocab={args.vocab} "
        f"eps={args.eps:.0e} mutation={args.mutation}"
    )
    result = verify.check_gradients(
        args.seed, args.cases, max_t=args.max_t, max_u=args.max_u, vocab=args.vocab,
        topologies=(args.topology,), step=args.eps, mutation=args.mutation,
    )
    print(result.text)
    print(f"overall: {'PASS' if result.passed else 'FAIL'}")
    return PASS if result.passed else FAIL


def _cmd_check_oracle(args) -> int:
    print(
        f"# check-oracle seed={args.seed} cases={args.cases} topology={args.topology} "
        f"max_t={args.max_t} max_u={args.max_u} vocab={args.vocab}"
    )
    oracle_match, normalization = verify.check_marginal_oracle(
        args.seed, args.cases, max_t=args.max_t, max_u=args.max_u, vocab=args.vocab,
        topologies=(args.topology,),
    )
    results = [
        oracle_match,
        verify.check_t_invariance(
            args.seed, min(args.cases, 32), max_t=max(args.max_t, 2), max_u=args.max_u,
            vocab=args.vocab, topologies=(args.topology,),
        ),
        *(verify.check_reduction(
            kind, args.seed, min(args.cases, 100), max_t=args.max_t, max_u=args.max_u, vocab=args.vocab
        ) for kind in TOPOLOGIES),
        normalization,
    ]
    for result in results:
        print(result.text)
    ok = all(r.passed for r in results)
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return PASS if ok else FAIL


def _cmd_train_toy(args) -> int:
    import os

    data = make_synthetic_task(args.seed, args.utts, args.vocab, args.max_len)
    if args.resume:
        model, start_step = load_model(args.resume)
    else:
        model = ToyModel(args.vocab, args.hidden, args.vocab, lr=args.lr, seed=args.seed)
        start_step = 0
    os.makedirs(args.out, exist_ok=True)
    print(
        f"# train-toy seed={args.seed} utts={args.utts} vocab={args.vocab} "
        f"max_len={args.max_len} topology={args.topology} hidden={model.hidden} "
        f"lr={model.lr:g} steps={args.steps} start_step={start_step}"
    )
    losses = []
    for step in range(start_step, start_step + args.steps):
        value = train_step(model, data, args.topology)
        losses.append(value)
        if step % 50 == 0 or step == start_step + args.steps - 1:
            print(f"step={step} loss={value:.12g}")
    curve_path = os.path.join(args.out, "loss_curve.txt")
    with open(curve_path, "w", encoding="utf-8") as fh:
        for step, value in enumerate(losses, start=start_step):
            fh.write(f"{step}\t{value:.17g}\n")
    ckpt_path = os.path.join(args.out, "model.ckpt")
    save_model(ckpt_path, model, step=start_step + args.steps)
    print(f"initial_loss={losses[0]:.12g} final_loss={losses[-1]:.12g} "
          f"ratio={losses[-1] / losses[0]:.6f}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {curve_path}")
    return PASS


def _cmd_decode(args) -> int:
    model, _ = load_model(args.ckpt)
    if model.vocab_size != args.vocab:
        raise ValueError(
            f"checkpoint vocab {model.vocab_size} does not match --vocab {args.vocab}"
        )
    data = make_synthetic_task(args.seed, args.utts, args.vocab, args.max_len)
    lm = CountsLm.load(args.lm_counts, args.vocab) if args.lm_counts else None
    print(
        f"# decode seed={args.seed} utts={args.utts} vocab={args.vocab} max_len={args.max_len} "
        f"topology={args.topology} search={args.search} beam={args.beam} theta1={args.theta1:g} "
        f"theta2={args.theta2:g} lm_weight={args.lm_weight:g} "
        f"insertion_bonus={args.insertion_bonus:g} lm={'counts' if args.lm_counts else 'uniform'}"
    )
    matches = 0
    distance_total = 0
    for i, utt in enumerate(data):
        provider = ModelPosteriors(model, utt.features)
        greedy_hyp = greedy_search(provider, args.topology)
        if args.search == PREFIX_BEAM:
            hyp, _ = beam_search(provider, args.config, lm)
            beam_lp = provider.sequence_score(hyp, args.topology)
            greedy_lp = provider.sequence_score(greedy_hyp, args.topology)
            extra = f" beam_logp={beam_lp:.9g} greedy_logp={greedy_lp:.9g}"
        else:
            hyp = greedy_hyp
            extra = ""
        dist = edit_distance(utt.labels, hyp)
        matches += int(dist == 0)
        distance_total += dist
        ref = ",".join(map(str, utt.labels))
        got = ",".join(map(str, hyp)) if hyp else "-"
        print(f"utt={i} ref={ref} hyp={got} edit={dist}{extra}")
    rate = matches / len(data)
    print(
        f"exact_match={matches}/{len(data)} rate={rate:.4f} "
        f"mean_edit_distance={distance_total / len(data):.4f}"
    )
    return PASS


def _cmd_dump_graph(args) -> int:
    lat = build_lattice(args.spec)
    print(to_dot(lat) if args.format == "dot" else serialize(lat))
    return PASS


_COMMANDS = {
    "check-grad": _cmd_check_grad,
    "check-oracle": _cmd_check_oracle,
    "train-toy": _cmd_train_toy,
    "decode": _cmd_decode,
    "dump-graph": _cmd_dump_graph,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        # DecodeConfig and TopologySpec own the flags' rules; breaking one
        # is a usage error, reported before any file is read
        try:
            if args.command == "decode":
                args.config = DecodeConfig(
                    beam_size=args.beam, theta1=args.theta1, theta2=args.theta2,
                    lm_weight=args.lm_weight, insertion_bonus=args.insertion_bonus,
                )
                if args.search == PREFIX_BEAM and args.topology != CTC_LIKE:
                    parser.error("prefix beam search is defined for the ctc-like topology only")
            elif args.command == "dump-graph":
                args.spec = TopologySpec(args.topology, tuple(args.labels), args.vocab)
        except ValueError as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else PASS
    started = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args)
    except (InvalidSpecError, LatticeFormatError, InfeasibleLengthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    finally:
        print(f"[time] {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
