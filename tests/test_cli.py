import json
import struct

import pytest

import graphtransducer.decode
import graphtransducer.model
from graphtransducer import ToyModel, deserialize, save_model, validate
from graphtransducer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_grad_passes_and_prints_seed(capsys):
    code, out, _ = run(capsys, "check-grad", "--cases", "5")
    assert code == 0
    assert "gradient-check: PASS" in out
    assert "seed=0" in out
    assert out.strip().endswith("overall: PASS")


def test_check_grad_sign_flip_mutation_fails(capsys):
    code, out, _ = run(capsys, "check-grad", "--cases", "5", "--mutation", "sign-flip")
    assert code == 1
    assert "gradient-check: FAIL" in out


def test_check_grad_other_topology(capsys):
    code, out, _ = run(capsys, "check-grad", "--cases", "5", "--topology", "mono-rnnt")
    assert code == 0
    assert "topologies=mono-rnnt" in out


def test_check_oracle_reports_all_laws(capsys):
    code, out, _ = run(capsys, "check-oracle", "--cases", "10")
    assert code == 0
    laws = ["oracle-match", "t-invariance", "ctc-reduction", "monornnt-reduction", "normalization"]
    for law in laws:
        assert f"{law}: PASS" in out
    # each reduction law is reported under its own topology's name, in this order
    assert [line.split(":")[0] for line in out.splitlines()[1:-1]] == laws


def test_reports_are_byte_identical_across_reruns(capsys):
    _, first, _ = run(capsys, "check-oracle", "--cases", "10", "--seed", "3")
    _, second, _ = run(capsys, "check-oracle", "--cases", "10", "--seed", "3")
    assert first == second
    _, third, _ = run(capsys, "check-grad", "--cases", "5", "--seed", "3")
    _, fourth, _ = run(capsys, "check-grad", "--cases", "5", "--seed", "3")
    assert third == fourth


def test_timing_goes_to_stderr_not_stdout(capsys):
    _, out, err = run(capsys, "check-grad", "--cases", "2")
    assert "[time]" in err
    assert "[time]" not in out


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "check-grad", "--topology", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_dump_graph_json_is_valid_and_wellformed(capsys):
    code, out, _ = run(capsys, "dump-graph", "--labels", "1", "2", "--topology", "ctc-like")
    assert code == 0
    lat = deserialize(out)
    assert len(lat.nodes) == 7
    assert validate(lat) == []


def test_dump_graph_topologies_differ_as_expected(capsys):
    _, ctc_text, _ = run(capsys, "dump-graph", "--labels", "1", "1", "--topology", "ctc-like")
    _, mono_text, _ = run(capsys, "dump-graph", "--labels", "1", "1", "--topology", "mono-rnnt")
    ctc = {(e["from"], e["to"]) for e in json.loads(ctc_text)["edges"]}
    mono = {(e["from"], e["to"]) for e in json.loads(mono_text)["edges"]}
    assert ctc - mono == {(2, 2), (4, 4)}  # label self-loops exist only in ctc-like
    assert mono - ctc == {(2, 4)}  # equal labels keep the direct step only in mono


def test_dump_graph_dot_output(capsys):
    code, out, _ = run(capsys, "dump-graph", "--labels", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("{") == out.count("}") == 1
    assert "->" in out


def test_train_decode_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "train-toy", "--seed", "7", "--utts", "4", "--max-len", "3",
        "--steps", "40", "--hidden", "16", "--out", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "model.ckpt").exists()
    curve = (out_dir / "loss_curve.txt").read_text().splitlines()
    assert len(curve) == 40
    first = float(curve[0].split("\t")[1])
    last = float(curve[-1].split("\t")[1])
    assert last < first

    code, out, _ = run(
        capsys, "decode", "--ckpt", str(out_dir / "model.ckpt"), "--seed", "7",
        "--utts", "4", "--max-len", "3", "--search", "greedy",
    )
    assert code == 0
    assert "exact_match=" in out


def test_resume_matches_uninterrupted_training(tmp_path, capsys):
    full = tmp_path / "full"
    code, out_full, _ = run(
        capsys, "train-toy", "--seed", "5", "--utts", "4", "--max-len", "3",
        "--steps", "9", "--hidden", "8", "--out", str(full),
    )
    assert code == 0
    part = tmp_path / "part"
    run(capsys, "train-toy", "--seed", "5", "--utts", "4", "--max-len", "3",
        "--steps", "6", "--hidden", "8", "--out", str(part))
    resumed = tmp_path / "resumed"
    code, out_resumed, _ = run(
        capsys, "train-toy", "--seed", "5", "--utts", "4", "--max-len", "3",
        "--steps", "3", "--hidden", "8", "--out", str(resumed),
        "--resume", str(part / "model.ckpt"),
    )
    assert code == 0
    full_curve = (full / "loss_curve.txt").read_text().splitlines()
    resumed_curve = (resumed / "loss_curve.txt").read_text().splitlines()
    assert resumed_curve == full_curve[6:]


def test_beam_decode_dominates_greedy_and_ignores_idle_lm(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run(capsys, "train-toy", "--seed", "7", "--utts", "5", "--max-len", "3",
        "--steps", "60", "--hidden", "16", "--out", str(out_dir))
    base = ["decode", "--ckpt", str(out_dir / "model.ckpt"), "--seed", "7",
            "--utts", "5", "--max-len", "3", "--search", "prefix-beam", "--beam", "10"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    for line in out.splitlines():
        if line.startswith("utt="):
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            assert float(fields["beam_logp"]) >= float(fields["greedy_logp"]) - 1e-9

    counts = tmp_path / "counts.tsv"
    counts.write_text("\t1\t2\n\t2\t1\n", encoding="utf-8")
    _, with_lm, _ = run(capsys, *base, "--lm-counts", str(counts),
                        "--lm-weight", "0", "--insertion-bonus", "0")
    # identical transcripts and scores apart from the config echo line
    assert with_lm.splitlines()[1:] == out.splitlines()[1:]


# stdout of the search that keyed prefixes by tuple and ran the model
# forward once more for each scored hypothesis
PINNED_DECODE = """\
# decode seed=3 utts=6 vocab=6 max_len=4 topology=ctc-like search=prefix-beam beam=4 theta1=0.01 theta2=8 lm_weight=1 insertion_bonus=0.5 lm=counts
utt=0 ref=1,2,1,2 hyp=1,2,1 edit=1 beam_logp=-2.50793862 greedy_logp=-2.21146952
utt=1 ref=1 hyp=1 edit=0 beam_logp=-0.387023706 greedy_logp=-0.387023706
utt=2 ref=5 hyp=- edit=1 beam_logp=-2.69948064 greedy_logp=-2.69948064
utt=3 ref=2,1,4 hyp=1 edit=2 beam_logp=-4.45550488 greedy_logp=-2.81798986
utt=4 ref=2,5 hyp=2 edit=1 beam_logp=-1.4266139 greedy_logp=-1.4266139
utt=5 ref=5 hyp=- edit=1 beam_logp=-1.55953288 greedy_logp=-0.837671937
exact_match=1/6 rate=0.1667 mean_edit_distance=1.0000
"""


def test_prefix_beam_decode_with_counts_lm_is_pinned(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "run"
    run(capsys, "train-toy", "--seed", "3", "--utts", "6", "--max-len", "4",
        "--steps", "8", "--hidden", "16", "--out", str(out_dir))
    counts = tmp_path / "counts.tsv"
    counts.write_text("\t1\t3\n\t2\t2\n\t4\t1\n1\t2\t4\n2\t3\t2\n1 2\t3\t5\n2 3\t1\t2\n",
                      encoding="utf-8")
    forward_logits, forwards = graphtransducer.model.forward_logits, []

    def counted(*args):
        forwards.append(args)
        return forward_logits(*args)

    for module in (graphtransducer.model, graphtransducer.decode):
        monkeypatch.setattr(module, "forward_logits", counted)
    code, out, _ = run(
        capsys, "decode", "--ckpt", str(out_dir / "model.ckpt"), "--seed", "3", "--utts", "6",
        "--max-len", "4", "--search", "prefix-beam", "--beam", "4", "--theta1", "0.01",
        "--theta2", "8", "--lm-counts", str(counts), "--lm-weight", "1.0",
        "--insertion-bonus", "0.5",
    )
    assert code == 0
    assert out == PINNED_DECODE
    # one model forward per utterance scores both hypotheses too
    assert len(forwards) == 6


def test_decode_rejects_vocab_mismatch(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run(capsys, "train-toy", "--seed", "1", "--utts", "2", "--max-len", "2",
        "--steps", "2", "--hidden", "8", "--out", str(out_dir))
    code, _, err = run(capsys, "decode", "--ckpt", str(out_dir / "model.ckpt"),
                       "--vocab", "9")
    assert code == 3
    assert "vocab" in err


@pytest.mark.parametrize("flag", ["--lm-weight", "--insertion-bonus"])
def test_decode_rejects_non_finite_fusion_weight(tmp_path, capsys, flag):
    out_dir = tmp_path / "run"
    run(capsys, "train-toy", "--seed", "1", "--utts", "2", "--max-len", "2",
        "--steps", "2", "--hidden", "8", "--out", str(out_dir))
    code, out, err = run(capsys, "decode", "--ckpt", str(out_dir / "model.ckpt"),
                         "--search", "prefix-beam", flag, "nan")
    assert code == 2
    assert "must be finite" in err
    assert out == ""


DECODE = ["decode", "--ckpt", "{tmp}/none.ckpt"]
TRAIN = ["train-toy", "--out", "{tmp}/out"]
DUMP = ["dump-graph", "--labels"]


# decode gets a checkpoint that does not exist and train-toy an output
# directory it must not create: the bad flag has to fail first
@pytest.mark.parametrize("argv, message", [
    (DECODE + ["--beam", "0"], "beam_size must be >= 1"),
    (DECODE + ["--lm-weight", "nan"], "lm_weight must be finite"),
    (DECODE + ["--theta1", "1"], "theta1 must lie in [0, 1)"),
    (DECODE + ["--utts", "0"], "argument --utts: must be an integer >= 1"),
    (TRAIN + ["--steps", "0"], "argument --steps: must be an integer >= 1"),
    (TRAIN + ["--utts", "0"], "argument --utts: must be an integer >= 1"),
    (TRAIN + ["--hidden", "-3"], "argument --hidden: must be an integer >= 1"),
    (["check-grad", "--cases", "0"], "argument --cases: must be an integer >= 1"),
    (["check-oracle", "--cases", "0"], "argument --cases: must be an integer >= 1"),
    (TRAIN + ["--vocab", "1"], "argument --vocab: must be an integer >= 2"),
    (TRAIN + ["--max-len", "0"], "argument --max-len: must be an integer >= 1"),
    (TRAIN + ["--lr", "nan"], "argument --lr: must be a finite number"),
    (["check-grad", "--vocab", "1"], "argument --vocab: must be an integer >= 2"),
    (["check-grad", "--max-t", "0"], "argument --max-t: must be an integer >= 1"),
    (["check-grad", "--eps", "0"], "argument --eps: must be a positive finite number"),
    (["check-oracle", "--max-u", "-1"], "argument --max-u: must be an integer >= 0"),
    (["check-oracle", "--max-t", "0"], "argument --max-t: must be an integer >= 1"),
    (DECODE + ["--search", "prefix-beam", "--topology", "mono-rnnt"],
     "prefix beam search is defined for the ctc-like topology only"),
    (DUMP + ["0", "2"], "blank (label 0) is not allowed in a label sequence"),
    (DUMP + ["1", "--vocab", "1"], "label 1 out of range for vocab_size 1"),
    (DUMP + ["5", "--vocab", "3"], "label 5 out of range for vocab_size 3"),
    (DUMP + ["-1"], "negative label id -1"),
    (DUMP + ["--vocab", "0"], "vocab_size must be at least 1"),
    (["check-oracle", "--cases", "abc"], "argument --cases: must be an integer >= 1; got 'abc'"),
    (["check-grad", "--eps", "abc"], "argument --eps: must be a positive finite number; got 'abc'"),
    (TRAIN + ["--lr", "abc"], "argument --lr: must be a finite number; got 'abc'"),
])
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert message in err
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_missing_checkpoint_exit_3(capsys):
    code, _, err = run(capsys, "decode", "--ckpt", "/nonexistent/path.ckpt")
    assert code == 3
    assert "error:" in err


# exit 1 is the verification-failure code, so a header that load_model
# cannot read must not escape as a KeyError, AttributeError or TypeError;
# a header missing a block must not load that block's random initial values
@pytest.mark.parametrize("edit", [
    lambda header: {"format": "toy-model", "version": 1},
    lambda header: [1, 2],
    lambda header: {**header, "hyper": {**header["hyper"], "hidden": "8"}},
    lambda header: {**header, "hyper": {**header["hyper"], "feat_dim": 6.0}},
    lambda header: {**header, "params": header["params"][:-1]},
    lambda header: {**header, "hyper": {**header["hyper"], "lr": 10**400}},
    lambda header: {**header, "step": "5"},
    lambda header: {**header, "params": [{**header["params"][0], "shape": [1]}, *header["params"][1:]]},
], ids=["no-hyper", "list", "str-dim", "float-dim", "missing-block", "huge-lr", "str-step", "wrong-shape"])
@pytest.mark.parametrize("command", ["decode", "train-toy"])
def test_malformed_checkpoint_header_is_a_data_error(tmp_path, capsys, edit, command):
    ckpt = tmp_path / "model.ckpt"
    save_model(ckpt, ToyModel(6, 8, 6))
    line, body = ckpt.read_bytes().split(b"\n", 1)
    ckpt.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + body)
    if command == "decode":
        argv = ["decode", "--ckpt", str(ckpt), "--utts", "2"]
    else:
        argv = ["train-toy", "--resume", str(ckpt), "--steps", "1", "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "error:" in err and "Traceback" not in err
    assert out == ""


def test_checkpoint_block_claiming_a_huge_tensor_is_a_data_error(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_model(ckpt, ToyModel(6, 8, 6))
    line = ckpt.read_bytes().split(b"\n", 1)[0]
    block = struct.pack("<4s5I", b"GTCT", 1, 3, 2**20, 2**20, 2**10) + b"\x00" * 64
    ckpt.write_bytes(line + b"\n" + block)
    code, out, err = run(capsys, "decode", "--ckpt", str(ckpt), "--utts", "2")
    assert code == 3
    assert "truncated tensor file" in err and "Traceback" not in err
    assert out == ""
