"""Command-line surface: memory build, retrieve, select, compose, decide,
budget modeling, and the evaluation harness.

Deterministic rows go to --out (or stdout); measured timings go to stderr.
Exit codes: 0 ok, 1 usage/data error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import budget as budget_mod
from . import harness, memory as memory_mod, prompt as prompt_mod, retrieval, selection, synth, verifier as verifier_mod
from .encoder import load_weights
from .errors import ConfigError, DivselError, InvariantViolation
from .files import open_output, read_object, read_rows, read_text

# The fields of a pool row that `retrieve` prints when it writes no pool file.
_RETRIEVE_FIELDS = ("id", "label", "relevance", "vec_score", "lex_score")

# WorkloadShape fields by the name both the budget flags and the calibration
# run rows use.
_SHAPE_KEYS = {
    "N": "memory_size",
    "terms": "query_terms",
    "L": "pool_size",
    "K": "k",
    "turns": "turns",
    "prompt_tokens": "prompt_tokens",
    "gen_tokens": "gen_tokens",
}

# `select` runs one selector; topk_rand_add differs from topk only in the
# prompt stage, and the brute-force oracle is not a harness method.
_SELECT_METHODS = tuple(m for m in harness.METHODS if m != "topk_rand_add")


def _emit(rows, out_path: str | None) -> None:
    text = "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in rows)
    if out_path:
        with open_output(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def permute_spec(text: str) -> str | int:
    """`identity`, `reverse` or an integer shuffle seed."""
    return text if text in ("identity", "reverse") else int(text)


def _shape(values) -> budget_mod.WorkloadShape:
    return budget_mod.WorkloadShape(**{field: values[key] for key, field in _SHAPE_KEYS.items()})


def _constants(args) -> budget_mod.CostConstants:
    if args.constants:
        return budget_mod.CostConstants.from_file(args.constants)
    return budget_mod.CostConstants()


def _eval_inputs(args):
    """Memory, corpus, config, weights and the header row of an eval command,
    loaded in that order so the first bad input is the one reported."""
    mem = memory_mod.load(args.memory)
    corpus = harness.read_corpus(args.corpus)
    if args.config:
        config = harness.ExperimentConfig.from_file(args.config)
    else:
        config = harness.ExperimentConfig()
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    weights = load_weights(args.weights) if args.weights else None
    header = {"type": "header", "config_hash": config.config_hash()}
    return mem, corpus, config, weights, header


def cmd_memory_build(args) -> int:
    mem = memory_mod.ingest_jsonl(args.infile, k1=args.k1, b=args.b)
    memory_mod.persist(mem, args.out)
    _emit([{"type": "memory", "n": len(mem), "dim": mem.dim, "out": args.out}], None)
    return 0


def cmd_retrieve(args) -> int:
    mem = memory_mod.load(args.memory)
    cfg = retrieval.RetrievalConfig(lambda_vec=args.lambda_vec, pool_size=args.pool_size)
    if args.dialogue is not None:
        weights = load_weights(args.weights) if args.weights else None
        pool = harness.retrieve_stage(harness.read_dialogue(args.dialogue), mem, cfg, weights)
    else:
        if args.lambda_vec != 0.0:
            raise DivselError(
                "a raw-text query has no embedding; pass --dialogue or use --lambda-vec 0"
            )
        # The query vector is unused at lambda_vec=0, but must be non-zero.
        pool = retrieval.retrieve_pool(mem, np.ones(mem.dim), args.query, cfg)
    if args.out:
        retrieval.write_pool(pool, args.out)
    else:
        rows = map(retrieval.pool_row, pool)
        _emit(({key: row[key] for key in _RETRIEVE_FIELDS} for row in rows), None)
    return 0


def cmd_select(args) -> int:
    pool = retrieval.read_pool(args.pool)
    cfg = selection.SelectionConfig(
        alpha=args.alpha, k=args.k, tau=args.tau, label_cap=args.cap, mu=args.mu
    )
    result = harness.select_for_method(args.method, pool, cfg, args.lambda_mmr, args.seed or 0)
    rows = [
        {
            "type": "selection",
            "method": args.method,
            "ids": result.ids(),
            "labels": result.labels(),
            "g": result.g,
            "d": result.dtext,
            "r": result.r,
            "stop_reason": result.stop_reason,
            "binding_constraint": result.binding_constraint,
            "steps": [
                {"id": s.exemplar_id, "gain": s.gain, "tilde_gain": s.tilde_gain, "r": s.r}
                for s in result.steps
            ],
            "sim_ops": result.sim_ops,
        }
    ]
    if args.out:
        with open_output(args.out) as fh:
            for eid, (text, label) in zip(result.ids(), result.pairs()):
                row = {"id": eid, "text": text, "label": label}
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    _emit(rows, None)
    return 0


def cmd_compose(args) -> int:
    ctx = harness.read_dialogue(args.dialogue)
    pairs = list(read_rows(args.selection, lambda row: (str(row["text"]), str(row["label"]))))
    budget = prompt_mod.BudgetConfig(
        max_prompt_tokens=args.budget, summary_token_cap=min(args.summary_cap, args.budget)
    )
    permutation = None
    if args.permute != "identity":
        permutation = list(range(len(pairs)))
        if args.permute == "reverse":
            permutation.reverse()
        else:
            random.Random(args.permute).shuffle(permutation)
    template = prompt_mod.load_template(args.template) if args.template else prompt_mod.DEFAULT_TEMPLATE
    instruction = args.instruction or prompt_mod.DEFAULT_INSTRUCTION
    result = prompt_mod.compose(instruction, ctx, pairs, budget, permutation, template)
    if args.out:
        with open_output(args.out) as fh:
            fh.write(result.text)
    _emit([{"type": "prompt", "token_count": result.token_count,
            "dropped_summary_turns": result.dropped_summary_turns,
            "dropped_exemplars": list(result.dropped_exemplars)}], None)
    if not args.out:
        sys.stdout.write(result.text + "\n")
    return 0


def cmd_decide(args) -> int:
    verifier_mod.check_tau_c(args.tau_c)
    prompt_text = read_text(args.prompt)
    labels = [
        line.strip() for line in read_text(args.labels).splitlines() if line.strip()
    ]
    # Refused before any verifier is built: a repeated label would be scored
    # twice, the second answer overwriting the first.
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DivselError(f"label {label!r} is repeated in {args.labels}")
        seen.add(label)
    if args.verifier == "mock":
        if not args.gold:
            raise DivselError("--gold is required with the mock verifier")
        boundary = verifier_mod.mock_verifier(args.gold, args.noise_seed, args.margin)
    else:
        if not args.url:
            raise DivselError("--url is required with the endpoint verifier")
        boundary = verifier_mod.EndpointVerifier(args.url, timeout=args.timeout)
    output = verifier_mod.score_labels(prompt_text, labels, boundary)
    _emit([{"type": "decision", "decision": output.decision, "scores": output.scores,
            "calibrated": verifier_mod.calibrate(output.scores, args.tau_c)}], args.out)
    return 0


def cmd_budget_model(args) -> int:
    rep = budget_mod.model_latency(_constants(args), _shape(vars(args)))
    times = {f"t_{name}": getattr(rep, f"t_{name}") for name in (*budget_mod.STAGES, "total")}
    _emit([{"type": "latency_model", **times}], args.out)
    return 0


def cmd_budget_control(args) -> int:
    decision = budget_mod.budget_control(_constants(args), _shape(vars(args)), args.B)
    _emit([{"type": "budget_control", **asdict(decision)}], args.out)
    return 0


def _calibration_sample(row) -> tuple[budget_mod.LatencyReport, budget_mod.WorkloadShape]:
    times = {stage: row[f"t_{stage}"] for stage in budget_mod.STAGES}
    return budget_mod.LatencyReport.of_stages("measured", times), _shape(row)


def cmd_budget_calibrate(args) -> int:
    fitted = budget_mod.calibrate_constants(list(read_rows(args.runs, _calibration_sample)))
    if args.out:
        fitted.to_file(args.out)
    _emit([{"type": "constants", **fitted.to_dict()}], None)
    return 0


def cmd_eval_synth(args) -> int:
    mem, instances = synth.synth_corpus(
        args.labels, args.per_label, args.ambiguity, args.seed, args.dim, args.instances
    )
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
    mem_path, corpus_path = out_dir / "memory.divmem", out_dir / "corpus.jsonl"
    memory_mod.persist(mem, mem_path)
    harness.write_corpus(instances, corpus_path)
    _emit([{"type": "synth", "memory": str(mem_path), "corpus": str(corpus_path),
            "exemplars": len(mem), "instances": len(instances)}], None)
    return 0


def cmd_eval_run(args) -> int:
    mem, corpus, config, weights, header = _eval_inputs(args)
    rows: list[dict] = [header]
    reports = []
    for i in range(config.runs):
        seed = harness.derive_seed(config.base_seed, "run", i)
        run_rows, summary, run_reports = harness.evaluate(
            mem, corpus, config, seed, weights=weights
        )
        rows.extend(run_rows)
        rows.append(summary)
        reports.extend(run_reports)
    accs = [r["accuracy"] for r in rows if r.get("type") == "summary"]
    rows.append(
        {
            "type": "aggregate",
            "runs": config.runs,
            "accuracy_mean": float(np.mean(accs)),
            "accuracy_std": float(np.std(accs)),
        }
    )
    _emit(rows, args.out)
    pct = budget_mod.latency_percentiles(reports)
    sys.stderr.write(json.dumps({"latency_percentiles": pct}) + "\n")
    return 0


def cmd_eval_fairness(args) -> int:
    mem, corpus, config, weights, header = _eval_inputs(args)
    _emit([header] + harness.fairness_suite(mem, corpus, config, weights=weights), args.out)
    return 0


def cmd_eval_sweep(args) -> int:
    mem, corpus, config, weights, header = _eval_inputs(args)
    grid = {"k": args.k_grid, "alpha": args.alpha_grid, "method": args.methods.split(",")}
    rows = harness.sweep(mem, corpus, grid, args.seeds, config, weights=weights)
    _emit([header] + rows, args.out)
    return 0


def cmd_eval_grid(args) -> int:
    mem, corpus, config, weights, header = _eval_inputs(args)
    grids = (
        read_object(args.grids, harness.check_grids) if args.grids else dict(harness.DEFAULT_GRIDS)
    )
    best, rows = harness.grid_search(
        mem,
        corpus,
        grids,
        args.B,
        args.lambda_penalty,
        config,
        constants=_constants(args),
        weights=weights,
    )
    _emit([header] + rows + [{**best, "type": "best"}], args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, leaving 2 to invariant
    violations; subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    defaults = harness.ExperimentConfig()
    ret, sel = defaults.retrieval, defaults.selection
    parser = _Parser(prog="divsel", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(subparsers, name, func, help=None):
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("memory", help="memory operations")
    msub = p.add_subparsers(dest="memory_cmd", required=True)
    p = command(msub, "build", cmd_memory_build, "build a memory file from JSONL records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k1", type=float, default=memory_mod.DEFAULT_K1)
    p.add_argument("--b", type=float, default=memory_mod.DEFAULT_B)

    p = command(sub, "retrieve", cmd_retrieve, "score and rank the candidate pool")
    p.add_argument("--memory", required=True)
    query = p.add_mutually_exclusive_group(required=True)
    query.add_argument("--query", help="raw query text (lexical only: needs --lambda-vec 0)")
    query.add_argument("--dialogue", help="dialogue JSON file (the corpus row format)")
    p.add_argument("--L", dest="pool_size", type=int, default=ret.pool_size)
    p.add_argument("--lambda-vec", dest="lambda_vec", type=float, default=ret.lambda_vec)
    p.add_argument("--weights")
    p.add_argument("--out")

    p = command(sub, "select", cmd_select, "pick a diverse exemplar subset from a pool file")
    p.add_argument("--pool", required=True)
    p.add_argument("--method", choices=[*_SELECT_METHODS, "oracle"], default=defaults.method)
    p.add_argument("--K", dest="k", type=int, default=sel.k)
    p.add_argument("--alpha", type=float, default=sel.alpha)
    p.add_argument("--tau", type=float, default=sel.tau)
    p.add_argument("--cap", type=int, default=sel.label_cap)
    p.add_argument("--mu", type=float, default=sel.mu)
    p.add_argument("--lambda-mmr", dest="lambda_mmr", type=float, default=defaults.lambda_mmr)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write chosen exemplars as JSONL here")

    p = command(sub, "compose", cmd_compose, "assemble a prompt from a dialogue and a selection")
    p.add_argument("--dialogue", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument(
        "--summary-cap", dest="summary_cap", type=int, default=defaults.budget.summary_token_cap
    )
    p.add_argument(
        "--permute", type=permute_spec, help="seed|identity|reverse", default="identity"
    )
    p.add_argument("--template")
    p.add_argument("--instruction")
    p.add_argument("--out")

    p = command(sub, "decide", cmd_decide, "score candidate labels through a verifier")
    p.add_argument("--prompt", required=True)
    p.add_argument("--labels", required=True, help="file with one label per line")
    p.add_argument("--verifier", choices=["mock", "endpoint"], default="mock")
    p.add_argument("--tau-c", dest="tau_c", type=float, default=verifier_mod.DEFAULT_TAU_C)
    p.add_argument("--gold", help="gold label for the mock verifier")
    p.add_argument("--noise-seed", dest="noise_seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=defaults.mock_margin)
    p.add_argument("--url")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--out")

    p = sub.add_parser("budget", help="latency modeling, calibration, and control")
    bsub = p.add_subparsers(dest="budget_cmd", required=True)
    for name, func in (("model", cmd_budget_model), ("control", cmd_budget_control)):
        p = command(bsub, name, func)
        p.add_argument("--constants")
        p.add_argument("--N", type=int, default=1000)
        p.add_argument("--terms", type=int, default=8)
        p.add_argument("--L", type=int, default=ret.pool_size)
        p.add_argument("--K", type=int, default=sel.k)
        p.add_argument("--turns", type=int, default=2)
        p.add_argument("--prompt-tokens", dest="prompt_tokens", type=int, default=300)
        p.add_argument("--gen-tokens", dest="gen_tokens", type=int, default=8)
        p.add_argument("--out")
        if name == "control":
            p.add_argument("--B", type=float, required=True)
    p = command(bsub, "calibrate", cmd_budget_calibrate)
    p.add_argument("--runs", required=True, help="JSONL of measured stage timings and sizes")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="evaluation harness")
    esub = p.add_subparsers(dest="eval_cmd", required=True)
    p = command(esub, "synth", cmd_eval_synth)
    p.add_argument("--labels", type=int, default=50)
    p.add_argument("--per-label", dest="per_label", type=int, default=20)
    p.add_argument("--ambiguity", type=float, default=0.6)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    for name, func in (
        ("run", cmd_eval_run),
        ("fairness", cmd_eval_fairness),
        ("sweep", cmd_eval_sweep),
        ("grid", cmd_eval_grid),
    ):
        p = command(esub, name, func)
        p.add_argument("--memory", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--config")
        p.add_argument("--weights")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        if name == "sweep":
            p.add_argument("--k-grid", dest="k_grid", type=int_list, default="1,3,5,7,10")
            p.add_argument(
                "--alpha-grid", dest="alpha_grid", type=float_list, default="0,0.25,0.5,0.75,1"
            )
            p.add_argument("--methods", default=",".join(_SELECT_METHODS))
            p.add_argument("--seeds", type=int_list, default="0,1,2")
        if name == "grid":
            p.add_argument("--grids", help="JSON file of grid lists")
            p.add_argument("--constants")
            p.add_argument("--B", type=float, default=1.5)
            p.add_argument("--lambda-penalty", dest="lambda_penalty", type=float, default=1.0)
    return parser


def _check_utf8(argv: list[str]) -> None:
    """Raise DivselError for an argument that holds a lone surrogate: Python
    decodes argv bytes that are not UTF-8 to surrogates, which no UTF-8
    writer can write back."""
    for i, arg in enumerate(argv, 1):
        try:
            arg.encode("utf-8")
        except UnicodeEncodeError:
            raise DivselError(
                f"argument {i}, {arg!r}, holds a lone surrogate: its bytes are not UTF-8"
            ) from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        _check_utf8(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2
    except DivselError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
