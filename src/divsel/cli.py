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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import budget as budget_mod
from . import harness, memory as memory_mod, prompt as prompt_mod, retrieval, selection, synth, verifier as verifier_mod
from .encoder import load_weights
from .errors import ConfigError, DivselError, InvariantViolation
from .files import read_object, read_rows, read_text


def _emit(rows, out_path: str | None) -> None:
    text = "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in rows)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> harness.ExperimentConfig:
    if getattr(args, "config", None):
        cfg = harness.ExperimentConfig.from_file(args.config)
    else:
        cfg = harness.ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, base_seed=args.seed)
    return cfg


def cmd_memory_build(args) -> int:
    mem = memory_mod.ingest_jsonl(args.infile, k1=args.k1, b=args.b)
    memory_mod.persist(mem, args.out)
    _emit([{"type": "memory", "n": len(mem), "dim": mem.dim, "out": args.out}], None)
    return 0


def cmd_retrieve(args) -> int:
    mem = memory_mod.load(args.memory)
    cfg = retrieval.RetrievalConfig(
        lambda_vec=args.lambda_vec, pool_size=args.pool_size, normalization=args.normalization
    )
    if Path(args.query).exists():
        weights = load_weights(args.weights) if args.weights else None
        pool = harness.retrieve_stage(harness.read_dialogue(args.query), mem, cfg, weights)
    else:
        if args.lambda_vec != 0.0:
            raise DivselError(
                "a raw-text query has no embedding; pass a dialogue file or use --lambda-vec 0"
            )
        # The query vector is unused at lambda_vec=0, but must be non-zero.
        pool = retrieval.retrieve_pool(mem, np.ones(mem.dim), args.query, cfg)
    if args.out:
        retrieval.write_pool(pool, args.out)
    else:
        for c in pool:
            sys.stdout.write(
                json.dumps(
                    {
                        "id": c.exemplar_id,
                        "label": c.label,
                        "relevance": c.relevance,
                        "vec_score": c.vec_score,
                        "lex_score": c.lex_score,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
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
        with open(args.out, "w", encoding="utf-8") as fh:
            for c in result.members:
                fh.write(
                    json.dumps({"id": c.exemplar_id, "text": c.text, "label": c.label}) + "\n"
                )
    _emit(rows, None)
    return 0


def cmd_compose(args) -> int:
    ctx = harness.read_dialogue(args.dialogue)
    pairs = list(read_rows(args.selection, lambda row: (str(row["text"]), str(row["label"]))))
    budget = prompt_mod.BudgetConfig(
        max_prompt_tokens=args.budget, summary_token_cap=min(args.summary_cap, args.budget)
    )
    permutation = None
    if args.permute and args.permute != "identity":
        permutation = list(range(len(pairs)))
        if args.permute == "reverse":
            permutation.reverse()
        else:
            random.Random(int(args.permute)).shuffle(permutation)
    template = prompt_mod.load_template(args.template) if args.template else prompt_mod.DEFAULT_TEMPLATE
    instruction = args.instruction or prompt_mod.DEFAULT_INSTRUCTION
    result = prompt_mod.compose(instruction, ctx, pairs, budget, permutation, template)
    if args.out:
        Path(args.out).write_text(result.text, encoding="utf-8")
    _emit(
        [
            {
                "type": "prompt",
                "token_count": result.token_count,
                "dropped_summary_turns": result.dropped_summary_turns,
                "dropped_exemplars": list(result.dropped_exemplars),
            }
        ],
        None,
    )
    if not args.out:
        sys.stdout.write(result.text + "\n")
    return 0


def cmd_decide(args) -> int:
    prompt_text = read_text(args.prompt)
    labels = [
        line.strip() for line in read_text(args.labels).splitlines() if line.strip()
    ]
    shell = prompt_mod.Prompt(
        instruction="",
        summary="",
        current="",
        exemplars=(),
        answer_format="",
        text=prompt_text,
        token_count=prompt_mod.count_tokens(prompt_text),
    )
    if args.verifier == "mock":
        if not args.gold:
            raise DivselError("--gold is required with the mock verifier")
        boundary = verifier_mod.mock_verifier(args.gold, args.noise_seed, args.margin)
    else:
        if not args.url:
            raise DivselError("--url is required with the endpoint verifier")
        boundary = verifier_mod.EndpointVerifier(args.url, timeout=args.timeout)
    output = verifier_mod.score_labels(shell, labels, boundary, args.tau_c)
    _emit(
        [
            {
                "type": "decision",
                "decision": output.decision,
                "scores": output.scores,
                "calibrated": output.calibrated,
            }
        ],
        args.out,
    )
    return 0


def _shape_from_args(args) -> budget_mod.WorkloadShape:
    return budget_mod.WorkloadShape(
        memory_size=args.N,
        query_terms=args.terms,
        pool_size=args.L,
        k=args.K,
        turns=args.turns,
        prompt_tokens=args.prompt_tokens,
        gen_tokens=args.gen_tokens,
    )


def _calibration_sample(row) -> tuple[budget_mod.LatencyReport, budget_mod.WorkloadShape]:
    report = budget_mod.LatencyReport(
        "measured",
        t_ann=row["t_ann"],
        t_div=row["t_div"],
        t_prompt=row["t_prompt"],
        t_llm=row["t_llm"],
        t_total=row["t_ann"] + row["t_div"] + row["t_prompt"] + row["t_llm"],
    )
    shape = budget_mod.WorkloadShape(
        memory_size=row["N"],
        query_terms=row["terms"],
        pool_size=row["L"],
        k=row["K"],
        turns=row["turns"],
        prompt_tokens=row["prompt_tokens"],
        gen_tokens=row["gen_tokens"],
    )
    return report, shape


def cmd_budget(args) -> int:
    constants = (
        budget_mod.CostConstants.from_file(args.constants)
        if args.constants
        else budget_mod.CostConstants()
    )
    if args.budget_cmd == "model":
        rep = budget_mod.model_latency(constants, _shape_from_args(args))
        _emit(
            [
                {
                    "type": "latency_model",
                    "t_ann": rep.t_ann,
                    "t_div": rep.t_div,
                    "t_prompt": rep.t_prompt,
                    "t_llm": rep.t_llm,
                    "t_total": rep.t_total,
                }
            ],
            args.out,
        )
    elif args.budget_cmd == "control":
        decision = budget_mod.budget_control(
            constants, _shape_from_args(args), args.L, args.K, args.U, args.B
        )
        _emit(
            [
                {
                    "type": "budget_control",
                    "pool_size": decision.pool_size,
                    "k": decision.k,
                    "label_cap": decision.label_cap,
                    "over_budget": decision.over_budget,
                    "modeled_total": decision.modeled_total,
                }
            ],
            args.out,
        )
    else:  # calibrate
        fitted = budget_mod.calibrate_constants(list(read_rows(args.runs, _calibration_sample)))
        if args.out:
            fitted.to_file(args.out)
        _emit([{"type": "constants", **fitted.to_dict()}], None)
    return 0


def cmd_eval(args) -> int:
    if args.eval_cmd == "synth":
        mem, instances = synth.synth_corpus(
            labels=args.labels,
            per_label=args.per_label,
            ambiguity=args.ambiguity,
            seed=args.seed if args.seed is not None else 0,
            dim=args.dim,
            instances=args.instances,
        )
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        memory_mod.persist(mem, out_dir / "memory.divmem")
        harness.write_corpus(instances, out_dir / "corpus.jsonl")
        _emit(
            [
                {
                    "type": "synth",
                    "memory": str(out_dir / "memory.divmem"),
                    "corpus": str(out_dir / "corpus.jsonl"),
                    "exemplars": len(mem),
                    "instances": len(instances),
                }
            ],
            None,
        )
        return 0

    if not (args.memory and args.corpus):
        raise ConfigError(f"eval {args.eval_cmd} needs --memory and --corpus")
    mem = memory_mod.load(args.memory)
    corpus = harness.read_corpus(args.corpus)
    config = _config_from_args(args)
    weights = load_weights(args.weights) if args.weights else None
    header = {
        "type": "header",
        "config_hash": config.config_hash(),
        "aga_convention": "slot active iff gold value != not_mentioned",
    }

    if args.eval_cmd == "run":
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
    elif args.eval_cmd == "fairness":
        rows = [header] + harness.fairness_suite(mem, corpus, config, weights=weights)
        _emit(rows, args.out)
    elif args.eval_cmd == "sweep":
        grid = {
            "k": [int(x) for x in args.k_grid.split(",")],
            "alpha": [float(x) for x in args.alpha_grid.split(",")],
            "method": args.methods.split(","),
        }
        seeds = [int(x) for x in args.seeds.split(",")]
        rows = [header] + harness.sweep(mem, corpus, grid, seeds, config, weights=weights)
        _emit(rows, args.out)
    else:  # grid
        grids = (
            read_object(args.grids, harness.check_grids)
            if args.grids
            else dict(harness.DEFAULT_GRIDS)
        )
        constants = (
            budget_mod.CostConstants.from_file(args.constants)
            if args.constants
            else budget_mod.CostConstants()
        )
        best, rows = harness.grid_search(
            mem,
            corpus,
            grids,
            args.B,
            args.lambda_penalty,
            config,
            constants=constants,
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
    parser = _Parser(prog="divsel", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("memory", help="memory operations")
    msub = p.add_subparsers(dest="memory_cmd", required=True)
    mb = msub.add_parser("build", help="build a memory file from JSONL records")
    mb.add_argument("--in", dest="infile", required=True)
    mb.add_argument("--out", required=True)
    mb.add_argument("--k1", type=float, default=memory_mod.DEFAULT_K1)
    mb.add_argument("--b", type=float, default=memory_mod.DEFAULT_B)
    mb.set_defaults(func=cmd_memory_build)

    p = sub.add_parser("retrieve", help="score and rank the candidate pool")
    p.add_argument("--memory", required=True)
    p.add_argument("--query", required=True, help="dialogue JSON file or raw text")
    p.add_argument("--L", dest="pool_size", type=int, default=128)
    p.add_argument("--lambda-vec", dest="lambda_vec", type=float, default=0.6)
    p.add_argument("--normalization", default="minmax")
    p.add_argument("--weights")
    p.add_argument("--out")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("select", help="pick a diverse exemplar subset from a pool file")
    p.add_argument("--pool", required=True)
    p.add_argument(
        "--method", choices=["ldra", "topk", "mmr", "fps", "random", "oracle"], default="ldra"
    )
    p.add_argument("--K", dest="k", type=int, default=6)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=0.4)
    p.add_argument("--cap", type=int, default=1)
    p.add_argument("--mu", type=float, default=0.05)
    p.add_argument("--lambda-mmr", dest="lambda_mmr", type=float, default=0.5)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write chosen exemplars as JSONL here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("compose", help="assemble a prompt from a dialogue and a selection")
    p.add_argument("--dialogue", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--summary-cap", dest="summary_cap", type=int, default=128)
    p.add_argument("--permute", help="seed|identity|reverse", default="identity")
    p.add_argument("--template")
    p.add_argument("--instruction")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("decide", help="score candidate labels through a verifier")
    p.add_argument("--prompt", required=True)
    p.add_argument("--labels", required=True, help="file with one label per line")
    p.add_argument("--verifier", choices=["mock", "endpoint"], default="mock")
    p.add_argument("--tau-c", dest="tau_c", type=float, default=1.0)
    p.add_argument("--gold", help="gold label for the mock verifier")
    p.add_argument("--noise-seed", dest="noise_seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=2.0)
    p.add_argument("--url")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("budget", help="latency modeling, calibration, and control")
    bsub = p.add_subparsers(dest="budget_cmd", required=True)
    for name in ("model", "control"):
        bp = bsub.add_parser(name)
        bp.add_argument("--constants")
        bp.add_argument("--N", type=int, default=1000)
        bp.add_argument("--terms", type=int, default=8)
        bp.add_argument("--L", type=int, default=128)
        bp.add_argument("--K", type=int, default=6)
        bp.add_argument("--turns", type=int, default=2)
        bp.add_argument("--prompt-tokens", dest="prompt_tokens", type=int, default=300)
        bp.add_argument("--gen-tokens", dest="gen_tokens", type=int, default=8)
        bp.add_argument("--out")
        if name == "control":
            bp.add_argument("--U", type=int, default=1)
            bp.add_argument("--B", type=float, required=True)
        bp.set_defaults(func=cmd_budget)
    bp = bsub.add_parser("calibrate")
    bp.add_argument("--runs", required=True, help="JSONL of measured stage timings and sizes")
    bp.add_argument("--constants")
    bp.add_argument("--out")
    bp.set_defaults(func=cmd_budget)

    p = sub.add_parser("eval", help="evaluation harness")
    esub = p.add_subparsers(dest="eval_cmd", required=True)
    shared = {
        "--memory": dict(required=False),
        "--corpus": dict(required=False),
        "--config": dict(),
        "--weights": dict(),
        "--seed": dict(type=int),
        "--out": dict(),
    }
    for name in ("run", "fairness", "sweep", "grid", "synth"):
        ep = esub.add_parser(name)
        for flag, kw in shared.items():
            ep.add_argument(flag, **kw)
        if name == "sweep":
            ep.add_argument("--k-grid", dest="k_grid", default="1,3,5,7,10")
            ep.add_argument("--alpha-grid", dest="alpha_grid", default="0,0.25,0.5,0.75,1")
            ep.add_argument("--methods", default="ldra,topk,mmr,fps,random")
            ep.add_argument("--seeds", default="0,1,2")
        if name == "grid":
            ep.add_argument("--grids", help="JSON file of grid lists")
            ep.add_argument("--constants")
            ep.add_argument("--B", type=float, default=1.5)
            ep.add_argument("--lambda-penalty", dest="lambda_penalty", type=float, default=1.0)
        if name == "synth":
            ep.add_argument("--labels", type=int, default=50)
            ep.add_argument("--per-label", dest="per_label", type=int, default=20)
            ep.add_argument("--ambiguity", type=float, default=0.6)
            ep.add_argument("--dim", type=int, default=32)
            ep.add_argument("--instances", type=int, default=200)
        ep.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2
    except DivselError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
