import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from divsel import verifier as verifier_mod
from divsel.budget import CostConstants
from divsel.cli import main
from divsel.harness import ExperimentConfig
from divsel.memory import load


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Records file, built memory, corpus, and one dialogue file."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    records = root / "records.jsonl"
    with open(records, "w") as fh:
        for i in range(30):
            v = rng.normal(size=6)
            v /= np.linalg.norm(v)
            fh.write(
                json.dumps(
                    {
                        "id": f"e{i:02d}",
                        "text": f"sample utterance {i} topic{i % 4}",
                        "label": f"intent_{i % 4}",
                        "embedding": list(v),
                    }
                )
                + "\n"
            )
    code = main(["memory", "build", "--in", str(records), "--out", str(root / "mem.divmem")])
    assert code == 0
    code = main(
        [
            "eval", "synth", "--labels", "6", "--per-label", "5", "--ambiguity", "0.5",
            "--instances", "12", "--dim", "16", "--seed", "3", "--out", str(root / "synth"),
        ]
    )
    assert code == 0
    corpus_lines = (root / "synth" / "corpus.jsonl").read_text().splitlines()
    (root / "dialogue.json").write_text(corpus_lines[0] + "\n")
    return root


class TestMemoryCli:
    def test_build_output(self, workspace, capsys):
        mem = load(workspace / "mem.divmem")
        assert len(mem) == 30

    def test_bad_input_exits_nonzero(self, workspace, capsys):
        bad = workspace / "bad.jsonl"
        bad.write_text('{"id": "x", "text": "t", "label": "l", "embedding": [0, 0]}\n')
        code, _, err = run(
            capsys, "memory", "build", "--in", str(bad), "--out", str(workspace / "nope.divmem")
        )
        assert code == 1
        assert "error" in err

    def test_overflowing_norm_fails_before_writing(self, workspace, capsys):
        bad = workspace / "overflow.jsonl"
        bad.write_text('{"id": "big", "text": "t", "label": "l", "embedding": [1e300, 1e300]}\n')
        out = workspace / "overflow.divmem"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "memory", "build", "--in", str(bad), "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exemplar 'big' embedding norm overflows" in err
        assert not out.exists()


class TestRetrieveSelectComposeDecide:
    def test_full_command_chain(self, workspace, capsys):
        mem_path = str(workspace / "synth" / "memory.divmem")
        pool_path = str(workspace / "pool.jsonl")
        code, out, _ = run(
            capsys,
            "retrieve", "--memory", mem_path, "--dialogue", str(workspace / "dialogue.json"),
            "--L", "16", "--lambda-vec", "0.6", "--out", pool_path,
        )
        assert code == 0

        sel_path = str(workspace / "selection.jsonl")
        code, out, _ = run(
            capsys,
            "select", "--pool", pool_path, "--method", "ldra", "--K", "4",
            "--alpha", "0.5", "--tau", "0.0", "--cap", "1", "--mu", "0.05",
            "--out", sel_path,
        )
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert report["method"] == "ldra"
        assert len(report["ids"]) <= 4

        prompt_path = str(workspace / "prompt.txt")
        code, out, _ = run(
            capsys,
            "compose", "--dialogue", str(workspace / "dialogue.json"),
            "--selection", sel_path, "--budget", "300", "--out", prompt_path,
        )
        assert code == 0
        meta = json.loads(out.splitlines()[0])
        assert meta["token_count"] <= 300

        labels_path = workspace / "labels.txt"
        gold = json.loads((workspace / "dialogue.json").read_text())["gold"]
        labels_path.write_text(f"{gold}\nintent_99\n")
        code, out, _ = run(
            capsys,
            "decide", "--prompt", prompt_path, "--labels", str(labels_path),
            "--verifier", "mock", "--gold", gold,
        )
        assert code == 0
        decision = json.loads(out.splitlines()[0])
        assert decision["decision"] == gold

    def test_raw_text_query_requires_lexical_only(self, workspace, capsys):
        mem_path = str(workspace / "mem.divmem")
        code, _, err = run(
            capsys, "retrieve", "--memory", mem_path, "--query", "sample topic1",
            "--lambda-vec", "0.6",
        )
        assert code == 1
        code, out, _ = run(
            capsys, "retrieve", "--memory", mem_path, "--query", "sample topic1",
            "--lambda-vec", "0", "--L", "5",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_query_is_text_even_when_it_names_a_file(self, workspace, capsys):
        """`--query` never opens a file; a dialogue file goes to `--dialogue`."""
        mem_path = str(workspace / "mem.divmem")
        dialogue = str(workspace / "dialogue.json")
        code, out, _ = run(
            capsys, "retrieve", "--memory", mem_path, "--query", dialogue,
            "--lambda-vec", "0", "--L", "3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        code, _, err = run(capsys, "retrieve", "--memory", mem_path, "--query", dialogue)
        assert code == 1
        assert "pass --dialogue or use --lambda-vec 0" in err

    def test_select_out_writes_utf8(self, workspace, capsys, tmp_path):
        pool = tmp_path / "pool.jsonl"
        row = {"id": "é1", "text": "café crème", "label": "lé", "relevance": 0.5,
               "vec_score": 0.5, "lex_score": 0.0, "bm25_raw": 0.0, "embedding": [1.0, 0.0]}
        pool.write_text(json.dumps(row) + "\n")
        sel = tmp_path / "selection.jsonl"
        code, out, _ = run(
            capsys, "select", "--pool", str(pool), "--method", "topk", "--K", "1",
            "--out", str(sel),
        )
        assert code == 0
        assert json.loads(out)["labels"] == ["lé"]
        assert sel.read_bytes() == (
            '{"id": "é1", "text": "café crème", "label": "lé"}\n'.encode("utf-8")
        )

    def test_malformed_dialogue_or_corpus_exits_one(self, workspace, capsys):
        mem_path = str(workspace / "synth" / "memory.divmem")
        bad = workspace / "bad_dialogue.json"
        bad.write_text('{"current": "hi"}\n')
        empty = workspace / "empty_dialogue.json"
        empty.write_text("")
        for argv in (
            ["retrieve", "--memory", mem_path, "--dialogue", str(bad)],
            ["eval", "run", "--memory", mem_path, "--corpus", str(bad)],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert f"{bad}:1:" in err
        code, _, err = run(
            capsys, "compose", "--dialogue", str(empty),
            "--selection", str(workspace / "selection.jsonl"), "--budget", "300",
        )
        assert code == 1
        assert "holds no rows" in err

    def test_degenerate_dialogue_embedding_names_its_cause(self, workspace, capsys, tmp_path):
        """A current embedding that is constant across its dimensions, or
        whose centred squares overflow, has no direction after layer
        normalization: `retrieve` exits 1 saying so, even when the dense score
        has no weight, and prints no numpy warning."""
        mem_path = str(workspace / "synth" / "memory.divmem")
        row = json.loads((workspace / "dialogue.json").read_text())
        for embedding, cause in (
            ([0.5] * 16, "layer normalization maps an embedding that is constant across its "
                         "dimensions to zero"),
            ([1e300, -1e300] * 8, "embedding is too large to normalize"),
        ):
            dialogue = tmp_path / "dialogue.json"
            dialogue.write_text(json.dumps({**row, "current_embedding": embedding}) + "\n")
            for weight in ("0.6", "0"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, _, err = run(capsys, "retrieve", "--memory", mem_path,
                                       "--dialogue", str(dialogue), "--lambda-vec", weight)
                assert code == 1
                assert err == f"error: {cause}\n"

    def test_lone_surrogate_escape_exits_one(self, workspace, capsys, tmp_path):
        """A \\ud800 escape in a dialogue, selection or exemplar-record file, or
        a command-line text that was not UTF-8 (Python decodes its bytes to
        lone surrogates), is rejected where it is read, naming path:line or
        the argument, rather than crashing the writer that would later meet
        the text."""
        dialogue = json.loads((workspace / "dialogue.json").read_text())
        bad_dialogue = tmp_path / "dialogue.json"
        bad_dialogue.write_text(json.dumps({**dialogue, "current": "book \ud800 taxi"}) + "\n")
        good_sel = tmp_path / "selection.jsonl"
        good_sel.write_text('{"text": "t", "label": "l"}\n')
        bad_sel = tmp_path / "bad_selection.jsonl"
        bad_sel.write_text('{"text": "t", "label": "l"}\n{"text": "x\\udfff", "label": "l"}\n')
        bad_records = tmp_path / "records.jsonl"
        bad_records.write_text(
            '{"id": "a", "text": "t", "label": "l", "embedding": [1.0, 0.0]}\n'
            '{"id": "b", "text": "t", "label": "l\\ud800", "embedding": [0.0, 1.0]}\n'
        )
        out = tmp_path / "out"
        for argv, where in (
            (["compose", "--dialogue", str(bad_dialogue), "--selection", str(good_sel),
              "--budget", "300"], f"{bad_dialogue}:1:"),
            (["compose", "--dialogue", str(bad_dialogue), "--selection", str(good_sel),
              "--budget", "300", "--out", str(out)], f"{bad_dialogue}:1:"),
            (["compose", "--dialogue", str(workspace / "dialogue.json"),
              "--selection", str(bad_sel), "--budget", "300"], f"{bad_sel}:2:"),
            (["memory", "build", "--in", str(bad_records), "--out", str(out)],
             f"{bad_records}:2:"),
            (["compose", "--dialogue", str(workspace / "dialogue.json"), "--selection",
              str(good_sel), "--budget", "300", "--instruction", "bad \udcff byte",
              "--out", str(out)], "argument 9, 'bad \\udcff byte', holds"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert err.startswith("error: ") and where in err and "lone surrogate" in err
        assert not out.exists()

    def test_permutation_preserves_token_count(self, workspace, capsys):
        base_args = [
            "compose", "--dialogue", str(workspace / "dialogue.json"),
            "--selection", str(workspace / "selection.jsonl"), "--budget", "300",
        ]
        code, out, _ = run(capsys, *base_args)
        identity_tokens = json.loads(out.splitlines()[0])["token_count"]
        code, out, _ = run(capsys, *base_args, "--permute", "reverse")
        assert code == 0
        assert json.loads(out.splitlines()[0])["token_count"] == identity_tokens
        code, out, _ = run(capsys, *base_args, "--permute", "42")
        assert code == 0
        assert json.loads(out.splitlines()[0])["token_count"] == identity_tokens


class TestBudgetCli:
    def test_model(self, workspace, capsys):
        code, out, _ = run(
            capsys, "budget", "model", "--N", "1000", "--terms", "8", "--L", "128",
            "--K", "6", "--prompt-tokens", "300", "--gen-tokens", "100",
        )
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["t_total"] > 0

    def test_calibrate(self, workspace, capsys):
        runs = workspace / "runs.jsonl"
        with open(runs, "w") as fh:
            for L, K in ((64, 4), (128, 6), (256, 8), (32, 2)):
                fh.write(
                    json.dumps(
                        {
                            "t_ann": 1e-4, "t_div": 1e-6 * L * K, "t_prompt": 1e-4,
                            "t_llm": 0.1, "N": 1000, "terms": 8, "L": L, "K": K,
                            "turns": 2, "prompt_tokens": 300, "gen_tokens": 10,
                        }
                    )
                    + "\n"
                )
        code, out, _ = run(capsys, "budget", "calibrate", "--runs", str(runs))
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["c_sim"] == pytest.approx(1e-6, rel=1e-3)


class TestEvalCli:
    def test_run_and_fairness_deterministic(self, workspace, capsys, tmp_path):
        mem = str(workspace / "synth" / "memory.divmem")
        corpus = str(workspace / "synth" / "corpus.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "selection": {"k": 3},
                    "retrieval": {"pool_size": 16},
                    "runs": 2,
                    "fairness": {"token_targets": [220, 260]},
                }
            )
        )
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            code, _, err = run(
                capsys, "eval", "run", "--memory", mem, "--corpus", corpus,
                "--config", str(cfg), "--seed", "5", "--out", str(out),
            )
            assert code == 0
            assert "latency_percentiles" in err
        assert out_a.read_bytes() == out_b.read_bytes()

        fair_a, fair_b = tmp_path / "fa.jsonl", tmp_path / "fb.jsonl"
        for out in (fair_a, fair_b):
            code, _, _ = run(
                capsys, "eval", "fairness", "--memory", mem, "--corpus", corpus,
                "--config", str(cfg), "--seed", "5", "--out", str(out),
            )
            assert code == 0
        assert fair_a.read_bytes() == fair_b.read_bytes()
        rows = [json.loads(l) for l in fair_a.read_text().splitlines()]
        config = replace(ExperimentConfig.from_file(cfg), base_seed=5)
        assert rows[0] == {"type": "header", "config_hash": config.config_hash()}
        assert json.loads(out_a.read_text().splitlines()[0]) == rows[0]
        assert any(r["type"] == "fairness" for r in rows)

    def test_sweep_and_grid(self, workspace, capsys, tmp_path):
        mem = str(workspace / "synth" / "memory.divmem")
        corpus = str(workspace / "synth" / "corpus.jsonl")
        code, out, _ = run(
            capsys, "eval", "sweep", "--memory", mem, "--corpus", corpus,
            "--k-grid", "1,3", "--alpha-grid", "0.5", "--methods", "ldra,topk",
            "--seeds", "0,1",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        assert sum(r["type"] == "sweep" for r in rows) == 4

        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"alpha": [0.2, 0.8], "k": [2]}))
        code, out, _ = run(
            capsys, "eval", "grid", "--memory", mem, "--corpus", corpus,
            "--grids", str(grids), "--B", "5", "--lambda-penalty", "1.0",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        assert rows[-1]["type"] == "best"


class TestExitCodes:
    def test_invariant_violation_exits_two(self, workspace, capsys, monkeypatch):
        from divsel import harness
        from divsel.errors import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr(harness, "fairness_suite", boom)
        import divsel.cli as cli

        monkeypatch.setattr(cli.harness, "fairness_suite", boom)
        code, _, err = run(
            capsys, "eval", "fairness",
            "--memory", str(workspace / "synth" / "memory.divmem"),
            "--corpus", str(workspace / "synth" / "corpus.jsonl"),
        )
        assert code == 2
        assert "invariant violation" in err

    def test_file_boundaries_exit_one_naming_the_file(self, workspace, capsys, tmp_path):
        """A missing input file, one that is not UTF-8 text, and a malformed row
        in any JSONL the CLI reads fail with a DivselError (exit 1) naming the
        path and, for a row, its line."""
        mem = str(workspace / "synth" / "memory.divmem")
        corpus = str(workspace / "synth" / "corpus.jsonl")
        dialogue = str(workspace / "dialogue.json")
        missing = str(tmp_path / "missing.jsonl")
        bad_pool = tmp_path / "pool.jsonl"
        bad_pool.write_text('{"id": "a", "text": "t", "label": "l"}\n')
        bad_sel = tmp_path / "selection.jsonl"
        bad_sel.write_text('{"text": "t", "label": "l"}\n\n{"text": "no label"}\n')
        good_sel = tmp_path / "good_selection.jsonl"
        good_sel.write_text('{"text": "t", "label": "l"}\n')
        bad_runs = tmp_path / "runs.jsonl"
        bad_runs.write_text('{"t_ann": 1}\n')
        not_object = tmp_path / "records.jsonl"
        not_object.write_text("[1, 2]\n")
        no_id = tmp_path / "no_id.jsonl"
        no_id.write_text('{"t_ann": 1}\n')
        row = {"id": "a", "text": "t", "label": "l", "relevance": 0.5, "vec_score": 0.5,
               "lex_score": 0.0, "bm25_raw": 0.0, "embedding": [1.0, 0.0]}
        # A score or embedding entry must be a JSON number, and bm25_raw is
        # required; a second row of another dimension names its line.
        not_numbers = {}
        for name, bad in (("bool_score", {"relevance": True}), ("str_score", {"vec_score": "0.9"}),
                          ("bool_emb", {"embedding": [True, 0.5]})):
            not_numbers[name] = tmp_path / f"{name}.jsonl"
            not_numbers[name].write_text(json.dumps({**row, **bad}) + "\n")
        no_raw = tmp_path / "no_raw.jsonl"
        no_raw.write_text(json.dumps({k: v for k, v in row.items() if k != "bm25_raw"}) + "\n")
        mixed_pool = tmp_path / "mixed_pool.jsonl"
        mixed_pool.write_text(
            json.dumps(row) + "\n" + json.dumps({**row, "id": "b", "embedding": [1, 0, 0]}) + "\n"
        )
        nan_score = tmp_path / "nan_score.jsonl"
        nan_score.write_text(json.dumps(row) + "\n" + json.dumps({**row, "vec_score": float("nan")}) + "\n")
        nan_emb = tmp_path / "nan_emb.jsonl"
        nan_emb.write_text(json.dumps({**row, "embedding": [float("nan"), 1.0]}) + "\n")
        dup_pool = tmp_path / "dup_pool.jsonl"
        dup_pool.write_text(json.dumps(row) + "\n" + json.dumps({**row, "text": "u"}) + "\n")
        first, second = map(json.loads, (workspace / "synth" / "corpus.jsonl").read_text().splitlines()[:2])
        dup_corpus = tmp_path / "dup_corpus.jsonl"
        dup_corpus.write_text(json.dumps(first) + "\n" + json.dumps({**second, "id": first["id"]}) + "\n")
        # Same direction, but the first row's norm overflows to inf.
        overflow_pool = tmp_path / "overflow_pool.jsonl"
        overflow_pool.write_text(
            json.dumps({**row, "embedding": [1e200, 1e200, 0.0]}) + "\n"
            + json.dumps({**row, "id": "b", "embedding": [1.0, 1.0, 0.0]}) + "\n"
        )
        huge_int = tmp_path / "huge_int.jsonl"
        huge_int.write_text(json.dumps(row).replace("0.5", "9" * 400, 1) + "\n")
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "\n")
        run_row = {
            "t_ann": 1e-4, "t_div": 1e-4, "t_prompt": 1e-4, "t_llm": 0.1, "N": 1000,
            "terms": 8, "L": 64, "K": 4, "turns": 2, "prompt_tokens": 300, "gen_tokens": 10,
        }
        runs = tmp_path / "good_runs.jsonl"
        runs.write_text(json.dumps(run_row) + "\n")
        nan_runs = tmp_path / "nan_runs.jsonl"
        nan_runs.write_text(json.dumps(run_row) + "\n" + json.dumps({**run_row, "t_ann": float("nan")}) + "\n")
        negative_runs = tmp_path / "negative_runs.jsonl"
        negative_runs.write_text(json.dumps({**run_row, "t_llm": -0.1}) + "\n")
        bool_time_runs = tmp_path / "bool_time_runs.jsonl"
        bool_time_runs.write_text(json.dumps({**run_row, "t_ann": True}) + "\n")
        bool_size_runs = tmp_path / "bool_size_runs.jsonl"
        bool_size_runs.write_text(json.dumps(run_row) + "\n" + json.dumps({**run_row, "N": True}) + "\n")
        float_size_runs = tmp_path / "float_size_runs.jsonl"
        float_size_runs.write_text(json.dumps({**run_row, "terms": 2.5}) + "\n")
        records = workspace / "records.jsonl"
        record = {"id": "a", "text": "t", "label": "l", "embedding": [1.0, 0.0]}
        dup_records = tmp_path / "dup_records.jsonl"
        dup_records.write_text(json.dumps(record) + "\n" + json.dumps({**record, "text": "u"}) + "\n")
        # An embedding entry must be a JSON number in every reader: records,
        # corpus and dialogue as well as the pool.
        bool_records = tmp_path / "bool_records.jsonl"
        bool_records.write_text(json.dumps({**record, "embedding": [True, 0.5]}) + "\n")
        str_records = tmp_path / "str_records.jsonl"
        str_records.write_text(json.dumps({**record, "embedding": ["0.3", 1]}) + "\n")
        str_corpus = tmp_path / "str_corpus.jsonl"
        str_corpus.write_text(json.dumps(first) + "\n"
                              + json.dumps({**second, "current_embedding": ["0.3"] * 16}) + "\n")
        bool_dialogue = tmp_path / "bool_dialogue.json"
        bool_turn = {**first["turns"][0], "agent_embedding": [True] * 16}
        bool_dialogue.write_text(json.dumps({**first, "turns": [bool_turn]}) + "\n")
        mixed_dims = tmp_path / "mixed_dims.jsonl"
        mixed_dims.write_text(
            json.dumps(record) + "\n\n" + json.dumps({**record, "id": "b", "embedding": [1, 0, 0]}) + "\n"
        )
        no_dir = tmp_path / "missing_dir"
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        files = {}
        for name, text in {
            "bad_json": '{"c_ann": 1',
            "missing_key": '{"c_ann": 1}',
            "unknown_constant": json.dumps({**CostConstants().to_dict(), "c_x": 1.0}),
            "string_constant": json.dumps({**CostConstants().to_dict(), "c_ann": "1e-3"}),
            "bool_constant": json.dumps({**CostConstants().to_dict(), "c_bm25": True}),
            "unknown_nested": '{"selection": {"kk": 3}}',
            "unknown_top": '{"runz": 3}',
            "wrong_type": '{"selection": {"k": "3"}}',
            "float_for_int": '{"retrieval": {"pool_size": 2.5}}',
            "null_seed": '{"fairness": {"shuffle_seed": null}}',
            "nan_mu": '{"selection": {"mu": NaN}}',
            "inf_mu": '{"selection": {"mu": Infinity}}',
            "nan_tau": '{"selection": {"tau": NaN}}',
            "removed_tau_c": '{"tau_c": 1.0}',
            "removed_normalization": '{"retrieval": {"normalization": "none"}}',
            "removed_prefix_replace": '{"fairness": {"prefix_replace": false}}',
            "nan_margin": '{"mock_margin": NaN}',
            "zero_margin": '{"mock_margin": 0}',
            "nan_lambda": '{"lambda_mmr": NaN}',
            "big_lambda": '{"method": "mmr", "lambda_mmr": 5.0}',
            "no_targets": '{"fairness": {"token_targets": []}}',
            "repeated_target": '{"fairness": {"token_targets": [300, 300]}}',
            "not_an_object": "[1, 2]",
            "section_not_object": '{"budget": 3}',
            "grid_value": '{"alpha": 3}',
            "grid_key": '{"beta": [1]}',
            "inf_pool_size": '{"pool_size": [Infinity]}',
            "nan_k": '{"k": [NaN]}',
            "float_k": '{"k": [2.5]}',
            "float_label_cap": '{"label_cap": [1.5]}',
            "bool_k": '{"k": [true]}',
            "nan_alpha": '{"alpha": [NaN]}',
            "repeated_alpha": '{"alpha": [0.5, 0.5]}',
            "method_key": '{"method": ["ldra"]}',
            "lone_surrogate": '{"method": "ldra",\n "selection": {"k": 3}, "x\\ud800": 1}',
        }.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(text)
        # Every cost constant must be finite: JSON's NaN and Infinity parse.
        non_finite = {}
        for field in CostConstants().to_dict():
            for bad in (float("nan"), float("inf")):
                path = tmp_path / f"{bad}_{field}.json"
                path.write_text(json.dumps({**CostConstants().to_dict(), field: bad}))
                non_finite[path] = f"{field} must be finite, got {bad}"
        grid = ["eval", "grid", "--memory", mem, "--corpus", corpus, "--grids"]
        eval_run = ["eval", "run", "--memory", mem, "--corpus", corpus]
        compose = ["compose", "--dialogue", dialogue, "--budget", "300", "--selection"]
        build = ["memory", "build", "--out", str(tmp_path / "m.divmem"), "--in"]
        cases = [
            (["select", "--pool", missing], f"cannot open {missing}"),
            (["select", "--pool", str(bad_pool)], f"{bad_pool}:1: malformed row"),
            (compose + [str(bad_sel)], f"{bad_sel}:3: malformed row"),
            (compose + [str(good_sel), "--template", missing], f"cannot open {missing}"),
            (["budget", "calibrate", "--runs", str(bad_runs)], f"{bad_runs}:1: malformed row"),
            (["budget", "calibrate", "--runs", str(nan_runs)],
             f"{nan_runs}:2: malformed row (ConfigError: t_ann must be finite and >= 0"),
            (["budget", "calibrate", "--runs", str(negative_runs)],
             f"{negative_runs}:1: malformed row (ConfigError: t_llm must be finite and >= 0"),
            (["budget", "calibrate", "--runs", str(bool_time_runs)],
             f"{bool_time_runs}:1: malformed row (ConfigError: t_ann must be a number, got True"),
            (["budget", "calibrate", "--runs", str(bool_size_runs)],
             f"{bool_size_runs}:2: malformed row (ConfigError: memory_size must be an int, got True"),
            (["budget", "calibrate", "--runs", str(float_size_runs)],
             f"{float_size_runs}:1: malformed row (ConfigError: query_terms must be an int, got 2.5"),
            (["budget", "model", "--constants", missing], f"cannot open {missing}"),
            (build + [missing], f"cannot open {missing}"),
            (build + [str(not_object)], f"{not_object}:1: malformed row"),
            (["retrieve", "--memory", missing, "--query", "x", "--lambda-vec", "0"],
             f"cannot open {missing}"),
            (["eval", "run", "--memory", mem, "--corpus", missing], f"cannot open {missing}"),
            (["eval", "run", "--memory", missing, "--corpus", corpus], f"cannot open {missing}"),
            (["eval", "run", "--memory", mem, "--corpus", mem], f"{mem}: not UTF-8 text"),
            (eval_run + ["--config", missing], f"cannot open {missing}"),
            (eval_run + ["--weights", missing], f"cannot open {missing}"),
            (["eval", "grid", "--memory", mem, "--corpus", corpus, "--grids", missing],
             f"cannot open {missing}"),
            (["decide", "--prompt", missing, "--labels", missing, "--gold", "x"],
             f"cannot open {missing}"),
            (["decide", "--prompt", mem, "--labels", missing, "--gold", "x"],
             f"{mem}: not UTF-8 text"),
            (build + [str(no_id)], f"{no_id}:1: malformed row"),
            (["select", "--pool", str(nan_score)], f"{nan_score}:2: malformed row"),
            (["select", "--pool", str(nan_emb)], f"{nan_emb}:1: malformed row"),
            (["select", "--pool", str(dup_pool), "--K", "2", "--tau", "0"],
             f"{dup_pool}:2: malformed row (ConfigError: duplicate id 'a')"),
            (["eval", "run", "--memory", mem, "--corpus", str(dup_corpus)],
             f"{dup_corpus}:2: malformed row (ConfigError: duplicate instance id {first['id']!r})"),
            (["select", "--pool", str(huge_int)], f"{huge_int}:1: malformed row (OverflowError"),
            (["select", "--pool", str(overflow_pool), "--method", "ldra", "--K", "2", "--tau", "0"],
             "pool contains an embedding with a non-finite norm"),
            (build + [str(dup_records)],
             f"{dup_records}:2: malformed row (ConfigError: duplicate exemplar id 'a')"),
            (build + [str(mixed_dims)],
             f"{mixed_dims}:3: malformed row (IngestError: exemplar 'b' has embedding dimension 3, "
             "expected 2)"),
            (["select", "--pool", str(deep)], f"{deep}:1: malformed row (RecursionError"),
            (build + [str(bool_records)], f"{bool_records}:1: malformed row (IngestError: "
             "malformed record: expected a JSON number, got True)"),
            (build + [str(str_records)], f"{str_records}:1: malformed row (IngestError: "
             "malformed record: expected a JSON number, got '0.3')"),
            (["eval", "run", "--memory", mem, "--corpus", str(str_corpus)],
             f"{str_corpus}:2: malformed row (TypeError: expected a JSON number, got '0.3')"),
            (["retrieve", "--memory", mem, "--dialogue", str(bool_dialogue)],
             f"{bool_dialogue}:1: malformed row (TypeError: expected a JSON number, got True)"),
            (["select", "--pool", str(not_numbers["bool_score"])],
             f"{not_numbers['bool_score']}:1: malformed row (TypeError: expected a JSON number, got True)"),
            (["select", "--pool", str(not_numbers["str_score"])],
             f"{not_numbers['str_score']}:1: malformed row (TypeError: expected a JSON number, got '0.9')"),
            (["select", "--pool", str(not_numbers["bool_emb"])],
             f"{not_numbers['bool_emb']}:1: malformed row (TypeError: expected a JSON number, got True)"),
            (["select", "--pool", str(no_raw)], f"{no_raw}:1: malformed row (KeyError: 'bm25_raw')"),
            (["select", "--pool", str(mixed_pool), "--K", "2", "--tau", "0"],
             f"{mixed_pool}:2: malformed row (ConfigError: candidate 'b' has embedding dimension 3, "
             "expected 2)"),
        ]
        # Every output path: a missing directory, or a file where a directory
        # must go, fails naming the path.
        good_pool = tmp_path / "good_pool.jsonl"
        good_pool.write_text(json.dumps(row) + "\n")
        for argv in (
            ["budget", "model"],
            ["budget", "calibrate", "--runs", str(runs)],
            ["memory", "build", "--in", str(records)],
            ["retrieve", "--memory", mem, "--dialogue", dialogue],
            ["select", "--pool", str(good_pool), "--K", "1"],
            compose + [str(good_sel)],
            ["decide", "--prompt", str(good_sel), "--labels", str(good_sel), "--gold", "l"],
            eval_run,
        ):
            out = no_dir / "out.json"
            cases.append((argv + ["--out", str(out)], f"cannot write {out}: No such file"))
        cases.append((["eval", "synth", "--instances", "2", "--out", str(a_file)],
                      f"cannot write {a_file}"))
        for name in ("bad_json", "missing_key", "unknown_constant", "string_constant",
                     "bool_constant", "not_an_object"):
            cases.append((["budget", "model", "--constants", str(files[name])],
                          f"{files[name]}: malformed file"))
        # Refused as the file is read, so `eval grid` evaluates no θ first.
        for path, message in non_finite.items():
            for argv in (["budget", "model"], ["eval", "grid", "--memory", mem, "--corpus", corpus]):
                cases.append((argv + ["--constants", str(path)],
                              f"{path}: malformed file (ConfigError: {message})"))
        for name in ("unknown_nested", "unknown_top", "wrong_type", "float_for_int",
                     "null_seed", "not_an_object", "section_not_object", "bad_json"):
            cases.append((eval_run + ["--config", str(files[name])], f"{files[name]}: malformed file"))
        cases.append((eval_run + ["--config", str(files["lone_surrogate"])],
                      f"{files['lone_surrogate']}: malformed file (ValueError: lone surrogate "
                      "'\\ud800' in the string at line 2 column 25"))
        # A non-finite or out-of-range knob, or a fairness target list that is
        # empty or repeats a target, is a config error, not a crash, a silently
        # empty selection or a duplicated row.
        for name, message in (
            ("nan_mu", "mu must be finite and >= 0, got nan"),
            ("inf_mu", "mu must be finite and >= 0, got inf"),
            ("nan_tau", "tau must be finite, got nan"),
            ("nan_margin", "mock_margin must be finite and positive, got nan"),
            ("zero_margin", "mock_margin must be finite and positive, got 0.0"),
            ("nan_lambda", "lambda_mmr must be finite and in [0, 1], got nan"),
            ("big_lambda", "lambda_mmr must be finite and in [0, 1], got 5.0"),
            ("no_targets", "token_targets must not be empty"),
            ("repeated_target", "token_targets must be strictly ascending, got (300, 300)"),
        ):
            cases.append((eval_run + ["--config", str(files[name])],
                          f"{files[name]}: malformed file (ConfigError: {message})"))
        # A setting the config no longer has is refused like any unknown key.
        for name, key in (("removed_tau_c", "tau_c"),
                          ("removed_normalization", "retrieval.normalization"),
                          ("removed_prefix_replace", "fairness.prefix_replace")):
            cases.append((eval_run + ["--config", str(files[name])],
                          f"{files[name]}: malformed file (ConfigError: unknown config key {key})"))
        for name in ("not_an_object", "grid_value", "grid_key"):
            cases.append((grid + [str(files[name])], f"{files[name]}: malformed file"))
        # A grid value of the wrong type for its parameter, a non-finite one
        # or a repeated one is a config error, not a crash, a truncated K or
        # a duplicated row.
        for name, message in (
            ("inf_pool_size", "grid pool_size must be a non-empty list of distinct integers, got [inf]"),
            ("nan_k", "grid k must be a non-empty list of distinct integers, got [nan]"),
            ("float_k", "grid k must be a non-empty list of distinct integers, got [2.5]"),
            ("float_label_cap",
             "grid label_cap must be a non-empty list of distinct integers, got [1.5]"),
            ("bool_k", "grid k must be a non-empty list of distinct integers, got [True]"),
            ("nan_alpha", "grid alpha must be a non-empty list of distinct finite numbers, got [nan]"),
            ("repeated_alpha",
             "grid alpha must be a non-empty list of distinct finite numbers, got [0.5, 0.5]"),
            ("method_key", "unknown grid keys: ['method']"),
        ):
            cases.append((grid + [str(files[name])],
                          f"{files[name]}: malformed file (ConfigError: {message})"))
        for argv, message in cases:
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert message in err, (argv, err)

    def test_non_finite_and_repeated_flags_exit_one(self, workspace, capsys, tmp_path):
        """A NaN budget, a non-finite penalty, temperature or margin, an
        endpoint timeout that is not finite and positive, and a repeated sweep
        method, K or seed fail with a ConfigError (exit 1) rather than writing
        NaN or repeated rows."""
        data = ["--memory", str(workspace / "synth" / "memory.divmem"),
                "--corpus", str(workspace / "synth" / "corpus.jsonl")]
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"k": [2]}))
        prompt, labels = tmp_path / "prompt.txt", tmp_path / "labels.txt"
        prompt.write_text("hello")
        labels.write_text("a\nb\n")
        decide = ["decide", "--prompt", str(prompt), "--labels", str(labels), "--gold", "a"]

        def sweep_(methods="ldra", k_grid="2", seeds="0"):
            return ["eval", "sweep", *data, "--k-grid", k_grid, "--alpha-grid", "0.5",
                    "--methods", methods, "--seeds", seeds]

        for argv, message in (
            (["eval", "grid", *data, "--grids", str(grids), "--lambda-penalty", "nan"],
             "lambda_penalty must be finite and positive, got nan"),
            (["eval", "grid", *data, "--grids", str(grids), "--lambda-penalty", "inf"],
             "lambda_penalty must be finite and positive, got inf"),
            (["eval", "grid", *data, "--grids", str(grids), "--B", "nan"],
             "budget must be positive, got nan"),
            (decide + ["--tau-c", "nan"], "tau_c must be finite and positive, got nan"),
            # Refused before the verifier is called: the URL is never reached.
            (decide + ["--verifier", "endpoint", "--url", "http://127.0.0.1:1/", "--tau-c", "nan"],
             "tau_c must be finite and positive, got nan"),
            (decide + ["--margin", "nan"], "margin must be finite and positive, got nan"),
            (decide + ["--margin", "inf"], "margin must be finite and positive, got inf"),
            *((decide + ["--verifier", "endpoint", "--url", "http://127.0.0.1:1/",
                         "--timeout", bad], f"timeout must be finite and positive, got {got}")
              for bad, got in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0"))),
            (sweep_(methods="ldra,ldra"),
             "grid method must be a non-empty list of distinct strings, got ['ldra', 'ldra']"),
            (sweep_(k_grid="2,2"),
             "grid k must be a non-empty list of distinct integers, got [2, 2]"),
            (sweep_(seeds="0,0"),
             "sweep seeds must be a non-empty list of distinct integers, got [0, 0]"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert f"error: {message}" in err, (argv, err)
            assert "NaN" not in out, argv

    def test_decide_refuses_a_repeated_label(self, capsys, tmp_path, monkeypatch):
        """A labels file that names a label twice exits 1 naming it, before
        any verifier is built or called: the endpoint is never contacted."""
        prompt, labels = tmp_path / "prompt.txt", tmp_path / "labels.txt"
        prompt.write_text("hello")
        labels.write_text("a\n a\nb\n")
        built = []
        for name in ("mock_verifier", "EndpointVerifier"):
            monkeypatch.setattr(verifier_mod, name,
                                lambda *args, name=name, **kwargs: built.append(name))
        decide = ["decide", "--prompt", str(prompt), "--labels", str(labels)]
        for argv in (decide + ["--gold", "a"],
                     decide + ["--verifier", "endpoint", "--url", "http://127.0.0.1:1/"]):
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert f"error: label 'a' is repeated in {labels}" in err, err
            assert out == ""
        assert built == []

    def test_usage_errors_exit_one_and_help_exits_zero(self, workspace, capsys):
        corpus = str(workspace / "synth" / "corpus.jsonl")
        for argv, message in (
            (["select"], "error:"),
            (["eval", "grid", "--bogus"], "error:"),
            (["select", "--pool", "p", "--K", "x"], "error:"),
            (["eval", "run", "--corpus", corpus],
             "error: the following arguments are required: --memory"),
            (["eval", "synth", "--config", "x"], "error: unrecognized arguments: --config x"),
            (["budget", "calibrate", "--runs", "r", "--constants", "c"],
             "error: unrecognized arguments"),
            (["compose", "--dialogue", "d", "--selection", "s", "--budget", "9", "--permute", "x"],
             "error: argument --permute: invalid permute_spec value: 'x'"),
            (["eval", "sweep", "--memory", "m", "--corpus", "c", "--k-grid", "1,x"],
             "error: argument --k-grid: invalid int_list value: '1,x'"),
            (["eval", "sweep", "--memory", "m", "--corpus", "c", "--alpha-grid", "0.5,"],
             "error: argument --alpha-grid: invalid float_list value: '0.5,'"),
            (["retrieve", "--memory", "m"],
             "error: one of the arguments --query --dialogue is required"),
            (["retrieve", "--memory", "m", "--query", "q", "--dialogue", "d"],
             "error: argument --dialogue: not allowed with argument --query"),
            # The brute-force selector and the budget controller are not commands.
            (["select", "--pool", "p", "--method", "oracle"],
             "error: argument --method: invalid choice: 'oracle'"),
            (["budget", "control", "--B", "1"],
             "error: argument budget_cmd: invalid choice: 'control'"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1, argv
            err = capsys.readouterr().err
            assert message in err, argv
            assert "Traceback" not in err, argv
        with pytest.raises(SystemExit) as exc:
            main(["select", "--help"])
        assert exc.value.code == 0
