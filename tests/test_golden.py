"""Golden emissions: SHA-256 of every deterministic CLI product on a small
seeded synthetic corpus.

The digests guard refactors of the pipeline stages: a change that keeps the
behaviour keeps every emission byte-identical. They assume the same numpy
floating-point results, so a different BLAS build may move the last bits of a
score and with them a digest.
"""

import contextlib
import hashlib
import io
import json

import pytest

from divsel import harness, memory, synth
from divsel.cli import main

SELECT_METHODS = ("ldra", "topk", "mmr", "fps", "random", "oracle")

GOLDEN = {
    "budget calibrate": "88194fea4d689e8a7dc85bb0273a59cb2d0421534599f2f08b9280a6d218a977",
    "budget control": "9a0fcf6263833b7205637b4e10c5e7b3f5bc12070a2dc04e8baa59f65669f61e",
    "budget model": "172e0d2a2755990a884bf477feb9eed9d385f2608c559dd7c6707e3fca684bf1",
    "compose": "c82cf7bfddf1e90828f4000d39cd8074d806e70f0a7a969c324da122aeb7c652",
    "eval fairness": "7e106d6df2b62048fa8fa28e6fbcc5c85638720095c3aaf23e4df2a9457291a0",
    "eval grid": "d2a388a4530f69f27af8e4c5ac2f0af7d239d23b9469f703a9535c3f23edbfb8",
    "eval run fps": "bf1b7792080fc374270d5af9daa680283bcecd5e042ad5e4276abc3ce2e77f83",
    "eval run ldra": "09b5db11779f2b3df57230c9a99fd7f891cc45dbb8050819f3b8e298879cc705",
    "eval run mmr": "1145c14e97815552441797c194e868eb0b58508c123b11633e16d84cf2a0ba4d",
    "eval run random": "3e71e615307d5e7a8ab32a17199a71ac8f0e21fd1c4514ac1858ba5ea980fddd",
    "eval run topk": "ccffcc1d3c803e0e35df9783726144c82933499d63c4ccd3ab67e9ffdcf92bb2",
    "eval run topk_rand_add": "82743486f4cdb44a079d67493df2bc3c3551c85c2920724b93a1025c1c9d4a30",
    "eval sweep": "c797169692a5ff499e142dad64f1d84f0e7d8b1ed652bfb20d6257ae345c936e",
    "retrieve": "ccb1a8b2a0ce29dfba50c8b00288c19eaae22ab4e8358dbf95da50491b624f26",
    "select fps": "fd36a5100354e1c764f9a1fe8e6db4556ccde9687869c4a48192aed873a52dd7",
    "select ldra": "4f4b30b320f19fe8d5e974338ef450fd7e6ea7b7039e3e33fa9989d41b2a4548",
    "select mmr": "0a9822a414b2cad3b8b3aae58efbbed8a2b2e8dfdee26af27fb87992f0f39b39",
    "select oracle": "3e4abdfd050e94001b0d830d3df669ce2afc2b0e5bf96d091b8fdee6495850df",
    "select random": "433ce1df3f8187da7c2d2a3254b1c5804278b218d9c84bc34565d624648d2cac",
    "select topk": "b3be77a60694c2af241e8d3d264e1b309bb18404a6b53f8bb3cc65d28da6a8ce",
}


def _run(argv, out=None) -> bytes:
    """Run the CLI; return its stdout, or the --out file when one is given."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    assert code == 0
    return out.read_bytes() if out is not None else buf.getvalue().encode("utf-8")


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def emissions(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    mem, corpus = synth.synth_corpus(
        labels=8, per_label=6, ambiguity=0.6, seed=5, dim=16, instances=10
    )
    mem_path, corpus_path = root / "memory.divmem", root / "corpus.jsonl"
    memory.persist(mem, mem_path)
    harness.write_corpus(corpus, corpus_path)
    data = ["--memory", mem_path, "--corpus", corpus_path]
    out: dict[str, bytes] = {}

    for method in harness.METHODS:
        cfg = root / f"{method}.json"
        cfg.write_text(json.dumps({"method": method, "runs": 2}))
        dest = root / f"run_{method}.jsonl"
        out[f"eval run {method}"] = _run(["eval", "run", *data, "--config", cfg, "--out", dest], dest)

    dest = root / "fairness.jsonl"
    out["eval fairness"] = _run(["eval", "fairness", *data, "--out", dest], dest)

    dest = root / "sweep.jsonl"
    out["eval sweep"] = _run(
        ["eval", "sweep", *data, "--k-grid", "2,4", "--alpha-grid", "0,0.5",
         "--methods", "ldra,topk,random", "--seeds", "0,1", "--out", dest],
        dest,
    )

    grids = root / "grids.json"
    grids.write_text(json.dumps({"pool_size": [16, 32], "lambda_vec": [0.4, 0.8], "k": [3, 5]}))
    dest = root / "grid.jsonl"
    out["eval grid"] = _run(["eval", "grid", *data, "--grids", grids, "--out", dest], dest)

    dialogue = root / "dialogue.json"
    dialogue.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    pool = root / "pool.jsonl"
    out["retrieve"] = _run(
        ["retrieve", "--memory", mem_path, "--dialogue", dialogue, "--L", "16", "--out", pool], pool
    )

    for method in SELECT_METHODS:
        sel = root / f"sel_{method}.jsonl"
        argv = ["select", "--pool", pool, "--method", method, "--K", "4", "--out", sel]
        if method == "random":
            argv += ["--seed", "3"]
        out[f"select {method}"] = _run(argv, None) + sel.read_bytes()

    prompt = root / "prompt.txt"
    out["compose"] = _run(
        ["compose", "--dialogue", dialogue, "--selection", root / "sel_ldra.jsonl",
         "--budget", "310", "--permute", "5", "--out", prompt],
        None,
    ) + prompt.read_bytes()

    out["budget model"] = _run(
        ["budget", "model", "--N", 5000, "--terms", 12, "--L", 64, "--K", 5,
         "--turns", 3, "--prompt-tokens", 280, "--gen-tokens", 6]
    )
    runs = root / "runs.jsonl"
    runs.write_text("".join(json.dumps(row) + "\n" for row in _calibration_rows()))
    constants = root / "constants.json"
    out["budget calibrate"] = _run(
        ["budget", "calibrate", "--runs", runs, "--out", constants], None
    ) + constants.read_bytes()
    constants.write_text(json.dumps({
        "c_ann": 1e-4, "c_bm25": 2e-5, "c_sim": 1e-4, "c_delta": 3e-5,
        "c_sum": 1e-4, "c_fmt": 5e-5, "r_tok": 1e9,
    }))
    out["budget control"] = _run(
        ["budget", "control", "--constants", constants, "--L", 128, "--K", 6, "--B", 0.05]
    )
    return out


def _calibration_rows():
    """Measured stage times and sizes for `budget calibrate`: a fixed, slightly
    noisy set, so the fit is not an exact recovery."""
    rows = []
    for i in range(12):
        row = {"N": 400 * (i + 1), "terms": 3 + i % 7, "L": 16 * (1 + i % 5), "K": 2 + i % 4,
               "turns": i % 3, "prompt_tokens": 120 + 37 * i, "gen_tokens": 4 + i % 5}
        jitter = 1.0 + 0.03 * ((7 * i) % 5 - 2)
        row["t_ann"] = jitter * (2e-4 * (i + 1) ** 0.5 + 3e-5 * row["terms"])
        row["t_div"] = jitter * (1e-6 * row["L"] * row["K"] + 5e-6 * row["K"])
        row["t_prompt"] = jitter * (7e-4 * row["turns"] + 2e-4 * row["K"])
        row["t_llm"] = jitter * (row["prompt_tokens"] + row["gen_tokens"]) / 80.0
        rows.append(row)
    return rows


def test_every_emission_is_pinned(emissions):
    assert sorted(emissions) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emission_is_byte_identical(emissions, name):
    assert _digest(emissions[name]) == GOLDEN[name]


SYNTH_GOLDEN = {
    "stdout": "13e51297ff0eb3352f4f4d056cb5e24f76f4024bd0b823815f1baf11f4482f37",
    "corpus.jsonl": "9e99f1799187262334f3f00b872ad586c8e144d5524c8ca0d765c289caba84ee",
    "memory.divmem": "9301917be075024557e50c5b0a5aa0eec481e5d5702a00b9797398a66b63f53e",
}


def test_eval_synth_is_byte_identical(tmp_path, monkeypatch):
    """`eval synth` writes the corpus and memory files every other emission
    reads; a relative --out keeps the paths in its stdout row stable."""
    monkeypatch.chdir(tmp_path)
    stdout = _run(["eval", "synth", "--labels", 8, "--per-label", 6, "--ambiguity", 0.6,
                   "--dim", 16, "--instances", 10, "--seed", 5, "--out", "synth"])
    digests = {"stdout": _digest(stdout)}
    for name in ("corpus.jsonl", "memory.divmem"):
        digests[name] = _digest((tmp_path / "synth" / name).read_bytes())
    assert digests == SYNTH_GOLDEN
