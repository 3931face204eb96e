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

SELECT_METHODS = ("ldra", "topk", "mmr", "fps", "random")

GOLDEN = {
    "budget calibrate": "88194fea4d689e8a7dc85bb0273a59cb2d0421534599f2f08b9280a6d218a977",
    "budget model": "172e0d2a2755990a884bf477feb9eed9d385f2608c559dd7c6707e3fca684bf1",
    "compose": "c82cf7bfddf1e90828f4000d39cd8074d806e70f0a7a969c324da122aeb7c652",
    "decide": "c83c0d518b2d10b7152721ae1790223edeb0cebb320782fd210b679837df75b4",
    "eval fairness": "8c7930a90c3eec38a114a6a139ca524b454265baeef4dfb2fab51ec6f900dfc3",
    "eval grid": "5c390ef0962efe036e1caeec9c574ff01b466b8bfd76a8164813731bdbe8a150",
    "eval run fps": "46466cce4c97fe4531adf562e2963cb534e9714410ba6b5e787d0b1037bb768d",
    "eval run ldra": "1f5ac8ad8cb14af4a6d640c923551a2c1c2e9a8447f97d38b58a1a96e2034467",
    "eval run mmr": "728679aecc16d4e1b8b1bd4dc856044967828711846cccd9e8bcaff5f1f39438",
    "eval run random": "cf6733e40bbad472b87baa330d258d65f844dbd45fcf7a041bcfb4ec433f8a75",
    "eval run topk": "3d2bde715f2c7b2dc15fa70c699ef4417606d8a38d7eb145ca52cbddf54969fa",
    "eval run topk_rand_add": "818ab8edbfc2b9691fdd4c36fb18090c131ba089b3021e27a66c518f0860b315",
    "eval sweep": "584304431ebdc4edeea574bc5ed9ca4fde94b3a4048bcc0164199628e81e65e3",
    "retrieve": "393dda5bafce6d4b084469a862acff14f32e2af406e31319951a97cddd8ff7a2",
    "select fps": "fd36a5100354e1c764f9a1fe8e6db4556ccde9687869c4a48192aed873a52dd7",
    "select ldra": "9821efd6c639439d4956a39d2c3df6756b8956574d084f6367e8fb9ff4a4cbe0",
    "select mmr": "0a9822a414b2cad3b8b3aae58efbbed8a2b2e8dfdee26af27fb87992f0f39b39",
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

    # Every label but the gold one, so each score is the mock's noise.
    gold = corpus[0].gold
    labels = root / "labels.txt"
    labels.write_text("".join(f"{label}\n" for label in sorted(set(mem.labels) - {gold})))
    out["decide"] = _run(
        ["decide", "--prompt", prompt, "--labels", labels, "--verifier", "mock",
         "--gold", gold, "--noise-seed", "9"]
    )

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
