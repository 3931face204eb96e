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
    "compose": "c82cf7bfddf1e90828f4000d39cd8074d806e70f0a7a969c324da122aeb7c652",
    "eval fairness": "7e106d6df2b62048fa8fa28e6fbcc5c85638720095c3aaf23e4df2a9457291a0",
    "eval grid": "d2a388a4530f69f27af8e4c5ac2f0af7d239d23b9469f703a9535c3f23edbfb8",
    "eval run fps": "3d6bb592dc1d7154042534893579e8b638cc8b6f692d67aaa169fb64655c8f86",
    "eval run ldra": "d175f689284155285ccbd914d452525861b5776a15e520a9aec2e31a3c22a20f",
    "eval run mmr": "2fc81862495903293f2d91970f512d4f6adf7fe84f3930571849d717b60b165e",
    "eval run random": "a996b8c622e5430db24419277cf5e3405a56d46b077c7e2a07f65ed49d74f65d",
    "eval run topk": "07e3d52e99d1b88cbdc76bc72059ae8f8b50e320da3419e4595fb70026733f29",
    "eval run topk_rand_add": "0258abf2b33059243aff85dae58493630d8bebc3300d4fea9518486007999314",
    "eval sweep": "9ca2213e1666f0b7c3f0c5cb11a2c68366271506c894f8546d6007392023bb0f",
    "retrieve": "ccb1a8b2a0ce29dfba50c8b00288c19eaae22ab4e8358dbf95da50491b624f26",
    "select fps": "effc461407b327722eb631127cad5e0830879aca3f1760083cf6e8c2a1422ca3",
    "select ldra": "b34f7016327bd0729ae9f1c852d7ad91f6e1ce3e1e0d793918ed448160898154",
    "select mmr": "9332f973b885b29ad4f5a21307178695afd706462685f4b3e72bdcb20b8d5ca6",
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
        ["retrieve", "--memory", mem_path, "--query", dialogue, "--L", "16", "--out", pool], pool
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
    return out


def test_every_emission_is_pinned(emissions):
    assert sorted(emissions) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emission_is_byte_identical(emissions, name):
    assert _digest(emissions[name]) == GOLDEN[name]
