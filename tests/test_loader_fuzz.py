"""Loader fuzz: every file loader fails only with a DivselError.

Binary files (memory, encoder weights) are valid files with bytes flipped,
deleted, inserted or cut off, anywhere in the file or, for the memory, in its
postings sections alone; a corrupt length or dimension must be rejected before
it becomes an allocation. Text files (pool, corpus, template) are
arbitrary bytes and mutations of a valid file.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divsel.encoder import EncoderWeights, load_weights, save_weights
from divsel.errors import DivselError
from divsel.harness import read_corpus, write_corpus
from divsel.memory import ingest, load, persist
from divsel.prompt import DEFAULT_TEMPLATE, load_template
from divsel.retrieval import RetrievalConfig, read_pool, retrieve_pool, write_pool
from divsel.synth import synth_corpus

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def mutations(draw, valid: bytes, ops=("flip", "set", "delete", "insert", "cut")) -> bytes:
    """`valid` after one to four byte flips, deletions, insertions or a cut
    (those of `ops`)."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(ops))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if op == "flip" and data:
            data[pos] ^= 1 << draw(st.integers(0, 7))
        elif op == "set" and data:
            data[pos] = draw(st.sampled_from((0x00, 0xFF, 0x7F, 0x80, ord("-"), ord("9"), ord('"'))))
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        elif op == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif op == "cut":
            del data[pos:]
    return bytes(data)


def _valid_memory(tmp_path_factory) -> bytes:
    rng = np.random.default_rng(4)
    rows = [
        {"id": f"e{i}", "text": f"text {i} word{i % 3}", "label": f"l{i % 2}",
         "embedding": rng.normal(size=3).tolist()}
        for i in range(4)
    ]
    path = tmp_path_factory.mktemp("fuzz") / "valid.divmem"
    persist(ingest(rows), path)
    return path.read_bytes()


def _valid_weights(tmp_path_factory) -> bytes:
    rng = np.random.default_rng(5)
    w = EncoderWeights(*(rng.normal(size=(3, 3)) for _ in range(4)), 0.5, 1.0)
    path = tmp_path_factory.mktemp("fuzz") / "valid.divenc"
    save_weights(w, path)
    return path.read_bytes()


def _valid_text_files(tmp_path_factory) -> dict[str, bytes]:
    mem, corpus = synth_corpus(labels=3, per_label=2, ambiguity=0.5, seed=1, dim=4, instances=2)
    root = tmp_path_factory.mktemp("fuzz")
    write_corpus(corpus, root / "corpus.jsonl")
    pool = retrieve_pool(mem, np.ones(4), "word", RetrievalConfig(pool_size=3))
    write_pool(pool, root / "pool.jsonl")
    return {
        "corpus": (root / "corpus.jsonl").read_bytes(),
        "pool": (root / "pool.jsonl").read_bytes(),
        "template": DEFAULT_TEMPLATE.encode("utf-8"),
    }


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    return {
        "memory": _valid_memory(tmp_path_factory),
        "weights": _valid_weights(tmp_path_factory),
        **_valid_text_files(tmp_path_factory),
    }


LOADERS = {
    "memory": load,
    "weights": load_weights,
    "pool": read_pool,
    "corpus": read_corpus,
    "template": load_template,
}


def _only_divsel_errors(tmp_path, kind: str, blob: bytes) -> None:
    path = tmp_path / f"fuzzed.{kind}"
    path.write_bytes(blob)
    try:
        LOADERS[kind](path)
    except DivselError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_mutated_file_raises_only_divsel_errors(valid, tmp_path, kind, data):
    _only_divsel_errors(tmp_path, kind, data.draw(mutations(valid[kind])))


def _postings_start(blob: bytes) -> int:
    """The offset of a memory file's first postings byte: after the magic,
    version, header length, header and embedding matrix."""
    header_len = int.from_bytes(blob[14:22], "little")
    header = json.loads(blob[22 : 22 + header_len])
    return 22 + header_len + header["count"] * header["dim"] * 8


@FUZZ
@given(data=st.data())
def test_mutated_postings_raise_only_divsel_errors(valid, tmp_path, data):
    """Byte flips and sets in the postings sections alone (offsets, rows and
    term frequencies after the embedding matrix). They keep every length, so
    each example reaches the postings checks; the whole-file fuzz above cuts
    and resizes."""
    start = _postings_start(valid["memory"])
    tail = data.draw(mutations(valid["memory"][start:], ops=("flip", "set")))
    _only_divsel_errors(tmp_path, "memory", valid["memory"][:start] + tail)


@pytest.mark.parametrize("kind", ["pool", "corpus", "template"])
@FUZZ
@given(blob=st.binary(max_size=200))
def test_arbitrary_bytes_raise_only_divsel_errors(tmp_path, kind, blob):
    _only_divsel_errors(tmp_path, kind, blob)


@pytest.mark.parametrize("kind", ["pool", "corpus"])
@FUZZ
@given(value=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
), key=st.sampled_from(["id", "text", "label", "relevance", "vec_score", "lex_score", "bm25_raw",
                        "embedding", "turns", "current", "current_embedding", "gold", "slots"]))
def test_any_json_value_in_a_valid_row_raises_only_divsel_errors(valid, tmp_path, kind, value, key):
    row = json.loads(valid[kind].splitlines()[0])
    _only_divsel_errors(tmp_path, kind, json.dumps({**row, key: value}).encode("utf-8"))
