import numpy as np
import pytest

from divsel.retrieval import Candidate, Pool


def unit(*coords) -> np.ndarray:
    v = np.asarray(coords, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_candidate(
    exemplar_id: str,
    label: str,
    embedding,
    vec_score: float,
    relevance: float | None = None,
    text: str | None = None,
    lex_score: float = 0.0,
) -> Candidate:
    emb = unit(*embedding)
    return Candidate(
        exemplar_id=exemplar_id,
        text=text if text is not None else f"utterance {exemplar_id}",
        label=label,
        embedding=emb,
        relevance=vec_score if relevance is None else relevance,
        vec_score=vec_score,
        lex_score=lex_score,
        bm25_raw=lex_score,
    )


def pool_of(*candidates: Candidate) -> Pool:
    """A Pool of the candidates, in order."""
    return Pool.from_candidates(candidates)


@pytest.fixture
def abc_pool():
    """Three-candidate pool: two near-duplicates of one label plus an
    orthogonal candidate of another label."""
    return pool_of(
        make_candidate("A", "x", (1.0, 0.0), 0.9),
        make_candidate("B", "x", (0.99, 0.14), 0.89),
        make_candidate("C", "y", (0.0, 1.0), 0.6),
    )


def random_pool(rng: np.random.Generator, n: int, n_labels: int, dim: int = 4) -> Pool:
    """Random candidate pool with unit embeddings and random scores."""
    pool = []
    for i in range(n):
        raw = rng.normal(size=dim)
        pool.append(
            Candidate(
                exemplar_id=f"c{i:03d}",
                text=f"text {i}",
                label=f"l{rng.integers(n_labels)}",
                embedding=raw / np.linalg.norm(raw),
                relevance=float(rng.uniform(0, 1)),
                vec_score=float(rng.uniform(-1, 1)),
                lex_score=float(rng.uniform(0, 1)),
                bm25_raw=0.0,
            )
        )
    return pool_of(*pool)
