"""The lazy rand-add replay against the full-permutation loop it replaces.

`harness._rand_add_pairs` replays CPython's `Random.sample(range(N), N)` draw
by draw through the private `Random._randbelow` and stops once no line can
fit. The reference below is the loop as it stood before: draw the whole
permutation with `rng.sample`, then walk all N items. Results must be
identical, pairs and the grown exclude set alike, and the token count the
walk reports must be the base plus the added lines' costs; a Python release
that changes `sample` or `_randbelow` fails here instead of silently moving
the fairness emissions.
"""

import random
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from divsel import harness
from divsel.memory import Memory
from divsel.prompt import count_tokens, render_exemplar_line


def rand_add_reference(memory, exclude_ids, base_tokens, target, seed):
    costs = [count_tokens(render_exemplar_line(t, lab)) for t, lab in zip(memory.texts, memory.labels)]
    rng = random.Random(seed)
    order = rng.sample(range(len(memory)), len(memory))
    used = base_tokens
    out = []
    for i in order:
        if memory.ids[i] in exclude_ids:
            continue
        cost = costs[i]
        if used + cost > target:
            continue
        used += cost
        exclude_ids.add(memory.ids[i])
        out.append((memory.texts[i], memory.labels[i]))
    return out


# Memory sizes: every n <= 6 (where `sample` skips its big-set table term),
# small and mid sizes, and the N=10k of the online workload.
SIZES = (1, 2, 3, 4, 5, 6, 7, 23, 200, 1000, 10_000)


@lru_cache(maxsize=None)
def memory_of(n: int) -> Memory:
    """n exemplars whose lines cost between 7 and 20 tokens, so targets near
    the base leave room for a few lines and the cheapest line stops the walk."""
    rng = np.random.default_rng(n)
    texts, labels, rows = [], [], []
    for _ in range(n):
        texts.append(" ".join(f"w{int(w)}" for w in rng.integers(0, 50, size=int(rng.integers(1, 12)))))
        emb = rng.normal(size=2)
        labels.append(f"l{int(rng.integers(0, 9))}")
        rows.append(emb / np.linalg.norm(emb))
    return Memory([f"e{i:05d}" for i in range(n)], texts, labels, np.stack(rows), k1=1.2, b=0.75)


@st.composite
def calls(draw):
    n = draw(st.sampled_from(SIZES))
    excluded = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 8)))
    base = draw(st.integers(0, 400))
    target = base + draw(st.integers(-10, 200))
    return n, {f"e{i:05d}" for i in excluded}, base, target, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(calls())
def test_replay_matches_full_permutation(call):
    n, excluded, base, target, seed = call
    memory = memory_of(n)
    lazy_excluded, full_excluded = set(excluded), set(excluded)
    got, reached = harness._rand_add_pairs(memory, lazy_excluded, base, target, seed)
    assert got == rand_add_reference(memory, full_excluded, base, target, seed)
    assert lazy_excluded == full_excluded
    assert reached == base + line_costs(got)


def line_costs(pairs):
    return sum(count_tokens(render_exemplar_line(t, l)) for t, l in pairs)


def test_replay_matches_on_fixed_seeds_at_every_small_size():
    for n in SIZES[:7]:
        for seed in range(200):
            for base, target in ((0, 10**6), (0, 20), (30, 45), (5, 5)):
                a, b = set(), set()
                got, reached = harness._rand_add_pairs(memory_of(n), a, base, target, seed)
                assert got == rand_add_reference(memory_of(n), b, base, target, seed)
                assert a == b
                assert reached == base + line_costs(got)
