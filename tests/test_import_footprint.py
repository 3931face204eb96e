"""The package and its query path load no scipy module, and no urllib.request,
http, ssl or email module; only a constants fit loads scipy, through its
`nnls`, and only an endpoint verifier's call loads urllib.request.

Each check runs in a fresh interpreter: this process has imported scipy
already (the calibration tests fit constants), so `sys.modules` here says
nothing about what `import divsel` loads.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from test_budget import assert_planted, planted_samples

from divsel import harness, memory, synth
from divsel.budget import CostConstants, calibrate_constants

SRC = Path(__file__).resolve().parent.parent / "src"

QUERY_PATH = """
import json, sys
import divsel, divsel.cli
from divsel import harness, memory
from divsel.verifier import mock_verifier

mem = memory.load(sys.argv[1])
corpus = harness.read_corpus(sys.argv[2])
cfg = harness.ExperimentConfig(runs=1, fairness=harness.FairnessConfig(token_targets=(220,)))
harness.run_pipeline(corpus[0], cfg, mem, mock_verifier(corpus[0].gold, 1, 2.0))
harness.evaluate(mem, corpus, cfg, seed=0)
harness.fairness_suite(mem, corpus, cfg)
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "http", "ssl", "email") or m == "urllib.request")))
"""

FIT = """
import json, sys
from dataclasses import asdict
from divsel.budget import LatencyReport, WorkloadShape, calibrate_constants

samples = [(LatencyReport(**r), WorkloadShape(**s)) for r, s in json.load(sys.stdin)]
before = "scipy.optimize" in sys.modules
fitted = calibrate_constants(samples)
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules, "fitted": asdict(fitted)}))
"""


def _python(script: str, *args, stdin: str = "", cwd: Path) -> dict | list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        input=stdin, capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_query_path_loads_no_scipy(tmp_path):
    mem, corpus = synth.synth_corpus(labels=6, per_label=5, ambiguity=0.5, seed=3, dim=8, instances=3)
    mem_path, corpus_path = tmp_path / "memory.divmem", tmp_path / "corpus.jsonl"
    memory.persist(mem, mem_path)
    harness.write_corpus(corpus, corpus_path)
    assert _python(QUERY_PATH, mem_path, corpus_path, cwd=tmp_path) == []


def test_calibration_loads_nnls_on_first_fit(tmp_path):
    samples = planted_samples()
    payload = json.dumps([(asdict(r), asdict(s)) for r, s in samples])
    out = _python(FIT, stdin=payload, cwd=tmp_path)
    assert out["before"] is False and out["after"] is True
    fitted = CostConstants(**out["fitted"])
    assert fitted == calibrate_constants(samples)
    assert_planted(fitted)
