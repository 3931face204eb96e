"""Diversity-aware exemplar retrieval and selection for multi-turn intent
understanding: hybrid retrieval over a labeled memory, budgeted subset
selection balancing label coverage and linguistic variety, structured prompt
composition with exact token accounting, calibrated verifier decoding, and a
seeded evaluation harness with equal-token and position-bias fairness arms."""

from .budget import (
    CostConstants,
    LatencyReport,
    WorkloadShape,
    calibrate_constants,
    latency_percentiles,
    model_latency,
    scalarized_objective,
)
from .encoder import (
    DialogueContext,
    EncoderWeights,
    Turn,
    encode_context,
    layer_norm,
    load_weights,
    save_weights,
)
from .errors import DivselError
from .harness import (
    EvalInstance,
    ExperimentConfig,
    FairnessConfig,
    evaluate,
    fairness_suite,
    grid_search,
    read_corpus,
    run_pipeline,
    sweep,
    write_corpus,
)
from .memory import Exemplar, Memory, ingest, ingest_jsonl, load, persist, tokenize
from .prompt import (
    BudgetConfig,
    Prompt,
    compose,
    count_tokens,
)
from .retrieval import (
    Candidate,
    ExactScanIndex,
    Pool,
    RetrievalConfig,
    retrieve_pool,
    similarities,
)
from .selection import (
    SelectedSet,
    SelectionConfig,
    fps_select,
    greedy_select,
    label_diversity,
    mmr_select,
    r_score,
    random_select,
    topk_select,
)
from .synth import synth_corpus
from .verifier import (
    EndpointVerifier,
    MockVerifier,
    VerifierOutput,
    calibrate,
    candidate_labels,
    decide_from_scores,
    mock_verifier,
    score_labels,
)

__version__ = "0.1.0"
