"""Record linkage with evolution-aware knowledge-graph embeddings.

The package links records across two data sources in two learned steps:
translation-style embeddings over observed attribute-value changes, then
per-attribute weights over labeled candidate pairs. Candidate pairs are
scored with a sigmoid-calibrated match probability.
"""

from .ekg import (
    AttributeTriple,
    EvolutionKG,
    EvolutionTriple,
    build_ekg,
    sample_negatives,
)
from .candidates import Candidates
from .embed import (
    EmbedHyperparams,
    EmbeddingStore,
    ea_score,
    gradient_check,
    init_embeddings,
    train_embeddings,
)
from .errors import (
    BlockingCapError,
    ConfigError,
    DomainError,
    EvolinkError,
    LoadError,
    SchemaMismatchError,
    StageError,
    TrainingError,
    UndefinedPairError,
)
from .ingest import (
    EvolutionRule,
    LinkedPairSet,
    Record,
    RecordSet,
    Schema,
    Split,
    SynthConfig,
    TextFormat,
    ValueDictionary,
    generate_synthetic,
    load_links,
    load_records,
    partition,
    standardize,
)
from .model_io import ModelBundle, load_model, save_model
from .pipeline import (
    CandidatePair,
    ExperimentConfig,
    ExperimentResult,
    Metrics,
    block_candidates,
    evaluate,
    label_pairs,
    run_experiment,
    score_pairs,
    write_report,
)
from .weights import (
    RLHyperparams,
    WeightVector,
    classify,
    g_score,
    link_probability,
    select_threshold,
    train_weights,
)

__version__ = "0.1.0"
