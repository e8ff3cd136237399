"""Record linkage with evolution-aware knowledge-graph embeddings.

The package links records across two data sources in two learned steps:
translation-style embeddings over observed attribute-value changes, then
per-attribute weights over labeled candidate pairs. Candidate pairs are
scored with a sigmoid-calibrated match probability.

Each exported name is imported from its module on first use (PEP 562), so
that a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
EXPORTS = {
    "candidates": (
        "CandidatePair", "Candidates", "Metrics", "block_candidates", "classify", "evaluate",
        "label_pairs",
    ),
    "ekg": ("AttributeTriple", "EvolutionKG", "EvolutionTriple", "build_ekg", "sample_negatives"),
    "embed": (
        "EmbedHyperparams", "EmbeddingStore", "ea_score", "gradient_check", "init_embeddings",
        "train_embeddings",
    ),
    "errors": (
        "BlockingCapError", "ConfigError", "DomainError", "EvolinkError", "LoadError",
        "SchemaMismatchError", "StageError", "TrainingError", "UndefinedPairError",
    ),
    "idfiles": ("LinkedPairSet", "TextFormat", "load_links", "standardize"),
    "ingest": (
        "Record", "RecordSet", "Schema", "Split", "ValueDictionary", "load_records", "partition",
    ),
    "model_io": ("ModelBundle", "load_model", "save_model"),
    "pipeline": ("ExperimentConfig", "ExperimentResult", "run_experiment", "write_report"),
    "scoring": ("score_pairs",),
    "synth": ("EvolutionRule", "SynthConfig", "generate_synthetic"),
    "weights": (
        "RLHyperparams", "WeightVector", "g_score", "link_probability",
        "select_threshold", "train_weights",
    ),
}
_HOME = {name: module for module, names in EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
