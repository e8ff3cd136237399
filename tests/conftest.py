import numpy as np
import pytest
from hypothesis import settings

from evolink.ekg import build_ekg
from evolink.ingest import LinkedPairSet, Record, RecordSet, Schema, ValueDictionary

# ``pytest --hypothesis-profile=deep``: five times Hypothesis's default number
# of examples for every property that does not set its own
settings.register_profile("deep", max_examples=500)


@pytest.fixture
def civil_toy():
    """Three-value toy graph: one attribute, transitions single->married->widowed."""
    schema = Schema(("civil_status",))
    dictionary = ValueDictionary(1)
    s = dictionary.intern(0, "single")
    m = dictionary.intern(0, "married")
    w = dictionary.intern(0, "widowed")
    records_a = RecordSet(
        schema, dictionary, (Record(0, {0: s}), Record(1, {0: m}))
    )
    records_b = RecordSet(
        schema, dictionary, (Record(10, {0: m}), Record(11, {0: w}))
    )
    links = LinkedPairSet(((0, 10), (1, 11)), "train")
    kg = build_ekg(records_a, records_b, links)
    return {
        "schema": schema,
        "dictionary": dictionary,
        "ids": {"s": s, "m": m, "w": w},
        "records_a": records_a,
        "records_b": records_b,
        "links": links,
        "kg": kg,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(42)
