"""IKE baseline [18] (§5, §6.1, Appendix A.1).

IKE matches patterns over single sentences and supports distributional
similarity: ``("serves coffee"~10)`` matches any of the ~10 phrases most
similar to the literal. We execute the Appendix's translated query: each
pattern extracts the NP (entity span) it brackets, results are unioned
into a relation. The two capabilities KOKO has and IKE lacks are
faithfully absent: no evidence aggregation across sentences/mentions
(one pattern hit ⇒ extract) and no excluding clause — the precision gap
of Fig. 3 follows from exactly this.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from ..koko.evaluate import sentences
from ..nlp import embeddings

# (side, phrase): side 'left' = pattern precedes the NP, 'right' = follows.
CAFE_PATTERNS: list[tuple[str, str, int]] = [
    ("left", "cafe called", 1),     # literal (no ~k)
    ("left", "cafes such as", 1),
    ("right", "sells coffee", 10),
    ("right", "serves coffee", 10),
    ("left", "coffee from", 10),
    ("left", "baristas of", 10),
    ("right", "baristas", 10),
    ("right", "barista champion", 10),
    ("left", "barista champion", 10),
    ("right", "pour-over", 10),
    ("right", "french press", 10),
    ("right", "coffee menu", 10),
    ("left", "coffee menu", 10),
]

FACILITY_PATTERNS: list[tuple[str, str, int]] = [
    ("left", "at", 1),
    ("left", "went to", 10),
    ("left", "go to", 10),
]

TEAM_PATTERNS: list[tuple[str, str, int]] = [
    ("left", "Go", 1),
    ("right", "won", 10),
]


def _expansions(phrase: str, k: int) -> list[tuple[str, ...]]:
    if k <= 1:
        return [tuple(phrase.split())]
    return [tuple(p.split()) for p, _ in embeddings.expand(phrase, k=k)]


def _occurs_in(seq: tuple[str, ...], window: list[str]) -> bool:
    it = iter(w.lower() for w in window)
    return all(any(w == x for x in it) for w in (s.lower() for s in seq))


def extract(
    tokens: DataFrame, patterns: list[tuple[str, str, int]]
) -> pd.DataFrame:
    """Run all patterns; return distinct (doc_id, entity) predictions."""
    expanded = [(side, _expansions(p, k)) for side, p, k in patterns]
    schema = T.StructType(
        [
            T.StructField("doc_id", T.LongType()),
            T.StructField("entity", T.StringType()),
        ]
    )

    def run_doc(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for sent in sentences(pdf):
            toks = sent.tokens
            for lo, hi, _, text in sent.entities:
                for side, exps in expanded:
                    # IKE patterns are (near-)adjacent sequence slots: look
                    # at a short window next to the NP, not the whole
                    # sentence.
                    window = (
                        toks[max(0, lo - 7) : lo]
                        if side == "left"
                        else toks[hi + 1 : hi + 8]
                    )
                    if any(_occurs_in(x, window) for x in exps):
                        rows.append({"doc_id": sent.doc_id, "entity": text})
                        break
        return pd.DataFrame(rows, columns=["doc_id", "entity"])

    out = tokens.groupBy("doc_id").applyInPandas(run_doc, schema=schema).toPandas()
    return out.drop_duplicates().reset_index(drop=True)
