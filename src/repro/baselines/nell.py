"""NELL-style bootstrapper [8, 29] (§6.1).

NELL learns extraction patterns for a category from a handful of seed
instances and conservatively keeps only patterns supported by several
seeds — great precision on frequently-mentioned entities, poor recall on
entities that occur a few times (the paper's cafes). We reproduce the
mechanism: contexts (prev-token, next-token) of seed mentions become
candidate patterns; patterns supported by ≥ ``min_support`` distinct
seeds are promoted; entities matching ≥ ``min_patterns`` promoted
patterns are extracted. Run for a couple of bootstrap rounds.
"""
from __future__ import annotations

from collections import defaultdict

import pandas as pd

from ..koko.evaluate import sentences


def _mention_contexts(tokens_pdf: pd.DataFrame) -> pd.DataFrame:
    """One row per entity mention with its (prev, next) token context."""
    rows = []
    for sent in sentences(tokens_pdf):
        toks = sent.tokens
        for lo, hi, _, text in sent.entities:
            rows.append(
                {
                    "doc_id": sent.doc_id,
                    "entity": text,
                    "prev": toks[lo - 1] if lo > 0 else "<s>",
                    "next": toks[hi + 1] if hi + 1 < len(toks) else "</s>",
                }
            )
    return pd.DataFrame(rows, columns=["doc_id", "entity", "prev", "next"])


def extract(
    tokens_pdf: pd.DataFrame,
    seeds: list[str],
    *,
    rounds: int = 2,
    min_support: int = 3,
    min_patterns: int = 2,
    min_mentions: int = 5,
) -> tuple[pd.DataFrame, list[tuple[str, str]]]:
    """→ (predictions (doc_id, entity), promoted patterns).

    ``min_mentions`` models NELL's web-scale conservatism: it only trusts
    entities it observes many times (the paper: "NELL works well on
    entities mentioned frequently on the Web, while the cafes we extract
    occur only a few times") — the cause of its ~0.05 recall.
    """
    ctx = _mention_contexts(tokens_pdf)
    mention_counts = ctx.entity.value_counts()
    mentions = list(zip(ctx["entity"], ctx["prev"], ctx["next"]))
    known = set(seeds)
    promoted: set[tuple[str, str]] = set()
    for _ in range(rounds):
        support: dict[tuple[str, str], set[str]] = defaultdict(set)
        for e, p, n in mentions:
            if e in known:
                support[(p, n)].add(e)
        promoted |= {p for p, s in support.items() if len(s) >= min_support}
        if not promoted:
            break
        hits: dict[str, set[tuple[str, str]]] = defaultdict(set)
        for e, p, n in mentions:
            if (p, n) in promoted:
                hits[e].add((p, n))
        known |= {
            e
            for e, ps in hits.items()
            if len(ps) >= min_patterns and mention_counts.get(e, 0) >= min_mentions
        }
    extracted = known - set(seeds)
    pred = (
        ctx[ctx.entity.isin(extracted)][["doc_id", "entity"]]
        .drop_duplicates()
        .reset_index(drop=True)
    )
    return pred, sorted(promoted)
