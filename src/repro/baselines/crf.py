"""CRFsuite baseline [31] (§6.1): first-order Markov model trained with
the averaged perceptron, BIO tagging.

Features follow the paper's description: the token with its preceding and
following tokens, prefixes and suffixes up to 3 characters, and binary
regex shape features (has-digit, all-digit, capitalized, all-caps,
punctuation). Training on a fraction of the labelled docs (the paper uses
50%), Viterbi decoding, contiguous B/I spans become predicted entities.

Pure driver-side NumPy/dicts — the quality corpora are small; the point
of this baseline is the *learning-needs-data* comparison, not scale.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field

import pandas as pd

from ..koko.evaluate import Sentence, sentences

TAGS = ("O", "B", "I")
_T2I = {t: i for i, t in enumerate(TAGS)}


def features(toks: list[str], i: int) -> list[str]:
    w = toks[i]
    prev = toks[i - 1] if i > 0 else "<s>"
    nxt = toks[i + 1] if i + 1 < len(toks) else "</s>"
    f = [
        f"w={w}", f"wl={w.lower()}", f"p={prev}", f"n={nxt}",
        f"pw={prev}|{w}", f"wn={w}|{nxt}",
    ]
    for k in (1, 2, 3):
        f.append(f"pre{k}={w[:k]}")
        f.append(f"suf{k}={w[-k:]}")
    if re.search(r"\d", w):
        f.append("has_digit")
    if re.fullmatch(r"\d+", w):
        f.append("all_digit")
    if w[:1].isupper():
        f.append("cap")
    if w.isupper() and len(w) > 1:
        f.append("allcaps")
    if re.fullmatch(r"\W+", w):
        f.append("punct")
    return f


@dataclass
class PerceptronCRF:
    w: dict = field(default_factory=lambda: defaultdict(float))       # (feat, tag)
    trans: dict = field(default_factory=lambda: defaultdict(float))   # (prev, tag)
    _acc_w: dict = field(default_factory=lambda: defaultdict(float))
    _acc_t: dict = field(default_factory=lambda: defaultdict(float))
    _steps: int = 0

    def _scores(self, feats: list[str]) -> list[float]:
        return [sum(self.w[(f, t)] for f in feats) for t in TAGS]

    def viterbi(self, sent_feats: list[list[str]]) -> list[str]:
        n = len(sent_feats)
        if n == 0:
            return []
        dp = [[0.0] * len(TAGS) for _ in range(n)]
        bp = [[0] * len(TAGS) for _ in range(n)]
        em0 = self._scores(sent_feats[0])
        for j, t in enumerate(TAGS):
            dp[0][j] = em0[j] + self.trans[("<s>", t)]
            # "I" cannot start a span
            if t == "I":
                dp[0][j] -= 1e6
        for i in range(1, n):
            em = self._scores(sent_feats[i])
            for j, t in enumerate(TAGS):
                best, arg = -1e18, 0
                for k, p in enumerate(TAGS):
                    s = dp[i - 1][k] + self.trans[(p, t)]
                    if t == "I" and p == "O":
                        s -= 1e6  # O → I illegal
                    if s > best:
                        best, arg = s, k
                dp[i][j] = best + em[j]
                bp[i][j] = arg
        j = max(range(len(TAGS)), key=lambda j: dp[n - 1][j])
        out = [j]
        for i in range(n - 1, 0, -1):
            j = bp[i][j]
            out.append(j)
        return [TAGS[j] for j in reversed(out)]

    def _update(self, feats: list[str], tag: str, delta: float) -> None:
        for f in feats:
            self.w[(f, tag)] += delta
            self._acc_w[(f, tag)] += self._steps * delta

    def train(self, sents: list[tuple[list[list[str]], list[str]]], epochs: int = 5,
              seed: int = 0) -> None:
        import numpy as np
        rng = np.random.default_rng(seed)
        order = list(range(len(sents)))
        for _ in range(epochs):
            rng.shuffle(order)
            for si in order:
                feats, gold = sents[si]
                self._steps += 1
                pred = self.viterbi(feats)
                if pred == gold:
                    continue
                prev_g, prev_p = "<s>", "<s>"
                for i in range(len(gold)):
                    if pred[i] != gold[i]:
                        self._update(feats[i], gold[i], 1.0)
                        self._update(feats[i], pred[i], -1.0)
                    for key, delta in (
                        ((prev_g, gold[i]), 1.0),
                        ((prev_p, pred[i]), -1.0),
                    ):
                        self.trans[key] += delta
                        self._acc_t[key] += self._steps * delta
                    prev_g, prev_p = gold[i], pred[i]

    def average(self) -> None:
        if self._steps == 0:
            return
        for k in list(self.w):
            self.w[k] -= self._acc_w[k] / self._steps
        for k in list(self.trans):
            self.trans[k] -= self._acc_t[k] / self._steps


def _bio_of(sent: Sentence, gold_names: set[str]) -> list[str]:
    tags = ["O"] * sent.t
    for lo, hi, _, text in sent.entities:
        if text in gold_names:
            tags[lo : hi + 1] = ["B"] + ["I"] * (hi - lo)
    return tags


def train_and_predict(
    tokens_pdf: pd.DataFrame,
    gold: pd.DataFrame,
    train_frac: float = 0.5,
    epochs: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """Split docs, train on ``train_frac``, predict on the rest.

    Returns (doc_id, entity) predictions **on the held-out docs only**
    (evaluate against gold restricted to the same docs).
    """
    import numpy as np
    doc_ids = sorted(tokens_pdf.doc_id.unique())
    rng = np.random.default_rng(seed)
    rng.shuffle(doc_ids)
    n_train = int(len(doc_ids) * train_frac)
    train_docs = set(doc_ids[:n_train])
    gold_by_doc: dict[int, set[str]] = defaultdict(set)
    for doc_id, entity in zip(gold["doc_id"], gold["entity"]):
        gold_by_doc[int(doc_id)].add(entity)

    train_sents = []
    test_sents = []
    for sent in sentences(tokens_pdf):
        toks = sent.tokens
        feats = [features(toks, i) for i in range(len(toks))]
        if sent.doc_id in train_docs:
            tags = _bio_of(sent, gold_by_doc.get(sent.doc_id, set()))
            train_sents.append((feats, tags))
        else:
            test_sents.append((sent.doc_id, toks, feats))

    model = PerceptronCRF()
    model.train(train_sents, epochs=epochs, seed=seed)
    model.average()

    rows = []
    for doc_id, toks, feats in test_sents:
        tags = model.viterbi(feats)
        i = 0
        while i < len(tags):
            if tags[i] == "B":
                j = i + 1
                while j < len(tags) and tags[j] == "I":
                    j += 1
                rows.append({"doc_id": doc_id, "entity": " ".join(toks[i:j])})
                i = j
            else:
                i += 1
    return pd.DataFrame(rows, columns=["doc_id", "entity"]).drop_duplicates().reset_index(drop=True)
