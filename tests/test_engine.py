"""End-to-end engine tests: the three §6.3 queries on a wiki-lite corpus,
stage timings, and index-pruning consistency (pruned evaluation must equal
full-scan evaluation)."""
import pytest
from pyspark.sql import functions as F

from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import aggregate, engine, evaluate, normalize, queries


@pytest.fixture(scope="module")
def wiki(spark):
    tokens = generator.wiki_corpus(spark, 120, seed=5).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


class TestChocolate:
    def test_extracts_chocolate_entities(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.chocolate())
        vals = set(res.results.c)
        # Every extraction is a "<Brand> chocolate" entity
        assert vals, "chocolate template should appear in 120 docs"
        assert all(v.endswith("chocolate") for v in vals)


class TestUnpruned:
    @pytest.mark.parametrize("name", ["chocolate", "title", "date_of_birth"])
    def test_matches_unpruned_run(self, wiki, name):
        """Index-pruned results equal index-free evaluation of every sentence."""
        tokens, index = wiki
        q = getattr(queries, name)()
        pruned = engine.run(tokens, index, q).results
        nq = normalize.normalize(q)
        full = aggregate.apply_clauses(
            tokens, evaluate.evaluate_corpus(tokens, nq), nq
        )
        key = lambda df: sorted(map(tuple, df.values.tolist()))
        assert key(pruned) == key(full)


class TestTitle:
    def test_person_nickname_pairs(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.title())
        assert len(res.results) > 0
        for _, r in res.results.iterrows():
            assert len(r.a.split()) == 2   # First Last
            assert len(r.b.split()) == 1   # nickname subtree

    def test_selectivity_medium(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.title())
        frac = res.results.doc_id.nunique() / 120
        assert 0.02 < frac < 0.35


class TestDateOfBirth:
    def test_person_date_pairs(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        assert len(res.results) > 0
        years = res.results.b.astype(str)
        assert years.str.fullmatch(r"\d{4}").all()

    def test_selectivity_high(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        assert res.results.doc_id.nunique() / 120 > 0.6

    def test_satisfying_filters_nonborn_verbs(self, wiki):
        """Sentences with Person+Date but no born-like verb must not emit."""
        tokens, index = wiki
        res = engine.run(tokens, index, queries.date_of_birth())
        out_sids = set()
        nq = normalize.normalize(queries.date_of_birth())
        ext = evaluate.evaluate_corpus(tokens, nq).toPandas()
        born_docs = {
            r.doc_id
            for r in tokens.where(F.col("token") == "born").select("doc_id").distinct().collect()
        }
        assert set(res.results.doc_id) <= born_docs


class TestTimings:
    def test_all_stages_present(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.chocolate())
        for k in ("Normalize", "DPLI", "LoadArticle", "GSP", "extract", "satisfying"):
            assert k in res.timings
            assert res.timings[k] >= 0.0

    def test_candidates_counted(self, wiki):
        tokens, index = wiki
        res = engine.run(tokens, index, queries.chocolate())
        n_sents = tokens.select("sid").distinct().count()
        assert 0 < res.n_candidate_sentences < n_sents
