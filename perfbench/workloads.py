"""The benchmark's four workloads.

Each workload is driven by one closed-loop client: ``step`` issues the
next operation only after the previous one has returned. Timed regions
hold only calls into the program; Spark job counting runs outside them.
Each distinct output is kept, and the references and gate checks run
after the closed loop, so that neither is inside the window in which the
program's memory is measured.

- ``selective``: Chocolate, Title and a SyntheticTree sample through
  ``dpli.run``, on wiki-lite. DPLI, LoadArticle and per-job overhead.
- ``unselective``: DateOfBirth on wiki-lite. Per-sentence evaluation
  and evidence scoring.
- ``span_gsp``: Table 1's SyntheticSpan evaluation with GSP in the
  driver, on HappyDB-lite and wiki-lite sentences. No Spark.
- ``ingest``: a fresh wiki-lite shard per operation: index build, then
  one Title query on it.
"""
from __future__ import annotations

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from statistics import median
from time import perf_counter

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bench import synthetic_span, synthetic_tree
from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import aggregate, dpli, engine, evaluate, fullscan, normalize, queries

from .gate import Gate, row_set
from .system import JobCounts, JobGroups

SETUP_REPS = 3

ENGINE_QUERIES = {
    "chocolate": queries.chocolate,
    "title": queries.title,
    "date_of_birth": queries.date_of_birth,
}


def wiki(spark, docs: int, seed: int):
    """Generate and cache a wiki-lite corpus, build and cache its index."""
    tokens = generator.wiki_corpus(spark, docs, seed=seed).cache()
    tokens.count()
    return tokens, koko_index.build(tokens).cache()


def release(tokens: DataFrame, index: koko_index.KokoIndex | None = None) -> None:
    tokens.unpersist()
    for df in index.frames().values() if index is not None else ():
        df.unpersist()


def corpus_size(tokens: DataFrame) -> dict:
    r = tokens.agg(
        F.countDistinct("doc_id").alias("docs"),
        F.countDistinct("sid").alias("sentences"),
        F.count(F.lit(1)).alias("tokens"),
    ).collect()[0]
    return {"docs": r.docs, "sentences": r.sentences, "tokens": r.tokens}


def reference(tokens: DataFrame, nq) -> object:
    """Index-free answer: evaluate every sentence, then aggregate."""
    return aggregate.apply_clauses(tokens, evaluate.evaluate_corpus(tokens, nq), nq)


def tree_sample(tokens: DataFrame, seed: int, n: int) -> list:
    qs = synthetic_tree.benchmark(tokens, seed=seed)
    return qs[:: max(1, len(qs) // n)][:n]


def sid_set(df: DataFrame | None, tokens: DataFrame) -> set[int]:
    if df is None:  # no node variables: every sentence is a candidate
        df = tokens.select(F.col("sid").alias("x")).distinct()
    return {r.x for r in df.collect()}


def timed_run(groups: JobGroups, key: str, tokens, index) -> tuple[object, float, JobCounts]:
    """``engine.run`` of one query under its own job group:
    (RunResult, wall seconds, Spark counts read after the clock stops)."""
    group = groups.open(key)
    t0 = perf_counter()
    res = engine.run(tokens, index, ENGINE_QUERIES[key]())
    wall = perf_counter() - t0
    groups.set(None)
    return res, wall, groups.counts(group)


def format_timings(runs: list[dict]) -> str:
    """The engine's own stage timings, labelled. GSP and extract are
    task-seconds summed over UDF calls; extract_wall overlaps both; the
    engine's ``total`` double-counts and is not reported."""
    labels = {
        "Normalize": "wall s",
        "DPLI": "wall s",
        "LoadArticle": "wall s",
        "GSP": "task-s summed over UDF calls",
        "extract": "task-s summed over UDF calls",
        "extract_wall": "wall s, overlaps GSP and extract",
        "satisfying": "wall s",
    }
    return "; ".join(
        f"{k}={median(r[k] for r in runs):.4f} ({unit})" for k, unit in labels.items()
    )


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()  # operation kinds (seconds) whose medians make a cycle
    units: dict[str, str] = {}  # every sample name, kinds included

    def __init__(self, spark, seed: int):
        self.spark = spark.session
        self.groups = JobGroups(spark.sc)
        self.seed = seed
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.jobs: dict[str, JobCounts] = {}
        self.engine_timings: dict[str, list[dict]] = defaultdict(list)
        self.corpus: dict = {}
        self.n_steps = 0
        # label -> {canonical output: [output, times seen]}
        self.outputs: dict[str, dict] = defaultdict(dict)

    def set_up(self) -> None:
        """One data set-up; repeated, and the last one is kept."""

    def prepare(self) -> None:
        """Operation inputs derived from the data, made after the set-ups
        and before the memory window."""

    def warm_up(self) -> None:
        """Untimed operations run before the closed loop: every operation
        kind once. (The JVM compiles with C1 only, see ``system.Spark``, so
        the timed operations after this show no further warm-up trend.)"""

    def step(self, gate: Gate) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """References for the gate, computed after the closed loop."""

    def check_one(self, gate: Gate, label: str, output) -> None:
        raise NotImplementedError

    def keep(self, label: str, canonical, output) -> None:
        """Keep an output for checking after the loop; equal outputs once."""
        self.outputs[label].setdefault(canonical, [output, 0])[1] += 1

    def check(self, gate: Gate) -> None:
        """Gate every kept output, once per operation that produced it."""
        for label, seen in self.outputs.items():
            for output, n in seen.values():
                for _ in range(n):
                    self.check_one(gate, label, output)

    def engine_op(self, key: str, tokens, index, keep: bool = True) -> float:
        res, dt, self.jobs[key] = timed_run(self.groups, key, tokens, index)
        self.engine_timings[key].append(res.timings)
        if keep:
            self.keep(key, tuple(row_set(res.results)), res.results)
        return dt

    def metrics(self) -> dict[str, float]:
        """The workload's own named metrics: median of each kind."""
        return {k: median(v) for k, v in self.samples.items()}

    def cycle_s(self) -> float:
        m = self.metrics()
        return sum(m[k] for k in self.kinds if k in m)  # a kind whose every op failed has none


class WikiWorkload(Workload):
    docs = 0
    tokens = None

    def set_up(self) -> None:
        if self.tokens is not None:
            release(self.tokens, self.index)
        self.tokens, self.index = wiki(self.spark, self.docs, self.seed)

    def prepare(self) -> None:
        self.corpus = corpus_size(self.tokens)


class Selective(WikiWorkload):
    name = "selective"
    docs = 500
    tree_queries = 6
    kinds = ("chocolate_s", "title_s", "tree_lookup_s")
    units = {k: "s" for k in kinds}

    def prepare(self) -> None:
        super().prepare()
        self.trees = [
            (q.name, normalize.normalize(q.query()))
            for q in tree_sample(self.tokens, self.seed, self.tree_queries)
        ]

    def reference(self) -> None:
        # The references are independent Spark jobs and none is timed:
        # they run side by side, which halves this untimed tail of a run.
        with ThreadPoolExecutor(max_workers=3) as pool:
            refs = {
                k: pool.submit(
                    reference, self.tokens, normalize.normalize(ENGINE_QUERIES[k]())
                )
                for k in ("chocolate", "title")
            }
            truths = {name: pool.submit(self.truth, nq) for name, nq in self.trees}
        self.refs = {k: f.result() for k, f in refs.items()}
        self.truths = {k: f.result() for k, f in truths.items()}

    def truth(self, nq) -> set[int]:
        return sid_set(fullscan.true_sids(self.tokens, nq), self.tokens)

    def check_one(self, gate: Gate, label: str, output) -> None:
        if label in self.refs:
            gate.same_rows(label, output, self.refs[label])
        else:
            gate.covers(label, output, self.truths[label])

    def warm_up(self) -> None:
        for k in ("chocolate", "title"):
            engine.run(self.tokens, self.index, ENGINE_QUERIES[k]())
        self.tree_pass()

    def tree_pass(self) -> tuple[float, dict[str, set[int]]]:
        """Mean seconds per lookup over the sample, and each lookup's sids."""
        total, got = 0.0, {}
        for name, nq in self.trees:
            t0 = perf_counter()
            dres = dpli.run(self.index, nq)
            got[name] = sid_set(dres.candidate_sids, self.tokens)
            total += perf_counter() - t0
        return total / len(self.trees), got

    def step(self, gate: Gate) -> None:
        kind = self.kinds[self.n_steps % len(self.kinds)]
        self.n_steps += 1
        if kind == "tree_lookup_s":
            dt, got = self.tree_pass()
            for name, sids in got.items():
                self.keep(name, frozenset(sids), sids)
        else:
            dt = self.engine_op(kind[: -len("_s")], self.tokens, self.index)
        self.samples[kind].append(dt)


class Unselective(WikiWorkload):
    name = "unselective"
    docs = 300
    kinds = ("date_of_birth_s",)
    units = {"date_of_birth_s": "s"}

    def reference(self) -> None:
        nq = normalize.normalize(queries.date_of_birth())
        self.ref = reference(self.tokens, nq)

    def check_one(self, gate: Gate, label: str, output) -> None:
        gate.same_rows(label, output, self.ref)

    def warm_up(self) -> None:
        engine.run(self.tokens, self.index, queries.date_of_birth())

    def step(self, gate: Gate) -> None:
        self.n_steps += 1
        dt = self.engine_op("date_of_birth", self.tokens, self.index)
        self.samples["date_of_birth_s"].append(dt)


def span_pairs(tokens: DataFrame, seed: int, n_sentences: int, per_atoms: int):
    """Table 1's regime: (query, sentence) pairs where every non-elastic
    atom of the query has candidates in the sentence (DPLI has already
    pruned the others), ``per_atoms`` pairs for each of 1, 3 and 5 atoms."""
    first = tokens.select("sid").distinct().orderBy("sid").limit(n_sentences)
    pdf = tokens.where(F.col("sid").isin([r.sid for r in first.collect()])).toPandas()
    sents = [evaluate.Sentence.from_pandas(g) for _, g in pdf.groupby("sid")]
    out: dict[int, list] = {1: [], 3: [], 5: []}
    for q in synthetic_span.benchmark(tokens, per_setting=60, seed=seed):
        pairs = out[q.n_atoms]
        if len(pairs) >= per_atoms:
            continue
        nq = normalize.normalize(q.query())
        for s in sents:
            ev = evaluate.SentenceEvaluator(s, nq)
            if all(
                ev.atom_candidates(a)
                for sd in nq.span_defs
                for a in sd.atoms
                if not (a.kind == "elastic" and a.etype is None)
            ):
                pairs.append((f"{q.name}@{s.sid}", nq, s))
                if len(pairs) >= per_atoms:
                    break
    return out


def nogsp_cost(nq, sent) -> int:
    """Combinations the noGSP nested loop enumerates for this pair."""
    ev = evaluate.SentenceEvaluator(sent, nq, use_gsp=False)
    cost = 1
    for sd in nq.span_defs:
        for a in sd.atoms:
            cost *= max(1, len(ev.atom_candidates(a)))
    return cost


class SpanGsp(Workload):
    name = "span_gsp"
    happy_docs = 300
    wiki_docs = 40
    n_sentences = 80
    per_atoms = 24  # pairs per (corpus, atom count)
    nogsp_budget = 20_000  # combinations; above this noGSP is not run
    kinds = ("pass_s",)
    units = {"pass_s": "s", **{f"span_gsp_ms.a{n}": "ms" for n in (1, 3, 5)}}

    def set_up(self) -> None:
        self.pairs: dict[int, list] = {1: [], 3: [], 5: []}
        sizes = []
        for make, docs in (
            (generator.happy_corpus, self.happy_docs),
            (generator.wiki_corpus, self.wiki_docs),
        ):
            tokens = make(self.spark, docs, seed=self.seed).cache()
            tokens.count()
            sizes.append(corpus_size(tokens))
            for n, ps in span_pairs(tokens, self.seed, self.n_sentences, self.per_atoms).items():
                self.pairs[n] += ps
            release(tokens)
        self.corpus = {k: sum(s[k] for s in sizes) for k in sizes[0]}

    def warm_up(self) -> None:
        self.first_pass = self.gsp_pass()[1]

    def reference(self) -> None:
        # Pairs too costly for noGSP are checked against the warm-up pass.
        self.refs = {
            label: evaluate.eval_sentence(s, nq, use_gsp=False)
            if nogsp_cost(nq, s) <= self.nogsp_budget
            else self.first_pass[label]
            for ps in self.pairs.values()
            for label, nq, s in ps
        }

    def check_one(self, gate: Gate, label: str, output) -> None:
        gate.same_rows(label, output, self.refs[label])

    def gsp_pass(self) -> tuple[dict[int, float], dict[str, list]]:
        secs, rows = {}, {}
        for n, ps in self.pairs.items():
            out = []
            t0 = perf_counter()
            for _, nq, s in ps:
                out.append(evaluate.eval_sentence(s, nq, use_gsp=True))
            secs[n] = perf_counter() - t0
            rows.update((label, r) for (label, _, _), r in zip(ps, out))
        return secs, rows

    def step(self, gate: Gate) -> None:
        self.n_steps += 1
        secs, rows = self.gsp_pass()
        self.samples["pass_s"].append(sum(secs.values()))
        for n, dt in secs.items():
            self.samples[f"span_gsp_ms.a{n}"].append(1e3 * dt / len(self.pairs[n]))
        for label, r in rows.items():
            self.keep(label, tuple(row_set(r)), r)


class Ingest(Workload):
    name = "ingest"
    docs = 100
    kinds = ("index_build_s", "fresh_query_s")
    units = {k: "s" for k in (*kinds, "shard_generate_s")}
    n_shards = 0

    def shard(self) -> tuple[DataFrame, int, float]:
        """A fresh seeded shard, cached: (tokens, token count, seconds)."""
        self.n_shards += 1
        t0 = perf_counter()
        tokens = generator.wiki_corpus(
            self.spark, self.docs, seed=self.seed * 1_000_003 + self.n_shards
        ).cache()
        n = tokens.count()
        return tokens, n, perf_counter() - t0

    tokens = None

    def set_up(self) -> None:
        if self.tokens is not None:
            release(self.tokens, self.index)
        self.tokens, _, _ = self.shard()
        self.index = koko_index.build(self.tokens).cache()

    def prepare(self) -> None:
        self.corpus = corpus_size(self.tokens)

    def warm_up(self) -> None:
        engine.run(self.tokens, self.index, queries.title())
        release(self.tokens, self.index)

    def step(self, gate: Gate) -> None:
        self.n_steps += 1
        tokens, n_tokens, gen_s = self.shard()
        t0 = perf_counter()
        index = koko_index.build(tokens).cache()
        self.samples["index_build_s"].append(perf_counter() - t0)
        self.samples["fresh_query_s"].append(
            self.engine_op("title", tokens, index, keep=False)
        )
        self.samples["shard_generate_s"].append(gen_s)
        gate.equal("ingest word rows", index.word.count(), n_tokens)
        release(tokens, index)


WORKLOADS = {w.name: w for w in (Selective, Unselective, SpanGsp, Ingest)}
