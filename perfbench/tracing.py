"""Traced run: spans and Spark counts around the calls into each layer.

Spark is lazy, so a span around a call that returns a DataFrame would
time only planning. The traced run therefore replays ``engine.run``'s
stage sequence through the public layer functions and forces each
stage's result inside its own span:

    normalize.normalize -> dpli.run + candidate count -> LoadArticle
    semi-join + count -> evaluate.evaluate_corpus + UDF-time collect ->
    aggregate.apply_clauses -> release (unpersist the stage caches)

A ``trace.collect`` span inside the replay gathers the counts the engine
does not return (candidate sids, extraction rows); it is not a stage, so
it shows up in ``trace.overhead_s`` and not in the stage self times.

Each span tags its Spark jobs with a job group and records the group's
job, stage, task and failed-task counts. The replay's results must equal
``engine.run``'s (checked by the gate), so drift between the two shows.
Spans are kept in memory and printed when the run ends; a span's self
time is its duration minus its children's.

The traced run is the same for every workload: wiki-lite set-up, then
Chocolate, Title and DateOfBirth, each warmed up, then run untraced and
replayed traced ``REPS`` times in alternating order, then the driver-side
per-sentence samples.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from pyspark.sql import functions as F

from repro.corpus import generator
from repro.indexing import koko_index
from repro.koko import aggregate, dpli, engine, evaluate, fullscan, normalize

from .gate import Gate
from .system import JobCounts, JobGroups
from .workloads import (
    ENGINE_QUERIES, corpus_size, format_timings, reference, sid_set, span_pairs, timed_run,
)

TRACE_DOCS = 300
REPS = 3
SAMPLE_SENTENCES = 200  # DateOfBirth candidates timed in the driver
SAMPLE_REPS = 3
PROBE_REPS = 10
STAGES = ("normalize", "dpli", "load_article", "evaluate", "aggregate", "release")


@dataclass
class Span:
    id: int
    trace: str
    name: str
    parent: int | None
    group: str
    start: float = 0.0
    end: float = 0.0
    counts: JobCounts = field(default_factory=JobCounts)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, groups: JobGroups):
        self.groups = groups
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._counted = 0
        self.t0 = perf_counter()

    @contextmanager
    def span(self, trace: str, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), trace, name, parent and parent.id, self.groups.open(name))
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            self.groups.set(parent and parent.group)

    def count_jobs(self) -> None:
        """Read the job counts of every span closed since the last call;
        done between replays so it is outside every span."""
        for sp in self.spans[self._counted :]:
            sp.counts = self.groups.counts(sp.group)
        self._counted = len(self.spans)

    def self_s(self, sp: Span) -> float:
        return sp.duration - sum(c.duration for c in self.spans if c.parent == sp.id)

    def dump(self) -> list[dict]:
        return [
            {
                "trace": sp.trace,
                "span": sp.id,
                "parent": sp.parent,
                "name": sp.name,
                "start_s": round(sp.start - self.t0, 6),
                "end_s": round(sp.end - self.t0, 6),
                "self_s": round(self.self_s(sp), 6),
                **vars(sp.counts),
            }
            for sp in self.spans
        ]


@dataclass
class Replay:
    root: Span
    stages: dict[str, Span]
    results: object
    cand_sids: set[int]
    tokens_loaded: int
    extraction: object  # pandas: the extraction rows handed to aggregate


def replay(tracer: Tracer, key: str, tokens, index, trace: str) -> Replay:
    """``engine.run``'s stages, each forced inside its own span; every span
    of one replay carries the trace id ``trace``."""
    stages = {}
    with tracer.span(trace, "engine") as root:
        with tracer.span(trace, "normalize") as stages["normalize"]:
            nq = normalize.normalize(ENGINE_QUERIES[key]())
        with tracer.span(trace, "dpli") as stages["dpli"]:
            cand = dpli.run(index, nq).candidate_sids
            if cand is not None:
                cand = cand.cache()
                cand.count()
            else:
                tokens.select("sid").distinct().count()
        with tracer.span(trace, "load_article") as stages["load_article"]:
            if cand is not None:
                docs = cand.select(
                    (F.col("x") / generator.SENTS_PER_DOC).cast("long").alias("doc_id")
                ).distinct()
                articles = tokens.join(docs, "doc_id", "left_semi").cache()
            else:
                articles = tokens.cache()
            n_loaded = articles.count()
        with tracer.span(trace, "evaluate") as stages["evaluate"]:
            ext = evaluate.evaluate_corpus(
                articles, nq, candidate_sids=cand, timing=True
            ).cache()
            ext.where(F.col("eval_s").isNotNull()).agg(
                F.sum("gsp_s"), F.sum("eval_s")
            ).collect()
        rows = ext.where(F.col("eval_s").isNull()).select(
            "doc_id", "sid", *evaluate.emitted_vars(nq)
        )
        with tracer.span(trace, "aggregate") as stages["aggregate"]:
            results = aggregate.apply_clauses(articles, rows, nq)
        with tracer.span(trace, "trace.collect"):  # the replay's own counts
            cand_sids = sid_set(cand, tokens)
            extraction = rows.toPandas()
        with tracer.span(trace, "release") as stages["release"]:
            for df in (ext, articles, cand):
                if df is not None:
                    df.unpersist()
    return Replay(root, stages, results, cand_sids, n_loaded, extraction)


def job_probe_s(session, groups: JobGroups) -> float:
    """Wall seconds per Spark job of a near-empty shuffle query (64 rows,
    ``shuffle_partitions`` reducers): the fixed cost that each of the
    engine's jobs pays whatever its data. Median of ``PROBE_REPS``."""
    per_job = []
    for i in range(PROBE_REPS):
        group = groups.open(f"probe.{i}")
        t0 = perf_counter()
        session.range(64).groupBy((F.col("id") % 8).alias("k")).count().collect()
        wall = perf_counter() - t0
        groups.set(None)
        per_job.append(wall / max(1, groups.counts(group).jobs))
    return median(per_job)


def shares(key: str, m: dict, job_s: float) -> str:
    """Where one query's untraced wall time goes, as shares of it."""
    wall = m[f"{key}.engine.wall_s"][0]

    def part(*names: str) -> float:
        return sum(m[f"{key}.{n}"][0] for n in names) / wall

    fixed = m[f"{key}.engine.jobs"][0] * job_s / wall
    return (
        f"  shares of engine.run wall: dpli {part('dpli.s'):.2f}, "
        f"load_article {part('load_article.s'):.2f}, "
        f"evaluate+aggregate {part('evaluate.wall_s', 'aggregate.s'):.2f}; "
        f"fixed job cost (engine.jobs x spark.job_s) {fixed:.2f}"
    )


def query_metrics(tracer, groups, gate: Gate, key: str, tokens, index) -> tuple[dict, list[str]]:
    nq = normalize.normalize(ENGINE_QUERIES[key]())
    ref = reference(tokens, nq)
    truth = sid_set(fullscan.true_sids(tokens, nq), tokens)
    engine.run(tokens, index, ENGINE_QUERIES[key]())  # warm-up

    walls, timings, replays = [], [], []
    for rep in range(REPS):
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            if traced:
                r = replay(tracer, key, tokens, index, f"{key}.{rep}")
                tracer.count_jobs()
                replays.append(r)
            else:
                res, wall, engine_counts = timed_run(groups, key, tokens, index)
                walls.append(wall)
                timings.append(res.timings)
                gate.same_rows(f"{key} engine.run", res.results, ref)
        gate.same_rows(f"{key} traced replay", replays[-1].results, res.results)

    last = replays[-1]
    wall = median(walls)
    n_cand = len(last.cand_sids)
    stage_sum = median(sum(tracer.self_s(r.stages[s]) for s in STAGES) for r in replays)
    values_scored = sum(
        len(last.extraction[["doc_id", c.var]].dropna().drop_duplicates())
        for c in nq.query.satisfying
    )

    def self_s(stage: str) -> float:
        return median(tracer.self_s(r.stages[stage]) for r in replays)

    m = {
        "normalize.s": (self_s("normalize"), "s"),
        "dpli.s": (self_s("dpli"), "s"),
        "dpli.jobs": (last.stages["dpli"].counts.jobs, "count"),
        "dpli.candidate_sentences": (n_cand, "count"),
        "dpli.precision": (len(truth & last.cand_sids) / n_cand if n_cand else 1.0, "ratio"),
        "load_article.s": (self_s("load_article"), "s"),
        "load_article.jobs": (last.stages["load_article"].counts.jobs, "count"),
        "load_article.tokens_loaded": (last.tokens_loaded, "count"),
        "evaluate.wall_s": (self_s("evaluate"), "s"),
        "evaluate.jobs": (last.stages["evaluate"].counts.jobs, "count"),
        "evaluate.rows_out": (len(last.extraction), "count"),
        "evaluate.yield": (len(last.extraction) / n_cand if n_cand else 0.0, "ratio"),
        "evaluate.udf_gsp_task_s": (median(t["GSP"] for t in timings), "s"),
        "evaluate.udf_eval_task_s": (median(t["extract"] for t in timings), "s"),
        "aggregate.s": (self_s("aggregate"), "s"),
        "aggregate.jobs": (last.stages["aggregate"].counts.jobs, "count"),
        "aggregate.values_scored": (values_scored, "count"),
        "aggregate.results": (len(last.results), "count"),
        "engine.wall_s": (wall, "s"),
        "engine.jobs": (engine_counts.jobs, "count"),
        "engine.stages": (engine_counts.stages, "count"),
        "engine.tasks": (engine_counts.tasks, "count"),
        "engine.failed_tasks": (engine_counts.failed_tasks, "count"),
        "trace.overhead_s": (median(r.root.duration for r in replays) - wall, "s"),
        "trace.stage_share": (stage_sum / wall, "ratio"),
    }
    share = stage_sum / wall
    lines = [
        f"{key}: engine.run wall {wall:.4f} s (median of {len(walls)} untraced); "
        f"stage self times sum {stage_sum:.4f} s = {share:.3f} of it "
        f"({'within' if abs(share - 1) <= 0.10 else 'NOT within'} 10%)",
        "  " + "; ".join(
            f"{s} self {self_s(s):.4f} s, {last.stages[s].counts.jobs} jobs, "
            f"{last.stages[s].counts.tasks} tasks"
            for s in STAGES
        ),
        "  RunResult.timings: " + format_timings(timings),
    ]
    return {f"{key}.{k}": v for k, v in m.items()}, lines


def driver_samples(tokens, index, seed: int) -> dict:
    """Per-sentence costs timed in the driver: ``Sentence.from_pandas``
    and ``eval_sentence`` on DateOfBirth candidates, and GSP plan time on
    SyntheticSpan pairs."""
    nq = normalize.normalize(ENGINE_QUERIES["date_of_birth"]())
    sids = sorted(sid_set(dpli.run(index, nq).candidate_sids, tokens))[:SAMPLE_SENTENCES]
    groups = [g for _, g in tokens.where(F.col("sid").isin(sids)).toPandas().groupby("sid")]
    marshal, evals = [], []
    for _ in range(SAMPLE_REPS):
        t0 = perf_counter()
        sents = [evaluate.Sentence.from_pandas(g) for g in groups]
        t1 = perf_counter()
        for s in sents:
            evaluate.eval_sentence(s, nq)
        t2 = perf_counter()
        marshal.append(t1 - t0)
        evals.append(t2 - t1)

    pairs = [p for ps in span_pairs(tokens, seed, 80, 24).values() for p in ps]
    plans = []
    for _ in range(SAMPLE_REPS):
        plans.append(sum(evaluate.eval_sentence_timed(s, nq_)[1] for _, nq_, s in pairs))
    n = len(groups)
    return {
        "evaluate.marshal_ms_per_sentence": (1e3 * median(marshal) / n, "ms"),
        "evaluate.eval_ms_per_sentence": (1e3 * median(evals) / n, "ms"),
        "gsp.plan_ms_per_sentence": (1e3 * median(plans) / len(pairs), "ms"),
    }


def run(spark, seed: int, gate: Gate) -> tuple[dict, list[str], dict]:
    groups = JobGroups(spark.sc)
    tracer = Tracer(groups)
    with tracer.span("setup", "setup"):
        with tracer.span("setup", "corpus.generate") as gen:
            tokens = generator.wiki_corpus(spark.session, TRACE_DOCS, seed=seed).cache()
            n_tokens = tokens.count()
        with tracer.span("setup", "indexing.build") as build:
            index = koko_index.build(tokens).cache()
    tracer.count_jobs()
    metrics = {
        "corpus.generate_s": (gen.duration, "s"),
        "corpus.tokens": (n_tokens, "count"),
        "indexing.build_s": (build.duration, "s"),
        "indexing.build_jobs": (build.counts.jobs, "count"),
        "indexing.word_rows": (index.word.count(), "count"),
        "indexing.pl_nodes": (index.pl_nodes.count(), "count"),
        "indexing.pos_nodes": (index.pos_nodes.count(), "count"),
    }
    job_s = job_probe_s(spark.session, groups)
    metrics["spark.job_s"] = (job_s, "s")
    lines = [
        f"traced run: wiki-lite {TRACE_DOCS} docs, {REPS} untraced/traced pairs per query",
        f"spark.job_s {job_s:.4f} s per job of a near-empty shuffle query",
    ]
    for key in ENGINE_QUERIES:
        m, ls = query_metrics(tracer, groups, gate, key, tokens, index)
        metrics.update(m)
        lines += ls + [shares(key, m, job_s)]
    metrics.update(driver_samples(tokens, index, seed))
    metrics["trace.overhead_s"] = (
        sum(metrics[f"{k}.trace.overhead_s"][0] for k in ENGINE_QUERIES),
        "s",
    )
    lines.append("spans " + json.dumps(tracer.dump()))
    return metrics, lines, corpus_size(tokens)
