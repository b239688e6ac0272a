"""The repository benchmark's four workloads, one per child process.

``run.py`` starts this file once per run:

    python3 perfbench/workloads.py --workload serve-score --seed 3 \
        --seconds 16 --trace 0 --out <record.json>

Each workload builds its inputs from the seed, sets itself up (timed as
``setup_s``), drives the public API for the measured phase, checks that
the outputs are correct, and writes one JSON record. With ``--trace 1``
the measured phase runs twice, untraced and then traced, and the record
holds the per-layer metrics instead of the end-to-end ones.

Every workload reports the same end-to-end metrics; what one
"operation" is depends on the workload (see ``README.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import harness as H  # noqa: E402
from tracer import (  # noqa: E402
    Tracer, layer_stats, render_table, span_cost, spans_payload,
)

MODEL = "minilm-base"
SERVE_DOMAINS = ("REL-HETER", "SEMI-HETER", "REL-TEXT", "GEO-HETER")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate(name: str, seed: int, **sizes):
    """One dataset of the named domain, regenerated at ``seed``."""
    from repro.data import make_generator

    generator = make_generator(name)
    config = dataclasses.replace(generator.config, seed=seed, **sizes)
    return type(generator)(config).build()


def relabel(record, prefix: str):
    """The same record under a globally unique id."""
    from repro.data import EntityRecord

    return EntityRecord(f"{prefix}{record.record_id}", record.kind,
                        record.values)


def interleave(groups, rng) -> list:
    """Shuffle each group, then take one item of each in turn.

    Every stretch of the result mixes the groups in equal shares, so the
    mix of record formats a run sees does not vary with the seed.
    """
    shuffled = [[group[int(i)] for i in rng.permutation(len(group))]
                for group in groups]
    return [item for row in zip(*shuffled) for item in row]


def load_backbone():
    from repro.lm import zoo

    return zoo.load_pretrained(MODEL)


def untrained_bundle(lm, tokenizer):
    """The serving bundle ``repro run`` exports, before training.

    Serving cost does not depend on the weights' values, so the benchmark
    skips training and serves the pre-trained backbone behind the default
    template and verbalizer.
    """
    from repro.core import PromptModel, Verbalizer, make_template
    from repro.serve import ModelBundle

    template = make_template("t2", tokenizer, max_len=96)
    model = PromptModel(lm, tokenizer, template,
                        Verbalizer.designed(tokenizer.vocab))
    model.eval()
    return ModelBundle.from_model(model, threshold=0.5, name=MODEL)


class Done:
    """An already-resolved future (synchronous operations)."""

    def __init__(self, value) -> None:
        self.value = value

    def done(self) -> bool:
        return True

    def result(self, timeout=None):
        return self.value


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def tail_ms(samples: Sequence[float]) -> float:
    found = H.tail(samples)
    return ms(found.value) if found is not None else 0.0


def chunked_tail_ms(samples: Sequence[float]) -> float:
    found = H.chunked_tail(samples)
    return ms(found.value) if found is not None else 0.0


def median_ms(samples: Sequence[float]) -> float:
    return ms(H.median(samples)) if samples else 0.0


def tail_record(samples: Sequence[float]) -> Optional[dict]:
    """The end-to-end tail with its chunking, and the plain tail."""
    chunked, plain = H.chunked_tail(samples), H.tail(samples)
    return {"chunked": chunked and dataclasses.asdict(chunked),
            "plain": plain and dataclasses.asdict(plain)}


# ----------------------------------------------------------------------
# train-row
# ----------------------------------------------------------------------
class TrainRow:
    """One Table-2 PromptEM row: SEMI-HETER, 10% labels, seed 0.

    An operation is one optimizer step. The row is the paper's own job,
    fixed at seed 0 so its F1 stays comparable across runs; the workload
    seed does not change it.
    """

    name = "train-row"
    setup_repeats = 2

    def config(self):
        from repro.core import PromptEMConfig

        # the smoke-scale row of benchmarks/_harness.py, small enough that
        # two fits fit in one run; pruning every 3 epochs so the student
        # phase prunes (at the default of 8 it would never reach a prune)
        return PromptEMConfig(teacher_epochs=5, student_epochs=6,
                              mc_passes=4, unlabeled_cap=40,
                              prune_frequency=3, seed=0, model_name=MODEL)

    def setup(self, seed: int, tracer: Optional[Tracer]):
        from repro.core import PromptEM

        with _span(tracer, "lm.load"):
            lm, tokenizer = load_backbone()
        dataset = generate("SEMI-HETER", seed=103)
        view = dataset.low_resource(seed=0)
        # a short fit runs every code path once (a prune included), so the
        # measured fits do not pay first-call and first-allocation costs
        warm = self.config().variant(teacher_epochs=1, student_epochs=3)
        PromptEM(warm, lm=lm, tokenizer=tokenizer).fit(view)
        return {"lm": lm, "tokenizer": tokenizer, "view": view}

    def teardown(self, state) -> None:
        pass

    def run(self, state, seconds: float) -> dict:
        from repro.autograd import optim
        from repro.core import PromptEM

        steps: List[float] = []
        original = optim.Optimizer.step

        def stamped(self_, *args, **kwargs):
            result = original(self_, *args, **kwargs)
            steps.append(time.perf_counter())
            return result

        # a timestamp per optimizer step: one clock read per ~10 ms step
        optim.Optimizer.step = stamped
        fits = []
        intervals: List[float] = []
        try:
            started = time.perf_counter()
            while not fits or time.perf_counter() - started < seconds:
                first = len(steps)
                t0 = time.perf_counter()
                matcher = PromptEM(self.config(), lm=state["lm"],
                                   tokenizer=state["tokenizer"])
                matcher.fit(state["view"])
                fit_s = time.perf_counter() - t0
                prf = matcher.evaluate(state["view"].test)
                wall = time.perf_counter() - t0
                probs = matcher.predict_proba(state["view"].test)
                stamps = [t0] + steps[first:]
                intervals.extend(np.diff(stamps).tolist())
                fits.append({"fit_s": fit_s, "wall_s": wall,
                             "steps": len(steps) - first, "f1": prf.f1,
                             "finite": bool(np.isfinite(probs).all())})
        finally:
            optim.Optimizer.step = original
        return {"fits": fits, "intervals": intervals}

    def verify(self, state, raw: dict, outcome: H.Outcome) -> None:
        for fit in raw["fits"]:
            outcome.ok(fit["steps"])
            outcome.gate(fit["finite"], "non-finite probabilities")

    def end_to_end(self, raw: dict) -> dict:
        steps = sum(fit["steps"] for fit in raw["fits"])
        wall = sum(fit["wall_s"] for fit in raw["fits"])
        return {"ops": steps,
                "p50_ms": median_ms(raw["intervals"]),
                "tail_ms": chunked_tail_ms(raw["intervals"]),
                "ops_per_s": steps / wall}

    def details(self, raw: dict) -> dict:
        return {"fits": raw["fits"],
                "step_tail": tail_record(raw["intervals"])}

    def layers(self, raw: dict, state) -> dict:
        return {"core.f1_pct": raw["fits"][0]["f1"],
                "core.fit_s": H.median([f["fit_s"] for f in raw["fits"]])}


# ----------------------------------------------------------------------
# serve-score
# ----------------------------------------------------------------------
class ServeScore:
    """Open-loop single-pair score requests into a threaded MatchServer.

    Half the requests repeat a 64-pair hot set (encoding-cache hits), half
    are fresh cross-product pairs (misses), over four record formats. An
    operation is one score request.
    """

    name = "serve-score"
    setup_repeats = 2
    light_rps = 60.0
    heavy_rps = 150.0
    saturation_window = 128
    hot_pairs = 64

    def setup(self, seed: int, tracer: Optional[Tracer]):
        from repro.data import CandidatePair
        from repro.serve import MatchServer, ServerConfig

        rng = np.random.default_rng(seed)
        with _span(tracer, "lm.load"):
            lm, tokenizer = load_backbone()
        hot, fresh = [], []
        for d, name in enumerate(SERVE_DOMAINS):
            dataset = generate(name, seed=1000 * seed + d)
            labeled = dataset.train + dataset.valid + dataset.test
            picks = rng.choice(len(labeled), self.hot_pairs // 4,
                               replace=False)
            hot.extend(labeled[int(i)] for i in picks)
            seen = {(p.left.record_id, p.right.record_id) for p in labeled}
            left = list(dataset.left_table)
            right = list(dataset.right_table)
            cross = [(a, b) for a in range(len(left)) for b in range(len(right))
                     if (left[a].record_id, right[b].record_id) not in seen]
            order = rng.permutation(len(cross))
            fresh.append([CandidatePair(left[cross[i][0]], right[cross[i][1]])
                          for i in order])
        # interleave the domains so every stretch of fresh pairs mixes the
        # four encoding lengths
        mixed = [pair for group in zip(*fresh) for pair in group]
        bundle = untrained_bundle(lm, tokenizer)
        server = MatchServer(bundle, ServerConfig(record_batches=True))
        server.start()
        # warm: the hot set enters the encoding cache, and the scoring
        # path runs once at every batch shape it will see
        server.score_batch(hot)
        server.score_batch(mixed[-256:])
        server.batch_log.clear()
        return {"server": server, "bundle": bundle, "hot": hot,
                "fresh": mixed[:-256],
                # separate streams: the arrival schedule and the pair picked
                # for the i-th request stay fixed whatever the timing
                "rng": np.random.default_rng(seed + 1),
                "pick_rng": np.random.default_rng(seed + 2)}

    def teardown(self, state) -> None:
        state["server"].stop(drain=False)

    def _submitter(self, state):
        """Each request: a hot-set pair or a never-seen one, half each."""
        server, rng = state["server"], state["pick_rng"]
        hot, fresh = state["hot"], state["fresh"]
        cursor = [0]

        def submit(_: int):
            if rng.random() < 0.5:
                pair = hot[int(rng.integers(len(hot)))]
            else:
                pair = fresh[cursor[0]]
                cursor[0] += 1
            return _PairFuture(server.submit(pair), pair)

        return submit

    def run(self, state, seconds: float) -> dict:
        server = state["server"]
        cache0 = server.engine.cache.counters()
        stats0 = dataclasses.replace(server.engine.stats)
        traffic = Traffic().run(self._submitter(state), self.light_rps,
                                self.heavy_rps, seconds,
                                self.saturation_window, state["rng"])
        cache1 = server.engine.cache.counters()
        stats1 = server.engine.stats
        hits = cache1["hits"] - cache0["hits"]
        misses = cache1["misses"] - cache0["misses"]
        padded = stats1.tokens_padded - stats0.tokens_padded
        real = stats1.tokens_real - stats0.tokens_real
        return {"traffic": traffic,
                "cache_hit_ratio": hits / max(hits + misses, 1),
                "padding_fraction": 1.0 - real / padded if padded else 0.0}

    def verify(self, state, raw: dict, outcome: H.Outcome) -> None:
        traffic = raw["traffic"]
        traffic.count(outcome)
        mismatched = replay_mismatches(state["server"], state["bundle"],
                                       traffic.outcomes())
        if mismatched:
            outcome.fail("replay mismatch", mismatched)

    def end_to_end(self, raw: dict) -> dict:
        return raw["traffic"].end_to_end()

    def details(self, raw: dict) -> dict:
        return raw["traffic"].summary()

    def layers(self, raw: dict, state) -> dict:
        traffic = raw["traffic"]
        responses = [r for _, r in traffic.heavy.outcomes]
        out = traffic.layers()
        out.update({
            "serve.queue_wait_ms.p50": median_ms(
                [r.queue_seconds for r in responses]),
            "serve.queue_wait_ms.tail": tail_ms(
                [r.queue_seconds for r in responses]),
            "serve.service_ms.p50": median_ms(
                [r.service_seconds for r in responses]),
            "serve.batch_size.mean": float(np.mean(
                [r.batch_size for r in responses])),
        })
        out["infer.cache.hit_ratio"] = raw["cache_hit_ratio"]
        out["infer.padding_fraction"] = raw["padding_fraction"]
        return out


class _PairFuture:
    __slots__ = ("pending", "pair")

    def __init__(self, pending, pair) -> None:
        self.pending = pending
        self.pair = pair

    def done(self) -> bool:
        return self.pending.done()

    def result(self, timeout=None):
        return self.pair, self.pending.result(timeout)


def replay_mismatches(server, bundle, served) -> int:
    """Served responses whose probabilities differ from an offline replay.

    Every logged micro-batch is re-scored offline with the server's engine
    configuration; within a batch, served and replayed rows must agree bit
    for bit, pair by pair. Responses missing from the log count too.
    """
    from repro.infer import EngineConfig, InferenceEngine

    config = server.config
    engine = InferenceEngine(EngineConfig(
        token_budget=config.token_budget,
        max_batch_pairs=config.max_batch_pairs,
        cache_capacity=config.cache_capacity))
    by_batch: Dict[int, list] = {}
    for pair, response in served:
        by_batch.setdefault(response.batch_id, []).append(
            (id(pair), response.probs.tobytes()))
    checked = 0
    bad = 0
    for entry in server.batch_log:
        got = by_batch.get(entry["batch_id"])
        if got is None:
            continue
        replayed = engine.predict_proba(bundle.model, entry["pairs"])
        want = sorted((id(pair), row.tobytes())
                      for pair, row in zip(entry["pairs"], replayed))
        checked += len(got)
        if sorted(got) != want:
            bad += len(got)
    return bad + (len(served) - checked)


def count_phase(outcome: H.Outcome, phase: H.PhaseResult) -> None:
    """Refusals and timeouts fail; an invalid phase fails all its work."""
    for reason, count in phase.failures.items():
        outcome.fail(f"{phase.name}: {reason}", count)
    if phase.offered_rps and not phase.valid:
        outcome.fail(f"{phase.name}: achieved rate below offered",
                     phase.completed)
    else:
        outcome.ok(phase.completed)


def phase_summary(phase: H.PhaseResult) -> dict:
    return {
        "name": phase.name, "offered_rps": phase.offered_rps,
        "achieved_rps": phase.achieved_rps, "valid": phase.valid,
        "completed": phase.completed, "failures": phase.failures,
        "p50_ms": median_ms(phase.latencies),
        "tail": tail_record(phase.latencies),
        "late_tail": tail_record(phase.lateness),
        "elapsed_s": phase.elapsed,
    }


@dataclass
class Load:
    """Requests sent at one open-loop rate: latencies from the due time."""

    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)


class Traffic:
    """Rounds of alternating light/heavy open loop, then saturation.

    ``latency`` selects which completed operations count toward the
    latency figures (pool-match leaves catalog writes out of them).
    """

    rounds = 2
    block_s = 1.0
    open_share = 0.5

    def __init__(self, latency: Callable[[object], bool] = lambda _: True):
        self.latency = latency
        self.light, self.heavy = Load(), Load()
        self.open_phases: List[H.PhaseResult] = []
        self.saturation: List[H.PhaseResult] = []

    def run(self, submit, light_rps: float, heavy_rps: float,
            seconds: float, window: int, rng) -> "Traffic":
        open_s = self.open_share * seconds / self.rounds
        sat_s = (1.0 - self.open_share) * seconds / self.rounds
        for r in range(self.rounds):
            due, tags = H.alternating_schedule((light_rps, heavy_rps),
                                               self.block_s, open_s, rng)
            phase = H.run_open_loop(f"open-{r}", due, open_s, submit)
            self.open_phases.append(phase)
            loads = (self.light, self.heavy)
            for i, late in enumerate(phase.lateness):
                loads[tags[i]].lateness.append(late)
            for (i, outcome), latency in zip(phase.results,
                                             phase.latencies):
                load = loads[tags[i]]
                load.outcomes.append(outcome)
                if self.latency(outcome):
                    load.latencies.append(latency)
            self.saturation.append(H.run_saturation(
                f"saturation-{r}", sat_s, window, submit))
        return self

    @property
    def phases(self) -> List[H.PhaseResult]:
        return self.open_phases + self.saturation

    def outcomes(self) -> list:
        return [outcome for phase in self.phases
                for _, outcome in phase.results]

    def count(self, outcome: H.Outcome) -> None:
        for phase in self.phases:
            count_phase(outcome, phase)

    def saturation_rate(self, units=None) -> float:
        """Work per second while the queue never ran dry: the median over
        the saturation phases' one-second windows."""
        rates = []
        for phase in self.saturation:
            counts = [1 if units is None else units(o)
                      for _, o in phase.results]
            rates.extend(H.window_rates(phase.completions, counts))
        return H.median(rates)

    def end_to_end(self) -> dict:
        return {"ops": sum(p.completed for p in self.phases),
                "p50_ms": median_ms(self.light.latencies),
                "tail_ms": chunked_tail_ms(self.heavy.latencies),
                "ops_per_s": self.saturation_rate()}

    def summary(self) -> dict:
        return {
            "phases": [phase_summary(p) for p in self.phases],
            "light": {"p50_ms": median_ms(self.light.latencies),
                      "tail": tail_record(self.light.latencies)},
            "heavy": {"p50_ms": median_ms(self.heavy.latencies),
                      "tail": tail_record(self.heavy.latencies),
                      "late_tail": tail_record(self.heavy.lateness)},
        }

    def layers(self) -> dict:
        """Load-generator health and the latencies the end-to-end set
        leaves out."""
        offered = sum(len(p.lateness) for p in self.open_phases)
        achieved = sum(p.achieved_rps * p.duration for p in self.open_phases)
        return {
            "latency.light.tail_ms": tail_ms(self.light.latencies),
            "latency.heavy.p50_ms": median_ms(self.heavy.latencies),
            "gen.late_ms.tail": tail_ms(self.heavy.lateness),
            "gen.achieved_share": achieved / offered if offered else 0.0,
        }


# ----------------------------------------------------------------------
# pool-match
# ----------------------------------------------------------------------
class PoolMatch:
    """Open-loop match queries into a 2-replica ServingPool.

    The pool serves a 2-shard sparse catalog of ~2.7k records; each query is
    a fresh left-side record (k=5), and catalog adds, re-adds under an
    existing id and removes are interleaved at a fixed share. An operation
    is one query or one write.
    """

    name = "pool-match"
    setup_repeats = 3
    light_rps = 10.0
    heavy_rps = 20.0
    saturation_window = 6
    write_share = 0.12
    k = 5

    def setup(self, seed: int, tracer: Optional[Tracer]):
        from repro.serve import ServerConfig
        from repro.serve.pool import PoolConfig, ServingPool

        rng = np.random.default_rng(seed)
        with _span(tracer, "lm.load"):
            lm, tokenizer = load_backbone()
        catalog, queries, spare = [], [], []  # queries: one list per domain
        for d, name in enumerate(SERVE_DOMAINS):
            dataset = generate(name, seed=2000 * seed + d, num_entities=600,
                               extra_right_rows=150)
            right = [relabel(r, f"{d}:") for r in dataset.right_table]
            held = int(0.1 * len(right))
            catalog.extend(right[held:])
            spare.extend(right[:held])
            queries.append([relabel(r, f"q{d}:") for r in dataset.left_table])
        queries = interleave(queries, rng)
        bundle = untrained_bundle(lm, tokenizer)
        pool = ServingPool(bundle, PoolConfig(
            replicas=2, shards=2, server=ServerConfig(record_batches=True)))
        try:
            pool.catalog_add(catalog)
            with _span(tracer, "pool.start"):
                pool.start()
            # warm both replicas' scoring and candidate paths
            for record in queries[-8:]:
                pool.match(record, k=self.k, timeout=60.0)
        except BaseException:
            pool.stop(drain=False)
            raise
        return {"pool": pool, "bundle": bundle, "catalog": catalog,
                "ops": op_stream(rng, catalog, queries[:-8], spare,
                                 self.write_share),
                "cursor": 0, "rng": np.random.default_rng(seed + 1)}

    def teardown(self, state) -> None:
        state["pool"].stop(drain=False)

    def _submitter(self, state, log: list) -> Callable[[int], object]:
        pool = state["pool"]
        ops = state["ops"]

        def submit(_: int):
            op = ops[state["cursor"]]
            state["cursor"] += 1
            log.append(op)
            kind, payload = op
            if kind == "query":
                return _OpFuture(op, pool.submit_match(payload, k=self.k))
            started = time.perf_counter()
            if kind == "add":
                pool.catalog_add([payload])
            else:
                pool.catalog_remove([payload])
            return Done((op, time.perf_counter() - started))

        return submit

    def run(self, state, seconds: float) -> dict:
        log: list = []
        traffic = Traffic(latency=_is_query).run(
            self._submitter(state, log), self.light_rps, self.heavy_rps,
            seconds, self.saturation_window, state["rng"])
        return {"traffic": traffic, "log": log}

    def verify(self, state, raw: dict, outcome: H.Outcome) -> None:
        """Candidates, model versions and replay, against references."""
        from repro.serve import ServingIndex

        traffic, log = raw["traffic"], raw["log"]
        traffic.count(outcome)
        mirror = ServingIndex(default_k=self.k)
        mirror.add_many(state["catalog"])
        answers = {id(op): result for op, result in traffic.outcomes()}
        served = []
        wrong_ids = wrong_version = 0
        for op in log:
            kind, payload = op
            if kind == "add":
                mirror.add(payload)
            elif kind == "remove":
                mirror.remove(payload)
            elif id(op) in answers:
                response = answers[id(op)]
                want = sorted(r.record_id for r, _ in
                              mirror.candidates(payload, self.k))
                got = sorted(c.record.record_id for c in response.candidates)
                wrong_ids += got != want
                versions = {c.response.model_version
                            for c in response.candidates}
                wrong_version += len(versions) > 1
                served.extend((CandidateProxy(payload, c.record), c.response)
                              for c in response.candidates)
        if wrong_ids:
            outcome.fail("candidate ids differ from mirror index", wrong_ids)
        if wrong_version:
            outcome.fail("mixed model versions in one response",
                         wrong_version)
        bad = pool_replay_mismatches(state["pool"], state["bundle"], served)
        if bad:
            outcome.fail("replay mismatch", bad)
        outcome.ok(len(served) - bad)

    def end_to_end(self, raw: dict) -> dict:
        return raw["traffic"].end_to_end()

    def details(self, raw: dict) -> dict:
        return raw["traffic"].summary()

    def layers(self, raw: dict, state) -> dict:
        traffic = raw["traffic"]
        out = traffic.layers()
        router, replicas = [], {}
        for load in (traffic.light, traffic.heavy):
            for (op, result), latency in zip(
                    [o for o in load.outcomes if o[0][0] == "query"],
                    load.latencies):
                if not result.candidates:
                    continue
                inside = max(c.response.queue_seconds
                             + c.response.service_seconds
                             for c in result.candidates)
                router.append(latency - inside)
                for c in result.candidates:
                    replicas[c.response.replica] = \
                        replicas.get(c.response.replica, 0) + 1
        writes = [result for op, result in traffic.outcomes()
                  if op[0] != "query"]
        out.update({
            "pool.router_ms.p50": median_ms(router),
            "pool.router_ms.tail": tail_ms(router),
            "pool.replica_share.max": (max(replicas.values())
                                       / sum(replicas.values())
                                       if replicas else 0.0),
            "pool.write_ms.tail": tail_ms(writes),
            "pool.pairs_per_s": traffic.saturation_rate(_pairs_of),
        })
        return out


def _is_query(outcome) -> bool:
    return outcome[0][0] == "query"


def op_stream(rng, catalog, queries, spare, write_share: float
              ) -> List[tuple]:
    """Seeded ops: one query per record of ``queries``, and writes.

    At ``write_share`` of positions a write comes instead: an add of a
    held-out ``spare`` record, a re-add of a live id with another record's
    values, or a remove of a live id.
    """
    from repro.data import EntityRecord

    live = [r.record_id for r in catalog]
    ops = []
    q = s = 0
    while q < len(queries):
        if rng.random() >= write_share:
            ops.append(("query", queries[q]))
            q += 1
            continue
        kind = int(rng.integers(3))
        if kind == 0 and s < len(spare):
            ops.append(("add", spare[s]))
            live.append(spare[s].record_id)
            s += 1
        elif kind == 1:
            rid = live[int(rng.integers(len(live)))]
            donor = catalog[int(rng.integers(len(catalog)))]
            ops.append(("add", EntityRecord(rid, donor.kind, donor.values)))
        else:
            ops.append(("remove", live.pop(int(rng.integers(len(live))))))
    return ops


class CandidateProxy:
    """A scored (query, candidate) pair rebuilt from a match response."""

    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right


class _OpFuture:
    __slots__ = ("op", "pending")

    def __init__(self, op, pending) -> None:
        self.op = op
        self.pending = pending

    def done(self) -> bool:
        return self.pending.done()

    def result(self, timeout=None):
        return self.op, self.pending.result(timeout)


def _pairs_of(outcome) -> int:
    op, result = outcome
    return len(result.candidates) if op[0] == "query" else 0


def pool_replay_mismatches(pool, bundle, served) -> int:
    """Pool responses that differ from an offline replay of their batch.

    Pairs cross process pipes, so a response is matched to its replica's
    logged batch by ``(replica, batch_id)`` and identified inside it by the
    two record ids.
    """
    from repro.infer import EngineConfig, InferenceEngine

    config = pool.config.server
    engine = InferenceEngine(EngineConfig(
        token_budget=config.token_budget,
        max_batch_pairs=config.max_batch_pairs,
        cache_capacity=config.cache_capacity))
    by_batch: Dict[tuple, list] = {}
    for pair, response in served:
        key = (response.replica, response.batch_id)
        by_batch.setdefault(key, []).append(
            (pair.left.record_id, pair.right.record_id,
             response.probs.tobytes()))
    checked = bad = 0
    for replica, entries in pool.batch_logs().items():
        for entry in entries:
            got = by_batch.get((replica, entry["batch_id"]))
            if got is None:
                continue
            replayed = engine.predict_proba(bundle.model, entry["pairs"])
            want = sorted((p.left.record_id, p.right.record_id, row.tobytes())
                          for p, row in zip(entry["pairs"], replayed))
            checked += len(got)
            if sorted(got) != want:
                bad += len(got)
    return bad + (len(served) - checked)


# ----------------------------------------------------------------------
# catalog-scale
# ----------------------------------------------------------------------
class CatalogScale:
    """One seeded query+write stream replayed against three indexes.

    Sparse ``ServingIndex``, dense ``DenseCandidateIndex`` (IVF) and
    ``ClkCandidateIndex`` each apply every operation in turn; an operation
    is one query (k=10) or write applied to all three. No model scoring.
    """

    name = "catalog-scale"
    setup_repeats = 2
    write_share = 0.2
    k = 10
    #: after every block of this many operations (~0.15 s, ~3 of them
    #: writes) the host-speed reference runs once (~5 ms)
    block_ops = 16
    domain_entities = 600
    #: queries checked against brute force (sparse, CLK) and exact dense
    #: top-k (recall); CLK's reference is the quadratic pure-Python one
    check_every = 25
    clk_checks = 3

    def setup(self, seed: int, tracer: Optional[Tracer]):
        from repro.ann.encoder import RecordEncoder
        from repro.privacy import ClkCandidateIndex, ClkEncoder
        from repro.serve import ServingIndex
        from repro.serve.dense import DenseCandidateIndex

        rng = np.random.default_rng(seed)
        with _span(tracer, "lm.load"):
            lm, tokenizer = load_backbone()
        catalog, queries, spare = [], [], []  # queries: one list per domain
        for d, name in enumerate(SERVE_DOMAINS):
            dataset = generate(name, seed=3000 * seed + d,
                               num_entities=self.domain_entities,
                               extra_right_rows=self.domain_entities // 4)
            right = [relabel(r, f"{d}:") for r in dataset.right_table]
            held = int(0.1 * len(right))
            catalog.extend(right[held:])
            spare.extend(right[:held])
            queries.append([relabel(r, f"q{d}:") for r in dataset.left_table])
        queries = interleave(queries, rng)
        sparse = ServingIndex(default_k=self.k)
        sparse.add_many(catalog)
        encoder = RecordEncoder(MODEL, lm=lm, tokenizer=tokenizer)
        dense = DenseCandidateIndex(encoder, kind="ivf", default_k=self.k,
                                    seed=seed)
        dense.add_many(catalog)
        dense.train()
        clk = ClkCandidateIndex(encoder=ClkEncoder(f"perfbench-{seed}"),
                                default_k=self.k)
        clk.add_many(catalog)
        ops = op_stream(rng, catalog, queries, spare, self.write_share)
        return {"indexes": (("sparse", sparse), ("dense", dense),
                            ("clk", clk)),
                "catalog": catalog, "ops": ops, "encoder": encoder,
                "reference": H.HostReference()}

    def teardown(self, state) -> None:
        pass

    def run(self, state, seconds: float) -> dict:
        indexes = state["indexes"]
        live = {r.record_id: r for r in state["catalog"]}
        busy = {name: 0.0 for name, _ in indexes}
        latencies: List[float] = []
        # (ops, index s, CPU s, reference s) per block
        blocks: List[Tuple[int, float, float, float]] = []
        samples = []        # (query, answers, live records at query time)
        queries = 0
        started = time.perf_counter()
        cpu_mark = time.process_time()
        for kind, payload in state["ops"]:
            if time.perf_counter() - started >= seconds:
                break
            answers = {}
            op_time = 0.0
            for name, index in indexes:
                t0 = time.perf_counter()
                if kind == "query":
                    answers[name] = index.candidates(payload, self.k)
                elif kind == "add":
                    index.add(payload)
                else:
                    index.remove(payload)
                spent = time.perf_counter() - t0
                busy[name] += spent
                op_time += spent
            latencies.append(op_time)
            if len(latencies) % self.block_ops == 0:
                cpu = time.process_time() - cpu_mark
                blocks.append((self.block_ops,
                               sum(latencies[-self.block_ops:]), cpu,
                               state["reference"].seconds()))
                cpu_mark = time.process_time()
            if kind == "add":
                live[payload.record_id] = payload
            elif kind == "remove":
                del live[payload]
            else:
                queries += 1
                if queries % self.check_every == 0:
                    samples.append((payload, answers, dict(live)))
        if not blocks:  # a run too short for one whole block
            blocks.append((len(latencies), sum(latencies),
                           time.process_time() - cpu_mark,
                           state["reference"].seconds()))
        return {"latencies": latencies, "blocks": blocks, "busy": busy,
                "samples": samples, "queries": queries}

    def verify(self, state, raw: dict, outcome: H.Outcome) -> None:
        """Sampled queries against brute force, as of their query time."""
        from repro.ann.blocker import exact_dense_topk
        from repro.privacy.blocker import exact_clk_topk

        outcome.ok(len(raw["latencies"]))
        clk = dict(state["indexes"])["clk"]
        records = {id(r): r for _, _, live in raw["samples"]
                   for r in live.values()}
        order = list(records)
        embedded = state["encoder"].encode_records(
            [records[key] for key in order])
        vectors = {key: embedded[i] for i, key in enumerate(order)}
        recalls = []
        for i, (query, answers, live) in enumerate(raw["samples"]):
            ids = sorted(live)
            outcome.gate(_ids(answers["sparse"]) ==
                         brute_sparse(query, live.values(), self.k),
                         "sparse top-k differs from brute force")
            want = exact_dense_topk(
                state["encoder"].encode_record(query),
                np.stack([vectors[id(live[rid])] for rid in ids]), ids,
                self.k)
            recalls.append(len(set(want) & set(_ids(answers["dense"])))
                           / max(len(want), 1))
            if i < self.clk_checks:
                # a filter the index still holds for the same record object
                # is the one it held at query time
                filters = np.stack([
                    clk.get_clk(rid) if clk.get(rid) is live[rid]
                    else clk.encoder.encode_record(live[rid])
                    for rid in ids])
                want = exact_clk_topk(clk.encoder.encode_record(query),
                                      filters, ids, self.k)
                outcome.gate(_ids(answers["clk"]) == want,
                             "clk top-k differs from brute force")
        raw["recalls"] = recalls

    def end_to_end(self, raw: dict) -> dict:
        """Throughput and CPU per operation at the reference host speed.

        Each block's index and CPU time is multiplied by the nominal time
        of ``H.HostReference`` over its time right after the block: host
        contention slows both alike, a change to the program only the
        block.
        """
        blocks = raw["blocks"]
        ops = sum(n for n, *_ in blocks)
        wall, cpu = H.at_reference_speed([b[1:] for b in blocks])
        return {"ops": len(raw["latencies"]),
                "p50_ms": median_ms(raw["latencies"]),
                "tail_ms": chunked_tail_ms(raw["latencies"]),
                "ops_per_s": ops / wall,
                "cpu_ms_per_op": ms(cpu) / ops}

    def details(self, raw: dict) -> dict:
        ops = len(raw["latencies"])
        return {"ops_per_s": {name: ops / spent
                              for name, spent in raw["busy"].items()},
                "whole_run_ops_per_s": ops / sum(raw["latencies"]),
                "reference_ms": median_ms([b[3] for b in raw["blocks"]]),
                "blocks": raw["blocks"],
                "tail": tail_record(raw["latencies"]),
                "queries": raw["queries"], "checks": len(raw["samples"]),
                "recall_at_k": (float(np.mean(raw["recalls"]))
                                if raw["recalls"] else None)}

    def layers(self, raw: dict, state) -> dict:
        ops = len(raw["latencies"])
        busy = raw["busy"]
        return {"serve.index.ops_per_s": ops / busy["sparse"],
                "ann.ops_per_s": ops / busy["dense"],
                "privacy.ops_per_s": ops / busy["clk"],
                "ann.recall_at_k": (float(np.mean(raw["recalls"]))
                                    if raw["recalls"] else 0.0)}


def _ids(found) -> List[str]:
    return [record.record_id for record, _ in found]


def brute_sparse(query, records, k: int) -> List[str]:
    """Top-k by overlap coefficient over every live record."""
    from repro.data.blocking import record_tokens

    tokens = record_tokens(query)
    scored = []
    for record in records:
        other = record_tokens(record)
        shared = len(tokens & other)
        if not shared:
            continue
        scored.append((shared / min(len(tokens), len(other)),
                       record.record_id))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [rid for _, rid in scored[:k]]


WORKLOADS = {w.name: w for w in (TrainRow, ServeScore, PoolMatch,
                                 CatalogScale)}


# ----------------------------------------------------------------------
# Per-layer tracing
# ----------------------------------------------------------------------
def _count_rows(args, kwargs, result) -> int:
    return int(np.asarray(result).shape[0])


def _count_found(args, kwargs, result) -> int:
    return len(result)


#: (patch target, span name, optional work-unit counter). Functions are
#: patched where their callers look them up.
TRACE_TARGETS = (
    ("repro.autograd.attention:MultiHeadAttention.forward",
     "autograd.attention"),
    ("repro.autograd.transformer:FeedForward.forward", "autograd.ffn"),
    ("repro.autograd.layers:LayerNorm.forward", "autograd.layer_norm"),
    ("repro.autograd.layers:Dropout.forward", "autograd.dropout"),
    ("repro.autograd.tensor:Tensor.backward", "autograd.backward"),
    ("repro.autograd.optim:Optimizer.step", "autograd.optim_step"),
    ("repro.core.trainer:Trainer.fit", "core.trainer_fit"),
    ("repro.core.prompt_model:PromptModel.encode_pair", "core.encode_pair"),
    ("repro.core.templates:HardTemplateT1.render", "core.template_render"),
    ("repro.core.templates:HardTemplateT2.render", "core.template_render"),
    ("repro.core.templates:ContinuousTemplate.render",
     "core.template_render"),
    ("repro.core.self_training:select_pseudo_labels", "core.pseudo_label"),
    ("repro.core.self_training:prune_dataset", "core.prune"),
    ("repro.text.tokenizer:Tokenizer.encode_pair", "text.tokenize"),
    ("repro.text.tokenizer:Tokenizer.encode", "text.tokenize"),
    ("repro.text.tokenizer:Tokenizer.tokenize", "text.tokenize"),
    ("repro.core.prompt_model:serialize", "data.serialize"),
    ("repro.ann.encoder:serialize", "data.serialize"),
    ("repro.core.prompt_model:prompt_forward_encoded", "infer.forward",
     _count_rows),
    ("repro.serve.tenants:prompt_forward_encoded", "infer.forward",
     _count_rows),
    ("repro.infer.engine:InferenceEngine._encodings", "infer.encodings"),
    ("repro.serve.server:MatchServer.process_once", "serve.scheduler"),
    ("repro.serve.pool:ServingPool.submit_match", "pool.submit"),
    ("repro.serve.pool:ServingPool.catalog_add", "pool.write"),
    ("repro.serve.pool:ServingPool.catalog_remove", "pool.write"),
    ("repro.serve.index:ServingIndex.candidates",
     "serve.index.candidates", _count_found),
    ("repro.serve.index:ServingIndex.add", "serve.index.add"),
    ("repro.serve.index:ServingIndex.remove", "serve.index.remove"),
    ("repro.ann.encoder:RecordEncoder.encode_records", "ann.encode_record"),
    ("repro.ann.index:AnnIndex.search", "ann.search"),
    ("repro.ann.index:AnnIndex.add", "ann.add"),
    ("repro.ann.index:AnnIndex.remove", "ann.remove"),
    ("repro.ann.index:IvfIndex.train", "ann.train"),
    ("repro.privacy.encoder:ClkEncoder.encode_records",
     "privacy.encode_record"),
    ("repro.privacy.encoder:ClkEncoder.encode_record",
     "privacy.encode_record"),
    ("repro.privacy.index:ClkCandidateIndex.search", "privacy.search"),
    ("repro.privacy.index:ClkCandidateIndex.add_clk", "privacy.add"),
    ("repro.privacy.index:ClkCandidateIndex.remove", "privacy.remove"),
)

#: per-layer metric -> (span name, statistic)
SPAN_METRICS = {
    "autograd.attention.self_s": ("autograd.attention", "self_s"),
    "autograd.ffn.self_s": ("autograd.ffn", "self_s"),
    "autograd.layer_norm.self_s": ("autograd.layer_norm", "self_s"),
    "autograd.dropout.self_s": ("autograd.dropout", "self_s"),
    "autograd.backward.busy_s": ("autograd.backward", "busy_s"),
    "autograd.optim_step.busy_s": ("autograd.optim_step", "busy_s"),
    "autograd.optim_step.calls": ("autograd.optim_step", "calls"),
    "core.trainer_fit.busy_s": ("core.trainer_fit", "busy_s"),
    "core.encode_pair.self_s": ("core.encode_pair", "self_s"),
    "core.template_render.self_s": ("core.template_render", "self_s"),
    "core.pseudo_label.busy_s": ("core.pseudo_label", "busy_s"),
    "core.prune.busy_s": ("core.prune", "busy_s"),
    "text.tokenize.self_s": ("text.tokenize", "self_s"),
    "data.serialize.self_s": ("data.serialize", "self_s"),
    "infer.forward.busy_s": ("infer.forward", "busy_s"),
    "infer.forward.calls": ("infer.forward", "calls"),
    "infer.encodings.busy_s": ("infer.encodings", "busy_s"),
    "pool.submit.busy_s": ("pool.submit", "busy_s"),
    "pool.write.busy_s": ("pool.write", "busy_s"),
    "serve.index.candidates.busy_s": ("serve.index.candidates", "busy_s"),
    "serve.index.candidates.calls": ("serve.index.candidates", "calls"),
    "serve.index.add.busy_s": ("serve.index.add", "busy_s"),
    "serve.index.remove.busy_s": ("serve.index.remove", "busy_s"),
    "ann.encode_record.busy_s": ("ann.encode_record", "busy_s"),
    "ann.search.busy_s": ("ann.search", "busy_s"),
    "ann.add.busy_s": ("ann.add", "busy_s"),
    "ann.remove.busy_s": ("ann.remove", "busy_s"),
    "privacy.encode_record.busy_s": ("privacy.encode_record", "busy_s"),
    "privacy.search.busy_s": ("privacy.search", "busy_s"),
    "privacy.add.busy_s": ("privacy.add", "busy_s"),
    "privacy.remove.busy_s": ("privacy.remove", "busy_s"),
}

#: spans of the set-up phase, reported apart from the measured phase
SETUP_METRICS = {
    "lm.load.busy_s": "lm.load",
    "pool.start.busy_s": "pool.start",
    "ann.train.busy_s": "ann.train",
    "setup.ann.encode_record.busy_s": "ann.encode_record",
    "setup.privacy.encode_record.busy_s": "privacy.encode_record",
}

#: metrics that only some workloads produce; 0 elsewhere
WORKLOAD_LAYER_METRICS = (
    "core.f1_pct", "core.fit_s",
    "serve.queue_wait_ms.p50", "serve.queue_wait_ms.tail",
    "serve.service_ms.p50", "serve.batch_size.mean",
    "infer.cache.hit_ratio", "infer.padding_fraction",
    "latency.light.tail_ms", "latency.heavy.p50_ms",
    "gen.late_ms.tail", "gen.achieved_share",
    "pool.router_ms.p50", "pool.router_ms.tail", "pool.replica_share.max",
    "pool.write_ms.tail", "pool.pairs_per_s",
    "serve.index.ops_per_s", "ann.ops_per_s", "privacy.ops_per_s",
    "ann.recall_at_k",
)

DERIVED_METRICS = (
    "latency.p50_ms", "latency.tail_ms", "infer.rows_per_forward", "serve.index.candidates_per_query",
    "serve.scheduler.busy_share", "trace.coverage_share",
    "trace.overhead_share", "trace.span_cost_share",
)

PER_LAYER = (tuple(SETUP_METRICS) + tuple(SPAN_METRICS)
             + WORKLOAD_LAYER_METRICS + DERIVED_METRICS)


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def span_metrics(tracer: Tracer, setup: Tuple[float, float],
                 timed: Tuple[float, float], root) -> Tuple[dict, str]:
    setup_stats = layer_stats(tracer.window(*setup))
    timed_spans = tracer.window(*timed)
    stats = layer_stats(timed_spans)
    wall = timed[1] - timed[0]
    out = {}
    for metric, name in SETUP_METRICS.items():
        row = setup_stats.get(name)
        out[metric] = row.busy_s if row else 0.0
    for metric, (name, field) in SPAN_METRICS.items():
        row = stats.get(name)
        out[metric] = float(getattr(row, field)) if row else 0.0
    forward = stats.get("infer.forward")
    out["infer.rows_per_forward"] = (forward.count / forward.calls
                                     if forward else 0.0)
    cands = stats.get("serve.index.candidates")
    out["serve.index.candidates_per_query"] = (cands.count / cands.calls
                                               if cands else 0.0)
    sched = stats.get("serve.scheduler")
    out["serve.scheduler.busy_share"] = sched.busy_s / wall if sched else 0.0
    out["trace.coverage_share"] = coverage(timed_spans, root, wall)
    return out, render_table(stats, wall)


def coverage(spans, root, wall: float) -> float:
    """Share of the measured wall time that layer spans account for.

    On each thread, the durations of the outermost layer spans are summed
    (on the benchmark's own thread these are the children of the phase's
    root span); the busiest thread's sum over the wall time is reported.
    """
    per_thread: Dict[int, float] = {}
    for span in spans:
        if span is root:
            continue
        if span.parent is None or span.parent is root:
            per_thread[span.thread] = per_thread.get(span.thread, 0.0) \
                + span.duration
    return max(per_thread.values(), default=0.0) / wall if wall > 0 else 0.0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, repeats: int,
            tracer: Optional[Tracer]) -> dict:
    """Set up ``repeats`` times (median is ``setup_s``), measure, verify."""
    setups: List[float] = []
    spans_setup = [0.0, 0.0]
    state = None
    for attempt in range(repeats):
        t0 = time.perf_counter()
        state = workload.setup(seed, tracer)
        setups.append(time.perf_counter() - t0)
        spans_setup = [t0, time.perf_counter()]
        if attempt < repeats - 1:
            workload.teardown(state)
            state = None  # freed before the next set-up, not beside it
    try:
        outcome = H.Outcome()
        cpu0 = H.tree_cpu_seconds()
        ticks0 = H.cpu_ticks()
        root = tracer.open("bench.timed") if tracer is not None else None
        t0 = time.perf_counter()
        raw = workload.run(state, seconds)
        t1 = time.perf_counter()
        if root is not None:
            tracer.close(root)
        cpu = H.tree_cpu_seconds() - cpu0
        steal = H.steal_share(ticks0, H.cpu_ticks())
        rss = H.tree_rss_peak_mb()
        workload.verify(state, raw, outcome)
        verify_s = time.perf_counter() - t1
    finally:
        workload.teardown(state)
    e2e = workload.end_to_end(raw)
    return {"setups": setups, "verify_s": verify_s, "steal_share": steal,
            "raw": raw, "e2e": e2e,
            "cpu_s": cpu, "rss_peak_mb": rss, "outcome": outcome,
            "timed": (t0, t1), "setup_window": tuple(spans_setup),
            "root": root, "state": state}


def end_to_end_metrics(result: dict) -> dict:
    e2e = result["e2e"]
    return {
        "setup_s": H.median(result["setups"]),
        "rss_peak_mb": result["rss_peak_mb"],
        "cpu_ms_per_op": e2e.get(
            "cpu_ms_per_op", ms(result["cpu_s"]) / max(e2e["ops"], 1)),
        "ops_per_s": e2e["ops_per_s"],
    }


def _exit_on_sigterm(signum, frame) -> None:
    # unwinds through the workloads' ``finally`` blocks (pool.stop)
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    record = {"fingerprint": H.fingerprint(ROOT, args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        result = measure(workload, args.seed, args.seconds,
                         workload.setup_repeats, None)
        metrics = end_to_end_metrics(result)
        outcome = result["outcome"]
        record["details"] = workload.details(result["raw"])
        record["latency"] = {"p50_ms": result["e2e"]["p50_ms"],
                             "tail_ms": result["e2e"]["tail_ms"]}
        record["setups_s"] = result["setups"]
        record["whole_run_cpu_ms_per_op"] = \
            ms(result["cpu_s"]) / max(result["e2e"]["ops"], 1)
        record["steal_share"] = result["steal_share"]
        record["verify_s"] = result["verify_s"]
    else:
        # untraced and traced passes of half the length each; the ratio of
        # their CPU per operation is the tracing overhead
        half = args.seconds / 2
        base = measure(workload, args.seed, half, 1, None)
        tracer = Tracer().install(TRACE_TARGETS)
        try:
            traced = measure(workload, args.seed, half, 1, tracer)
        finally:
            tracer.remove()
        metrics, table = span_metrics(tracer, traced["setup_window"],
                                      traced["timed"], traced["root"])
        layer_extra = workload.layers(traced["raw"], traced["state"])
        for name in WORKLOAD_LAYER_METRICS:
            metrics[name] = float(layer_extra.get(name, 0.0))
        untraced_e2e = end_to_end_metrics(base)
        traced_e2e = end_to_end_metrics(traced)
        metrics["trace.overhead_share"] = (traced_e2e["cpu_ms_per_op"]
                                           / untraced_e2e["cpu_ms_per_op"]
                                           - 1.0)
        metrics["latency.p50_ms"] = traced["e2e"]["p50_ms"]
        metrics["latency.tail_ms"] = traced["e2e"]["tail_ms"]
        t0, t1 = traced["timed"]
        metrics["trace.span_cost_share"] = (
            len(tracer.window(t0, t1)) * span_cost() / (t1 - t0))
        outcome = H.Outcome()
        for part in (base["outcome"], traced["outcome"]):
            outcome.attempted += part.attempted
            outcome.failed += part.failed
            for reason, count in part.reasons.items():
                outcome.reasons[reason] = \
                    outcome.reasons.get(reason, 0) + count
        record["layer_table"] = table
        record["untraced_end_to_end"] = untraced_e2e
        record["traced_end_to_end"] = traced_e2e
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                spans_payload(tracer.spans)))
    record.update({"metrics": metrics, "attempted": outcome.attempted,
                   "failed": outcome.failed,
                   "fail_share": outcome.share,
                   "failures": outcome.reasons})
    Path(args.out).write_text(json.dumps(record, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
