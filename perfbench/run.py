"""Serving-scale benchmark of the EmbeddingIndex lifecycle (build -> save -> open -> serve).

Usage (from the repository root)::

    python3 perfbench/run.py --workload novel --seed 1 --seconds 20 --trace 0

Each run generates its workload from ``--seed``, sets the index up
``N_SETUPS`` times (``setup_s`` is the median), serves one closed-loop
client for ``--seconds`` seconds split across the serving paths, checks
every answer, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public layer entry points with spans (see ``spans.py``) and
reports the per-layer metrics instead.  Every result is also written, with
its environment stamp, to ``--results`` for ``compare.py``.  The command
exits non-zero when any check fails.  See ``README.md`` for the workloads
and the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

K = 10
P = 100
#: Queries per ``query_many``, ``stream`` and ``planned`` call.
BATCH = 50
N_SETUPS = 2
MIN_QUERY_SAMPLES = 1000
#: Every SAMPLE_EVERY-th query of each timed path keeps its answer for the
#: reference check that follows the windows.
SAMPLE_EVERY = 50
#: Share of ``--seconds`` each serving path is busy for.  A ``stream`` call
#: of 50 new queries takes about 5 s on ``novel`` and ``remote``; its share
#: buys two of them, so that ``stream_qps`` is not one call's luck.
SHARES = {"stream": 0.35, "planned": 0.15, "query": 0.25, "query_many": 0.25}
#: The paths each serving phase interleaves.  ``stream`` is served first: it
#: ships the grown query universe on every submit, so its cost must not
#: depend on how many queries the faster paths managed to register.
PHASES = (("stream", "planned"), ("query", "query_many"))
#: Paths that ``remote`` serves over the sockets; the planner runs in process.
SOCKET_OPS = ("query", "query_many")

#: The database, the trained model, the planner's calibration probes, the
#: warm-up queries and the recall sample are the same in every run, so that
#: runs with different ``--seed`` set up and measure the same index; the seed
#: draws the query traffic (hot set, oracle queries and the timed queries).
INDEX_SEED = 0
RECALL = slice(0, 30)
PROBES = slice(30, 36)
WARMUP = slice(36, 40)
N_FIXED_QUERIES = 40
# Positions in the seed's traffic; timed ops draw disjoint slices from FRESH on.
HOT = slice(0, 60)
ORACLE = slice(60, 68)
STREAM_ORACLE = slice(68, 76)
PLANNED_ORACLE = slice(76, 84)
FRESH = 84
FRESH_SLICES = {"stream": 400, "planned": 1200, "query_many": 3000, "query": 4000}

N_DATABASE = 10_000
#: Light training: database embedding, not boosting, dominates the build.
TRAINING = dict(
    n_candidates=100, n_training_objects=100, n_rounds=8, classifiers_per_round=20
)



def metric_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results",
        type=Path,
        default=OUT / "runs",
        help="directory each run's result record is written to (for compare.py)",
    )
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Keep every file the library writes (temp files, compiled kernels) in ``out/``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {ROOT / 'src'}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_KERNEL_CACHE"] = str(OUT / "kernels")
    sys.path.insert(0, str(ROOT / "src"))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------------- #
# Inputs and ground truth                                                     #
# --------------------------------------------------------------------------- #


@dataclass
class Inputs:
    name: str
    seed: int
    database: Any
    fixed: List[Any]
    traffic: List[Any]

    def fresh(self, op: str) -> List[Any]:
        start = FRESH
        for name, count in FRESH_SLICES.items():
            if name == op:
                return self.traffic[start : start + count]
            start += count
        raise KeyError(op)


def make_inputs(name: str, seed: int) -> Inputs:
    """Variants of one fixed set of 16 seed patterns (length 64, 1-D)."""
    import numpy as np

    from repro.datasets.base import Dataset
    from repro.datasets.timeseries import TimeSeriesGenerator

    generator = TimeSeriesGenerator(n_seeds=16, length=64, n_dims=1)
    patterns = generator.seeds(np.random.default_rng(INDEX_SEED))

    def draw(count: int, rng: Any) -> Dataset:
        labels = rng.integers(0, len(patterns), size=count)
        series = [generator.variant(patterns[label], rng) for label in labels]
        return Dataset(objects=series, labels=labels.astype(int), name="timeseries")

    database = draw(N_DATABASE, np.random.default_rng([INDEX_SEED, 0]))
    fixed = draw(N_FIXED_QUERIES, np.random.default_rng([INDEX_SEED, 1]))
    traffic = draw(FRESH + sum(FRESH_SLICES.values()), np.random.default_rng([1, seed]))
    return Inputs(name, seed, database, list(fixed), list(traffic))


def ground_truth(inputs: Inputs) -> List[List[int]]:
    """Exact 10-NN of the recall sample under the raw measure, cached per input."""
    import numpy as np

    from repro.distances.dtw import ConstrainedDTW

    sample = inputs.fixed[RECALL]
    digest = hashlib.sha256()
    for obj in list(inputs.database) + sample:
        digest.update(np.ascontiguousarray(obj, dtype=float).tobytes())
    path = OUT / "ground_truth" / f"{digest.hexdigest()[:24]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    measure = ConstrainedDTW()
    objects = list(inputs.database)
    truth = []
    for query in sample:
        distances = np.asarray(measure.compute_many(query, objects))
        truth.append([int(i) for i in np.argsort(distances, kind="stable")[:K]])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(truth))
    return truth


def recall(results: Sequence[Any], truth: Sequence[Sequence[int]]) -> float:
    hits = sum(
        len(set(int(i) for i in r.neighbor_indices[:K]) & set(t))
        for r, t in zip(results, truth)
    )
    return hits / (K * len(truth))


# --------------------------------------------------------------------------- #
# Correctness checks                                                          #
# --------------------------------------------------------------------------- #


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def result_ok(result: Any, p: int, warm: bool) -> bool:
    """Shape checks every served answer must pass."""
    import numpy as np

    distances = np.asarray(result.neighbor_distances)
    return (
        not getattr(result, "partial", False)
        and len(result.neighbor_indices) == K
        and len(set(int(i) for i in result.neighbor_indices)) == K
        and bool(np.all(np.isfinite(distances)))
        and bool(np.all(np.diff(distances) >= 0))
        and result.embedding_distance_computations > 0
        and 0 <= result.refine_distance_computations <= p
        and (not warm or result.refine_distance_computations == 0)
    )


def same_answer(a: Any, b: Any) -> bool:
    """Bit-identical neighbors, distances, tie order and per-query evaluations."""
    import numpy as np

    return (
        np.array_equal(a.neighbor_indices, b.neighbor_indices)
        and np.array_equal(a.neighbor_distances, b.neighbor_distances)
        and a.embedding_distance_computations == b.embedding_distance_computations
        and a.refine_distance_computations == b.refine_distance_computations
    )


def check_distances(
    tally: Tally, label: str, inputs: Inputs, queries: Sequence[Any], results: Sequence[Any]
) -> None:
    """Every returned distance must be the raw measure's distance to that neighbor.

    The reference is recomputed with the numpy kernel, independently of the
    backend, the store and the serving path that produced the answer.
    """
    import numpy as np

    from repro.distances.dtw import ConstrainedDTW

    measure = ConstrainedDTW(kernel="numpy")
    tally.attempted += len(results)
    for position, (query, result) in enumerate(zip(queries, results)):
        if result is None:
            tally.fail(1, f"reference: {label} has no answer at query {position}")
            continue
        neighbors = [inputs.database[int(i)] for i in result.neighbor_indices]
        expected = measure.compute_many(query, neighbors)
        if not np.allclose(result.neighbor_distances, expected, rtol=1e-9, atol=1e-12):
            tally.fail(1, f"reference: {label} returned wrong distances at query {position}")


def compare_paths(
    tally: Tally, label: str, reference: Sequence[Any], other: Sequence[Any]
) -> None:
    tally.attempted += len(reference)
    for position, (a, b) in enumerate(zip(reference, other)):
        if b is None or not same_answer(a, b):
            tally.fail(1, f"oracle: {label} differs at query {position}")


def drain_stream(index: Any, objects: Sequence[Any], p: Optional[int]) -> List[Any]:
    """``stream(order="completion")`` results, put back in input order."""
    from repro.exceptions import ServingError

    results: List[Any] = [None] * len(objects)
    for position, result in index.stream(objects, K, p, order="completion"):
        results[position] = None if isinstance(result, ServingError) else result
    return results


# --------------------------------------------------------------------------- #
# Set-up                                                                      #
# --------------------------------------------------------------------------- #


@dataclass
class Session:
    index: Any = None
    artifact: Optional[Path] = None
    cluster: Any = None
    #: ``remote``: a second index opened over the artifact and pointed at the
    #: cluster; it serves :data:`SOCKET_OPS`.
    remote_index: Any = None
    remote_backend: Any = None

    def index_for(self, op: str) -> Any:
        if self.remote_index is not None and op in SOCKET_OPS:
            return self.remote_index
        return self.index

    def close(self) -> None:
        try:
            if self.remote_backend is not None:
                self.remote_backend.close()
            if self.remote_index is not None:
                self.remote_index.close()
            if self.index is not None:
                self.index.close()
        finally:
            if self.cluster is not None:
                self.cluster.stop()
            if self.artifact is not None:
                shutil.rmtree(self.artifact.parent, ignore_errors=True)


@contextlib.contextmanager
def closed_on_error(session: Session):
    try:
        yield session
    except BaseException:
        session.close()
        raise


def n_jobs() -> int:
    return len(os.sched_getaffinity(0))


def build(inputs: Inputs, **config: Any) -> Any:
    from repro.core.trainer import TrainingConfig
    from repro.distances.dtw import ConstrainedDTW
    from repro.index import EmbeddingIndex, IndexConfig

    training = TrainingConfig(kmax=K, seed=INDEX_SEED, **TRAINING)
    index_config = IndexConfig(training=training, n_jobs=n_jobs(), **config)
    return EmbeddingIndex.build(ConstrainedDTW(), inputs.database, index_config)


def make_planned(index: Any, inputs: Inputs) -> None:
    index.enable_planner()
    index.calibrate_planner(inputs.fixed[PROBES], k_max=K)


def artifact_dir(inputs: Inputs, number: int) -> Path:
    directory = OUT / "tmp" / f"{inputs.name}-{inputs.seed}-{os.getpid()}-{number}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory / "index"


def setup_local(inputs: Inputs, number: int, tracer: Any) -> Session:
    """``novel``: build, warm the pool, calibrate the planner."""
    with closed_on_error(Session(build(inputs))) as session:
        session.index.query_many(inputs.fixed[WARMUP], K, P)
        make_planned(session.index, inputs)
    return session


def setup_repeat(inputs: Inputs, number: int, tracer: Any) -> Session:
    """Serve the hot set once, then save -> open; the reopened index serves."""
    from repro.index import EmbeddingIndex

    built = build(inputs)
    try:
        make_planned(built, inputs)
        hot = inputs.traffic[HOT]
        built.query_many(hot, K, P)
        built.query_many(hot, K, None)
        artifact = artifact_dir(inputs, number)
        built.save(artifact)
    finally:
        built.close()
    with closed_on_error(Session(artifact=artifact)) as session:
        session.index = EmbeddingIndex.open(artifact, inputs.database)
        make_planned(session.index, inputs)
        session.index.query_many(inputs.fixed[WARMUP], K, P)
    return session


def setup_remote(inputs: Inputs, number: int, tracer: Any) -> Session:
    """Build a 2-shard index, save it, start a LocalCluster, open the artifact twice.

    One opened index serves ``stream`` and ``planned`` in process; the other
    is pointed at the cluster and serves :data:`SOCKET_OPS`.
    """
    from repro.index import EmbeddingIndex
    from repro.remote import LocalCluster, use_remote_backend

    built = build(inputs, backend="sharded", n_shards=2)
    try:
        artifact = artifact_dir(inputs, number)
        # Uncompressed, so the shard servers can memory-map the store.
        built.save(artifact, compress_store=False)
    finally:
        built.close()
    with closed_on_error(Session(artifact=artifact)) as session:
        with tracer.span("bench.cluster_start") if tracer else contextlib.nullcontext():
            session.cluster = LocalCluster(artifact, inputs.database, n_shards=2)
        session.index = EmbeddingIndex.open(artifact, inputs.database)
        session.index.query_many(inputs.fixed[WARMUP], K, P)
        make_planned(session.index, inputs)
        session.remote_index = EmbeddingIndex.open(
            artifact, inputs.database, pool=session.index.pool
        )
        session.remote_backend = use_remote_backend(
            session.remote_index, session.cluster.addresses
        )
        session.remote_index.query_many(inputs.fixed[WARMUP], K, P)
    return session


SETUP: Dict[str, Callable[[Inputs, int, Any], Session]] = {
    "novel": setup_local,
    "repeat": setup_repeat,
    "remote": setup_remote,
}


# --------------------------------------------------------------------------- #
# Timed windows                                                               #
# --------------------------------------------------------------------------- #


@dataclass
class Window:
    """One serving path's share of the run: busy time, answers, per-call latency."""

    served: int = 0
    seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    # Running sums instead of the answers themselves: thousands of kept
    # results would grow the heap and lengthen the collector's pauses.
    answers: int = 0
    evals: int = 0
    planned_p: int = 0
    early_exits: int = 0
    #: Growth of the index's own ``distance_evaluations`` counter over the calls.
    context_evals: int = 0
    #: (query, answer) pairs kept for :func:`check_distances`.
    samples: List[Any] = field(default_factory=list)

    def add(self, result: Any) -> None:
        self.answers += 1
        self.evals += result.total_distance_computations
        stats = result.stats or {}
        self.planned_p += int(stats.get("planned_p", 0))
        self.early_exits += bool(stats.get("early_exit"))

    @property
    def qps(self) -> float:
        return per(self.served, self.seconds)


def serve(
    session: Session,
    inputs: Inputs,
    ops: Sequence[str],
    seconds: float,
    tally: Tally,
    tracer: Any,
    min_query_samples: int = MIN_QUERY_SAMPLES,
) -> Dict[str, Window]:
    """One closed-loop client interleaving the paths ``ops`` call by call.

    Each path gets ``SHARES[op] * seconds`` of busy time; the next call
    always goes to the path furthest behind its share, so every path is
    measured across the whole phase rather than in one slice of it (the
    machine's speed drifts over seconds).  Throughput is answers over the
    path's own busy time.
    """
    warm = inputs.name == "repeat"
    fixed = lambda r: result_ok(r, P, warm)  # noqa: E731
    planned = lambda r: result_ok(r, len(inputs.database), warm)  # noqa: E731
    calls = {
        "query": (lambda i, b: [i.query(b[0], K, P)], 1, fixed),
        "query_many": (lambda i, b: i.query_many(b, K, P), BATCH, fixed),
        "stream": (lambda i, b: drain_stream(i, b, P), BATCH, fixed),
        "planned": (lambda i, b: i.query_many(b, K, None), BATCH, planned),
    }
    queries = {
        op: inputs.traffic[HOT] * 400 if warm else inputs.fresh(op) for op in ops
    }
    offsets = dict.fromkeys(ops, 0)
    minimum = {op: min_query_samples if op == "query" else 0 for op in ops}
    windows = {op: Window() for op in ops}

    def behind(op: str) -> bool:
        window = windows[op]
        return offsets[op] < len(queries[op]) and (
            window.seconds < SHARES[op] * seconds or window.served < minimum[op]
        )

    number = 0
    while True:
        pending = [op for op in ops if behind(op)]
        if not pending:
            return windows
        op = min(pending, key=lambda o: windows[o].seconds / SHARES[o])
        call, chunk, check = calls[op]
        index = session.index_for(op)
        start = offsets[op]
        batch = list(queries[op][start : start + chunk])
        offsets[op] += chunk
        tally.attempted += len(batch)
        if tracer is not None:
            tracer.request = f"{op}:{number}"
        number += 1
        span = tracer.span(f"op.{op}") if tracer is not None else contextlib.nullcontext()
        evaluations = index.distance_evaluations
        began = time.perf_counter()
        try:
            with span:
                results = call(index, batch)
        except Exception:  # an op that raises is a failed op; keep serving
            tally.fail(len(batch), f"{op}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            elapsed = time.perf_counter() - began
            windows[op].seconds += elapsed
            windows[op].context_evals += index.distance_evaluations - evaluations
            if tracer is not None:
                tracer.request = None
        windows[op].latencies.append(elapsed)
        for position, (query, result) in enumerate(zip(batch, results), start):
            if result is None or not check(result):
                tally.fail(1, f"{op}: answer failed the result check")
                continue
            windows[op].add(result)
            if position % SAMPLE_EVERY == 0:
                windows[op].samples.append((query, result))
        windows[op].served += len(batch)


# --------------------------------------------------------------------------- #
# One run                                                                     #
# --------------------------------------------------------------------------- #


@contextlib.contextmanager
def paused(tracer: Any):
    """Keep correctness checks and bookkeeping out of the trace."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def artifact_mb(directory: Path) -> float:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file()) / 1e6


def saved_size(session: Session, inputs: Inputs) -> float:
    """Size of the set-up index's artifact; indexes set up without one are saved here."""
    if session.artifact is not None:
        return artifact_mb(session.artifact)
    directory = artifact_dir(inputs, N_SETUPS)
    try:
        session.index.save(directory)
        return artifact_mb(directory)
    finally:
        shutil.rmtree(directory.parent, ignore_errors=True)


def run(inputs: Inputs, seconds: float, tracer: Any) -> Dict[str, Any]:
    """Set up ``N_SETUPS`` times, serve, check; return measurements and counts.

    The first set-up's index is still cold when the timed part of the run
    starts, so it serves the oracle queries through one set of paths; the
    serving index answers the same queries through the other paths after
    the windows close, and the two must agree bit for bit.
    """
    name = inputs.name
    truth = ground_truth(inputs)
    tally = Tally()
    oracle, streamed, planned_oracle = (
        inputs.traffic[ORACLE], inputs.traffic[STREAM_ORACLE], inputs.traffic[PLANNED_ORACLE]
    )
    setup_times: List[float] = []
    seen: Dict[str, List[Any]] = {}
    session = None
    try:
        for number in range(N_SETUPS):
            span = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
            began = time.perf_counter()
            with span:
                session = SETUP[name](inputs, number, tracer)
            setup_times.append(time.perf_counter() - began)
            if number == N_SETUPS - 1:
                break
            with paused(tracer):
                oracle_first_index(session, inputs, seen, tally)
                session.close()
                session = None
                # Free the closed index now, so that it does not count
                # towards the next set-up's peak memory.
                gc.collect()

        measured: Dict[str, Any] = {"setup_times": setup_times}
        index = session.index
        with paused(tracer):
            measured["artifact_mb"] = saved_size(session, inputs)
        first, second = PHASES
        windows = serve(session, inputs, first, seconds, tally, tracer)
        with paused(tracer):
            planned_recall = index.query_many(inputs.fixed[RECALL], K, None)
        if name == "remote":
            before = session.remote_backend.health()
        # A remote query takes about 52 ms, too slow for 1000 samples; 100
        # still leave ten beyond p90.
        minimum = 100 if name == "remote" else MIN_QUERY_SAMPLES
        windows.update(serve(session, inputs, second, seconds, tally, tracer, minimum))
        if name == "remote":
            measured["remote"] = {"before": before, "after": session.remote_backend.health()}

        with paused(tracer):
            fixed_recall = session.index_for("query_many").query_many(inputs.fixed[RECALL], K, P)
            if name != "remote":
                both = index.query_many(oracle + streamed, K, P)
                compare_paths(tally, "query vs query_many", seen["query"], both[: len(oracle)])
                compare_paths(tally, "stream vs query_many", seen["stream"], both[len(oracle) :])
                at_planned_p = [
                    index.query_many([q], K, r.stats["planned_p"])[0]
                    for q, r in zip(planned_oracle, seen["planned"])
                ]
                compare_paths(tally, "planned vs fixed at its p'", seen["planned"], at_planned_p)
                check_distances(tally, "query_many", inputs, oracle + streamed, both)
                check_distances(tally, "fixed at p'", inputs, planned_oracle, at_planned_p)
                check_distances(tally, "planned", inputs, planned_oracle, seen["planned"])
            measured["pool"] = index.pool.health() if index.pool is not None else {}
            measured["fallbacks"] = (index.health().get("serving") or {}).get("fallbacks", 0)
    finally:
        if session is not None:
            with paused(tracer):
                session.close()

    with paused(tracer):
        for label, results in (("recall", fixed_recall), ("planned recall", planned_recall)):
            tally.attempted += len(results)
            for result in results:
                if not result_ok(result, len(inputs.database), False):
                    tally.fail(1, f"{label}: answer failed the result check")
            check_distances(tally, label, inputs, inputs.fixed[RECALL], results)
        for op, window in windows.items():
            queries = [query for query, _ in window.samples]
            answers = [answer for _, answer in window.samples]
            check_distances(tally, f"timed {op}", inputs, queries, answers)
    measured.update(
        windows=windows,
        recall=recall(fixed_recall, truth),
        planned_recall=recall(planned_recall, truth),
        tally=tally,
    )
    return measured


def oracle_first_index(session: Session, inputs: Inputs, seen: Dict[str, List[Any]], tally: Tally) -> None:
    """Serve the oracle queries on the first, still-cold index.

    Remote: the socket paths must equal the in-process ``"sharded"`` backend
    opened over the same artifact.  Otherwise ``query``, ``stream`` and the
    adaptive planner run here and are compared with ``query_many`` on the
    serving index after the windows.
    """
    from repro.index import EmbeddingIndex

    index = session.index
    oracle, streamed = inputs.traffic[ORACLE], inputs.traffic[STREAM_ORACLE]
    if inputs.name != "remote":
        seen["query"] = [index.query(q, K, P) for q in oracle]
        seen["stream"] = drain_stream(index, streamed, P)
        seen["planned"] = index.query_many(inputs.traffic[PLANNED_ORACLE], K, None)
        return
    sockets = session.remote_index
    remote = [sockets.query(q, K, P) for q in oracle] + sockets.query_many(streamed, K, P)
    check_distances(tally, "remote", inputs, oracle + streamed, remote)
    local = EmbeddingIndex.open(
        session.artifact, inputs.database, backend="sharded", pool=index.pool
    )
    try:
        reference = local.query_many(oracle + streamed, K, P)
    finally:
        local.close()
    compare_paths(tally, "remote vs in-process sharded", reference, remote)


def end_to_end_metrics(measured: Dict[str, Any]) -> Dict[str, float]:
    windows = measured["windows"]
    latencies_ms = [s * 1e3 for s in windows["query"].latencies]
    fixed = [windows[op] for op in ("query", "query_many", "stream")]
    planned = windows["planned"]
    return {
        "setup_s": median(measured["setup_times"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_mean_ms": statistics.fmean(latencies_ms),
        "query_p90_ms": percentile(latencies_ms, 90),
        "batch_qps": windows["query_many"].qps,
        "stream_qps": windows["stream"].qps,
        "planned_qps": windows["planned"].qps,
        "recall_at_10": measured["recall"],
        "planned_recall_at_10": measured["planned_recall"],
        "evals_per_query": per(sum(w.evals for w in fixed), sum(w.answers for w in fixed)),
        "planned_evals_per_query": per(planned.evals, planned.answers),
        "artifact_mb": measured["artifact_mb"],
    }


def query_tail(window: Window) -> Dict[str, float]:
    """Latency percentiles beyond the gated ones, for the record only.

    p50 and p99 are not ``BENCHMARK.json`` metrics (see README.md): on a
    shared machine whose speed switches between two levels, p50 falls
    between the two latency modes, and p99 catches stalls that land in some
    runs only.
    """
    latencies_ms = [s * 1e3 for s in window.latencies]
    return {
        "p50": median(latencies_ms),
        "p90": percentile(latencies_ms, 90),
        "p99": percentile(latencies_ms, 99),
        "max": max(latencies_ms),
    }


def per_layer_metrics(
    measured: Dict[str, Any], tracer: Any, n_database: int
) -> Dict[str, float]:
    t = tracer.total
    windows = measured["windows"]
    served = sum(w.served for w in windows.values())
    planned = windows["planned"]
    setups = len(measured["setup_times"])
    rounds = t("core.step", "calls")
    remote_served = windows["query"].served + windows["query_many"].served
    remote = measured.get("remote")
    if remote:
        before, after = remote["before"], remote["after"]
        wire = sum(after[k] - before[k] for k in ("bytes_sent", "bytes_received"))
        reconnects = sum(
            max(s["connects"] - 1, 0) + s["revivals"] for s in after["shards"]
        )
    else:
        wire = reconnects = 0
    pool = measured["pool"]
    return {
        "core.tables_s": per(t("core.tables"), setups) / 1e9,
        "core.round_ms": per(t("core.weak_learner") + t("core.step"), rounds) / 1e6,
        "core.rounds": per(rounds, setups),
        "kernel.calls": t("kernel.dtw_batch", "calls"),
        "kernel.ns_per_cell": per(t("kernel.dtw_batch"), t("kernel.dtw_batch", "cells")),
        "context.exact_evals": per(sum(w.context_evals for w in windows.values()), served),
        "context.register_us_per_query": per(t("context.register"), t("context.register", "objects")) / 1e3,
        "store.lookups": per(t("store.get", "calls", "serve"), served),
        "store.hit_rate": per(t("store.get", "hits", "serve"), t("store.get", "calls", "serve")),
        "store.get_ns": per(t("store.get"), t("store.get", "calls")),
        "store.puts": per(t("store.put", "calls", "serve"), served),
        "embed.us_per_query": per(t("engine.embed", phase="serve"), t("engine.embed", "queries", "serve")) / 1e3,
        "filter.ns_per_row": per(t("engine.filter", phase="serve"), t("engine.filter", "queries", "serve") * n_database),
        "refine.us_per_eval": per(t("engine.refine", phase="serve"), t("engine.refine", "evals", "serve")) / 1e3,
        "refine.us_per_hit": per(t("engine.refine", phase="serve"), t("engine.refine", "hits", "serve")) / 1e3,
        "merge.us_per_query": per(t("engine.merge", phase="serve"), t("engine.merge", "queries", "serve")) / 1e3,
        "planner.calibrate_s": per(t("planner.calibrate"), t("planner.calibrate", "calls")) / 1e9,
        "planner.plan_us_per_query": per(t("planner.choose_p", phase="serve"), planned.answers) / 1e3,
        "planner.early_exit_frac": per(planned.early_exits, planned.answers),
        "planner.mean_p": per(planned.planned_p, planned.answers),
        "pool.launches": pool.get("launches", 0),
        "pool.submits": per(t("pool.submit", "calls", "serve"), served),
        "pool.submit_ms": per(t("pool.submit", phase="serve"), t("pool.submit", "calls", "serve")) / 1e6,
        "pool.wait_ms": per(t("pool.results", phase="serve"), t("pool.results", "calls", "serve")) / 1e6,
        "pool.restarts": pool.get("restarts", 0),
        "pool.failed_jobs": pool.get("failed_jobs", 0),
        "serving.ticket_ms": per(t("serving.ticket", phase="serve"), t("serving.ticket", "calls", "serve")) / 1e6,
        "serving.fallbacks": measured["fallbacks"],
        "artifact.save_s": per(t("artifact.save"), t("artifact.save", "calls")) / 1e9,
        "artifact.open_s": per(t("artifact.open"), t("artifact.open", "calls")) / 1e9,
        "remote.cluster_start_s": per(t("bench.cluster_start"), t("bench.cluster_start", "calls")) / 1e9,
        "remote.rtt_ms": per(t("remote.request", phase="serve"), t("remote.request", "calls", "serve")) / 1e6,
        "remote.round_trips_per_query": per(t("remote.request", "calls", "serve"), remote_served) if remote else 0.0,
        "remote.bytes_per_query": per(wire, remote_served),
        "remote.reconnects": reconnects,
    }


def environment_stamp(seed: int, workload: str, seconds: float, trace: int) -> Dict[str, Any]:
    import numpy as np

    from repro.distances.kernels import get_kernel_backend, kernel_backend_status

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": n_jobs(),
        "kernel_backend": get_kernel_backend().name,
        "kernel_backend_status": kernel_backend_status(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def load_untraced(results_dir: Path, stamp: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Untraced results of the same workload and environment, for the tracing overhead."""
    records = []
    for path in sorted(results_dir.glob(f"{stamp['workload']}-*-t0-*.json")):
        record = json.loads(path.read_text())
        env = record["env"]
        if all(env[k] == stamp[k] for k in ("nproc", "kernel_backend", "seconds")):
            records.append(record)
    return records


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    prepare_environment()
    from repro.distances.kernels import get_kernel_backend

    # Load (or compile) the kernels before anything is timed.
    kernel_backend = get_kernel_backend()
    stamp = environment_stamp(args.seed, args.workload, args.seconds, args.trace)
    inputs = make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        ground_truth(inputs)  # the raw-measure scan stays out of the trace
        tracer = Tracer()
        tracer.install(kernel_backend)
    try:
        measured = run(inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally: Tally = measured["tally"]
    e2e = end_to_end_metrics(measured)
    windows = measured["windows"]
    print(f"perfbench {args.workload} seed={args.seed}: " + json.dumps(stamp))
    print(
        "samples: "
        + ", ".join(f"{op}={w.served} in {w.seconds:.2f}s" for op, w in windows.items())
        + f"; setups={[round(s, 3) for s in measured['setup_times']]}"
    )
    e2e_units = metric_units("end_to_end")
    for key, value in e2e.items():
        print(f"  {key:<26}{value:>14.4f} {e2e_units[key]}")
    tail = query_tail(windows["query"])
    print("  query latency (ms): " + ", ".join(f"{k} {v:.3f}" for k, v in tail.items()))
    print(f"  {'error_rate':<26}{per(tally.failed, tally.attempted):>14.4f} fraction")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    if tracer is not None:
        chosen = per_layer_metrics(measured, tracer, len(inputs.database))
        units = metric_units("per_layer")
        for line in tracer.table():
            print(line)
        stem = f"{args.workload}-s{args.seed}-{os.getpid()}"
        tracer.write_jsonl(OUT / "traces" / f"{stem}.jsonl")
        untraced = load_untraced(args.results, stamp)
        if untraced:
            print(f"tracing overhead (traced / median of {len(untraced)} untraced runs):")
            for key, value in e2e.items():
                base = median([r["end_to_end"][key] for r in untraced])
                print(f"  {key:<26}{per(value, base):>10.3f}x")
        else:
            print("tracing overhead: no untraced run of this workload to compare with")
    else:
        chosen, units = e2e, e2e_units
    if set(chosen) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(chosen)} differ from BENCHMARK.json")

    record = {
        "env": stamp,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "end_to_end": e2e,
        "per_layer": chosen if tracer is not None else None,
        "samples": {op: w.served for op, w in windows.items()},
        "query_latency_ms": tail,
        "call_ms": {op: [round(x * 1e3, 3) for x in w.latencies] for op, w in windows.items()},
        "setup_times": measured["setup_times"],
    }
    args.results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (args.results / name).write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    key: {"value": float(value), "unit": units[key]}
                    for key, value in chosen.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
