"""``serve_zipf``: one pass of timed HTTP top-k requests against ``sptransx serve``.

Op = one ``POST /v1/top_k_tails`` (k=10) on a keep-alive connection; unit =
200-responses.  Closed loop: each of the two clients sends its next request
only after the previous reply, as callers that wait for an answer do.  The
server is the CLI with default flags in a subprocess, so whatever tier and
defaults the repo ships is what gets measured.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

from repro.ann import build_index_files, load_index
from repro.experiment import ExperimentSpec
from repro.models import SpTransE
from repro.registry import spec_from_model
from repro.serving import InferenceEngine
from repro.training.checkpoint import save_checkpoint

from benchmarks.e2e.calibrate import BoxSpeed
from benchmarks.e2e.common import median_ms
from benchmarks.e2e.spans import Tracer

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
SERVER_START_TIMEOUT_S = 60.0
SOCKET_TIMEOUT_S = 30.0
#: The IVF build doubles nprobe until recall@10 reaches this on its own
#: sample of entity rows; the index must still meet it on that sample.
TUNED_RECALL = 0.95
#: Floor for recall@10 on the served (head, relation) queries.  A 32-query
#: tuning sample fixes the true recall only to about +-0.04, and 40 seeds
#: measured 0.93-1.0 on served queries (four below 0.95), so holding those to
#: 0.95 would fail one seed in ten for no fault of the program.
MIN_SERVED_RECALL = 0.90


# --------------------------------------------------------------------------- #
# Generated inputs
# --------------------------------------------------------------------------- #
def build_artifact(directory: str, cfg: Dict[str, object], seed: int,
                   box: BoxSpeed) -> float:
    """Write a servable artifact; returns the seconds the IVF build took.

    A trained entity table is clustered, which is what IVF exploits; an iid
    table has no neighbour structure at d=64 and auto-tunes to a near-full
    probe, so the table is a mixture of Gaussians with translation-scale
    relations (the construction of ``bench_inference_throughput``).
    """
    n, dim = cfg["entities"], cfg["dim"]
    model = SpTransE(n, cfg["relations"], dim, rng=seed,
                     partitions=cfg["partitions"],
                     partition_dir=os.path.join(directory, "weights"))
    rng = np.random.default_rng(seed)
    n_centers = max(16, 2 * int(np.sqrt(n)))
    centers = rng.standard_normal((n_centers, dim))
    rows = (centers[rng.integers(0, n_centers, size=n)]
            + 0.1 * rng.standard_normal((n, dim)))
    model.embeddings.write_rows(np.arange(n, dtype=np.int64), rows)
    relations = model.embeddings.relations.data
    relations[...] = 0.05 * rng.standard_normal(relations.shape)
    ExperimentSpec(model=spec_from_model(model), name="bench-serve-zipf",
                   seed=seed).to_file(os.path.join(directory, "spec.json"))
    save_checkpoint(os.path.join(directory, "checkpoint.npz"), model)
    model.embeddings.close()
    box.sample(3)
    build_start = time.perf_counter()
    build_index_files(directory, kind="ivf", seed=seed)
    build_s = time.perf_counter() - build_start
    box.sample(3)
    with open(os.path.join(directory, "metrics.json"), "w", encoding="utf-8") as fh:
        fh.write("{}\n")
    return build_s


def zipf_streams(cfg: Dict[str, object], seed: int, per_connection: int
                 ) -> Tuple[List[Tuple[int, int]], List[List[Tuple[int, int]]]]:
    """The distinct (head, relation) pairs, most popular first, and one
    Zipf(s=1) stream over them per connection.

    Connection ``c`` draws only the pairs whose popularity rank is ``c`` mod
    the connection count, so no pair is ever requested on two connections
    and the server's cache hit count does not depend on how the connections
    interleave: it repeats exactly for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < cfg["distinct"]:
        pairs.add((int(rng.integers(0, cfg["entities"])),
                   int(rng.integers(0, cfg["relations"]))))
    universe = sorted(pairs)
    streams = []
    for c in range(cfg["connections"]):
        ranks = np.arange(c, len(universe), cfg["connections"])
        weights = 1.0 / (ranks + 1)
        picks = rng.choice(ranks, size=per_connection, p=weights / weights.sum())
        streams.append([universe[i] for i in picks])
    return universe, streams


# --------------------------------------------------------------------------- #
# Server process and HTTP client
# --------------------------------------------------------------------------- #
def start_server(artifact: str, workdir: str) -> Tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    with open(os.path.join(workdir, "server.stderr"), "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--checkpoint", artifact,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=stderr, env=env, text=True)
    line: List[str] = []
    reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout=SERVER_START_TIMEOUT_S)
    if not line or not line[0]:
        stop_server(proc)
        raise RuntimeError("sptransx serve did not announce its address")
    host, port = json.loads(line[0])["serving"].split("//")[1].split(":")
    return proc, host, int(port)


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)
    proc.stdout.close()


def server_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as fh:
        for row in fh:
            if row.startswith("VmHWM:"):
                return float(row.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


class Client:
    """Keep-alive HTTP/1.1 over a raw socket: TCP_NODELAY, one send per request."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sent_at = 0.0

    @staticmethod
    def encode(method: str, path: str, payload=None) -> bytes:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode("ascii") + body

    def exchange(self, message: bytes) -> Tuple[int, bytes]:
        """Send one pre-encoded request; returns ``(status, body bytes)``."""
        self.sock.sendall(message)
        self.sent_at = time.perf_counter()
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            buffer += data
        head, body = buffer.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        length = 0
        for row in lines[1:]:
            key, _, value = row.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection mid-body")
            body += data
        return int(lines[0].split()[1]), body

    def get_json(self, path: str) -> Dict[str, object]:
        status, body = self.exchange(self.encode("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


def _drive(client: Client, messages: List[bytes], k: int, records: List) -> None:
    """One closed-loop caller: next request only after the previous reply."""
    for message in messages:
        t0 = time.perf_counter()
        entities = None
        try:
            status, body = client.exchange(message)
            if status == 200:
                entities = json.loads(body)["entities"]
        except (OSError, ValueError, KeyError):
            pass  # counted as a failed op below: no entities, no latency sample
        t1 = time.perf_counter()
        ok = entities is not None and len(entities) == k
        records.append((t0, client.sent_at, t1, ok, entities))


def _closed_loop(clients: List[Client], batches: List[List[bytes]], k: int
                 ) -> List[List]:
    records: List[List] = [[] for _ in clients]
    threads = [threading.Thread(target=_drive, args=(c, b, k, r))
               for c, b, r in zip(clients, batches, records)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    requests = after["batcher"]["requests"] - before["batcher"]["requests"]
    batches = after["batcher"]["batches"] - before["batcher"]["batches"]
    return {"cache_hits": hits,
            "cache_hit_rate": hits / max(1, hits + misses),
            "batch_size_mean": requests / max(1, batches)}


# --------------------------------------------------------------------------- #
# The pass
# --------------------------------------------------------------------------- #
def run_pass(workload: str, cfg: Dict[str, object], seed: int, trace: bool,
             workdir: str) -> Dict[str, object]:
    box = BoxSpeed()
    start = time.perf_counter()
    box.sample(3)
    artifact = os.path.join(workdir, "artifact")
    os.makedirs(artifact)
    index_build_s = build_artifact(artifact, cfg, seed, box)
    n_conn, k = cfg["connections"], cfg["k"]
    warm_each = -(-cfg["warmup"] // n_conn)
    timed_each = -(-cfg["ops"] // n_conn)
    universe, streams = zipf_streams(cfg, seed, warm_each + timed_each)
    messages = [[Client.encode("POST", "/v1/top_k_tails",
                               {"head": h, "relation": r, "k": k})
                 for h, r in stream] for stream in streams]
    layers: Dict[str, float] = {}
    proc, host, port = start_server(artifact, workdir)
    try:
        box.sample(3)
        clients = [Client(host, port) for _ in range(n_conn)]
        _closed_loop(clients, [m[:warm_each] for m in messages], k)
        stats_before = clients[0].get_json("/v1/stats")
        box.sample(3)

        gc.collect()
        setup_s = time.perf_counter() - start - box.spent_s
        timed_start = time.perf_counter()
        records = _closed_loop(clients, [m[warm_each:] for m in messages], k)
        timed_s = time.perf_counter() - timed_start

        stats_after = clients[0].get_json("/v1/stats")
        if trace:
            layers.update(_http_probes(clients[0], host, port))
        peak_rss = server_peak_rss_mb(proc.pid)
        for client in clients:
            client.close()
    finally:
        stop_server(proc)
    delta = _stats_delta(stats_before, stats_after)

    # (record, (head, relation)) per timed request, connection by connection.
    flat = [(rec, streams[c][warm_each + i])
            for c, recs in enumerate(records) for i, rec in enumerate(recs)]
    good = [rec for rec, _ in flat if rec[3]]
    latencies = [1e3 * (rec[2] - rec[0]) for rec in good]

    load_start = time.perf_counter()
    engine = InferenceEngine.from_artifact(artifact)
    artifact_load_s = time.perf_counter() - load_start
    sampled = np.random.default_rng(seed).choice(
        len(flat), size=min(cfg["check_responses"], len(flat)), replace=False)
    agree = all(flat[i][0][4] == list(engine.top_k_tails(*flat[i][1], k=k).entities)
                for i in sampled)
    recall_pairs = universe[:cfg["recall_queries"]]
    recall = _recall(engine, recall_pairs, k)
    tuned_recall = _tuned_recall(artifact, cfg["tuning_queries"], seed, k)

    out = {
        "setups": [{"seconds": setup_s, "kernel": box.drain()}],
        # The timed requests wait on the server process and, today, on a
        # 44 ms kernel timer, not on this process's CPU: reported unscaled.
        "timed_s": timed_s, "timed_kernel": None,
        "units": len(good),
        "latencies_ms": latencies,
        "attempted": len(flat), "failed": len(flat) - len(good),
        "peak_rss_mb": peak_rss,
        "checks": {"all_200_with_k_entities": len(good) == len(flat),
                   "responses_match_engine": bool(agree),
                   "tuned_recall_at_10_ok": tuned_recall >= TUNED_RECALL,
                   "served_recall_at_10_ok": recall >= MIN_SERVED_RECALL},
        "exact": {"serving.cache_hits": delta["cache_hits"]},
        "info": {"recall_at_10": recall, "recall_queries": len(recall_pairs),
                 "tuned_recall_at_10": tuned_recall,
                 "nprobe": stats_after["ann"]["nprobe"],
                 "n_clusters": stats_after["ann"]["n_clusters"],
                 "cache_hit_rate": delta["cache_hit_rate"]},
    }
    if trace:
        tracer = _spans(records)
        layers.update(_engine_probes(engine, artifact, recall_pairs, k))
        hit = delta["cache_hit_rate"]
        engine_ms = (hit * layers["serving.engine_hit_ms"]
                     + (1 - hit) * layers["serving.engine_miss_ms"])
        layers.update({
            "serving.cache_hit_rate": hit,
            "serving.batch_size_mean": delta["batch_size_mean"],
            "serving.http_overhead_ms": median(latencies) - engine_ms,
            "serving.artifact_load_s": artifact_load_s,
            "ann.probed_fraction": stats_after["probed_fraction"],
            "ann.recall_at_10": recall,
            "ann.index_build_s": index_build_s,
            "trace.unattributed_share": (
                tracer.self_seconds()["op"]
                / sum(rec[2] - rec[0] for rec, _ in flat)),
        })
        out["layers"] = layers
        out["spans"] = tracer.spans
    engine.model.embeddings.close()
    return out


def _spans(records: List[List]) -> Tracer:
    """Op -> send + wait for reply, from the client's side of the socket."""
    tracer = Tracer()
    for c, recs in enumerate(records):
        for i, (t0, sent, t1, _, _) in enumerate(recs):
            op = i * len(records) + c
            root = tracer.add("op", t0, t1, None, op)
            tracer.add("serving.http_send", t0, sent, root, op)
            tracer.add("serving.http_wait_reply", sent, t1, root, op)
    return tracer


def _tuned_recall(artifact: str, queries: int, seed: int, k: int) -> float:
    """Recall@k of the index on the sample its build tuned nprobe with
    (``IVFIndex.build``: ``recall_sample`` entity rows drawn from ``seed``)."""
    index = load_index(os.path.join(artifact, "index"))
    return index.recall_probe(index._sample_queries(queries, seed=seed), k=k)


def _recall(engine: InferenceEngine, pairs, k: int) -> float:
    """Recall@k of the engine's answers against a brute-force numpy ranking of
    every entity by ``||h + r - t||`` (all queries at once: the exact engine
    takes ~12 ms a query, too long to run 200 of them in every pass)."""
    model = engine.model
    table = model.entity_embedding_matrix()
    queries = np.stack([model.l2_query_vector(h, r, "tail") for h, r in pairs])
    norms = np.einsum("ij,ij->i", table, table)
    found = 0
    for lo in range(0, len(pairs), 50):  # 50 x n_entities distances at a time
        distances = norms - 2.0 * (queries[lo:lo + 50] @ table.T)
        nearest = np.argpartition(distances, k - 1, axis=1)[:, :k]
        for (h, r), truth in zip(pairs[lo:lo + 50], nearest):
            found += len(set(engine.top_k_tails(h, r, k=k).entities)
                         & set(truth.tolist()))
    return found / float(k * len(pairs))


def _http_probes(client: Client, host: str, port: int) -> Dict[str, float]:
    """Round trips that do no engine work: what the HTTP layer alone costs."""
    health = Client.encode("GET", "/v1/health")

    def fresh():
        one_shot = Client(host, port)
        one_shot.exchange(health)
        one_shot.close()
    return {"serving.health_rtt_ms": median_ms(lambda: client.exchange(health),
                                               repeat=15, warmup=1),
            "serving.health_rtt_fresh_ms": median_ms(fresh, repeat=15, warmup=1)}


def _engine_probes(engine: InferenceEngine, artifact: str, pairs, k: int
                   ) -> Dict[str, float]:
    cold = InferenceEngine.from_artifact(artifact, cache_size=0)
    h0, r0 = pairs[0]
    cycle = iter(pairs * 2)
    miss_ms = median_ms(lambda: cold.top_k_tails(*next(cycle), k=k),
                        repeat=min(51, len(pairs)), warmup=2)
    engine.top_k_tails(h0, r0, k=k)
    hit_ms = median_ms(lambda: engine.top_k_tails(h0, r0, k=k), repeat=51)
    index = load_index(os.path.join(artifact, "index"))
    query = cold.model.l2_query_vector(h0, r0, "tail")
    search_ms = median_ms(lambda: index.search(query, k), repeat=25)
    cold.model.embeddings.close()
    return {"serving.engine_miss_ms": miss_ms, "serving.engine_hit_ms": hit_ms,
            "ann.search_ms": search_ms}
