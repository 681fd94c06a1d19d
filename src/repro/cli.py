"""Command-line interface for running, evaluating, and serving KGE models.

The paper's artifact ships one training script per (framework, model) pair;
this CLI folds them into one entry point around the declarative experiment
API (:mod:`repro.experiment`).  A trained model is an artifact directory:
``run`` writes it, and ``evaluate`` and ``serve`` read the data its own
``spec.json`` names.

.. code-block:: bash

    # write a spec from flags, then run it end to end into an artifact
    sptransx export-spec --model transe --dataset FB15K --scale 0.01 \
        --epochs 20 --dim 64 --output experiment.json
    sptransx run experiment.json --artifacts runs/transe-fb15k

    # re-rank the artifact's own test split
    sptransx evaluate --checkpoint runs/transe-fb15k --ks 1 10

    # serve an artifact directory (or a bare .npz, unfiltered) over JSON/HTTP
    sptransx serve --checkpoint runs/transe-fb15k --port 8080
    sptransx query --url http://127.0.0.1:8080 --head 12 --relation 3 -k 10

    # list datasets / models / SpMM backends / each model's constructor keywords
    sptransx info

    # enforce the repo's cross-cutting invariants statically (CI gate)
    sptransx check --format json
    sptransx check --diff origin/main   # only files changed since the ref
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
import urllib.error
import urllib.request
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.data.catalog import PAPER_DATASETS
from repro.data.negative_sampling import SAMPLER_STRATEGIES
from repro.experiment import (
    DATA_GENERATORS,
    DataSpec,
    Experiment,
    ExperimentSpec,
    load_artifact,
)
from repro.registry import (
    ModelSpec,
    UnknownModelError,
    models_by_formulation,
    registry_summary,
    spec_from_model,
)
from repro.sparse import available_backends
from repro.training import TrainingConfig
from repro.training.checkpoint import load_model
from repro.utils.logging import enable_console_logging

if TYPE_CHECKING:
    from repro.serving import InferenceEngine


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="sptransx", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment spec end to end")
    run.add_argument("spec", help="path to an ExperimentSpec JSON file")
    run.add_argument("--artifacts", default=None,
                     help="artifact directory to write "
                          "(default: runs/<experiment name>)")
    run.add_argument("--resume", default=None,
                     help="checkpoint file or artifact directory to resume from")
    run.add_argument("--storage", default=None, choices=["memory", "sqlite"],
                     help="override the spec's data.storage: 'sqlite' streams "
                          "shuffled batches from an on-disk store (bounded RSS)")
    run.add_argument("--storage-path", default=None,
                     help="override the SQLite database file backing --storage sqlite")
    run.add_argument("--workers", type=int, default=None,
                     help="override training.num_workers: data-parallel "
                          "processes exchanging row-sparse gradients")
    run.add_argument("--partitions", type=int, default=None,
                     help="override model.partitions: shard the entity table "
                          "into P LRU-paged buckets (train, checkpoint, and "
                          "serve without ever materializing the full table); "
                          "P > 1 also sets training.sparse_grads")
    run.add_argument("--backend", default=None,
                     help="override model.backend: SpMM backend for sparse "
                          f"models ({', '.join(available_backends())})")
    run.add_argument("--quantize", default=None, choices=["fp16", "int8"],
                     help="after training, also write quantized entity bucket "
                          "files into the artifact (partitioned models only); "
                          "the artifact then serves them at 2-4x lower "
                          "resident memory, rescoring answers exactly")
    run.add_argument("--ann", default=None, choices=["ivf"],
                     help="after training, also build an ANN index over the "
                          "entity table (IVF k-means centroids per row range "
                          "+ exact rescoring); serve it with "
                          "InferenceEngine.from_artifact(ann=...) for "
                          "sublinear top-k at million-entity vocabularies")
    run.add_argument("--nprobe", type=int, default=None,
                     help="pin how many IVF clusters a query probes (default: "
                          "auto-chosen at build time for ~0.95 recall@10)")
    run.add_argument("--sanitize", action="store_true",
                     help="run training under the autograd sanitizer: every "
                          "tape op is checked for NaN/Inf outputs, silent "
                          "dtype widening, and gradient/output shape "
                          "agreement (the failing op is named)")
    run.add_argument("--quiet", action="store_true")

    export = sub.add_parser(
        "export-spec",
        help="write the ExperimentSpec the flags describe (execute it with `run`)")
    _add_experiment_arguments(export)
    export.add_argument("--name", default=None,
                        help="experiment name (default: <model>-<dataset>)")
    export.add_argument("--tags", nargs="*", default=[],
                        help="free-form labels recorded in the spec")
    export.add_argument("--output", default=None,
                        help="file to write (default: stdout)")

    evaluate = sub.add_parser(
        "evaluate",
        help="re-run link prediction on an artifact, against the data its spec names")
    evaluate.add_argument("--checkpoint", required=True,
                          help="`sptransx run` artifact directory")
    evaluate.add_argument("--ks", type=int, nargs="+", default=None,
                          help="Hits@k cutoffs (default: the artifact's eval.ks)")
    evaluate.add_argument("--split", default=None, choices=["test", "valid", "train"],
                          help="split to rank (default: the artifact's eval.split)")

    serve = sub.add_parser("serve", help="serve a checkpoint over JSON/HTTP")
    serve.add_argument("--checkpoint", required=True,
                       help="checkpoint file or `sptransx run` artifact directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="port to bind (0 picks an ephemeral port)")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="LRU entries for materialised top-k answers (0 disables)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="answer each request with its own scoring call "
                            "instead of micro-batching concurrent queries")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="largest coalesced query batch")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="how long to hold an open batch for more queries")
    serve.add_argument("--ann", default="auto", choices=["auto", "ivf", "off"],
                       help="ANN index policy for artifact directories: 'auto' "
                            "uses index/ when present, 'ivf' requires it, "
                            "'off' serves exactly (default auto)")
    serve.add_argument("--nprobe", type=int, default=None,
                       help="override the index's default probe width "
                            "(more clusters probed = higher recall, slower)")
    serve.add_argument("--filtered", action="store_true",
                       help="install the triples of the data the artifact's "
                            "spec.json names as known positives, enabling "
                            "filtered=true queries (artifact directories only)")
    serve.add_argument("--workers", type=int, default=0,
                       help="fork this many engine worker processes behind an "
                            "asyncio front-end with deadline-aware batching "
                            "and SLO admission control (0 = the threaded "
                            "in-process tier; default 0)")
    serve.add_argument("--deadline-ms", type=float, default=50.0,
                       help="default per-request deadline for the pool tier; "
                            "requests predicted to finish later are shed with "
                            "503 + Retry-After (payloads may override per "
                            "request via \"deadline_ms\")")
    serve.add_argument("--no-admission", action="store_true",
                       help="pool tier only: accept every request instead of "
                            "shedding predicted deadline busts (baseline for "
                            "overload measurements)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")

    query = sub.add_parser("query", help="query a running `sptransx serve` endpoint")
    query.add_argument("--url", default="http://127.0.0.1:8080",
                       help="base URL of the serving endpoint")
    query.add_argument("--head", type=int, default=None)
    query.add_argument("--relation", type=int, default=None)
    query.add_argument("--tail", type=int, default=None)
    query.add_argument("--nearest", type=int, default=None, metavar="ENTITY",
                       help="embedding-space nearest neighbours of an entity")
    query.add_argument("-k", "--k", type=int, default=10, dest="k")
    query.add_argument("--filtered", action="store_true",
                       help="exclude known positives from the ranking")
    query.add_argument("--ann", default=None, choices=["on", "off"],
                       help="per-request ANN override for top-k queries "
                            "('off' forces the exact path even when the "
                            "server holds an index)")
    query.add_argument("--nprobe", type=int, default=None,
                       help="per-request IVF probe width (top-k queries only)")
    query.add_argument("--threshold", type=float, default=None,
                       help="classify the triple instead of scoring it")
    query.add_argument("--timeout", type=float, default=30.0,
                       help="seconds to wait for the server before giving up")
    query.add_argument("--stats", action="store_true",
                       help="fetch serving statistics instead of querying")

    sub.add_parser("info", help="list datasets, models, and SpMM backends")

    check = sub.add_parser(
        "check",
        help="run the repo's invariant checkers (static analysis) over src/")
    check.add_argument("paths", nargs="*",
                       help="repo-relative files to restrict the check to "
                            "(default: the whole source tree)")
    check.add_argument("--format", default="text",
                       choices=["text", "json", "github"],
                       dest="format_", metavar="{text,json,github}",
                       help="report format (json for machines, github for "
                            "Actions inline annotations)")
    check.add_argument("--diff", default=None, metavar="REF",
                       help="only report findings in files changed since the "
                            "given git ref (keeps the gate fast on large trees)")
    check.add_argument("--rules", default=None,
                       help="comma-separated rule ids to run (default: all)")
    check.add_argument("--list-rules", action="store_true",
                       help="print every registered rule id and exit")
    check.add_argument("--root", default=None,
                       help="repo root to analyse (default: auto-detected)")
    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """Data + model + training arguments of ``export-spec``."""
    parser.add_argument("--dataset", default="FB15K",
                        help="catalog dataset name to synthesise (ignored with --triples-file)")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="down-scaling factor for the synthetic dataset")
    parser.add_argument("--triples-file", default=None,
                        help="CSV/TSV/TTL file of labelled triples to load instead")
    parser.add_argument("--generator", default="zipf", choices=list(DATA_GENERATORS),
                        help="synthetic generator: degree-skewed 'zipf' (timing "
                             "workloads) or 'learnable' (accuracy workloads)")
    parser.add_argument("--test-fraction", type=float, default=0.05)
    parser.add_argument("--valid-fraction", type=float, default=0.0)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--storage", default="memory", choices=["memory", "sqlite"],
                        help="train from in-memory arrays or stream shuffled "
                             "batches out of an on-disk SQLite store "
                             "(out-of-core graphs; bounded peak RSS)")
    parser.add_argument("--storage-path", default=None,
                        help="SQLite database file for --storage sqlite "
                             "(default: data.sqlite in the artifact directory, "
                             "or a temporary file)")
    parser.add_argument("--model", default="transe",
                        choices=sorted(set(models_by_formulation("sparse"))
                                       | set(models_by_formulation("dense"))))
    parser.add_argument("--formulation", default="sparse", choices=["sparse", "dense"])
    parser.add_argument("--dim", type=int, default=64, help="embedding dimension")
    parser.add_argument("--relation-dim", type=int, default=None,
                        help="relation-space dimension (projection models only)")
    parser.add_argument("--backend", default=None,
                        help="SpMM backend (sparse models; default scipy)")
    parser.add_argument("--dissimilarity", default=None,
                        help="distance function, e.g. L1/L2/torus_L2 "
                             "(models that accept one; default per model)")
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--batch-size", type=int, default=32768)
    parser.add_argument("--learning-rate", type=float, default=4e-4)
    parser.add_argument("--margin", type=float, default=0.5)
    parser.add_argument("--optimizer", default="adam", choices=["adam", "sgd", "adagrad"])
    parser.add_argument("--negative-sampler", default="uniform",
                        choices=list(SAMPLER_STRATEGIES),
                        help="corruption strategy (bernoulli = relation-aware)")
    parser.add_argument("--num-negatives", type=int, default=1,
                        help="negatives contrasted per positive each epoch")
    parser.add_argument("--sparse-grads", action="store_true",
                        help="row-sparse gradient pipeline: backward and optimizer "
                             "cost scale with the batch instead of the vocabulary "
                             "(exact for sgd/adagrad, lazy SparseAdam-style for adam)")
    parser.add_argument("--partitions", type=int, default=1,
                        help="shard the entity table into P contiguous range "
                             "buckets paged through an LRU-bounded resident set; with "
                             "--storage sqlite training runs PBG-style "
                             "bucket-pair episodes so a step touches at most "
                             "two buckets (implies row-sparse gradients)")
    parser.add_argument("--workers", type=int, default=1,
                        help="data-parallel worker processes: each global batch "
                             "is sharded across N replicas that exchange "
                             "row-sparse gradients and stay in lockstep with "
                             "the single-worker trajectory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sanitize", action="store_true",
                        help="train under the autograd sanitizer (NaN/Inf, "
                             "dtype-widening, and gradient-shape checks on "
                             "every tape op)")


# --------------------------------------------------------------------- #
# args -> spec translation (the one place CLI flags meet the experiment API)
# --------------------------------------------------------------------- #
def _experiment_spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Build the :class:`ExperimentSpec` the ``export-spec`` flags describe.

    File-backed data is loaded here once, to pin the vocabulary sizes its
    labels define into the model section.
    """
    partitions = args.partitions
    if partitions < 1:
        raise SystemExit(f"--partitions must be >= 1, got {partitions}")
    try:
        data = DataSpec(
            dataset=args.dataset,
            scale=args.scale,
            triples_file=args.triples_file,
            generator=args.generator,
            valid_fraction=args.valid_fraction,
            test_fraction=args.test_fraction,
            seed=args.data_seed,
            negative_sampler=args.negative_sampler,
            num_negatives=args.num_negatives,
            storage=args.storage,
            storage_path=args.storage_path,
        )
        sizes = data.vocab_sizes()
        if sizes is None:
            kg = data.materialize()
            sizes = (kg.n_entities, kg.n_relations)
        model = ModelSpec(
            model=args.model,
            formulation=args.formulation,
            n_entities=sizes[0],
            n_relations=sizes[1],
            embedding_dim=args.dim,
            relation_dim=args.relation_dim,
            backend=args.backend,
            dissimilarity=args.dissimilarity,
            partitions=partitions if partitions > 1 else None,
        )
        training = TrainingConfig(
            epochs=args.epochs, batch_size=args.batch_size,
            learning_rate=args.learning_rate, margin=args.margin,
            optimizer=args.optimizer, seed=args.seed, log_every=0,
            sparse_grads=bool(args.sparse_grads) or partitions > 1,
            num_workers=args.workers,
            sanitize=args.sanitize,
        )
        return ExperimentSpec(
            name=(args.name if args.name is not None
                  else f"{args.model}-{args.dataset.lower()}"),
            data=data,
            model=model,
            training=training,
            seed=args.seed,
            tags=tuple(args.tags),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _apply_run_overrides(spec: ExperimentSpec,
                         args: argparse.Namespace) -> ExperimentSpec:
    """Apply ``run``'s --storage/--storage-path/--workers flags over the spec."""
    data_overrides = {}
    if args.storage is not None:
        data_overrides["storage"] = args.storage
    if args.storage_path is not None:
        data_overrides["storage_path"] = args.storage_path
    if data_overrides:
        spec = spec.replace(data=dataclasses.replace(spec.data, **data_overrides))
    if args.workers is not None:
        spec = spec.replace(training=spec.training.replace(num_workers=args.workers))
    if getattr(args, "partitions", None) is not None:
        partitions = int(args.partitions)
        if partitions < 1:
            raise ValueError(f"--partitions must be >= 1, got {partitions}")
        spec = spec.replace(
            model=spec.model.replace(
                partitions=partitions if partitions > 1 else None),
            training=spec.training.replace(
                sparse_grads=spec.training.sparse_grads or partitions > 1))
    if getattr(args, "backend", None) is not None:
        spec = spec.replace(model=spec.model.replace(backend=args.backend))
    if getattr(args, "sanitize", False):
        spec = spec.replace(training=spec.training.replace(sanitize=True))
    if getattr(args, "ann", None) is not None:
        spec = spec.replace(model=spec.model.replace(ann=args.ann))
    if getattr(args, "nprobe", None) is not None:
        spec = spec.replace(model=spec.model.replace(nprobe=int(args.nprobe)))
    return spec


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #
def _command_run(args: argparse.Namespace) -> int:
    if not args.quiet:
        enable_console_logging()
    try:
        spec = ExperimentSpec.from_file(args.spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load experiment spec {args.spec}: {exc}") from exc
    try:
        spec = _apply_run_overrides(spec, args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if getattr(args, "quantize", None) and spec.model.partitions is None:
        raise SystemExit(
            "--quantize applies to partitioned models only (train with "
            "--partitions > 1)")
    artifact_dir = args.artifacts if args.artifacts else f"runs/{spec.name}"
    try:
        result = Experiment(spec, artifact_dir=artifact_dir,
                            resume=args.resume).run()
    except (UnknownModelError, ValueError, FileNotFoundError) as exc:
        raise SystemExit(str(exc)) from exc
    if getattr(args, "quantize", None):
        import os

        from repro.nn.partitioned import ARTIFACT_WEIGHTS
        from repro.nn.quantize import quantize_weight_files

        try:
            quantize_weight_files(os.path.join(artifact_dir, ARTIFACT_WEIGHTS),
                                  args.quantize)
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from exc
    print(json.dumps({"experiment": spec.name,
                      "artifacts": artifact_dir,
                      "dataset": result.dataset_name,
                      "model": spec_from_model(result.model).to_dict(),
                      "quantized": getattr(args, "quantize", None),
                      "metrics": result.metrics},
                     indent=2, default=float))
    return 0


def _command_export_spec(args: argparse.Namespace) -> int:
    spec = _experiment_spec_from_args(args)
    if args.output:
        spec.to_file(args.output)
        print(f"spec written to {args.output}")
    else:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    """Rank the artifact's split under its own eval settings, on its own data.

    Without ``--ks`` and ``--split`` this prints exactly the link-prediction
    numbers ``run`` recorded in the artifact's ``metrics.json`` — unless the
    artifact was quantized at export: it then ranks through the quantized
    entity table the artifact serves.
    """
    overrides = {"ks": args.ks, "split": args.split}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    try:
        artifact = load_artifact(args.checkpoint)
        eval_spec = dataclasses.replace(
            artifact.spec.eval, protocols=("link_prediction",), **overrides)
        [evaluator] = eval_spec.build_evaluators()
        report = evaluator.run(artifact.load_model(),
                               artifact.spec.data.materialize())
    except (OSError, UnknownModelError, ValueError) as exc:
        raise SystemExit(f"cannot evaluate {args.checkpoint}: {exc}") from exc
    print(json.dumps(report.metrics, indent=2))
    return 0


def _engine_factory(args: argparse.Namespace) -> Callable[[], InferenceEngine]:
    """Check the ``serve`` flags and return the builder of the served engine.

    Both tiers serve through this one factory: the threaded tier calls it
    once, the pool tier once inside each forked worker.  Everything that can
    refuse the flags — ``--filtered`` or an ``--ann`` kind without an
    artifact, an unreadable checkpoint — is checked here, in the calling
    process, so both tiers refuse with one message before any worker forks.
    An artifact directory is loaded by the returned callable (each pool
    worker memory-maps the same weight and index files, and its stored
    spec's own data section backs the filtered protocol); a bare checkpoint
    file is restored once, here, and served unfiltered.
    """
    import os

    from repro.serving import InferenceEngine

    checkpoint, cache_size = args.checkpoint, args.cache_size
    if os.path.isdir(checkpoint):
        def build_artifact() -> InferenceEngine:
            return InferenceEngine.from_artifact(
                checkpoint, filtered=args.filtered, cache_size=cache_size,
                ann=args.ann, nprobe=args.nprobe)
        return build_artifact
    if args.filtered:
        raise SystemExit(
            f"--filtered needs an artifact directory (its spec.json names the "
            f"triples to filter by), got checkpoint {checkpoint}")
    if args.ann not in ("auto", "off"):
        raise SystemExit(
            f"--ann {args.ann} needs an artifact directory (indexes live "
            f"next to the weight files), got checkpoint {checkpoint}")
    try:
        model = load_model(checkpoint)
    except (FileNotFoundError, UnknownModelError, ValueError) as exc:
        raise SystemExit(f"cannot load checkpoint {checkpoint}: {exc}") from exc
    return lambda: InferenceEngine(model, cache_size=cache_size)


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serving import AsyncInferenceServer, make_server

    if args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    server = None
    # SIGTERM unwinds like Ctrl-C.  Every statement after the handler runs
    # inside this try, so a SIGTERM at any point of start-up (loading the
    # artifact, forking the pool, printing the ready line) still closes what
    # has started: the threaded server, or the pool and its forked workers.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        engine_factory = _engine_factory(args)
        if args.workers > 0:
            # ``sptransx serve --workers N``: the asyncio + forked-pool tier.
            try:
                server = AsyncInferenceServer(
                    engine_factory, workers=args.workers, host=args.host,
                    port=args.port, deadline_ms=args.deadline_ms,
                    max_batch=args.max_batch, admission=not args.no_admission,
                    verbose=args.verbose)
            except (RuntimeError, ValueError, FileNotFoundError, TimeoutError) as exc:
                raise SystemExit(f"cannot start worker pool: {exc}") from exc

            def on_started() -> None:
                print(json.dumps({"serving": server.url,
                                  "mode": "pool",
                                  "workers": args.workers,
                                  "deadline_ms": args.deadline_ms,
                                  "admission": not args.no_admission,
                                  "model": server.meta.get("model"),
                                  "spec": server.meta.get("spec"),
                                  "filtered": args.filtered}), flush=True)

            server.serve_forever(on_started=on_started)
        else:
            try:
                engine = engine_factory()
            except (FileNotFoundError, ValueError) as exc:
                raise SystemExit(
                    f"cannot serve artifact {args.checkpoint}: {exc}") from exc
            server = make_server(engine, host=args.host, port=args.port,
                                 coalesce=not args.no_coalesce,
                                 max_batch=args.max_batch,
                                 max_wait_ms=args.max_wait_ms,
                                 verbose=args.verbose)
            print(json.dumps({"serving": server.url,
                              "model": type(engine.model).__name__,
                              "spec": engine.spec().to_dict(),
                              "coalesce": not args.no_coalesce,
                              "filtered": args.filtered,
                              "ann": engine.ann_index is not None}), flush=True)
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.close()
    return 0


def _http_json(url: str, payload: Optional[Dict] = None,
               timeout: float = 30.0) -> Dict:
    """One JSON request against the serving endpoint (POST when payload given)."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data,
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except TimeoutError as exc:
        raise SystemExit(f"request to {url} timed out after {timeout:g}s") from exc
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
        except Exception:  # noqa: BLE001 — body may not be JSON
            detail = str(exc)
        raise SystemExit(f"server rejected the request: {detail}") from exc
    except urllib.error.URLError as exc:
        raise SystemExit(f"cannot reach {url}: {exc.reason}") from exc


def _reject_query_flags(args: argparse.Namespace, mode: str, *flags: str) -> None:
    """Fail loudly when a flag that this query mode ignores was supplied."""
    supplied = {"--filtered": args.filtered,
                "--threshold": args.threshold is not None,
                "--head": args.head is not None,
                "--relation": args.relation is not None,
                "--tail": args.tail is not None,
                "--nearest": args.nearest is not None,
                "--ann": args.ann is not None,
                "--nprobe": args.nprobe is not None}
    ignored = [flag for flag in flags if supplied[flag]]
    if ignored:
        raise SystemExit(f"{', '.join(ignored)} does not apply to a {mode} query")


def _query_ann_fields(args: argparse.Namespace) -> Dict:
    """Optional ANN override fields for a top-k request payload."""
    fields: Dict = {}
    if args.ann is not None:
        fields["ann"] = args.ann == "on"
    if args.nprobe is not None:
        fields["nprobe"] = int(args.nprobe)
    return fields


def _command_query(args: argparse.Namespace) -> int:
    base = args.url.rstrip("/")
    timeout = args.timeout
    if args.stats:
        _reject_query_flags(args, "--stats", "--filtered", "--threshold",
                            "--head", "--relation", "--tail", "--nearest",
                            "--ann", "--nprobe")
        print(json.dumps(_http_json(base + "/v1/stats", timeout=timeout), indent=2))
        return 0
    if args.nearest is not None:
        _reject_query_flags(args, "--nearest", "--filtered", "--threshold",
                            "--head", "--relation", "--tail",
                            "--ann", "--nprobe")
        out = _http_json(base + "/v1/nearest",
                         {"entity": args.nearest, "k": args.k}, timeout=timeout)
        print(json.dumps(out, indent=2))
        return 0
    have = {name for name in ("head", "relation", "tail")
            if getattr(args, name) is not None}
    if have == {"head", "relation", "tail"}:
        _reject_query_flags(args, "score/classify", "--filtered",
                            "--ann", "--nprobe")
        triple = [[args.head, args.relation, args.tail]]
        if args.threshold is not None:
            out = _http_json(base + "/v1/classify",
                             {"triples": triple, "threshold": args.threshold},
                             timeout=timeout)
        else:
            out = _http_json(base + "/v1/score", {"triples": triple},
                             timeout=timeout)
    elif have == {"head", "relation"}:
        _reject_query_flags(args, "top-k", "--threshold")
        payload = {"head": args.head, "relation": args.relation,
                   "k": args.k, "filtered": args.filtered}
        payload.update(_query_ann_fields(args))
        out = _http_json(base + "/v1/top_k_tails", payload, timeout=timeout)
    elif have == {"relation", "tail"}:
        _reject_query_flags(args, "top-k", "--threshold")
        payload = {"tail": args.tail, "relation": args.relation,
                   "k": args.k, "filtered": args.filtered}
        payload.update(_query_ann_fields(args))
        out = _http_json(base + "/v1/top_k_heads", payload, timeout=timeout)
    else:
        raise SystemExit(
            "specify --head and --relation (top-k tails), --relation and --tail "
            "(top-k heads), all three (score/classify), --nearest ENTITY "
            "(embedding neighbours), or --stats"
        )
    print(json.dumps(out, indent=2))
    return 0


def _command_info(_: argparse.Namespace) -> int:
    info = {
        "datasets": {name: {"entities": spec.n_entities, "relations": spec.n_relations,
                            "triples": spec.n_training_triples}
                     for name, spec in PAPER_DATASETS.items()},
        "sparse_models": sorted(models_by_formulation("sparse")),
        "dense_models": sorted(models_by_formulation("dense")),
        "spmm_backends": available_backends(),
        "registry": registry_summary(),
    }
    print(json.dumps(info, indent=2))
    return 0


def _detect_repo_root() -> str:
    """Repo root for `sptransx check`: cwd when it holds src/repro, else the
    tree this installed package was imported from."""
    import os

    if os.path.isdir(os.path.join(os.getcwd(), "src", "repro")):
        return os.getcwd()
    import repro

    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))


def _command_check(args: argparse.Namespace) -> int:
    import subprocess

    from repro.analysis import (
        iter_rules,
        render_github,
        render_json,
        render_text,
        run_checks,
    )

    if args.list_rules:
        for rule, description in iter_rules():
            print(f"{rule}: {description}")
        return 0
    rules = ([r.strip() for r in args.rules.split(",") if r.strip()]
             if args.rules else None)
    if rules:
        known = {rule for rule, _ in iter_rules()}
        unknown = sorted(set(rules) - known)
        if unknown:
            raise SystemExit(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"see `sptransx check --list-rules`")
    root = args.root if args.root else _detect_repo_root()
    try:
        findings = run_checks(
            root,
            rules=rules,
            paths=args.paths if args.paths else None,
            diff_ref=args.diff,
        )
    except subprocess.CalledProcessError as exc:
        raise SystemExit(
            f"git diff against {args.diff!r} failed: "
            f"{(exc.stderr or '').strip()}") from exc
    renderer = {"json": render_json, "github": render_github}.get(
        args.format_, render_text)
    print(renderer(findings))
    return 1 if findings else 0


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "run": _command_run,
        "export-spec": _command_export_spec,
        "evaluate": _command_evaluate,
        "serve": _command_serve,
        "query": _command_query,
        "info": _command_info,
        "check": _command_check,
    }
    handler = commands.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command}")
        return 2
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
