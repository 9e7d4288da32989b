"""Command-line front end: ``python -m repro.serve <subcommand>``.

Subcommands::

    export  Train a registry model at a scale preset and write a bundle.
    query   Load a bundle and answer one top-k query from the shell.
    serve   Load a bundle and run the JSON HTTP service.
    append  Apply a streaming append (unseen entities + known triples)
            to a bundle offline and re-export it as bundle v3.
    inspect Print a bundle's manifest.

Example session (tiny DRKG-MM split)::

    python -m repro.serve export --model TransE --dataset drkg-mm \
        --scale smoke --out /tmp/transe.bundle
    python -m repro.serve query --bundle /tmp/transe.bundle \
        --head Compound-0 --relation CtD --k 5 --filter-known
    python -m repro.serve serve --bundle /tmp/transe.bundle --port 8080

``serve --pool N`` (N >= 1) runs the same bundle behind the
:mod:`repro.pool` tier instead: an async front end with admission
control dispatching to N forked replica workers.  ``--pool 0`` (the
default) is the original threaded in-process server, byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import logging

from .batcher import MicroBatcher
from .bundle import load_bundle, save_bundle
from .engine import PredictionEngine
from .http import make_server

__all__ = ["main"]

logger = logging.getLogger("repro.serve.cli")


def _cmd_export(args: argparse.Namespace) -> int:
    from ..baselines import get_spec
    from ..experiments import get_scale
    from ..experiments.runner import get_prepared, train_model
    from .ann import AnnServing, supports_ann

    get_spec(args.model)  # fail fast with the full name list
    scale = get_scale(args.scale)
    result = train_model(args.model, args.dataset, scale, seed=args.seed,
                         epochs=args.epochs)
    mkg, feats = get_prepared(args.dataset, scale, args.seed)
    ann = None
    if args.ann:
        if not supports_ann(result.model):
            raise SystemExit(
                f"--ann: {args.model} has no ANN hooks; export without --ann "
                "and serve it through the exact path")
        ann = AnnServing.build(result.model, nlist=args.ann_nlist,
                               nprobe=args.ann_nprobe, store=args.ann_store,
                               seed=args.seed)
    save_bundle(args.out, result.model, args.model, mkg.split, feats,
                dim=scale.model_dim,
                extra={"scale": scale.name, "seed": args.seed,
                       "test_metrics": result.test_metrics.as_row()},
                ann=ann)
    payload = {
        "bundle": args.out,
        "model": args.model,
        "dataset": args.dataset,
        "scale": scale.name,
        "test_mrr": round(result.test_metrics.mrr, 4),
    }
    if ann is not None:
        payload["ann"] = ann.stats()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    engine = PredictionEngine.from_bundle(
        args.bundle, ann="require" if args.approx else "auto")
    rel = engine.relations.resolve(args.relation)
    if (args.head is None) == (args.tail is None):
        raise SystemExit("provide exactly one of --head / --tail")
    if args.head is not None:
        anchor = engine.entities.resolve(args.head)
        ids, scores = engine.top_k_tails(anchor, rel, args.k,
                                         filter_known=args.filter_known,
                                         approx=args.approx,
                                         nprobe=args.nprobe)
        direction = "tail"
    else:
        anchor = engine.entities.resolve(args.tail)
        ids, scores = engine.top_k_heads(anchor, rel, args.k,
                                         filter_known=args.filter_known,
                                         approx=args.approx,
                                         nprobe=args.nprobe)
        direction = "head"
    payload = {
        "direction": direction,
        "anchor": engine.entities.name(anchor),
        "relation": engine.relations.name(rel),
        "filter_known": args.filter_known,
        "approx": bool(args.approx),
        "results": [
            {"id": int(i), "entity": engine.entities.name(int(i)),
             "score": float(s)}
            for i, s in zip(ids, scores)
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{direction}-prediction for ({payload['anchor']}, "
              f"{payload['relation']}) [filter_known={args.filter_known}]")
        for rank, item in enumerate(payload["results"], start=1):
            print(f"  {rank:3d}. {item['entity']:<32s} {item['score']:.6f}")
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    """Offline append: grow a bundle's model/vocab/features on disk.

    Reads the same request JSON the ``POST /append`` route accepts,
    applies it through the inductive encoder, and re-exports the bundle
    (v3) with the delta journaled in the manifest's ``stream`` log.  A
    bundled ANN index is carried over as-is — its stale-prefix rows are
    served through the exact fallback until a rebuild.
    """
    import sys

    import numpy as np

    from ..stream import StreamError, apply_append_to_model
    from .ann import AnnServing

    bundle = load_bundle(args.bundle)
    model = bundle.build_model()
    if args.request == "-":
        body = json.load(sys.stdin)
    else:
        with open(args.request, encoding="utf-8") as handle:
            body = json.load(handle)
    try:
        delta, feats = apply_append_to_model(
            model, bundle.split, body, features=bundle.features,
            generation=bundle.stream_generation + 1, source="cli")
    except StreamError as exc:
        raise SystemExit(f"append rejected ({exc.code}): {exc.message}")
    ann = None
    payload = bundle.ann_payload()
    if payload is not None:
        ann = AnnServing.from_payload(*payload)
        if args.rebuild_ann:
            ann = AnnServing.build(model, nlist=ann.index.nlist,
                                   nprobe=ann.index.default_nprobe,
                                   store=ann.index.store)
    appended = np.concatenate(
        [bundle.appended, delta.triples]) if len(delta.triples) \
        else bundle.appended
    stream = {"generation": delta.generation,
              "log": bundle.stream_log + [delta.log_entry()]}
    out = args.out or args.bundle
    save_bundle(out, model, bundle.model_name, bundle.split, feats,
                dim=bundle.dim, extra=bundle.manifest.get("extra"),
                ann=ann, appended=appended, stream=stream)
    print(json.dumps({
        "bundle": out,
        "applied": delta.log_entry(),
        "stream_generation": delta.generation,
        "num_entities": int(bundle.split.num_entities),
        "ann": None if ann is None else
        {"num_vectors": ann.index.num_vectors,
         "stale_rows": ann.stale_rows(bundle.split.num_entities)},
    }, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.trace:
        from ..obs import enable_tracing

        enable_tracing(args.trace)
        worker_files = f" (+ {args.trace}.w<rank> per pool worker)" if args.pool > 0 else ""
        print(f"tracing spans to {args.trace}{worker_files}\n"
              f"  summarize: python -m repro.obs report {args.trace}"
              f"{' ' + args.trace + '.w*' if args.pool > 0 else ''}\n"
              f"  drill into one request: python -m repro.obs report "
              f"--trace <X-Trace-Id> <files>")
    engine = PredictionEngine.from_bundle(args.bundle,
                                          cache_size=args.cache_size,
                                          ann=args.ann,
                                          approx_default=args.approx_default)
    if engine.ann is not None:
        recall = engine.ann_self_check()
        print(f"ann: {engine.ann.index.nlist} lists, default nprobe "
              f"{engine.ann.index.default_nprobe}, self-check recall@10 "
              f"{recall:.3f}")
    if args.pool > 0:
        from ..pool import PoolConfig, run_pool

        config = PoolConfig(
            workers=args.pool,
            max_queue_depth=args.max_queue_depth,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            default_timeout=args.default_timeout_ms / 1e3,
            drain_timeout=args.drain_timeout,
        )
        return run_pool(
            engine, config, host=args.host, port=args.port,
            on_started=lambda server: print(
                f"pool serving {engine.model_name} on "
                f"http://{server.host}:{server.port} with "
                f"{config.workers} workers (SIGTERM drains gracefully)"))
    batcher = MicroBatcher(engine, max_batch=args.max_batch,
                           max_delay=args.max_delay_ms / 1e3)
    server = make_server(engine, batcher, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving {engine.model_name} on http://{host}:{port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
        server.server_close()
        batcher.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.serve",
                                     description=__doc__)
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="level for the repro.serve loggers")
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser("export", help="train a model and write a bundle")
    export.add_argument("--model", required=True, help="registry model name")
    export.add_argument("--dataset", default="drkg-mm")
    export.add_argument("--scale", default="smoke",
                        help="scale preset: smoke | small | paper")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--epochs", type=int, default=None,
                        help="override the preset's epoch budget")
    export.add_argument("--out", required=True,
                        help="bundle path (dir, or *.npz for single-file)")
    export.add_argument("--ann", action="store_true",
                        help="embed a precomputed IVF ANN index in the bundle")
    export.add_argument("--ann-nlist", type=int, default=None,
                        help="IVF list count (default: round(sqrt(entities)))")
    export.add_argument("--ann-nprobe", type=int, default=None,
                        help="default probe count (default: ceil(nlist/4))")
    export.add_argument("--ann-store", default="int8",
                        choices=["int8", "float16", "float32", "float64"],
                        help="quantization of the stored entity table")
    export.set_defaults(func=_cmd_export)

    query = sub.add_parser("query", help="answer one top-k query from a bundle")
    query.add_argument("--bundle", required=True)
    query.add_argument("--head", help="head entity (name or id) for tail prediction")
    query.add_argument("--tail", help="tail entity (name or id) for head prediction")
    query.add_argument("--relation", required=True)
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--filter-known", action="store_true",
                       help="drop tails already present in train/valid/test")
    query.add_argument("--json", action="store_true", help="machine-readable output")
    query.add_argument("--approx", action="store_true",
                       help="use the bundle's ANN index (requires one)")
    query.add_argument("--nprobe", type=int, default=None,
                       help="IVF lists to probe (default: index setting)")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve", help="run the JSON HTTP service (Prometheus text on /metrics)")
    serve.add_argument("--bundle", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--max-delay-ms", type=float, default=2.0)
    serve.add_argument("--cache-size", type=int, default=512)
    serve.add_argument("--trace", metavar="FILE", default=None,
                       help="write request/predict spans to this JSONL file "
                            "(with --pool N, each worker also writes "
                            "FILE.w<rank>; stitch them with "
                            "`python -m repro.obs report FILE FILE.w*`)")
    serve.add_argument("--ann", default="auto",
                       choices=["auto", "off", "require", "build"],
                       help="ANN index policy: auto uses a bundled index when "
                            "present, build trains one at startup")
    serve.add_argument("--approx-default", action="store_true",
                       help="serve /predict approximately unless a request "
                            "opts out")
    serve.add_argument("--pool", type=int, default=0, metavar="N",
                       help="serve from N forked replica workers behind an "
                            "async front end with admission control (0 = "
                            "the in-process threaded server, the default)")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="pool: per-endpoint admitted-request watermark "
                            "before shedding with 429 + Retry-After")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="pool: per-client requests/second token-bucket "
                            "rate (0 disables rate limiting)")
    serve.add_argument("--rate-burst", type=int, default=16,
                       help="pool: token-bucket burst capacity per client")
    serve.add_argument("--default-timeout-ms", type=float, default=30_000.0,
                       help="pool: deadline for requests without their own "
                            "deadline_ms field")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="pool: seconds a graceful shutdown waits for "
                            "in-flight requests")
    serve.set_defaults(func=_cmd_serve)

    append = sub.add_parser(
        "append", help="apply a streaming append to a bundle offline (v3)")
    append.add_argument("--bundle", required=True,
                        help="bundle to grow (dir or *.npz)")
    append.add_argument("--request", required=True,
                        help="append request JSON file ('-' reads stdin): "
                             "{'entities': [{'name', 'type'?, 'description'?, "
                             "'molecule'?}], 'triples': [[h, r, t], ...]}")
    append.add_argument("--out", default=None,
                        help="output bundle path (default: rewrite in place)")
    append.add_argument("--rebuild-ann", action="store_true",
                        help="retrain a bundled ANN index over the grown "
                             "entity table instead of carrying the stale one")
    append.set_defaults(func=_cmd_append)

    inspect = sub.add_parser("inspect", help="print a bundle's manifest")
    inspect.add_argument("--bundle", required=True)
    inspect.set_defaults(func=_cmd_inspect)
    return parser


def _cmd_inspect(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    manifest = dict(bundle.manifest)
    manifest["state_keys"] = {
        name: meta for name, meta in sorted(manifest.get("state_keys", {}).items())
    }
    print(json.dumps(manifest, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    logging.getLogger("repro.serve").setLevel(getattr(logging, args.log_level.upper()))
    return args.func(args)
