"""capseq benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a capseq checkout. One process, one workload, one
closed-loop client. The seed makes the inputs; the program only sees the
generated corpus. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer totals of a traced run, after the workload-property guards
pass. End-to-end timings are scaled to a reference host speed by a
calibration kernel that runs between timed units (see ``calibrate.py``).
Lines before the result list every metric by name and unit, the unscaled
medians, the kernel's times, the output digests and the figures that are
printed but not bounded: ``prep_s``, the GM-BLEU of the reports and of each
training command's validation, and the operation counts. GM-BLEU is fixed by
the seed's inputs and varies between seeds by more than any useful bound.
``prep_s`` (about 10-70 ms a command) moved by up to 30% between
neighbouring runs while the longer timings held steady. The operation counts
are the JSON's attempted/failed.

Exit codes: 0 on a correct run, 1 when an output check or a guard fails
(the JSON line then says ``"correct": false``), 2 when the checkout lacks the
program or the benchmark cannot run.
"""

import os
import sys

# BLAS threads are set before numpy loads; one thread stays within nproc and
# keeps the small matrix products of the desk models steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAPSEQ_SEED", None)  # would override every command's seed

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/capseq/cli.py", "configs/desk.cfg", "data/abbreviations_sample.tsv")

END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_ms.p50": "ms",
    "train_sat_s": "s",
    "train_lm_s": "s",
    "peak_rss_mb": "MB",
}

AUTODIFF_OPS = ("add", "sub", "mul", "matmul", "softmax", "log_softmax", "reduce_mean",
                "reduce_sum", "narrow", "concat", "embedding_lookup", "pick", "sigmoid",
                "tanh", "relu", "powc", "conv2d", "adaptive_avg_pool")
SPANS = (
    [f"autodiff.{op}" for op in AUTODIFF_OPS]
    + ["autodiff.Tape.backward", "optim.step", "captioner.sequence_loss", "lm.loss",
       "lm.forward", "lm.continuation_beams", "lm.generate_continuation",
       "decoding.beam_search", "decoding.greedy_decode", "decoding.two_stage_generate"]
    + [f"captioner.{m}" for m in ("encode", "attend", "lstm_step", "output_distribution",
                                  "decode_caption", "replay_attention", "attention_heatmap")]
    + ["pgm.read_pgm", "pgm.write_pgm",
       "tokenizers.BpeVocabulary.train", "tokenizers.BpeVocabulary.encode",
       "tokenizers.WordVocabulary.build",
       "checkpoint.save_model", "checkpoint.save_tensors", "checkpoint.load_into_model",
       "metrics.bleu_n", "metrics.evaluate_corpus",
       "reportprep.read_raw_corpus", "reportprep.process_study", "reportprep.pack_dataset",
       "reportprep.load_dataset"]
)
COUNTS = {
    "autodiff.input_bytes": "B",
    "autodiff.matmul.flops": "flop",
    "autodiff.tape_entries": "count",
    "optim.step.refused": "count",
    "lm.forward.tokens": "count",
    "lm.step.calls": "count",
    "lm.step.slid": "count",
    "lm.forward.tokens_per_step": "tokens/step",
    "decoding.step_calls_per_token": "calls/token",
    "captioner.encode.images": "count",
    "pgm.bytes_written": "B",
    "tokenizers.BpeVocabulary.encode.bytes": "B",
    "checkpoint.bytes_written": "B",
    "trace.units": "count",
    "trace.overhead_pct": "%",
}
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[f"{_span}.self_ms"] = "ms"
PER_LAYER.update(COUNTS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, info) -> dict:
    totals = tracer.totals()
    totals["lm.forward.tokens_per_step"] = _ratio(totals.get("lm.forward.tokens", 0.0),
                                                  totals.get("lm.step.calls", 0))
    totals["decoding.step_calls_per_token"] = _ratio(
        totals.get("decoding.step_fn_calls", 0.0), totals.get("decoding.output_tokens", 0.0))
    traced, untraced = info["_trace_first_unit_s"]
    totals["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    totals["trace.units"] = info["trace.units"]
    return {name: totals.get(name, 0) for name in PER_LAYER}


def check_guards(guards, values: dict) -> list[str]:
    """Workload-property guards on traced counts; returns the violations."""
    calls, slid = values["lm.step.calls"], values["lm.step.slid"]
    backward = values["autodiff.Tape.backward.calls"]
    rules = {
        "slides": (calls > 0 and slid / calls >= 0.5,
                   f"lm.step.slid/lm.step.calls = {slid}/{calls}, want >= 0.5"),
        "fits": (calls > 0 and slid == 0, f"lm.step.slid = {slid} of {calls}, want 0"),
        "no-lm": (calls == 0, f"lm.step.calls = {calls}, want 0"),
        "no-tape": (backward == 0, f"autodiff.Tape.backward.calls = {backward}, want 0"),
        "tape": (backward > 0, "autodiff.Tape.backward.calls = 0, want > 0"),
    }
    return [rules[g][1] for g in guards if not rules[g][0]]


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a capseq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import pipeline
    from perfbench.commands import BUILD_DIR, CheckError
    from perfbench.tracer import Tracer

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = pipeline.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    print(f"capseq benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(_environment(), sort_keys=True))
    problems = []
    try:
        result = pipeline.run_workload(wl, args.seed, args.seconds, tracer)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if tracer is not None:
        values = per_layer(tracer, result.info)
        problems = check_guards(wl.guards, values)
        units = PER_LAYER
        traces = BUILD_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{wl.name}.tsv.gz")
        print(f"spans written to {(traces / f'{wl.name}.tsv.gz').relative_to(ROOT)}")
    else:
        values = {name: result.metrics[name] for name in END_TO_END}
        units = END_TO_END
    for name, value in result.info.items():
        if not name.startswith("_"):
            print(f"  {name}: {value}")
    print(f"  prep_s: {result.metrics['prep_s']:.6g} s")
    print(f"  ops_attempted: {result.ops.attempted}")
    print(f"  ops_failed: {result.ops.failed}")
    for name, value in values.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    for problem in problems:
        print(f"guard failed: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
