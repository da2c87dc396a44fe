"""Benchmark of the sectsum CLI walkthrough: ingest, label, train, summarize, evaluate.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline-short --seed 1 --seconds 30 --trace 0

The workloads are defined in gen.py, which writes each one's inputs (raw
corpus JSONL and config file) from --seed.  Every CLI phase runs as
``sectsum.cli.main(argv)`` in its own fresh worker process (worker.py) with
every BLAS pool pinned to one thread, as a user running ``sectsum <phase>``
would, so nothing one phase holds in memory reaches the next.

A run repeats the workload's timed phases (one walkthrough per iteration)
for --seconds of iteration time.  Set-up (writing the inputs and, for an
inference workload, training the checkpoint it loads) happens three times,
spread over the run; its median is ``setup_s``.  Each metric is the median
of its samples: one per iteration, or one per phase run for the throughput
metrics (see MIN_SAMPLE_S).  summarize-mixed times only summarize and
evaluate, so its ``label_docs_per_s`` and ``train_doc_steps_per_s`` come
from the label and train runs of its set-up.

Every time is reported at the reference speed of calibrate.py: each phase
run (and each set-up) is bracketed by two runs of a fixed kernel, which
takes out the drift in the speed a shared machine gives one process.  The
values as measured are printed beside each metric and kept in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics, from spans
recorded around calls into sectsum's modules (spans.py); the untraced
iterations give ``trace.overhead_ratio``.  A layer, phase or stage that a
workload's timed phases never reach reports 0.

Every iteration checks its outputs (checks.py), and the labels, checkpoint,
summaries and scores must be byte-identical across iterations.  ``attempted``
counts phase runs, checked documents and compared artifacts; ``failed``
counts the ones that failed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the machine, the artifact hashes and each metric
with its unit.  The whole record also goes to ``perfbench/_work/results/``.
Exit code 2, with no result, means there is no ``src/sectsum`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import gen
from spans import loglog_slope

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PHASES = ("ingest", "label", "train", "summarize", "evaluate")
# a run must end within 180 s: no iteration starts after STOP_STARTING_S and
# a phase still running at KILL_S is stopped and counted as failed
STOP_STARTING_S = 140.0
KILL_S = 170.0
SETUPS_PER_RUN = 3
# One short phase run lands wholly in one moment of a shared machine's
# drifting speed, so an untraced run of a throughput phase shorter than
# MIN_SAMPLE_S is repeated (same inputs, fresh process, identical outputs)
# until its runs add up to MIN_SAMPLE_S; each run is one sample.  Traced runs
# time one walkthrough per iteration and repeat nothing.
RESAMPLED = ("label", "train", "summarize", "evaluate")
MIN_SAMPLE_S = 1.0
MAX_RUNS = 6


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# metric definitions
# ---------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("label_docs_per_s", "1/s"),
    ("train_doc_steps_per_s", "1/s"),
    ("summarize_docs_per_s", "1/s"),
    ("evaluate_docs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("summary_rouge1_recall", "ratio"),
)


def _busy(name):
    return lambda t: t["layers"].get(name, {}).get("busy_s", 0.0)


def _calls(name):
    return lambda t: t["layers"].get(name, {}).get("calls", 0)


def _self(name):
    return lambda t: t["layers"].get(name, {}).get("self_s", 0.0)


def _slope(name):
    return lambda t: loglog_slope(t["points"].get(name, []))


def _coverage(phase):
    return lambda t: _ratio(t["phases"].get(phase, {}).get("covered_s", 0.0),
                            t["phases"].get(phase, {}).get("phase_s", 0.0))


def _all_coverage(t):
    return _ratio(sum(p["covered_s"] for p in t["phases"].values()),
                  sum(p["phase_s"] for p in t["phases"].values()))


# (name, unit, better, value from one traced iteration's merged summary)
PER_LAYER = (
    ("rouge.oracle_labels.busy_s", "s", "lower", _busy("rouge.oracle_labels")),
    ("rouge.oracle_labels.calls", "count", "lower", _calls("rouge.oracle_labels")),
    ("rouge.oracle_labels.fill_ratio", "ratio", "higher",
     lambda t: _ratio(t["counters"]["chosen"], t["counters"]["budget"])),
    ("rouge.rouge_l.busy_s", "s", "lower", _busy("rouge.rouge_l")),
    ("rouge.rouge_n.busy_s", "s", "lower", _busy("rouge.rouge_n")),
    ("encoder.encode_sentences.busy_s", "s", "lower", _busy("encoder.encode_sentences")),
    ("encoder.encode_sentences.calls", "count", "lower", _calls("encoder.encode_sentences")),
    ("encoder.encode_sentences.repeat_ratio", "ratio", "lower",
     lambda t: _ratio(t["counters"]["encode_repeats"],
                      t["layers"].get("encoder.encode_sentences", {}).get("calls", 0))),
    ("encoder.encode_sentences.loglog_slope", "log/log", "lower", _slope("encoder.encode_sentences")),
    ("encoder.compose_embeddings.busy_s", "s", "lower", _busy("encoder.compose_embeddings")),
    ("attention.transformer_layer.busy_s", "s", "lower", _busy("attention.transformer_layer")),
    ("attention.transformer_layer.calls", "count", "lower", _calls("attention.transformer_layer")),
    ("attention.chunks", "count", "lower", lambda t: t["counters"]["chunks"]),
    ("attention.global_rows", "count", "lower", lambda t: t["counters"]["global_rows"]),
    ("attention.transformer_layer.loglog_slope", "log/log", "lower",
     _slope("attention.transformer_layer")),
    ("features.all_features.busy_s", "s", "lower", _busy("features.all_features")),
    ("features.correlation_feature.busy_s", "s", "lower", _busy("features.correlation_feature")),
    ("features.correlation_feature.loglog_slope", "log/log", "lower",
     _slope("features.correlation_feature")),
    ("features.saliency_feature.busy_s", "s", "lower", _busy("features.saliency_feature")),
    ("extractor.predict_scores.busy_s", "s", "lower", _busy("extractor.predict_scores")),
    ("extractor.select_sentences.busy_s", "s", "lower", _busy("extractor.select_sentences")),
    ("extractor.select_sentences.loglog_slope", "log/log", "lower",
     _slope("extractor.select_sentences")),
    ("extractor.shared_trigrams.calls", "count", "lower", _calls("extractor.shared_trigrams")),
    ("extractor.trigram_blocked_ratio", "ratio", "lower",
     lambda t: _ratio(t["counters"]["trigram_blocked"], t["counters"]["trigram_checks"])),
    ("model.forward.busy_s", "s", "lower", _busy("model.forward")),
    ("model.forward.self_s", "s", "lower", _self("model.forward")),
    ("model.forward.calls", "count", "lower", _calls("model.forward")),
    ("model.forward.loglog_slope", "log/log", "lower", _slope("model.forward")),
    ("autodiff.backward.busy_s", "s", "lower", _busy("autodiff.backward")),
    ("autodiff.backward.calls", "count", "lower", _calls("autodiff.backward")),
    ("autodiff.graph_nodes_per_backward", "nodes", "lower",
     lambda t: _ratio(t["counters"]["nodes"],
                      t["layers"].get("autodiff.backward", {}).get("calls", 0))),
    ("training.sgd_step.busy_s", "s", "lower", _busy("training.sgd_step")),
    ("training.clip_gradients.busy_s", "s", "lower", _busy("training.clip_gradients")),
    ("training.evaluate_split.busy_s", "s", "lower", _busy("training.evaluate_split")),
    ("training.updates", "count", "lower", _calls("training.sgd_step")),
    ("corpus.load_corpus.busy_s", "s", "lower", _busy("corpus.load_corpus")),
    ("corpus.load_corpus.sentences", "count", "lower", lambda t: t["counters"]["sentences"]),
    ("checkpoint.save_checkpoint.busy_s", "s", "lower", _busy("checkpoint.save_checkpoint")),
    ("checkpoint.load_checkpoint.busy_s", "s", "lower", _busy("checkpoint.load_checkpoint")),
    ("checkpoint.bytes", "B", "lower", lambda t: t["counters"]["checkpoint_bytes"]),
    *((f"cli.{p}.self_s", "s", "lower", _self(f"cli.{p}")) for p in PHASES),
    *((f"cli.{p}.coverage", "ratio", "higher", _coverage(p)) for p in PHASES),
    ("trace.coverage", "ratio", "higher", _all_coverage),
    # filled in from the paired untraced iterations
    ("trace.overhead_ratio", "ratio", "lower", None),
)


def merge_traces(results: dict[str, dict]) -> dict:
    """One iteration's per-phase tracer summaries as one summary, with every
    time at the reference speed."""
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    points: dict[str, list] = {}
    phases: dict[str, dict] = {}
    for phase, result in results.items():
        summary, k = result["trace"], result["scale"]
        for name, row in summary["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["busy_s"] += row["busy_s"] * k
            acc["self_s"] += row["self_s"] * k
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if phase == "summarize":
            points = {name: [(n, t * k) for n, t in pts] for name, pts in summary["points"].items()}
        phases[phase] = {"phase_s": summary["phase_s"] * k, "covered_s": summary["covered_s"] * k}
    return {"layers": layers, "counters": counters, "points": points, "phases": phases}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class PhaseServer:
    """The fork server of worker.py, which runs each CLI phase in a fresh child."""

    def __init__(self, log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)], cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"}, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log, text=True)

    def run(self, job_path: Path, timeout: float) -> int | None:
        """Exit code of the child that ran the job; None if the server is gone."""
        try:
            self.proc.stdin.write(f"{job_path}\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            return None
        # the child kills itself at `timeout`; more than that means the server hangs
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout + 5.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.strip():
            self.close()
            return None
        return int(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RunFailed(Exception):
    """A phase failed; the run reports correct = false with what it has."""


class Run:
    def __init__(self, workload: gen.Workload, seed: int, seconds: int, trace: bool, work: Path,
                 server: PhaseServer):
        self.w = workload
        self.server = server
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.started = time.monotonic()
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, set[str]] = {}
        self.blas: set[tuple] = set()
        self.setups: list[dict] = []
        self.kernel_s: list[float] = []
        calibrate.kernel_seconds()  # warm-up: the first run pays one-off costs
        self.budget_ratio = workload.config["budget_ratio"]
        self.p = {name: work / name for name in (
            "raw.jsonl", "run.cfg", "corpus.jsonl", "labels.jsonl", "model.ckpt", "metrics.csv",
            "summaries.jsonl", "scores.tsv", "train_raw.jsonl", "train_corpus.jsonl",
            "train_labels.jsonl")}

    # -- phases --------------------------------------------------------------
    def argv(self, phase: str, corpus: str = "corpus.jsonl", labels: str = "labels.jsonl",
             raw: str = "raw.jsonl") -> list[str]:
        p = {k: str(v) for k, v in self.p.items()}
        cfg = ["--config", p["run.cfg"]]
        return {
            "ingest": ["ingest", *cfg, "--input", p[raw], "--out", p[corpus]],
            "label": ["label", *cfg, "--corpus", p[corpus], "--out", p[labels]],
            "train": ["train", *cfg, "--corpus", p[corpus], "--labels", p[labels],
                      "--checkpoint-out", p["model.ckpt"], "--metrics-out", p["metrics.csv"]],
            "summarize": ["summarize", *cfg, "--corpus", p[corpus], "--checkpoint",
                          p["model.ckpt"], "--out", p["summaries.jsonl"]],
            "evaluate": ["evaluate", *cfg, "--summaries", p["summaries.jsonl"],
                         "--corpus", p[corpus], "--out", p["scores.tsv"]],
        }[phase]

    def phase(self, argv: list[str], trace: bool = False) -> dict | None:
        """Run one CLI phase in a fresh process; None (and a failure) if it fails."""
        self.jobs += 1
        job = self.work / f"job{self.jobs:03d}.json"
        result_path = self.work / f"job{self.jobs:03d}.result.json"
        log_path = self.work / f"job{self.jobs:03d}.log"
        timeout = max(1.0, KILL_S - (time.monotonic() - self.started))
        job.write_text(json.dumps({"src": str(SRC), "argv": argv, "trace": trace,
                                   "result": str(result_path), "log": str(log_path),
                                   "timeout": timeout}), encoding="utf-8")
        self.attempted += 1
        self.server.run(job, timeout)
        result = (json.loads(result_path.read_text(encoding="utf-8"))
                  if result_path.exists() else {"rc": None})
        if result["rc"] != 0:
            self.failed += 1
            self.problems.append(f"{argv[0]} exited {result['rc']}; see {log_path}")
            return None
        self.blas.add((result["blas_threads"], result["blas_config"]))
        result["scale"] = calibrate.scale(*result["calibration_s"])
        self.kernel_s.extend(result["calibration_s"])
        return result

    def sampled_phase(self, argv: list[str], trace: bool = False) -> dict:
        """Run a phase, repeated as MIN_SAMPLE_S asks.  "runs" holds every run's
        seconds at the reference speed, "raw_runs" as measured."""
        results = [self.phase(argv, trace)]
        while (results[-1] is not None and not self.trace and argv[0] in RESAMPLED
               and sum(r["seconds"] for r in results) < MIN_SAMPLE_S and len(results) < MAX_RUNS):
            results.append(self.phase(argv))
        if results[-1] is None:
            raise RunFailed
        return {**results[0],
                "runs": [r["seconds"] * r["scale"] for r in results],
                "raw_runs": [r["seconds"] for r in results],
                "maxrss_kb": max(r["maxrss_kb"] for r in results)}

    def expect_same(self, artifact: str, path: Path) -> None:
        self.hashes.setdefault(artifact, set()).add(checks.sha256(path))

    def count_docs(self, bad: set, problems: list[str], n_docs: int) -> None:
        self.attempted += n_docs
        self.failed += len(bad)
        self.problems.extend(problems[:5])

    # -- set-up --------------------------------------------------------------
    def setup(self) -> dict:
        """Write the inputs (and, for an inference workload, the checkpoint)."""
        before = calibrate.kernel_seconds()
        start = time.perf_counter()
        gen.workload_files(self.w, self.seed, self.work)
        samples: dict = {}
        if self.w.train_corpus is not None:
            train = {"corpus": "train_corpus.jsonl", "labels": "train_labels.jsonl"}
            for phase, files in (("ingest", {"raw": "train_raw.jsonl", "corpus": train["corpus"]}),
                                 ("label", train), ("train", train), ("ingest", {})):
                samples[phase] = self.sampled_phase(self.argv(phase, **files))
            self.check_labels(train["corpus"], train["labels"])
            self.expect_same("setup model.ckpt", self.p["model.ckpt"])
        raw = time.perf_counter() - start
        after = calibrate.kernel_seconds()
        self.kernel_s += [before, after]
        return {"seconds": raw * calibrate.scale(before, after), "raw_seconds": raw,
                "phases": samples}

    # -- checks ----------------------------------------------------------------
    def check_labels(self, corpus: str, labels: str) -> None:
        docs = checks.read_corpus(self.p[corpus])
        bad, problems = checks.check_labels(docs, self.p[labels], self.budget_ratio)
        self.count_docs(bad, problems, len(docs))
        self.expect_same(labels, self.p[labels])

    def check_outputs(self, evaluate_stdout: str) -> float:
        docs = checks.read_corpus(self.p["corpus.jsonl"])
        bad, problems = checks.check_summaries(docs, self.p["summaries.jsonl"], self.budget_ratio)
        self.count_docs(bad, problems, len(docs))
        bad, problems, recall = checks.check_scores(set(docs), self.p["scores.tsv"], evaluate_stdout)
        self.count_docs(bad, problems, len(docs))
        self.expect_same("summaries.jsonl", self.p["summaries.jsonl"])
        self.expect_same("scores.tsv", self.p["scores.tsv"])
        return recall

    # -- one timed iteration -------------------------------------------------------
    def iteration(self, traced: bool) -> dict:
        results = {}
        for phase in self.w.phases:
            results[phase] = self.sampled_phase(self.argv(phase), traced)
        if "label" in results:
            self.check_labels("corpus.jsonl", "labels.jsonl")
        if "train" in results:
            self.expect_same("model.ckpt", self.p["model.ckpt"])
        recall = self.check_outputs(results["evaluate"]["stdout"])
        return {
            "seconds": {p: r["runs"][0] for p, r in results.items()},
            "raw_seconds": {p: r["raw_runs"][0] for p, r in results.items()},
            "runs": {p: r["runs"] for p, r in results.items()},
            "raw_runs": {p: r["raw_runs"] for p, r in results.items()},
            "peak_rss_mb": max(r["maxrss_kb"] for r in results.values()) / 1024.0,
            "recall": recall,
            "trace": merge_traces(results) if traced else None,
        }

    def timed_loop(self) -> list[dict]:
        """Repeat the timed phases for --seconds of iteration time.

        Set-ups are interleaved: one before the first iteration and one after
        each further third of the time (only the first when tracing), so the
        set-up samples see the machine at several moments of the run.
        """
        iterations: list[dict] = []
        measured = last = 0.0
        setups = 1 if self.trace else SETUPS_PER_RUN
        while True:
            enough = len(iterations) >= (2 if self.trace else 1) and measured >= self.seconds
            late = iterations and time.monotonic() - self.started + last > STOP_STARTING_S
            if enough or late:
                break
            if len(self.setups) < setups and measured >= len(self.setups) * self.seconds / setups:
                self.setups.append(self.setup())
            t0 = time.monotonic()
            traced = self.trace and len(iterations) % 2 == 1
            iterations.append({"traced": traced, **self.iteration(traced)})
            last = time.monotonic() - t0
            measured += last
        return iterations

    # -- metrics -------------------------------------------------------------------
    def end_to_end(self, iterations: list[dict], raw: bool = False) -> dict:
        """Per-sample values of each end-to-end metric, times at the reference
        speed (or as measured, with raw=True)."""
        spec, cfg = self.w.corpus, self.w.config
        train_spec = self.w.train_corpus or spec
        n_train = train_spec.n_docs - int(round(cfg["holdout_ratio"] * train_spec.n_docs))
        prefix = "raw_" if raw else ""

        def runs(phase):
            timed = [s for it in iterations for s in it[prefix + "runs"].get(phase, [])]
            return timed + [s for setup in self.setups if phase in setup["phases"]
                            for s in setup["phases"][phase][prefix + "runs"]]

        return {
            "setup_s": [setup[prefix + "seconds"] for setup in self.setups],
            "pipeline_s": [sum(it[prefix + "seconds"].values()) for it in iterations],
            "label_docs_per_s": [train_spec.n_docs / s for s in runs("label")],
            "train_doc_steps_per_s": [n_train * cfg["epochs"] / s for s in runs("train")],
            "summarize_docs_per_s": [spec.n_docs / s for s in runs("summarize")],
            "evaluate_docs_per_s": [spec.n_docs / s for s in runs("evaluate")],
            "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
            "summary_rouge1_recall": [it["recall"] for it in iterations],
        }

    def per_layer(self, iterations: list[dict]) -> dict:
        traced = [it for it in iterations if it["traced"]]
        plain = [it for it in iterations if not it["traced"]]
        out = {}
        for name, _unit, _better, fn in PER_LAYER:
            if fn is not None:
                out[name] = _median([fn(it["trace"]) for it in traced])
        out["trace.overhead_ratio"] = (
            _median([sum(it["seconds"].values()) for it in traced])
            / _median([sum(it["seconds"].values()) for it in plain]) - 1.0
        )
        return out


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def machine(run: Run) -> dict:
    import numpy

    blas = (numpy.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": 1,
        "blas_threads_seen": sorted({t for t, _ in run.blas if t is not None}),
        "blas_config": sorted({c for _, c in run.blas if c}),
        "calibration_kernel_s": _median(run.kernel_s),
        "calibration_reference_s": calibrate.REFERENCE_S,
        "git_commit": commit,
    }


def execute(workload: gen.Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    iterations, metrics, samples, raw_samples, raw = [], {}, {}, {}, {}
    with PhaseServer(work / "server.log") as server:
        run = Run(workload, seed, seconds, trace, work, server)
        try:
            iterations = run.timed_loop()
        except RunFailed:
            pass
    if iterations:
        if trace:
            values = run.per_layer(iterations)
            metrics = {n: (values[n], u) for n, u, _b, _f in PER_LAYER}
        else:
            samples = run.end_to_end(iterations)
            raw_samples = run.end_to_end(iterations, raw=True)
            metrics = {n: (_median(samples[n]), u) for n, u in END_TO_END}
            raw = {n: _median(raw_samples[n]) for n, _u in END_TO_END}
    unstable = sorted(a for a, h in run.hashes.items() if len(h) > 1)
    run.attempted += len(run.hashes)
    run.failed += len(unstable)
    run.problems += [f"{a} differs between iterations" for a in unstable]
    threads = {t for t, _ in run.blas if t is not None}
    if threads - {1}:
        run.failed += 1
        run.problems.append(f"BLAS ran with {sorted(threads)} threads, not 1")
    correct = bool(iterations) and run.failed == 0
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(run),
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems,
        "hashes": {a: sorted(h) for a, h in run.hashes.items()},
        "setups": [{k: v for k, v in st.items() if k != "phases"} for st in run.setups],
        "iterations": [{k: v for k, v in it.items() if k != "trace"} for it in iterations],
        "samples": samples,
        "raw_samples": raw_samples,
        "metrics": metrics,
        "raw_metrics": raw,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "sectsum" / "cli.py").is_file():
        print(f"perfbench: no sectsum sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = execute(gen.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    if record["correct"]:  # a failed run keeps its files and logs for inspection
        shutil.rmtree(work, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for artifact, digests in record["hashes"].items():
        print(f"sha256 {artifact} {' '.join(digests)}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for name, (value, unit) in record["metrics"].items():
        as_measured = f" (as measured: {record['raw_metrics'][name]!r})" if record["raw_metrics"] else ""
        print(f"{name} = {value!r} {unit}{as_measured}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        # a non-finite value only arises from output that already failed a check
        "metrics": {n: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for n, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
