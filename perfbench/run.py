"""Run one recseq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload captioning --seed 1 --seconds 55 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else. The process pins the BLAS thread count before
numpy loads. It sets up the workload three times (the median counts
towards ``setup_s``), runs whole cycles (one training, then five rounds
of the other phases) until ``--seconds`` is used up, runs the
correctness checks, and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run makes one untraced cycle of training and
three rounds, then sets up once and repeats that cycle with spans
recorded. Exit status is 0 on a finished run, 1 when the library cannot
be loaded or no operation completes.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_REPS = 3
MIN_CYCLES = 2
ROUNDS_PER_CYCLE = 5
TRACE_ROUNDS = 3

# End-to-end metric -> unit; every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "train_seq_per_s": "seq/s",
    "train_nll": "nats/token",
    "eval_seq_per_s": "seq/s",
    "greedy_steps_per_s": "steps/s",
    "beam_steps_per_s": "steps/s",
    "sample_steps_per_s": "steps/s",
    "retrieval_pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Pin BLAS threads, then import numpy and recseq from ``src/`` only."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import recseq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import recseq from {SRC}: {exc}")
    if not Path(recseq.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: recseq was loaded from {recseq.__file__}, not from {SRC}")
    import workloads

    return workloads


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/recseq/*.py, naming the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "recseq").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        pass
    return {
        "workload": args.workload,
        "seeds": {"data": args.seed, "model_init": 0, "training": 0},
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def run_cycle(w, workloads, samples, rounds):
    """One training, then ``rounds`` rounds; samples go into ``samples``.

    Returns the busy seconds: the timed work, without what the first
    training does untimed (held-out NLL, beam-step count).
    """
    trained = w.train()
    samples["train"] += trained
    busy = sum(secs for _, _, secs in trained)
    for _ in range(rounds):
        begin = time.perf_counter()
        try:
            for phase, sample in w.round().items():
                samples[phase].append(sample)
        except workloads.OperationFailed:
            pass
        busy += time.perf_counter() - begin
    return busy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_library()
    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            workdir = os.path.join(tmp, f"setup{rep}")
            os.mkdir(workdir)
            start = time.perf_counter()
            w = cls(args.seed, workdir)
            w.setup()
            setup_times.append(time.perf_counter() - start)
        samples = {phase: [] for phase in workloads.PHASE_METRICS}
        try:
            if args.trace:
                from spans import LAYER_METRICS, Tracer

                untraced_s = run_cycle(w, workloads, samples, TRACE_ROUNDS)
                tracer = Tracer().install()
                try:
                    workdir = os.path.join(tmp, "traced-setup")
                    os.mkdir(workdir)
                    cls(args.seed, workdir).setup()
                    mark = tracer.mark()
                    traced_s = run_cycle(w, workloads, {phase: [] for phase in samples}, TRACE_ROUNDS)
                finally:
                    tracer.remove()
            else:
                # Whole cycles until --seconds is used up; a cycle is not
                # started when the last one would not fit.
                start = time.perf_counter()
                durations = []
                while len(durations) < MIN_CYCLES or time.perf_counter() + durations[-1] <= start + args.seconds:
                    begin = time.perf_counter()
                    run_cycle(w, workloads, samples, ROUNDS_PER_CYCLE)
                    durations.append(time.perf_counter() - begin)
        except workloads.OperationFailed:
            sys.exit(f"perfbench: training failed on {args.workload}: {w.errors[:3]}")
        if not samples["eval"]:
            sys.exit(f"perfbench: no round of {args.workload} completed: {w.errors[:3]}")
        checks = w.checks()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"setup_reps_s {' '.join(f'{t:.3f}' for t in setup_times)} import_s {import_s:.3f}")
    for phase, got in samples.items():
        got = [sample[-2:] for sample in got]
        rates = " ".join(f"{work / secs:.5g}" for work, secs in got)
        print(f"phase {phase} samples {len(got)} work {got[0][0]:g} "
              f"median_s {statistics.median(secs for _, secs in got):.4f} rates {rates}")
    for name, ok, detail in checks:
        print(f"check {'ok' if ok else 'FAIL'} {name}: {detail}")
    for err in w.errors[:5]:
        print(f"error {err}", file=sys.stderr)

    if args.trace:
        values = tracer.layer_metrics(mark, overhead_s=traced_s - untraced_s)
        units = LAYER_METRICS
        for name in tracer.missing_metrics():
            print(f"missing {name} (hooks not found: {', '.join(tracer.missing)})")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path, meta)
        print(f"trace {trace_path.relative_to(ROOT)} spans {len(tracer.spans)}")
    else:
        # The best sample of each phase: the machine's speed swings by up
        # to 2x over seconds, and noise only ever adds time.
        values = {metric: max(work / secs for work, secs in samples[phase])
                  for phase, metric in workloads.PHASE_METRICS.items() if phase != "train"}
        values["train_seq_per_s"] = w.train_rate(samples["train"])
        values["train_nll"] = w.nll_after
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        values = {name: values[name] for name in END_TO_END}

    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
