#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tieplex command line.

    python3 benchmarks/run.py --workload dense-demo --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload writes its inputs from the seed, then runs its verb list
through the real CLI (``python -m tieplex.cli <verb> --manifest M`` with
``src`` on ``PYTHONPATH``), one child process at a time: a closed loop
with one client.  Passes over the verb list repeat until ``--seconds``
would be exceeded.  With ``--trace 1`` every untraced pass is followed
by a traced pass that calls ``tieplex.cli.main`` in this process with
span wrappers installed (see ``spans.py``).  All outputs are checked
outside the timed region (``oracle.py``).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics without tracing, per-layer metrics with it).  See
``README.md`` for the workloads and what each metric should reveal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

from oracle import Dataset, check_output, report_rows
from sparse_gen import write_sparse_dataset
from spans import Tracer, totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
INPUT_FILES = ("nodes.txt", "edges.csv", "attributes.csv", "manifest.json")


@dataclass(frozen=True)
class Verb:
    name: str
    args: tuple[str, ...] = ()
    fmt: str | None = None

    def argv(self, manifest: Path) -> list[str]:
        fmt = ["--format", self.fmt] if self.fmt else []
        return [self.name, "--manifest", str(manifest), *self.args, *fmt]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    demo: bool  # inputs from `tieplex generate` instead of sparse_gen
    verbs: tuple[Verb, ...]


VALIDATE = Verb("validate")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-demo", 260, True, (
            VALIDATE,
            Verb("summary", fmt="csv"),
            Verb("endogenous", fmt="json"),
            Verb("cross", fmt="json"),
            Verb("equiv", ("--layer", "all", "--tolerance", "0.01"), "text"),
            Verb("wedges", ("--wedge-layer", "all"), "csv"),
            Verb("attrs", ("--layer", "all"), "json"),
        )),
        Workload("sparse-wide", 8000, False, (
            VALIDATE,
            Verb("endogenous", fmt="json"),
            Verb("cross", fmt="json"),
            Verb("wedges", ("--wedge-layer", "all"), "csv"),
        )),
        Workload("pairwise-nodes", 2500, False, (
            VALIDATE,
            Verb("attrs", ("--layer", "all"), "json"),
            Verb("equiv", ("--layer", "all", "--tolerance", "0"), "text"),
        )),
    )
}

# Per-layer metric names are fixed so that every workload reports the
# same set; a span a workload never enters reads 0.
LAYER_NAMES = ("strong_off", "weak_off", "strong_on", "weak_on", "off", "on", "strong", "weak", "all")
PAIR_NAMES = (
    "strong_off-strong_on", "weak_off-weak_on", "strong_off-weak_off", "strong_on-weak_on",
    "strong-weak", "off-on", "strong_on-strong_off", "weak_on-weak_off",
    "weak_off-strong_off", "weak_on-strong_on", "weak-strong", "on-off",
    "strong_off-weak_on", "weak_off-strong_on", "strong_on-weak_off", "weak_on-strong_off",
)
FORMATS = ("json", "text", "csv")
SPAN_NAMES = (
    "cli.main", "synth.write_demo_dataset",
    "io.load_manifest", "io.parse_nodes", "io.parse_edges", "io.parse_attributes", "io.load_dataset",
    "graph.build_graph",
    "metrics.layer_metrics",
    "crosslayer.cross_layer_averages", "crosslayer.attribute_metrics", "crosslayer.unnetworked_similarity",
    "structure.layer_summary", "structure.strongly_connected_components", "structure.path_stats",
    "structure.degree_assortativity", "structure.directed_degree_assortativity",
    "structure.structural_equivalence", "structure.wedge_closure",
    "report.summary_report", "report.endogenous_report", "report.cross_report",
    "report.equivalence_report", "report.wedge_report", "report.attribute_report",
)
COUNT_NAMES = (
    "io.edge_records", "io.input_bytes", "graph.stored_edges", "metrics.jaccard_terms",
    "crosslayer.baseline_pairs", "structure.bfs_sources", "structure.wedges",
    "structure.equiv_classes", "report.rows", "report.output_bytes",
)


def end_to_end_metrics() -> list[tuple[str, str]]:
    return [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB")]


def per_layer_metrics() -> list[tuple[str, str]]:
    names = ["cli.import_s"] + [f"{name}_s" for name in SPAN_NAMES]
    names += [f"metrics.layer_metrics.{layer}_s" for layer in LAYER_NAMES]
    names += [f"crosslayer.cross_layer_averages.{pair}_s" for pair in PAIR_NAMES]
    names += [f"report.render.{fmt}_s" for fmt in FORMATS]
    units = [(name, "s") for name in names]
    units += [(name, "count") for name in COUNT_NAMES]
    return units + [("graph.bytes_per_edge", "B"), ("trace.overhead_ratio", "ratio")]


CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)


@dataclass
class Run:
    """One verb execution: wall time, exit code, peak RSS and its output."""

    seconds: float
    code: int
    rss_mb: float | None
    out: bytes
    err: bytes


def spawn(args: list[str], work: Path) -> Run:
    """Run ``python <args>`` from the repo root and wait for it with wait4."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(seconds, proc.returncode, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes())


def call_main(argv: list[str], tracer: Tracer, key: str) -> Run:
    """Run ``tieplex.cli.main(argv)`` in this process inside a root span."""
    from tieplex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        with tracer.span("cli.main", key):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    return Run(seconds, code, None, out.getvalue().encode(), err.getvalue().encode())


def file_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name in INPUT_FILES:
        h.update((directory / name).read_bytes())
    return h.hexdigest()


@dataclass
class Setup:
    """Repeated writes of one workload's inputs, each timed and compared."""

    w: Workload
    seed: int
    work: Path
    trace: bool
    seconds: list[float] = field(default_factory=list)
    synth_s: list[float] = field(default_factory=list)
    digest: str | None = None

    def write(self, out_dir: Path) -> list[str]:
        """Write the inputs into ``out_dir``; return the problems found."""
        if not self.w.demo:
            start = time.perf_counter()
            write_sparse_dataset(out_dir, self.seed, self.w.n)
            self.seconds.append(time.perf_counter() - start)
            return self._compare(out_dir)
        argv = ["generate", "--out", str(out_dir), "--seed", str(self.seed), "--nodes", str(self.w.n)]
        if self.trace:
            tracer = Tracer()
            with tracer.installed():
                run = call_main(argv, tracer, "generate")
            self.synth_s.append(totals(tracer.spans)[0].get("synth.write_demo_dataset", 0.0))
        else:
            run = spawn(["-m", "tieplex.cli", *argv], self.work)
        self.seconds.append(run.seconds)
        if run.code != 0 or run.err:
            return [f"generate: exit code {run.code}, stderr {run.err[:200]!r}"]
        return self._compare(out_dir)

    def _compare(self, out_dir: Path) -> list[str]:
        digest = file_digest(out_dir)
        self.digest = self.digest or digest
        return [] if digest == self.digest else ["inputs differ from the first write"]


def graph_bytes(manifest: Path) -> int:
    """Bytes still allocated by one ``build_graph`` call, under tracemalloc."""
    from tieplex import io as tio

    build = tio.build_graph
    measured = []

    def measured_build(*args, **kwargs):
        tracemalloc.start()
        try:
            graph = build(*args, **kwargs)
            measured.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        return graph

    tio.build_graph = measured_build
    try:
        tio.load_dataset(manifest)
    finally:
        tio.build_graph = build
    return measured[0]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    """Interpreter, libraries, CPU, caches, memory and source revision."""
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    mem = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal")),
        None,
    )
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(), **versions,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches, "mem_total": mem,
        "commit": commit, "dirty": dirty,
    }


@dataclass
class Outcome:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def run_problems(run: Run, reference: bytes) -> list[str]:
    problems = []
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    if run.err:
        problems.append(f"stderr {run.err[:200]!r}")
    if run.out != reference:
        problems.append("output bytes differ from the first pass")
    return problems


def bench(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "input"
    inputs.mkdir(parents=True)
    manifest = inputs / "manifest.json"
    outcome = Outcome()

    # Set-up is timed a few times up front and once more before each
    # pass, so that its median spans the whole run like the others.
    setup = Setup(w, seed, work, trace)
    for k in range(SETUP_REPEATS):
        outcome.record(f"setup {k}", setup.write(inputs))
    import_s = [spawn(["-c", "import tieplex.cli"], work).seconds for _ in range(IMPORT_REPEATS)] if trace else []

    passes: list[list[Run]] = []
    traced: list[tuple[Tracer, list[Run]]] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        outcome.record(f"setup before pass {len(passes)}", setup.write(work / "again"))
        passes.append([spawn(["-m", "tieplex.cli", *v.argv(manifest)], work) for v in w.verbs])
        if trace:
            tracer = Tracer()
            with tracer.installed():
                runs = [call_main(v.argv(manifest), tracer, v.name) for v in w.verbs]
            traced.append((tracer, runs))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break

    # Checks, outside the timed region.
    from tieplex.report import load_report_schema

    ds = Dataset(manifest)
    schema = load_report_schema()
    reference = [run.out for run in passes[0]]
    content = [check_output(ds, v.name, v.fmt, v.args, ref, schema) for v, ref in zip(w.verbs, reference)]
    for p, runs in enumerate(passes):
        for v, run, ref, bad in zip(w.verbs, runs, reference, content):
            outcome.record(f"pass {p} {v.name}", run_problems(run, ref) + bad)
    for p, (_, runs) in enumerate(traced):
        for v, run, ref in zip(w.verbs, runs, reference):
            outcome.record(f"traced pass {p} {v.name}", run_problems(run, ref))

    run_s = [sum(r.seconds for r in runs) for runs in passes]
    samples = {v.name: [runs[k].seconds for runs in passes] for k, v in enumerate(w.verbs)}
    verb_s = {f"{name}_s": median(times) for name, times in samples.items()}
    e2e = {
        "setup_s": median(setup.seconds),
        "run_s": median(run_s),
        "peak_rss_mb": median(max(r.rss_mb for r in runs) for runs in passes),
    }
    record = {
        "workload": w.name, "seed": seed, "n": ds.n,
        "generator": "tieplex generate" if w.demo else "sparse_gen v1",
        "ties": {name: ds.stored_edges(name) for name in ds.basic},
        "input_bytes": ds.input_bytes, "passes": len(passes),
        "verbs": [" ".join(v.argv(Path("M"))) for v in w.verbs],
        "verb_s": verb_s, "run_s_samples": run_s,
        "verb_s_samples": samples,
        "fail_ratio": outcome.failed / outcome.attempted,
        "env": environment(),
    }
    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end_metrics()}
        table = {**verb_s, **e2e, "fail_ratio": record["fail_ratio"]}
        units = {"peak_rss_mb": "MiB", "fail_ratio": "ratio"}
        lines = [f"{name:<24} {value:>12.4f} {units.get(name, 's')}" for name, value in table.items()]
    else:
        layer, shares, breakdown = traced_metrics(w, ds, traced, reference, verb_s, e2e["run_s"])
        layer["cli.import_s"] = median(import_s)
        layer["synth.write_demo_dataset_s"] = median(setup.synth_s) if setup.synth_s else 0.0
        stored = sum(ds.stored_edges(name) for name, _ in ds.layers)
        layer["graph.bytes_per_edge"] = graph_bytes(manifest) / stored
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_metrics()}
        record.update(
            shares=shares, breakdown=breakdown, traced_passes=len(traced),
            missing_bindings=sorted({m for tracer, _ in traced for m in tracer.missing}),
        )
        write_spans(work / "spans.json", traced)
        lines = [f"{name:<56} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
        lines += [f"share {name:<50} {value:>14.4f}" for name, value in shares.items()]
    result = {
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }
    header = f"== {w.name} seed={seed} n={ds.n} passes={len(passes)} trace={int(trace)}"
    return result, [header, *lines, *outcome.problems[:20], "record " + json.dumps(record)]


def traced_metrics(w: Workload, ds: Dataset, traced, reference: list[bytes], verb_s: dict, run_s: float):
    """Per-layer metrics (medians over traced passes), layer shares and per-key detail.

    Shares divide span times of the traced passes by untraced wall times
    (``verb_s``, ``run_s``): the time a user waits, interpreter start-up
    included.
    """
    report_s = sum(t for name, t in verb_s.items() if name != "validate_s")
    samples: dict[str, list[float]] = {}
    keyed_samples: dict[str, list[float]] = {}
    shares_samples: dict[str, list[float]] = {}
    for tracer, _ in traced:
        own, keyed, inclusive = totals(tracer.spans)
        one = {f"{name}_s": own.get(name, 0.0) for name in SPAN_NAMES}
        for (name, key), t in keyed.items():
            keyed_samples.setdefault(f"{name}.{key}_s", []).append(t)
        for layer in LAYER_NAMES:
            one[f"metrics.layer_metrics.{layer}_s"] = keyed.get(("metrics.layer_metrics", layer), 0.0)
        for pair in PAIR_NAMES:
            one[f"crosslayer.cross_layer_averages.{pair}_s"] = keyed.get(("crosslayer.cross_layer_averages", pair), 0.0)
        for fmt in FORMATS:
            one[f"report.render.{fmt}_s"] = keyed.get(("report.render", fmt), 0.0)
        one["trace.run_s"] = inclusive.get("cli.main", 0.0)
        for name, value in one.items():
            samples.setdefault(name, []).append(value)
        # Shares that confirm what each workload is bound by.
        io_graph = sum(t for name, t in own.items() if name.startswith(("io.", "graph.")))
        kernels = {name: t for name, t in own.items() if name.startswith(("metrics.", "crosslayer.", "structure."))}
        top = sorted(kernels, key=kernels.get, reverse=True)[:2]
        for name, value in {
            "io_and_graph_of_report_verbs": io_graph / report_s,
            "load_dataset_of_report_verbs": inclusive.get("io.load_dataset", 0.0) / report_s,
            "attrs_baseline_and_equiv_of_run_s": (
                own.get("crosslayer.unnetworked_similarity", 0.0)
                + own.get("structure.structural_equivalence", 0.0)
            ) / run_s,
            f"top_two_kernels_of_report_verbs:{'+'.join(top)}": sum(kernels[n] for n in top) / report_s,
        }.items():
            shares_samples.setdefault(name, []).append(value)
    layer = {name: median(values) for name, values in samples.items()}
    layer["trace.overhead_ratio"] = layer.pop("trace.run_s") / run_s
    layer.update(work_counts(w, ds, traced[0][0], reference))
    shares = {name: median(values) for name, values in shares_samples.items()}
    breakdown = {name: median(values) for name, values in sorted(keyed_samples.items())}
    return layer, shares, breakdown


def work_counts(w: Workload, ds: Dataset, tracer: Tracer, reference: list[bytes]) -> dict[str, int]:
    """Work done in one traced pass, from the inputs and the rendered reports."""
    calls = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    loads = calls.get("io.load_dataset", 0)
    builds = calls.get("graph.build_graph", 0)
    counts = dict.fromkeys(COUNT_NAMES, 0)
    counts["io.edge_records"] = loads * ds.edge_records
    counts["io.input_bytes"] = loads * ds.input_bytes
    counts["graph.stored_edges"] = builds * sum(ds.stored_edges(name) for name, _ in ds.layers)
    counts["metrics.jaccard_terms"] = sum(
        ds.n + 2 * ds.stored_edges(s.key) for s in tracer.spans if s.name == "metrics.layer_metrics"
    )
    counts["crosslayer.baseline_pairs"] = calls.get("crosslayer.unnetworked_similarity", 0) * (ds.n * (ds.n - 1) // 2)
    for v, data in zip(w.verbs, reference):
        if v.name == "validate":
            continue
        meta, rows = report_rows(v.fmt, data.decode("utf-8"))
        counts["report.rows"] += len(rows)
        counts["report.output_bytes"] += len(data)
        if v.name == "summary":
            counts["structure.bfs_sources"] += sum(
                int(r["scc_nodes"]) for r in rows if int(r["scc_nodes"]) >= 2
            )
        elif v.name == "wedges":
            counts["structure.wedges"] += int(meta["total_wedges"])
        elif v.name == "equiv":
            counts["structure.equiv_classes"] += len(rows)
    return counts


def write_spans(path: Path, traced) -> None:
    doc = [
        [{"name": s.name, "key": s.key, "start": s.start, "end": s.end, "parent": s.parent, "verb": s.verb}
         for s in tracer.spans]
        for tracer, _ in traced
    ]
    path.write_text(json.dumps(doc) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tieplex" / "cli.py").is_file():
        print(f"error: no tieplex sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    probe = spawn(["-c", "import tieplex.cli"], WORK)  # also compiles the bytecode once
    if probe.code != 0:
        print(f"error: cannot import tieplex.cli: {probe.err.decode(errors='replace')}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
