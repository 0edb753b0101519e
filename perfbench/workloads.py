"""The benchmark's three workloads: inputs, measurement and output checks.

Every workload turns ``--seed`` into a deterministic sequence of experiment
specs drawn from a fixed pool (:func:`pools`), runs that sequence for the
time budget, checks every report's ``canonical_json()`` digest against
``reference/<workload>.json`` and reports the end-to-end metrics (untraced)
or the per-layer metrics (traced).  The program only ever sees the specs.

* ``explore_table3`` — Table-III q-learning campaigns over the four paper
  benchmarks, several seeds each at the paper's step budget, fresh
  in-memory store, serial executor: the agent/env/reward loop.
* ``sweep_cold`` — exhaustive sweeps of the four paper benchmarks into a
  fresh sqlite store, serial: kernels and store writes, no agent.
* ``service_warm`` — two closed-loop clients against ``repro-axc serve``
  on a store pre-warmed during set-up: store reads, planner replays,
  protocol, report serialisation and the daemon's FIFO worker.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import queue
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
#: Scratch space (temp stores, sockets, traces), relative to the checkout.
OUT_DIR = Path(".perfbench_out")

WORKLOADS = ("explore_table3", "sweep_cold", "service_warm")
PAPER_BENCHMARKS = ("matmul_10x10", "matmul_50x50", "fir_100", "fir_200")
#: The paper's exploration budget per episode.
PAPER_STEPS = 10_000
#: Seeds per campaign / sweep spec (one batched job per benchmark).
SEEDS_PER_SPEC = 4
EXPLORE_SPECS = 24
SWEEP_SPECS = 64
#: Service specs use the step budget a spec gets when it names none
#: (``ExperimentSpec.max_steps``, also the ``repro-axc campaign`` default),
#: not the paper's 10,000: an assumption about what users send a shared
#: daemon, chosen so that a run completes enough submissions for a p90.
SERVICE_STEPS = 1000
SERVICE_UNSEEN = 256
#: Per block of ten submissions: finished-ticket repeats, respelled
#: repeats (planner replays from the store) and unseen seeds.  An assumed
#: mix, not a recorded one (see README.md, "Assumptions").
SERVICE_BLOCK = ("exact",) * 3 + ("respelled",) * 5 + ("unseen",) * 2
CLIENTS = 2
#: Set-ups timed per run (the median is reported); a service set-up
#: pre-warms a store and starts a daemon, so it gets fewer.
SETUP_TRIALS = {"explore_table3": 5, "sweep_cold": 5, "service_warm": 3}
#: Units a traced run measures per second of ``--seconds`` (each of its two
#: phases runs about half the budget on the code this benchmark was set
#: up on), so traced counts are a fixed function of (seed, seconds).
TRACE_UNITS_PER_S = {"explore_table3": 0.14, "sweep_cold": 0.55, "service_warm": 2.5}
REQUEST_TIMEOUT_S = 120.0
#: Untraced timings are reported in reference seconds: measured seconds
#: times ``REFERENCE_LOOP_S`` over the time of ``calibrate.py``'s loop
#: taken just before and just after them (see :class:`Calibrator`).
REFERENCE_LOOP_S = 0.06
#: A calibration is kept only if the program's processes used at most
#: this share of its wall-clock in CPU time.
IDLE_CPU_SHARE = 0.1
#: The service's closed loop runs in segments of this many seconds; the
#: clients stop between them so that the machine can be calibrated.
SERVICE_SEGMENT_S = 6.0


# ------------------------------------------------------------------ inputs


def _campaign(benchmarks: Sequence[str], seeds: Sequence[int], steps: int) -> dict:
    return {"kind": "campaign", "benchmarks": list(benchmarks),
            "agents": ["q-learning"], "seeds": list(seeds), "max_steps": steps}


def _explore(benchmark: str, seed: int) -> dict:
    return {"kind": "explore", "benchmarks": [benchmark], "agents": ["q-learning"],
            "seeds": [seed], "max_steps": SERVICE_STEPS}


def _sweep(benchmarks: Sequence[str], seeds: Sequence[int]) -> dict:
    return {"kind": "sweep", "benchmarks": list(benchmarks), "seeds": list(seeds)}


def _seed_block(index: int) -> List[int]:
    return list(range(index * SEEDS_PER_SPEC, (index + 1) * SEEDS_PER_SPEC))


def _respellings(spec: dict) -> List[dict]:
    """Every reordering of the spec's seeds and benchmarks but its own."""
    variants = []
    for seeds in itertools.permutations(spec["seeds"]):
        for benchmarks in (spec["benchmarks"], spec["benchmarks"][::-1]):
            variant = dict(spec, seeds=list(seeds), benchmarks=list(benchmarks))
            if variant != spec and variant not in variants:
                variants.append(variant)
    return variants


def pools() -> Dict[str, Dict[str, List[dict]]]:
    """Every spec each workload can submit, by workload and category."""
    # Assumed traffic: the repeated specs share eight evaluation contexts
    # (two paper benchmarks x seeds 0-3), which keeps the pre-warmed store
    # and set-up small; the larger benchmarks arrive only as unseen seeds.
    exact = [
        _explore("matmul_10x10", 0), _explore("fir_100", 0),
        _explore("matmul_10x10", 1), _explore("fir_100", 1),
        _campaign(["matmul_10x10", "fir_100"], [0, 1, 2, 3], SERVICE_STEPS),
        _campaign(["matmul_10x10"], [0, 1, 2, 3], SERVICE_STEPS),
        _campaign(["fir_100"], [0, 1, 2, 3], SERVICE_STEPS),
        _sweep(["matmul_10x10", "fir_100"], [0, 1]),
    ]
    return {
        "explore_table3": {"campaign": [
            _campaign(PAPER_BENCHMARKS, _seed_block(i), PAPER_STEPS)
            for i in range(EXPLORE_SPECS)]},
        "sweep_cold": {"sweep": [
            _sweep(PAPER_BENCHMARKS, _seed_block(i)) for i in range(SWEEP_SPECS)]},
        "service_warm": {
            "exact": exact,
            "respelled": [v for spec in exact if len(spec["seeds"]) > 1
                          for v in _respellings(spec)],
            "unseen": [_explore(PAPER_BENCHMARKS[i % 4], 1000 + i)
                       for i in range(SERVICE_UNSEEN)],
        },
    }


def sequence(workload: str, seed: int) -> Iterator[Tuple[str, dict]]:
    """The endless, seed-determined ``(category, spec)`` stream of a workload."""
    rng = random.Random(seed)
    categories = pools()[workload]
    shuffled = {name: rng.sample(specs, len(specs)) for name, specs in categories.items()}
    cursors = dict.fromkeys(shuffled, 0)
    if workload == "service_warm":
        block = list(SERVICE_BLOCK)
    else:
        block = list(shuffled)
    while True:
        rng.shuffle(block)
        for name in block:
            specs = shuffled[name]
            yield name, specs[cursors[name] % len(specs)]
            cursors[name] += 1


def fingerprint(spec: dict) -> str:
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec.from_dict(spec).fingerprint()


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_reference(workload: str) -> Dict[str, str]:
    """``{spec fingerprint: sha256 of canonical_json()}`` for a workload."""
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["digests"]


# ------------------------------------------------------------- measurement


class Tally:
    """What one phase of a run did, and how much of it was right."""

    def __init__(self) -> None:
        self.busy_s = 0.0           # time inside the measured calls
        self.wall_s = 0.0           # phase wall-clock (closed loops)
        self.units = 0
        self.steps = 0
        self.points = 0
        self.latencies: List[float] = []
        self.unit_s: List[float] = []   # measured seconds of each in-process unit
        #: ``busy_s`` and ``latencies`` in reference seconds.
        self.ref_busy_s = 0.0
        self.ref_latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []
        self.window = (0.0, 0.0)

    def add_time(self, busy_s: float, latencies: Sequence[float], factor: float) -> None:
        """Add measured time and latencies, and their reference seconds."""
        self.busy_s += busy_s
        self.latencies.extend(latencies)
        self.ref_busy_s += busy_s * factor
        self.ref_latencies.extend(latency * factor for latency in latencies)

    def merge(self, other: "Tally", factor: float) -> None:
        """Fold in a closed-loop segment measured at machine factor ``factor``."""
        self.add_time(other.busy_s, other.latencies, factor)
        self.wall_s += other.wall_s
        self.units += other.units
        self.steps += other.steps
        self.attempted += other.attempted
        self.failed += other.failed
        self.digests.extend(other.digests)

    def check(self, spec: dict, canonical: Optional[str], entries_ok: Sequence[bool],
              reference: Dict[str, str], requests: int) -> None:
        """Count ``requests`` attempts; all fail on a wrong or missing report."""
        self.attempted += requests
        found = None if canonical is None else digest(canonical)
        self.digests.append(found or "")
        if found is None or reference.get(fingerprint(spec)) != found:
            self.failed += requests
        else:
            self.failed += min(requests, sum(1 for ok in entries_ok if not ok))


def _entry_steps(entry_metrics: dict) -> int:
    """Design-point evaluations an entry asked for: RL steps or swept points."""
    if "num_steps" in entry_metrics:
        return int(entry_metrics["num_steps"])
    return int(entry_metrics["space_size"])


def run_inprocess_units(workload: str, specs: Iterator[Tuple[str, dict]],
                        reference: Dict[str, str], scratch: Path,
                        budget_s: Optional[float] = None,
                        count: Optional[int] = None,
                        calibrator: Optional["Calibrator"] = None) -> Tally:
    """Run report units in this process until ``budget_s`` of measured time
    (or ``count`` units) — what ``repro-axc campaign|sweep`` does per call.

    With a ``calibrator``, the machine is calibrated between units and each
    unit's time is also kept in reference seconds."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    tally = Tally()
    started = time.perf_counter()
    before = calibrator.sample() if calibrator is not None else None
    while True:
        if count is not None and tally.units >= count:
            break
        if budget_s is not None and tally.busy_s >= budget_s:
            break
        _, spec_dict = next(specs)
        payload = dict(spec_dict)
        store_path = None
        if workload == "sweep_cold":
            store_path = scratch / f"sweep-{tally.units}.sqlite"
            payload["runtime"] = {"store_path": str(store_path)}
        spec = ExperimentSpec.from_dict(payload)
        t0 = time.perf_counter()
        report = run_experiment(spec)
        report.to_dict()
        canonical = report.canonical_json()
        tally.unit_s.append(time.perf_counter() - t0)
        factor = 1.0
        if calibrator is not None:
            after = calibrator.sample()
            factor = calibrator.factor(before, after)
            before = after
        tally.add_time(tally.unit_s[-1], [entry.duration_s for entry in report.entries],
                       factor)
        tally.units += 1
        tally.steps += sum(_entry_steps(entry.metrics) for entry in report.entries)
        tally.points += int(report.store["size"])
        tally.check(spec_dict, canonical, [entry.ok for entry in report.entries],
                    reference, requests=len(report.entries))
        if store_path is not None:
            for leftover in scratch.glob(store_path.name + "*"):
                leftover.unlink()
    tally.wall_s = time.perf_counter() - started
    tally.window = (started, started + tally.wall_s)
    return tally


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` so far (Linux)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Calibrator:
    """Times ``calibrate.py``'s loop in a process of its own, between units
    of measured work, so that timings can be reported in reference seconds.

    A sample is kept only if this process (all its threads) and every
    process in ``pids`` (the daemon) together used at most
    ``IDLE_CPU_SHARE`` of the sample's wall-clock in CPU time: work the
    program leaves running in the background can then neither slow the
    loop nor shift the scale.
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.kept: List[float] = []
        self.rejected = 0

    def sample(self, pids: Sequence[int] = ()) -> Optional[float]:
        """Median loop seconds now, or None if the program was not idle."""
        others = sum(_cpu_seconds(pid) for pid in pids)
        cpu = time.process_time()
        t0 = time.perf_counter()
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        samples = json.loads(self.process.stdout.readline())
        wall = time.perf_counter() - t0
        used = time.process_time() - cpu + sum(_cpu_seconds(pid) for pid in pids) - others
        if used > IDLE_CPU_SHARE * wall:
            self.rejected += 1
            return None
        self.kept.append(statistics.median(samples))
        return self.kept[-1]

    def factor(self, before: Optional[float], after: Optional[float]) -> float:
        """Reference seconds per measured second for work done between two
        samples (either may be missing; then all kept samples are used)."""
        around = [value for value in (before, after) if value is not None] or self.kept
        if not around:
            raise RuntimeError("the program was never idle: cannot calibrate")
        return REFERENCE_LOOP_S / statistics.median(around)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait(timeout=30)


def warm_process() -> None:
    """Import the program and compile every LUT in this process."""
    from repro.operators import default_catalog

    catalog = default_catalog()
    for name in catalog.names():
        catalog.compiled_instance(name)


def probe_setup(scratch: Path, with_store: bool) -> None:
    """Start one fresh interpreter that imports, compiles and opens a store,
    and return the moment it exits."""
    command = [sys.executable, str(HERE / "setup_probe.py")]
    store = scratch / "probe.sqlite"
    if with_store:
        command += ["--store", str(store)]
    process = subprocess.Popen(command, cwd=ROOT)
    # A blocking wait returns the moment the probe exits; ``wait(timeout)``
    # would poll, rounding every set-up up to a 50 ms step.
    watchdog = threading.Timer(120.0, process.kill)
    watchdog.start()
    try:
        code = process.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, command)
    for leftover in scratch.glob("probe.sqlite*"):
        leftover.unlink()


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process, or of ``pid`` (Linux)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    # Nearest rank: the smallest value with at least q% of samples at or below.
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def end_to_end(tally: Tally, setup: Sequence[float], rss_mb: float,
               reference: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one untraced phase: work over measured
    time, latency percentiles over every request, median set-up — in
    reference seconds, or as measured if ``reference`` is false (``setup``
    is passed in the matching unit)."""
    busy = tally.ref_busy_s if reference else tally.busy_s
    latencies = tally.ref_latencies if reference else tally.latencies
    return {
        "setup_s": statistics.median(setup),
        "steps_per_s": tally.steps / busy,
        "points_per_s": tally.points / busy,
        "requests_per_s": len(latencies) / busy,
        "request_p50_s": percentile(latencies, 50),
        "request_p90_s": percentile(latencies, 90),
        "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "peak_rss_mb": rss_mb,
    }


# ----------------------------------------------------------------- daemon


class Daemon:
    """One ``repro-axc serve`` process started through the launcher."""

    READY = "repro-axc serve: ready on "

    def __init__(self, store: Path, socket_path: Path,
                 trace_path: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "daemon_launcher.py"),
                   "--store", str(store), "--socket", str(socket_path)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        self.address = str(socket_path)
        self.log: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                        stderr=subprocess.STDOUT, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.perf_counter() + 120.0
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError("daemon did not become ready:\n" + "".join(self.log))
            if line.startswith(self.READY):
                return

    def _read(self) -> None:
        for line in self.process.stdout:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Drain the daemon through the protocol and wait for it to exit."""
        from repro.service import ServiceClient

        if self.process.poll() is None:
            ServiceClient(self.address).shutdown()
            try:
                self.process.wait(timeout=120)
            except subprocess.TimeoutExpired:
                self.kill()
        self._reader.join(timeout=10)
        if self.process.returncode != 0:
            raise RuntimeError(f"daemon exited with {self.process.returncode}:\n"
                               + "".join(self.log))

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


def prewarm_store(directory: Path) -> Path:
    """A sqlite store holding every evaluation of the service's exact specs."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec
    from repro.runtime import EvaluationStore

    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "store.sqlite"
    store = EvaluationStore(path)
    for spec in pools()["service_warm"]["exact"]:
        run_experiment(ExperimentSpec.from_dict(spec), store=store)
    store.close()
    return path


def copy_store(source: Path, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for file in source.parent.glob(source.name + "*"):
        shutil.copy(file, directory / file.name)
    return directory / source.name


def _remote_request(client, spec, stream: bool, recorder) -> Tuple[Optional[str], dict]:
    """Submit and wait; returns the daemon's canonical bytes and report.

    Untraced runs use ``ServiceClient.run`` (what ``run --remote`` does).
    Traced phases follow the ticket's event stream instead, so the wait
    splits into queueing (submit to ``running``) and running (to done).
    """
    from repro.errors import ServiceError

    if not stream:
        reply = client.run(spec, timeout_s=REQUEST_TIMEOUT_S)
        return reply.canonical_json(), reply.payload
    span = None if recorder is None else recorder.begin(
        recorder.name_id("service.request"), new_request=True)
    try:
        inner = None if recorder is None else recorder.begin(
            recorder.name_id("service.submit"))
        try:
            submitted = client.submit(spec)
        finally:
            if inner is not None:
                recorder.end(inner)
        sent = time.perf_counter()
        running = None
        final = None
        for frame in client.stream(str(submitted["ticket"])):
            if frame.get("event") == "state" and running is None:
                running = time.perf_counter()
            if "state" in frame and "event" not in frame:
                final = frame
        done = time.perf_counter()
        if recorder is not None:
            running = done if running is None else running
            recorder.record("service.queue_wait", sent, running)
            recorder.record("service.run", running, done)
    finally:
        if span is not None:
            recorder.end(span)
    if final is None or final.get("state") != "done":
        raise ServiceError(f"ticket {submitted['ticket']} ended as {final!r}")
    return str(final["canonical"]), final["report"]


def run_closed_loop(address: str, specs: Iterator[Tuple[str, dict]],
                    reference: Dict[str, str], budget_s: Optional[float] = None,
                    count: Optional[int] = None, stream: bool = False,
                    recorder=None) -> Tuple[Tally, list]:
    """Two client threads, each submitting its next spec once the previous
    reply arrived, until ``budget_s`` elapsed (or ``count`` submissions).

    Returns the tally and ``(category, spec, canonical)`` of every reply.
    Requests use ``ServiceClient.run`` unless ``stream`` is set; streamed
    requests record spans into ``recorder`` when one is given.
    """
    from repro.errors import ReproError
    from repro.experiments.spec import ExperimentSpec
    from repro.service import ServiceClient

    tally = Tally()
    replies: list = []
    lock = threading.Lock()
    issued = 0
    started = time.perf_counter()
    last_done = [started]

    def take() -> Optional[Tuple[str, dict]]:
        nonlocal issued
        with lock:
            if count is not None and issued >= count:
                return None
            if budget_s is not None and time.perf_counter() - started >= budget_s:
                return None
            issued += 1
            return next(specs)

    def client_loop() -> None:
        client = ServiceClient(address)
        while True:
            item = take()
            if item is None:
                return
            category, spec_dict = item
            spec = ExperimentSpec.from_dict(spec_dict)
            t0 = time.perf_counter()
            try:
                canonical, payload = _remote_request(client, spec, stream, recorder)
            except ReproError:
                canonical, payload = None, {"entries": []}
            t1 = time.perf_counter()
            entries = payload.get("entries", [])
            with lock:
                last_done[0] = max(last_done[0], t1)
                tally.latencies.append(t1 - t0)
                tally.units += 1
                tally.steps += sum(_entry_steps(e["metrics"]) for e in entries
                                   if e.get("ok"))
                tally.check(spec_dict, canonical,
                            [bool(payload.get("ok"))], reference, requests=1)
                replies.append((category, spec_dict, canonical))

    with ThreadPoolExecutor(max_workers=CLIENTS, thread_name_prefix="client") as pool:
        clients = [pool.submit(client_loop) for _ in range(CLIENTS)]
        for client in clients:
            client.result(timeout=REQUEST_TIMEOUT_S + (budget_s or 0) + 60)
    tally.wall_s = tally.busy_s = last_done[0] - started
    tally.window = (started, last_done[0])
    return tally, replies


def check_against_local(replies: list) -> Tuple[int, int]:
    """Re-run the first reply of each category locally (untimed) and compare
    bytes; returns ``(checked, mismatched)``."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    checked = mismatched = 0
    seen = set()
    for category, spec, canonical in replies:
        if category in seen or canonical is None:
            continue
        seen.add(category)
        local = run_experiment(ExperimentSpec.from_dict(spec)).canonical_json()
        checked += 1
        mismatched += int(local != canonical)
    return checked, mismatched


# -------------------------------------------------------------------- runs


class Run:
    """One benchmark invocation: ``measure()`` returns the result fields."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.scratch = OUT_DIR / f"run-{os.getpid()}"
        self.reference = load_reference(workload)
        self.info: Dict[str, object] = {}
        self.calibrator: Optional[Calibrator] = None

    def measure(self) -> Tuple[Dict[str, float], int, int]:
        """``(metrics, attempted, failed)``; scratch files are removed."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        if not self.trace:
            self.calibrator = Calibrator()
        try:
            if self.workload == "service_warm":
                return self._service()
            return self._inprocess()
        finally:
            if self.calibrator is not None:
                self.calibrator.close()
            shutil.rmtree(self.scratch, ignore_errors=True)

    def _setup_trial(self, trial) -> Tuple[float, float, object]:
        """Run ``trial()``, which returns what it started (or None); returns
        its seconds, those seconds in reference seconds, and the result."""
        before = self.calibrator.sample()
        t0 = time.perf_counter()
        started = trial()
        elapsed = time.perf_counter() - t0
        pids = [started.pid] if started is not None else []
        factor = self.calibrator.factor(before, self.calibrator.sample(pids))
        return elapsed, elapsed * factor, started

    def _traced_units(self) -> int:
        rate = TRACE_UNITS_PER_S[self.workload]
        units = max(1, round(self.seconds / 2 * rate))
        if self.workload == "service_warm":
            units = max(len(SERVICE_BLOCK), units - units % len(SERVICE_BLOCK))
        return units

    def _trace_file(self) -> Path:
        traces = OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        return traces / f"{self.workload}-seed{self.seed}.npz"

    # --------------------------------------------------------- in-process

    def _inprocess(self) -> Tuple[Dict[str, float], int, int]:
        with_store = self.workload == "sweep_cold"
        if not self.trace:
            trials = [self._setup_trial(lambda: probe_setup(self.scratch, with_store))
                      for _ in range(SETUP_TRIALS[self.workload])]
        warm_process()
        specs = sequence(self.workload, self.seed)
        if not self.trace:
            tally = run_inprocess_units(self.workload, specs, self.reference,
                                        self.scratch, budget_s=self.seconds,
                                        calibrator=self.calibrator)
            return self._report(tally, trials, peak_rss_mb()), tally.attempted, tally.failed

        from perfbench import tracing

        units = self._traced_units()
        plain = run_inprocess_units(self.workload, sequence(self.workload, self.seed),
                                    self.reference, self.scratch, count=units)
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
        try:
            traced = run_inprocess_units(self.workload, sequence(self.workload, self.seed),
                                         self.reference, self.scratch, count=units)
        finally:
            uninstall()
        trace = recorder.trace()
        trace.save(str(self._trace_file()))
        metrics = self._traced_metrics(plain, traced, [trace], trace)
        return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed

    def _report(self, tally: Tally, trials: List[tuple],
                rss_mb: float) -> Dict[str, float]:
        setup = [trial[0] for trial in trials]
        self.info.update(units=tally.units, samples=len(tally.latencies),
                         setup_trials_s=setup, unit_s=tally.unit_s,
                         calibration_s=self.calibrator.kept,
                         calibrations_rejected=self.calibrator.rejected,
                         raw=end_to_end(tally, setup, rss_mb, reference=False))
        return end_to_end(tally, [trial[1] for trial in trials], rss_mb)

    def _traced_metrics(self, plain: Tally, traced: Tally, traces: list,
                        working_trace, service: Optional[dict] = None) -> Dict[str, float]:
        """Per-layer metrics of the traced phase; ``working_trace`` is the
        trace of the process that ran the experiments (the daemon's for
        ``service_warm``), over which span coverage is measured."""
        from perfbench import tracing

        metrics = tracing.layer_metrics(*traces)
        mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
        if mismatched:
            traced.failed += mismatched
        metrics.update(service or service_layer_metrics(None, None, None))
        metrics["trace.overhead_frac"] = traced.busy_s / plain.busy_s - 1.0
        metrics["trace.coverage"] = tracing.coverage(working_trace)
        metrics["trace.spans"] = float(sum(len(t) for t in traces))
        metrics["trace.units"] = float(traced.units)
        self.info.update(units=traced.units, digests_identical=not mismatched,
                         untraced_s=plain.busy_s, traced_s=traced.busy_s)
        return metrics

    # ------------------------------------------------------------ service

    def _service(self) -> Tuple[Dict[str, float], int, int]:
        warm_process()
        if self.trace:
            return self._service_traced()
        trials: List[tuple] = []
        daemon = None
        try:
            count = SETUP_TRIALS[self.workload]
            for trial in range(count):
                def start(trial=trial) -> Daemon:
                    store = prewarm_store(self.scratch / f"setup{trial}")
                    return Daemon(store, self.scratch / f"d{trial}.sock")

                trials.append(self._setup_trial(start))
                daemon = trials[-1][2]
                if trial < count - 1:
                    daemon.stop()
                    daemon = None
            from repro.service import ServiceClient

            client = ServiceClient(daemon.address)
            size_before = client.stats()["store"]["size"]
            specs = sequence(self.workload, self.seed)
            tally, replies = Tally(), []
            before = self.calibrator.sample([daemon.pid])
            while tally.busy_s < self.seconds:
                segment, segment_replies = run_closed_loop(
                    daemon.address, specs, self.reference,
                    budget_s=min(SERVICE_SEGMENT_S, self.seconds - tally.busy_s))
                after = self.calibrator.sample([daemon.pid])
                tally.merge(segment, self.calibrator.factor(before, after))
                replies.extend(segment_replies)
                before = after
            stats = client.stats()
            tally.points = int(stats["store"]["size"]) - int(size_before)
            rss = peak_rss_mb(daemon.pid)
            daemon.stop()
            daemon = None
        finally:
            if daemon is not None:
                daemon.kill()
        checked, mismatched = check_against_local(replies)
        tally.failed += mismatched
        self.info.update(local_checks=checked, coalesced=stats["coalesced"],
                         tickets=stats["tickets"])
        return self._report(tally, trials, rss), tally.attempted, tally.failed

    def _service_phase(self, store: Path, name: str, units: int,
                       recorder, trace_path: Optional[Path]):
        daemon = Daemon(store, self.scratch / f"{name}.sock", trace_path)
        try:
            from repro.service import ServiceClient

            tally, replies = run_closed_loop(
                daemon.address, sequence(self.workload, self.seed), self.reference,
                count=units, stream=True, recorder=recorder)
            stats = ServiceClient(daemon.address).stats()
            daemon.stop()
            daemon = None
        finally:
            if daemon is not None:
                daemon.kill()
        # Both clients finish their requests in a timing-dependent order;
        # compare digests per spec, not per completion.
        order = sorted(range(len(replies)), key=lambda i: json.dumps(replies[i][1], sort_keys=True))
        tally.digests = [tally.digests[i] for i in order]
        return tally, stats

    def _service_traced(self) -> Tuple[Dict[str, float], int, int]:
        from perfbench import tracing

        units = self._traced_units()
        warm = prewarm_store(self.scratch / "prewarm")
        plain, _ = self._service_phase(copy_store(warm, self.scratch / "plain"),
                                       "plain", units, None, None)
        recorder = tracing.SpanRecorder()
        daemon_trace = self.scratch / "daemon-trace.npz"
        traced, stats = self._service_phase(copy_store(warm, self.scratch / "traced"),
                                            "traced", units, recorder, daemon_trace)
        client_trace = recorder.trace()
        server_trace = tracing.Trace.load(str(daemon_trace))
        client_trace.save(str(self._trace_file()))
        server_trace.save(str(self._trace_file()).replace(".npz", "-daemon.npz"))
        service = service_layer_metrics(client_trace, server_trace, stats,
                                        window=traced.window)
        metrics = self._traced_metrics(plain, traced, [client_trace, server_trace],
                                       server_trace, service)
        return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def service_layer_metrics(client_trace, server_trace, stats,
                          window: Tuple[float, float] = (0.0, 1.0)) -> Dict[str, float]:
    """Client-side request phases, daemon counters and worker busy share
    (all zero for workloads without a daemon)."""
    if client_trace is None:
        names = ("service.submit_s", "service.queue_wait_s", "service.run_s",
                 "service.coalesced", "service.tickets", "service.tickets_failed",
                 "service.worker_busy_frac")
        return dict.fromkeys(names, 0.0)
    from perfbench import tracing

    spans = tracing.aggregate(client_trace)
    server = tracing.aggregate(server_trace, window)
    tickets = stats["tickets"]
    return {
        "service.submit_s": spans.get("service.submit", {}).get("self_s", 0.0),
        "service.queue_wait_s": spans.get("service.queue_wait", {}).get("self_s", 0.0),
        "service.run_s": spans.get("service.run", {}).get("self_s", 0.0),
        "service.coalesced": float(stats["coalesced"]),
        "service.tickets": float(sum(tickets.values())),
        "service.tickets_failed": float(tickets.get("failed", 0)),
        "service.worker_busy_frac": server[""]["covered_s"] / (window[1] - window[0]),
    }

