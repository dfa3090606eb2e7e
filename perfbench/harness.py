"""Shared machinery of the benchmark workloads: the run context (seed,
checks, samples, Ray lifecycle, tracing), corpus and query generation,
the timed serving loop and the upsert/delete round."""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

#: the index configuration every workload builds with
CFG_KW = {"term_partitions": 64, "target_docs_per_part": 4096}
HOT_QUERIES = 256
#: topk calls between two host-speed probes in the serving loop
CHUNK = 16
UPSERT_BATCH = 64
DELETE_BATCH = 16


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: the affinity mask, replaced by
    OMP_NUM_THREADS and capped by OMP_THREAD_LIMIT when those are set."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v)) if cap else int(v)
    return n


CPUS_ENV = "PERFBENCH_CPUS"


def work_cpus() -> list[int]:
    """The CPUs the run's work is pinned to: nproc() of the affinity mask,
    the highest-numbered ones."""
    return sorted(os.sched_getaffinity(0))[-nproc():]


def worker_setup() -> None:
    """``worker_process_setup_hook`` of every Ray worker: pin it to the
    run's CPUs and, in a traced run, install the span wrappers."""
    os.sched_setaffinity(0, [int(c) for c in os.environ[CPUS_ENV].split(",")])
    from perfbench import tracing

    if tracing.TRACE_DIR_ENV in os.environ:
        tracing.install(os.environ[tracing.TRACE_DIR_ENV], driver=False)


def steal_s(cpus: list[int]) -> float:
    """Hypervisor steal time of these CPUs so far, in seconds per CPU."""
    want = {f"cpu{c}" for c in cpus}
    ticks = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] in want:
                ticks += int(fields[8])
    return ticks / os.sysconf("SC_CLK_TCK") / len(cpus)


def _session_pids(session: str) -> set[int]:
    """Processes of a Ray session: those naming it on their command line
    and all their descendants (the workers, whose titles do not)."""
    parent: dict[int, int] = {}
    out: set[int] = set()
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                parent[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if session.encode() in f.read():
                    out.add(int(name))
        except (OSError, IndexError, ValueError):
            pass
    grew = True
    while grew:
        kids = {pid for pid, pp in parent.items() if pp in out} - out
        out |= kids
        grew = bool(kids)
    return out


def _alive(pids: set[int]) -> list[int]:
    """Those of pids that still run (a zombie has ended)."""
    out = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                    out.append(pid)
        except (OSError, IndexError):
            pass
    return out


def median(xs) -> float:
    return float(statistics.median(xs))


# -- host speed -------------------------------------------------------------------
#
# The vCPU's speed moves with the load of the host's other tenants: the same
# topk calls, in thread CPU time (free of steal), read 0.65-1.3 ms median
# latency within a minute, and whole runs take two to nearly three times as
# long in a busy hour as in a quiet one. A fixed probe slows with them: a few dozen numpy calls on
# small arrays, whose cost is interpreter and call overhead, as is most of
# the engine's query and build work. Interleaved with topk calls, it tracks
# their slowdown: in four 2-minute stretches on one vCPU of a shared Xeon
# host, scaling each chunk of 16 calls by the probe's speed around it cut
# the spread (q3 - q1 over median) of the median latency of 5-s windows
# from 0.07-0.13 to 0.013-0.06. Every time the benchmark reports is so
# scaled, to the speed at which one probe takes PROBE_REF_S of thread CPU
# time; the unscaled figures are printed and recorded as ``raw_*``.

_PROBE_ARRAYS = [np.arange(50 + i * 5) for i in range(40)]
#: thread CPU time of one probe at the reference speed, about its median on
#: an idle vCPU of the host above
PROBE_REF_S = 0.3e-3
#: probes a Pace takes on each side of its block
PACE_PROBES = 8
#: probe period of a Pace's sampling thread
PROBE_EVERY_S = 0.025


def probe_s() -> float:
    """Thread CPU time of one run of the fixed probe work."""
    t0 = time.thread_time()
    for a in _PROBE_ARRAYS:
        np.cumsum(np.diff(a))
        a[a > 20].sum()
    return time.thread_time() - t0


class Pace:
    """Host speed over the with-block: PACE_PROBES probes just before it
    and as many just after and, in between, one every PROBE_EVERY_S from a
    thread of its own on the same CPU. ``factor`` scales a time measured
    in the block to the reference speed. The probes read thread CPU time,
    which leaves out the time they wait for the CPU or the GIL, so the work
    beside them does not enter them; they cost the block about 2%. Over 46
    cold builds of 1024 pages in a row, the spread of build time was 0.097
    unscaled, 0.122 scaled by the probes before and after alone, and 0.060
    scaled by those and the ones in between."""

    def __init__(self):
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.probes.append(probe_s())

    def __enter__(self) -> Pace:
        self.probes += [probe_s() for _ in range(PACE_PROBES)]
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.probes += [probe_s() for _ in range(PACE_PROBES)]

    @property
    def factor(self) -> float:
        return PROBE_REF_S / median(self.probes)


def rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


def reader_rss_mb(bench: Bench, index_dir: str, passes: int = 2) -> float:
    """Memory a reader of the index takes to serve the hot set ``passes``
    times, in MB, measured in a fresh process (``rss_probe.py``), apart
    from the harness's own memory and from memory earlier readers freed."""
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.rss_probe", index_dir, str(passes)],
        cwd=bench.root, env={**os.environ, "PYTHONPATH": bench.root},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def dir_state(path: str) -> dict[str, tuple[int, int]]:
    """{file: (size, mtime_ns)} under path."""
    out = {}
    for base, _, files in os.walk(path):
        for fn in files:
            p = os.path.join(base, fn)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of files that are new or changed between two dir_state snapshots."""
    return sum(s for p, (s, m) in after.items() if before.get(p) != (s, m))


class Bench:
    """One benchmark run: its inputs (seed), time budget, correctness
    tally, latency samples and optional tracer."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = np.random.default_rng([seed, 0x5EED])
        self.work = os.path.join(root, ".perfbench_run", f"{workload}-{seed}-{trace:d}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        #: unscaled run time of the serving loop, per sample key
        self.raw_busy: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.tracer = None
        self.ray_up = False
        self._markers = 0
        self.cpus = work_cpus()
        self.all_cpus = sorted(os.sched_getaffinity(0))
        self._steal0 = steal_s(self.cpus)
        self._t0 = time.perf_counter()
        #: (label, seconds since the run started): where a run's wall time goes
        self.phases: list[tuple[str, float]] = []
        if trace:
            from perfbench import tracing

            tdir = os.path.join(self.work, "trace")
            os.makedirs(tdir)
            self.tracer = tracing.install(tdir, driver=True)

    # -- bookkeeping ---------------------------------------------------------

    def now(self) -> float:
        """Run time: wall time minus the hypervisor steal of the run's CPUs.
        On a shared VM the host takes up to 30% of a busy vCPU in bursts,
        which swings wall-clock figures of identical work by 20%; run time
        is the wall time the same work takes on a CPU of its own."""
        return time.perf_counter() - steal_s(self.cpus)

    def stolen(self) -> float:
        return steal_s(self.cpus) - self._steal0

    def mark(self, label: str) -> None:
        self.phases.append((label, time.perf_counter() - self._t0))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def traced(self, on: bool) -> None:
        """Switch span recording (traced runs only)."""
        if self.tracer is not None:
            self.tracer.enable(on)

    # -- Ray -------------------------------------------------------------------

    def start_ray(self) -> None:
        import logging

        import ray
        from ray.data import DataContext

        from perfbench import tracing

        # The client and the workers run on the run's CPUs, whose steal
        # now() subtracts. Ray's daemons, started before the client pins
        # itself, stay free to run elsewhere: pinned with the rest they made
        # each run about 15% longer.
        env = {
            # the hook is imported before the driver's sys.path reaches the worker
            "PYTHONPATH": self.root,
            CPUS_ENV: ",".join(map(str, self.cpus)),
        }
        if self.trace:
            env[tracing.TRACE_DIR_ENV] = self.tracer.dir
        kw = {"runtime_env": {"worker_process_setup_hook": "perfbench.harness.worker_setup", "env_vars": env}}
        # Unix socket paths under the temp dir must stay below 108 bytes
        tmp = os.path.join(self.root, ".perfbench_run", "ray")
        if len(tmp) <= 40:
            kw["_temp_dir"] = tmp
        ray.init(
            address="local",
            num_cpus=nproc(),
            object_store_memory=256 << 20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            **kw,
        )
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        os.sched_setaffinity(0, self.cpus)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.ray_up = True

    def stop_ray(self) -> None:
        """Shut Ray down and wait until every process of its session has
        ended: ``ray.shutdown()`` can return while an agent or worker it
        started lives on. What still runs after 5 s is terminated, then
        killed."""
        if not self.ray_up:
            return
        import ray

        pids = _session_pids(os.path.basename(self.session_dir))
        ray.shutdown()
        self.ray_up = False
        for sig in (signal.SIGTERM, signal.SIGKILL):
            deadline = time.monotonic() + 5
            while _alive(pids) and time.monotonic() < deadline:
                time.sleep(0.1)
            for pid in _alive(pids):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        shutil.rmtree(self.session_dir, ignore_errors=True)

    @contextlib.contextmanager
    def ray_aside(self):
        """Keep every thread of the Ray session off the client's CPUs for
        the duration, then put each back where it was. Idle Ray workers,
        actors and daemons wake every few ms; on the client's CPU they
        preempted half of the ``topk`` calls of an update_mix burst. A no-op
        when the affinity mask has no other CPU."""
        others = set(self.all_cpus) - set(self.cpus)
        saved = {}
        if self.ray_up and others:
            for pid in _session_pids(os.path.basename(self.session_dir)):
                try:
                    tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
                except OSError:
                    continue
                for tid in tids:
                    try:
                        saved[tid] = os.sched_getaffinity(tid)
                        os.sched_setaffinity(tid, others)
                    except OSError:
                        pass
        try:
            yield
        finally:
            for tid, mask in saved.items():
                try:
                    os.sched_setaffinity(tid, mask)
                except OSError:
                    pass

    def close(self) -> None:
        self.stop_ray()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- inputs ----------------------------------------------------------------

    def corpus(self, n_pages: int, name: str) -> str:
        from apache___solr_ray.corpus import write_pages_parallel

        path = os.path.join(self.work, name)
        write_pages_parallel(path, n_pages, seed=self.seed, rows_per_file=8192)
        return path

    def marker(self) -> str:
        """A token no corpus page contains: corpus words never hold an 'x'
        outside the digit-bearing special 'x86_64'."""
        k = self._markers
        self._markers += 1
        letters = ""
        for _ in range(5):
            k, r = divmod(k, 26)
            letters += chr(97 + r)
        return "xq" + letters + "x"


def hot_queries() -> list[str]:
    """The 256-query set of the repo's bench.py: 2-3 terms, one query in
    four with a head (stopword-like) term."""
    from apache___solr_ray.corpus import _vocab_and_cdf

    vocab, _ = _vocab_and_cdf()
    n = len(vocab)
    out = []
    for i in range(HOT_QUERIES):
        head = vocab[(7 * i) % 50]
        b = vocab[(31 * i + 11) % min(2000, n)]
        c = vocab[(211 * i + 89) % min(20000, n)]
        d = vocab[(97 * i + 5) % min(5000, n)]
        out.append(f"{head} {b} {c}" if i % 4 == 0 else f"{b} {c} {d}")
    return out


def expected_topk(index_dir: str, queries: list[str], k: int = 10) -> dict:
    """Reference answers: ``topk_exhaustive`` on its own reader."""
    from apache___solr_ray.query import IndexReader

    ref = IndexReader(index_dir)
    out = {q: ref.topk_exhaustive(q, k) for q in dict.fromkeys(queries)}
    ref.close()
    return out


def same_topk(got, want) -> bool:
    return np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def serve(bench: Bench, reader, queries: list[str], expected: dict, what: str, *,
          seconds=None, passes=None, key="query_s") -> tuple[int, float]:
    """Closed loop, one client: ``reader.topk(q, 10)`` over the query
    stream, repeated, for ``seconds`` of wall time (whole passes, at least
    one) or for ``passes`` full passes. Each answer is checked against
    ``expected`` between calls and then dropped, so the loop's memory does
    not grow with the number of calls.

    Records each call's latency under ``key``: its wall time less the
    hypervisor's steal. A call during which the calling thread was never
    switched out (no voluntary or involuntary context switch) ran on the
    CPU throughout, so its wall time is its thread CPU time, which the
    kernel keeps free of steal, plus steal; it counts that CPU time. A call
    that blocked (I/O, a lock, waiting on another thread) or was preempted
    counts its whole wall time.

    The calls run in chunks of CHUNK with a host-speed probe before and
    after each; a chunk's latencies and run time are scaled by the mean of
    its two probes (see ``Pace``). The unscaled latencies go under
    ``"raw_" + key``. Returns (calls, scaled run time of the calls in s):
    the loop's run time (``Bench.now``) less the time spent checking and
    probing."""
    lat, raw = [], []
    n = len(queries)
    t_wall = time.perf_counter()
    busy = raw_busy = 0.0
    probe = probe_s()
    i = 0
    while True:
        if i % n == 0 and i:
            if passes is not None:
                if i >= passes * n:
                    break
            elif time.perf_counter() - t_wall >= seconds:
                break
        chunk = []
        checking = 0.0
        t_start = bench.now()
        for q in queries[i % n:i % n + CHUNK]:
            ru0 = resource.getrusage(resource.RUSAGE_THREAD)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            r = reader.topk(q, 10)
            t1 = time.perf_counter()
            c1 = time.thread_time()
            ru1 = resource.getrusage(resource.RUSAGE_THREAD)
            switched = ru1.ru_nvcsw != ru0.ru_nvcsw or ru1.ru_nivcsw != ru0.ru_nivcsw
            chunk.append(t1 - t0 if switched else c1 - c0)
            bench.check(same_topk(r, expected[q]), f"{what}: topk != topk_exhaustive for {q!r}")
            checking += time.perf_counter() - t1
        t_chunk = bench.now() - t_start - checking
        probe_after = probe_s()
        factor = PROBE_REF_S / ((probe + probe_after) / 2)
        probe = probe_after
        lat.extend(x * factor for x in chunk)
        raw.extend(chunk)
        busy += t_chunk * factor
        raw_busy += t_chunk
        i += len(chunk)
    bench.samples.setdefault(key, []).extend(lat)
    bench.samples.setdefault("raw_" + key, []).extend(raw)
    bench.raw_busy[key] = bench.raw_busy.get(key, 0.0) + raw_busy
    return i, busy


def query_metrics(bench: Bench, key: str, calls: int, busy: float) -> dict:
    """Latency percentiles and throughput, scaled to the reference speed;
    the unscaled ones go to ``bench.extra`` as ``raw_*``."""
    out = {}
    for prefix, lat_s, t in (("", bench.samples[key], busy),
                             ("raw_", bench.samples["raw_" + key], bench.raw_busy[key])):
        p50, p99 = np.percentile(np.asarray(lat_s) * 1e3, [50, 99])
        out[prefix + "query_p50_ms"] = float(p50)
        out[prefix + "query_p99_ms"] = float(p99)
        out[prefix + "query_qps"] = calls / t
    bench.extra.update({k: v for k, v in out.items() if k.startswith("raw_")})
    return {k: v for k, v in out.items() if not k.startswith("raw_")}


# -- index life cycle -----------------------------------------------------------


def cfg():
    from apache___solr_ray.build import IndexConfig

    return IndexConfig(**CFG_KW)


def bring_up(bench: Bench, corpus: str, index_dir: str, probe: str) -> tuple[dict, float, float]:
    """Cold ``build_index`` into a fresh dir, then open a reader and answer
    one query: the program's set-up. Returns (manifest, build s, total s),
    the times scaled to the reference speed; the unscaled ones are sampled
    as ``raw_build_s`` and ``raw_setup_s``."""
    from apache___solr_ray.build import build_index
    from apache___solr_ray.query import IndexReader

    shutil.rmtree(index_dir, ignore_errors=True)
    with Pace() as pace:
        t0 = bench.now()
        man = build_index(corpus, index_dir, cfg())
        t_build = bench.now() - t0
        reader = IndexReader(index_dir)
        reader.topk(probe, 10)
        total = bench.now() - t0
    reader.close()
    bench.sample("raw_build_s", t_build)
    bench.sample("raw_setup_s", total)
    return man, t_build * pace.factor, total * pace.factor


def index_bytes_per_doc(man: dict) -> float:
    return sum(s["bytes"] for s in man["segments"]) / man["stats"]["doc_count"]


class Writer:
    """Upserts and deletes against one index, with the marker bookkeeping
    that lets a fresh reader prove each write visible (or gone)."""

    def __init__(self, bench: Bench, corpus: str, index_dir: str):
        import pyarrow.parquet as pq

        self.bench = bench
        self.corpus = corpus
        self.index_dir = index_dir
        self.pages = pq.read_table(corpus)
        # original rows in seeded order; each upsert takes the next ones, so
        # no url is upserted twice
        self.order = bench.rng.permutation(self.pages.num_rows).tolist()
        self.live: dict[str, str] = {}  # url -> marker of its live version
        self.dead: list[str] = []  # markers of deleted urls: must match nothing

    def upsert(self) -> None:
        """Upsert UPSERT_BATCH original urls with changed text; time from
        the call until a fresh reader finds the first new page."""
        import pyarrow as pa

        from apache___solr_ray.extract import render_html
        from apache___solr_ray.query import IndexReader
        from apache___solr_ray.update import upsert_pages

        rows = [self.order.pop() for _ in range(UPSERT_BATCH)]
        batch = self.pages.take(pa.array(rows))
        markers = [self.bench.marker() for _ in rows]
        texts = [
            f"{t} {m} {' '.join(t.split()[:8])}"
            for t, m in zip(batch.column("text").to_pylist(), markers)
        ]
        html = [render_html(t, seed=int(r)).encode() for t, r in zip(texts, rows)]
        batch = batch.set_column(batch.schema.get_field_index("text"), "text", pa.array(texts))
        batch = batch.set_column(
            batch.schema.get_field_index("html"), "html", pa.array(html, pa.binary())
        )
        urls = batch.column("url").to_pylist()

        before_state = dir_state(self.index_dir)
        before = _read_manifest(self.index_dir)
        with Pace() as pace:
            t0 = self.bench.now()
            man = upsert_pages(self.corpus, self.index_dir, batch, cfg())
            reader = IndexReader(self.index_dir)
            docs, _ = reader.topk(markers[0], 10)
            found = reader.urls_for(docs)
            visible = self.bench.now() - t0
        reader.close()
        self.bench.check(found == [urls[0]], f"upsert: {urls[0]} not visible via {markers[0]}")
        self.bench.sample("upsert_visible_s", visible * pace.factor)
        self.bench.sample("raw_upsert_visible_s", visible)
        self.bench.sample("write_amp", bytes_written(before_state, dir_state(self.index_dir)) / batch.nbytes)
        old_lineage = {s["name"]: s.get("lineage") for s in before["segments"]}
        changed = sum(old_lineage.get(s["name"]) != s.get("lineage") for s in man["segments"])
        self.bench.sample("segments_rewritten_ratio", changed / len(man["segments"]))
        self.bench.sample(
            "parts_resumed_ratio", man["metrics"]["parts_resumed"] / man["stats"]["n_doc_parts"]
        )
        self.live.update(zip(urls, markers))

    def delete(self) -> None:
        """Delete DELETE_BATCH urls that carry a live marker."""
        from apache___solr_ray.deletes import delete_by_url

        pool = sorted(self.live)
        pick = self.bench.rng.choice(len(pool), size=min(DELETE_BATCH, len(pool)), replace=False)
        urls = [pool[int(i)] for i in pick]
        delete_by_url(self.index_dir, urls)
        for u in urls:
            self.dead.append(self.live.pop(u))

    def verify(self, what: str) -> None:
        """A fresh reader finds each live marker on its url only and no
        page for a deleted one."""
        from apache___solr_ray.query import IndexReader

        reader = IndexReader(self.index_dir)
        for u, m in self.live.items():
            docs, _ = reader.topk(m, 10)
            self.bench.check(reader.urls_for(docs) == [u], f"{what}: {u} not found via {m}")
        for m in self.dead:
            docs, _ = reader.topk(m, 10)
            self.bench.check(len(docs) == 0, f"{what}: deleted/superseded {m} still matches")
        reader.close()


def _read_manifest(index_dir: str) -> dict:
    from apache___solr_ray.manifest import read_json

    return read_json(os.path.join(index_dir, "index_manifest.json"))
