"""Deterministic per-layer attribution with ``cProfile``.

A *layer* is one package of ``src/repro``.  :class:`LayerProfiler`
profiles the calling thread, every thread started afterwards, and every
``multiprocessing`` child forked afterwards (children write their
profile to a directory when they exit), then folds all of it into:

* **self CPU seconds per layer** — a function's own time goes to its
  package; time in code outside ``repro`` (stdlib, builtins, the
  benchmark's own files) goes to the layer that *called* it, split by
  the profiler's caller table; whatever has no ``repro`` caller goes to
  ``other`` — except rootless ``multiprocessing`` frames (queue feeder
  threads: pickling and pipe writes), which are the live backend's
  transport and go to ``live``;
* **call counts** for functions picked by ``(path suffix, name)``.

The profiler's clock is the calling thread's CPU time, not wall time:
seven processes share two vCPUs, and on a wall clock a function would
be charged for every moment it sat descheduled or blocked on a queue.
``cProfile`` inflates call-heavy Python relative to native code, so the
shares locate costs; speed-ups are measured untraced.
"""

from __future__ import annotations

import cProfile
import glob
import marshal
import multiprocessing
import multiprocessing.util as mp_util
import os
import threading
import time

LAYERS = (
    "sim", "net", "crypto", "consensus", "core", "runtime", "store",
    "apps", "obs", "live", "serve",
)
_SEP = os.sep + "repro" + os.sep


def _layer_of(func: tuple) -> str | None:
    """The ``repro`` package a profiled function lives in, else ``None``."""
    path = func[0]
    at = path.rfind(_SEP)
    if at < 0:
        return None
    head = path[at + len(_SEP):].split(os.sep, 1)[0]
    return head if head in LAYERS else "other"


class _Attribution:
    """Resolve who pays for a function outside ``repro``."""

    def __init__(self, stats: dict) -> None:
        self.stats = stats
        self._memo: dict = {}

    def shares(self, func: tuple, depth: int = 0) -> dict[str, float]:
        """Layer → fraction of ``func``'s time each layer is charged."""
        layer = _layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._memo:
            return self._memo[func]
        self._memo[func] = {"other": 1.0}  # cycle guard
        callers = self.stats.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(c[3] for c in callers.values())
        if not callers or total <= 0 or depth > 24:
            root = "live" if "multiprocessing" in func[0] else "other"
            out = {root: 1.0}
        else:
            out = {}
            for caller, (_, _, _, ct) in callers.items():
                for layer, frac in self.shares(caller, depth + 1).items():
                    out[layer] = out.get(layer, 0.0) + frac * ct / total
        self._memo[func] = out
        return out


def _profile() -> cProfile.Profile:
    return cProfile.Profile(time.thread_time)


def fold(stats: dict) -> dict[str, float]:
    """Fold one ``pstats``-shaped table into self seconds per bucket."""
    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    attribution = _Attribution(stats)
    for func, (_, _, tt, _, callers) in stats.items():
        layer = _layer_of(func)
        if layer is not None:
            out[layer] += tt
            continue
        if not callers:
            for lay, frac in attribution.shares(func).items():
                out[lay] += tt * frac
            continue
        for caller, (_, _, caller_tt, _) in callers.items():
            for lay, frac in attribution.shares(caller).items():
                out[lay] += caller_tt * frac
        # a thread's entry point is both called and a root
        out["other"] += max(0.0, tt - sum(c[2] for c in callers.values()))
    return out


def count_calls(stats: dict, path_suffix: str, name: str | None = None) -> int:
    """Calls of the functions defined in files ending ``path_suffix``
    (only the function ``name`` when given; otherwise every public one)."""
    total = 0
    for (path, _, fname), (_, nc, _, _, _) in stats.items():
        if not path.endswith(path_suffix):
            continue
        if fname == name or (name is None and not fname.startswith("_")):
            total += nc
    return total


class LayerProfiler:
    """Profile this thread, later threads, and later forked children."""

    def __init__(self, out_dir: str | None = None) -> None:
        self.out_dir = out_dir
        self._profiles: list[cProfile.Profile] = []
        self._main = _profile()
        self._lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            for stale in glob.glob(os.path.join(self.out_dir, "*.prof")):
                os.unlink(stale)
            mp_util.register_after_fork(self, LayerProfiler._in_child)
        threading.setprofile(self._thread_bootstrap)
        self._main.enable()

    def stop(self) -> None:
        self._main.disable()
        threading.setprofile(None)

    def _thread_bootstrap(self, frame, event, arg) -> None:
        # first profile event of a new thread: swap this Python-level
        # hook for a C profiler of the thread's own
        prof = _profile()
        with self._lock:
            self._profiles.append(prof)
        prof.enable()

    def _in_child(self) -> None:
        """Runs in every forked child before its target: drop what the
        parent had profiled, profile the child, dump on exit."""
        self._main.disable()
        self._main = _profile()
        self._profiles = []
        self._lock = threading.Lock()
        name = multiprocessing.current_process().name
        path = os.path.join(self.out_dir, f"{name}.{os.getpid()}.prof")
        mp_util.Finalize(self, self._dump, args=(path,), exitpriority=100)
        self._main.enable()

    def _dump(self, path: str) -> None:
        self._main.disable()
        with open(path, "wb") as fh:
            marshal.dump(self.tables(), fh)

    # -------------------------------------------------------------- results
    def tables(self) -> list[dict]:
        """One ``pstats`` table per profiled thread of this process.

        Call after :meth:`stop`.  Other threads' profilers are read
        without disabling them: ``disable()`` closes a profiler's open
        frames with the *caller's* clock, and a feeder thread parked in
        ``acquire`` would be charged the main thread's CPU time.
        """
        out = []
        with self._lock:
            profiles = [self._main] + list(self._profiles)
        for prof in profiles:
            prof.snapshot_stats()
            out.append(prof.stats)
        return out

    def child_tables(self) -> dict[str, list[dict]]:
        """Process name → tables, for every child that has exited."""
        out: dict[str, list[dict]] = {}
        if self.out_dir is None:
            return out
        for path in sorted(glob.glob(os.path.join(self.out_dir, "*.prof"))):
            name = os.path.basename(path).split(".")[0]
            with open(path, "rb") as fh:
                out.setdefault(name, []).extend(marshal.load(fh))
        return out

    def summary(self) -> dict:
        """Everything the ledger reads from a finished profile, summed
        over this process's threads and every exited child: self CPU
        seconds per layer, all function calls, and the calls into the
        crypto layer's public functions, ``EffectInterpreter.interpret``
        and ``mp.Queue.put``."""
        tables = self.tables()
        for child in self.child_tables().values():
            tables += child
        out = {
            "layers": {}, "calls": 0, "crypto_calls": 0, "effects": 0,
            "queue_puts": 0,
        }
        for table in tables:
            out["calls"] += sum(entry[1] for entry in table.values())
            for layer, secs in fold(table).items():
                out["layers"][layer] = out["layers"].get(layer, 0.0) + secs
            out["crypto_calls"] += count_calls(
                table, "/repro/crypto/signatures.py"
            ) + count_calls(table, "/repro/crypto/digest.py")
            out["effects"] += count_calls(
                table, "/repro/runtime/interpreter.py", "interpret"
            )
            out["queue_puts"] += count_calls(
                table, "multiprocessing/queues.py", "put"
            )
        return out
