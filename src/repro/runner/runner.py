"""The parallel trial runner: shard specs across processes, reuse the store.

Design invariants (the acceptance bar of the runner subsystem):

* **Determinism** — results are a pure function of each spec.  Output
  order follows *input spec order*, never completion order, so
  ``workers=4`` produces byte-identical result rows to ``workers=1``.
* **Resume** — specs whose key is already in the :class:`ResultStore`
  are served from it without spawning a worker; only ``ok`` results are
  persisted, so failures are retried on the next run.
* **Isolation** — each trial runs through
  :func:`repro.runner.execute.run_trial`, which converts exceptions and
  wall-clock overruns into status records instead of poisoning the pool.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.config import check_setting
from repro.runner.execute import _pool_entry, run_trial
from repro.runner.spec import TrialResult, TrialSpec, dedupe
from repro.runner.store import ResultStore

__all__ = ["ParallelRunner", "RunReport"]

ProgressFn = Callable[[int, int, TrialResult], None]


@dataclass
class RunReport:
    """Results of one :meth:`ParallelRunner.run` call, in spec order."""

    results: list[TrialResult] = field(default_factory=list)

    @property
    def ok(self) -> list[TrialResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[TrialResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def computed_count(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    def payloads(self) -> list[dict]:
        """Deterministic payload rows of the successful trials."""
        return [r.payload for r in self.ok]

    def summary(self) -> dict:
        return {
            "trials": len(self.results),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "cached": self.cached_count,
            "computed": self.computed_count,
        }


class ParallelRunner:
    """Run a spec matrix, sharded over a process pool.

    Parameters
    ----------
    workers:
        Pool size, an int ≥ 1.  ``1`` (the default) executes inline in
        this process — no pool, no pickling — which is also the
        reference path the determinism tests compare multi-worker runs
        against.
    store:
        Optional :class:`ResultStore`; hits skip execution, successful
        misses are appended.
    timeout_s:
        Per-trial wall-clock budget, enforced inside the worker: None
        (no budget) or a finite number of seconds > 0.
    progress:
        Optional ``f(done, total, result)`` callback, called once per
        trial in completion order (progress is about liveness; result
        ordering stays deterministic regardless).
    """

    def __init__(
        self,
        workers: int = 1,
        store: ResultStore | None = None,
        timeout_s: float | None = None,
        progress: ProgressFn | None = None,
    ):
        check_setting("workers", workers, "int", least=1)
        if timeout_s is not None:
            check_setting("timeout_s", timeout_s, "float")
            if timeout_s <= 0:
                raise ValueError(f"timeout_s must be > 0, got {timeout_s!r}")
        self.workers = workers
        self.store = store
        self.timeout_s = timeout_s
        self.progress = progress

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[TrialSpec]) -> RunReport:
        ordered = dedupe(specs)
        total = len(ordered)
        by_key: dict[str, TrialResult] = {}
        pending: list[TrialSpec] = []
        for spec in ordered:
            hit = self.store.lookup(spec) if self.store is not None else None
            if hit is not None and hit.ok:
                by_key[spec.key] = hit
            else:
                pending.append(spec)

        done = 0
        for result in by_key.values():  # report cache hits up-front
            done += 1
            self._tick(done, total, result)

        if pending:
            execute = (
                self._run_inline if self.workers == 1 else self._run_pool
            )
            for result in execute(pending):
                by_key[result.key] = result
                if self.store is not None and result.ok and not result.cached:
                    self.store.add(result)
                done += 1
                self._tick(done, total, result)

        return RunReport(results=[by_key[s.key] for s in ordered])

    # ------------------------------------------------------------------
    def _tick(self, done: int, total: int, result: TrialResult) -> None:
        if self.progress is not None:
            self.progress(done, total, result)

    def _run_inline(self, specs: Sequence[TrialSpec]):
        for spec in specs:
            yield run_trial(spec, timeout_s=self.timeout_s)

    def _run_pool(self, specs: Sequence[TrialSpec]):
        """Shard over a ProcessPoolExecutor, yielding in completion order.

        A bounded submission window (4 per worker) keeps memory flat on
        large matrices instead of materialising every future at once.

        When ``timeout_s`` is set, the driver also enforces a wall-clock
        deadline of ``timeout_s·1.5 + 1`` per submitted trial.  The
        worker-side SIGALRM guard is the primary mechanism, but it is a
        *cooperative* one — a trial wedged in a C extension, or running
        where :func:`~repro.runner.execute._alarm_usable` is false, never
        raises — so trials past the grace are abandoned and reported as
        ``status="timeout"`` with ``guard="wallclock"``.  The abandoned
        future keeps its pool slot until the worker returns (documented
        backstop, not a kill): throughput can degrade, results cannot
        hang forever.
        """
        window = self.workers * 4
        grace = (
            None if self.timeout_s is None else float(self.timeout_s) * 1.5 + 1.0
        )
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            queue = deque(specs)
            futures: dict = {}  # future -> (spec, submit_time)
            while queue or futures:
                while queue and len(futures) < window:
                    spec = queue.popleft()
                    fut = pool.submit(_pool_entry, spec.as_dict(), self.timeout_s)
                    futures[fut] = (spec, time.monotonic())
                finished, _ = wait(
                    futures,
                    timeout=None if grace is None else 0.25,
                    return_when=FIRST_COMPLETED,
                )
                for fut in finished:
                    spec, _submitted = futures.pop(fut)
                    try:
                        yield TrialResult.from_record(fut.result())
                    except Exception as exc:  # worker died (OOM, signal, ...)
                        yield TrialResult(
                            spec=spec, status="error",
                            error=f"worker failed: {exc!r}",
                        )
                if grace is None:
                    continue
                now = time.monotonic()
                overdue = [
                    fut
                    for fut, (_spec, submitted) in futures.items()
                    if now - submitted > grace
                ]
                for fut in overdue:
                    spec, submitted = futures.pop(fut)
                    fut.cancel()  # only helps if still queued
                    yield TrialResult(
                        spec=spec,
                        status="timeout",
                        guard="wallclock",
                        error=(
                            f"no result within {grace:.1f}s "
                            f"(timeout_s={self.timeout_s}); trial abandoned "
                            "by the pool driver"
                        ),
                        elapsed_s=now - submitted,
                    )
