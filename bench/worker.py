"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --pass K [--trace 1]
                            [--setup-only] [--tiny]

Imports the library from ``src/``, builds the pass's inputs from
(workload, seed, pass), runs the pass and prints one JSON line: set-up
seconds, per-op seconds and outcome, speed-probe seconds after set-up and
after each op, peak RSS, counters and, when tracing, the spans.  Running
every pass in its own interpreter means no library object, cached property
or ``lru_cache`` entry survives from one timed pass to the next.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_PROBE_CALLS = 15  # probes right after set-up, to scale setup_s

# The speed probe's table: x*y = 3xy + x + y mod 23, an associative operation.
_PROBE_TABLE = [[(3 * x * y + x + y) % 23 for y in range(23)] for x in range(23)]


def speed_probe() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The work is the benchmark's own (it never calls the library) and has
    the shape of the library's hot loops: an associativity scan of a fixed
    table, nested-list lookups and a comparison per step.  A pass probes
    after every op, so the probe times follow the host's speed through the
    pass and ``run.py`` can scale op times to a fixed speed.
    """
    t = _PROBE_TABLE
    n = len(t)
    bad = 0
    start = time.perf_counter()
    for x in range(n):
        tx = t[x]
        for y in range(n):
            txy, ty = t[tx[y]], t[y]
            for z in range(n):
                if txy[z] != tx[ty[z]]:
                    bad += 1
    return time.perf_counter() - start


class Runner:
    """Groups timed library calls into ops and records what they did.

    An op's time is the sum of its library calls, so checks and glue between
    calls are not timed.  Any exception inside an op, ``BudgetExceeded``
    included, fails that op and the pass goes on.  With tracing on, every op
    and every call leaves a span ``(name, start, end, parent, op, error,
    failed)``; call spans never nest, so a layer's self time is its busy time.
    After each op, outside its time, it runs ``speed_probe`` once.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.ops: list[list] = []  # [seconds, ok] per op
        self.probes: list[float] = []  # speed_probe() seconds after each op
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: list[str] = []
        self._op: list | None = None
        self._parent: int | None = None

    @contextlib.contextmanager
    def op(self):
        rec = [0.0, True]
        self._op = rec
        op_id = len(self.ops)
        if self.trace:
            self._parent = len(self.spans)
            self.spans.append(["op", time.perf_counter(), None, None, op_id, None, False])
        try:
            yield
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
        finally:
            if self.trace:
                span = self.spans[self._parent]
                span[2] = time.perf_counter()
                span[6] = not rec[1]
            self.ops.append(rec)
            self._op = None
            self.probes.append(speed_probe())

    @property
    def last_ok(self) -> bool:
        return self.ops[-1][1]

    def fail(self, message: str):
        self._op[1] = False
        self.errors.append(message)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def call(self, name, fn, *args, expect=(), **kwargs):
        """Time ``fn(*args, **kwargs)`` as part of the current op.

        Exceptions of the ``expect`` types are a documented result of the
        call, so their spans are not marked failed; they still propagate.
        """
        error, failed = None, False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error, failed = type(exc).__name__, not isinstance(exc, expect)
            raise
        finally:
            end = time.perf_counter()
            self._op[0] += end - start
            if self.trace:
                self.spans.append(
                    [name, start, end, self._parent, len(self.ops), error, failed]
                )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import WORKLOADS

    setup, run = WORKLOADS[args.workload]
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    rng = random.Random(f"{args.workload}/{args.seed}/{args.pass_index}")
    inputs = setup(rng, tiny=args.tiny)
    out = {"setup_s": time.perf_counter() - _STARTED}
    out["setup_probes"] = [speed_probe() for _ in range(SETUP_PROBE_CALLS)]
    if not args.setup_only:
        runner = Runner(bool(args.trace))
        run(runner, inputs, expected)
        out.update(
            ops=runner.ops, probes=runner.probes, errors=runner.errors,
            counts=runner.counts, spans=runner.spans,
        )
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
