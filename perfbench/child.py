"""Run one baryfed command in a fresh interpreter and time it.

Started by ``run.py`` with the checkout's ``src`` directory on PYTHONPATH:

    python3 perfbench/child.py [--trace SPANS_JSON RUN_ID] RESULT_JSON EXPECTED_SRC
        <baryfed subcommand> <config path> [baryfed options]

It times ``import baryfed.cli`` and one ``load_config`` of the generated
config (set-up), then ``baryfed.cli.main`` (the command). With ``--trace``
it first wraps the public functions listed in WRAPPED at every place the
package binds them, records one span per call in memory, removes every
wrapper when the command returns, and writes the spans to SPANS_JSON.
The result file holds the timings, peak RSS and the trace bookkeeping.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from itertools import count

from spans import aggregate_bytes, mlp_grad_flops


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _grad_flops(a, k, r):
    return mlp_grad_flops(_arg(a, k, 0, "spec").layer_sizes, _arg(a, k, 2, "batch").size)


def _aggregate_bytes(a, k, r):
    posteriors = _arg(a, k, 1, "posteriors")
    return aggregate_bytes(len(posteriors), posteriors[0].dim)


# (module, function, work per call from (args, kwargs, result)).
WRAPPED = (
    ("config", "load_config", None),
    ("data", "partition_indices", lambda a, k, r: r[1].attempts),
    ("models", "loss_and_grad", _grad_flops),
    ("models", "predict_proba_mc", None),
    ("models", "forward", None),
    ("variopt", "ivon_step", None),
    ("variopt", "sample_params", None),
    ("federation", "client_update", None),
    ("federation", "server_aggregate", None),
    ("federation", "build_data", None),
    ("federation", "partition_both", None),
    ("federation", "run_experiment", None),
    ("geometry", "aggregate", _aggregate_bytes),
    ("geometry", "project", None),
    ("geometry", "projection_divergence", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "wilcoxon_signed_rank", None),
)
ROOT_SPAN = "cli.main"
MEMBW_FLOATS = 8 * 1024 * 1024  # 64 MiB per array


class Tracer:
    """Span recorder that patches functions at their call sites."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, work=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, name, start, end, None if work is None else work(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "baryfed" or n.startswith("baryfed.")]
        for module, fn_name, work in WRAPPED:
            owner = sys.modules.get(f"baryfed.{module}")
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(f"{module}.{fn_name}")
                continue
            wrapper = self.wrap(f"{module}.{fn_name}", original, work)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> bool:
        """Restore every patched binding; True when all are back."""
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        return all(getattr(m, attr) is original for m, attr, original in self._patched)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh, separators=(",", ":"))


def membw_gbps(n: int = MEMBW_FLOATS, repeats: int = 7) -> float:
    """Median computed bandwidth of ``np.add(a, b, out=c)``: 3 arrays x 8 B."""
    import numpy as np

    a, b, c = np.ones(n), np.ones(n), np.empty(n)
    np.add(a, b, out=c)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.add(a, b, out=c)
        times.append(time.perf_counter() - t)
    times.sort()
    return 3 * 8 * n / times[len(times) // 2] / 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("expected_src")
    parser.add_argument("--trace", nargs=2, metavar=("SPANS_JSON", "RUN_ID"))
    parser.add_argument("--warmup", action="store_true", help="import and check only")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import baryfed.cli
    import baryfed.config

    t1 = time.perf_counter()
    src = os.path.realpath(os.path.dirname(os.path.dirname(baryfed.__file__)))
    if src != os.path.realpath(args.expected_src):
        print(f"baryfed imported from {src}, expected {args.expected_src}", file=sys.stderr)
        return 3
    out = {"import_s": t1 - t0}
    if not args.warmup:
        command = args.command
        baryfed.config.load_config(command[1])
        t2 = time.perf_counter()
        tracer = None
        if args.trace:
            tracer = Tracer(args.trace[1])
            tracer.install()
            entry = tracer.wrap(ROOT_SPAN, baryfed.cli.main)
        else:
            entry = baryfed.cli.main
        try:
            t3 = time.perf_counter()
            rc = entry(command)
            t4 = time.perf_counter()
        finally:
            restored = tracer.uninstall() if tracer else True
        out.update(
            returncode=rc,
            config_s=t2 - t1,
            wall_s=t4 - t3,
            maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            restored=restored,
        )
        if tracer:
            tracer.dump(args.trace[0])
            out.update(missing=tracer.missing, membw_gbps=membw_gbps())
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return out.get("returncode", 0)


if __name__ == "__main__":
    raise SystemExit(main())
