"""Fresh-process helpers of the benchmark (run with PYTHONPATH=src).

    python3 perfbench/child.py setup <workload>
        Time ``import hybrid_nls`` and, for the in-process workloads, the
        warm-up call; print {"setup_s": ...}.
    python3 perfbench/child.py cli <spans.json> <hybrid-nls argv...>
        Install the tracer, run ``hybrid_nls.cli.main(argv)`` and write
        the spans to <spans.json>; exit with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def warm_up(hybrid_nls, workload: str) -> None:
    """The call an in-process workload makes before its timed loop: the
    README solve at the workload's largest grid.  The first solve at a
    large N in a process runs up to twice as slow as the ones after it
    (σ=6 at N=8192: 1.48 s, then 0.77 s), a cost a user pays once per
    process, not per call."""
    cfg = (hybrid_nls.SolverConfig(N=32768, grading=1.000625)
           if workload == "fine_hard" else hybrid_nls.SolverConfig())
    hybrid_nls.solve_hybrid(hybrid_nls.HybridParams(3.0, 3.0, 0.0, 1.0, 1.0, 1.0), cfg)


def setup(workload: str) -> None:
    t0 = time.perf_counter()
    import hybrid_nls

    if workload != "cold_cli":
        warm_up(hybrid_nls, workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import hybrid_nls.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        code = hybrid_nls.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"wrapped": sorted(tracer.wrapped), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
