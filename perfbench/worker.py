"""Child process of the benchmark harness that runs only the program.

The harness keeps its own memory and work (input synthesis, output checks)
in its process, so this process's peak RSS and set-up time are the
program's.  Two modes:

    python3 perfbench/worker.py setup [CONFIG]
        imports flowdpp, loads CONFIG (an INI file) if given, and prints the
        seconds this took: the program's own set-up.

    python3 perfbench/worker.py serve WORKLOAD SEED TINY SPANS
        reads pickled requests (traced, op_id, prep) from stdin, runs each op
        of WORKLOAD and writes a pickled reply {"seconds", "cpu_seconds",
        "out", "error"} to stdout: the op's wall time and this process's CPU
        time during it.  A None request ends the loop; the last reply holds
        the peak RSS and, when SPANS is not "-", the tracer summary, with the
        spans written to SPANS.

The harness (perfbench/run.py) starts it with the src/ directory, or the
reference sources' zip, on PYTHONPATH, pinned to the harness's CPU and
with the thread caps already in the environment.
"""

import os
import pickle
import resource
import sys
import time
import traceback


def setup(config_path=None):
    t0 = time.perf_counter()
    import flowdpp.cli  # noqa: F401  (imports every layer)
    from flowdpp import config

    if config_path:
        config.load_config(config_path)
    print(repr(time.perf_counter() - t0))
    return 0


def serve(workload, seed, tiny, spans_path):
    import flowdpp.cli  # noqa: F401
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](int(seed), tiny=tiny == "1")
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # anything the program prints goes to stderr, not into the replies
    requests = sys.stdin.buffer
    while (request := pickle.load(requests)) is not None:
        traced, op_id, prep = request
        reply = {"seconds": None, "cpu_seconds": None, "out": None, "error": None}
        try:
            if traced:
                with tracer.installed():
                    reply["out"], reply["seconds"] = tracer.run_op(op_id, wl.op, prep)
            else:
                t0, c0 = time.perf_counter(), time.process_time()
                reply["out"] = wl.op(prep)
                reply["seconds"] = time.perf_counter() - t0
                reply["cpu_seconds"] = time.process_time() - c0
        except Exception:  # an op that raises is a failed op, reported to the harness
            reply["error"] = traceback.format_exc()
        pickle.dump(reply, replies)
        replies.flush()
    final = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "tracer": None}
    if tracer is not None:
        tracer.save(spans_path)
        final["tracer"] = tracer.summary()
    pickle.dump(final, replies)
    replies.flush()
    return 0


def main(argv):
    if argv[:1] == ["setup"] and len(argv) <= 2:
        return setup(*argv[1:])
    if argv[:1] == ["serve"] and len(argv) == 5:
        return serve(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
