"""Fork server that runs each sectsum CLI phase in a fresh child process.

Usage: python3 worker.py SRC_DIR    (started by run.py, which talks to it)

The server pins every BLAS thread pool to one thread, then imports NumPy and
sectsum from SRC_DIR once.  For each job file named on a line of standard
input it forks a child, waits for it and answers with one line: the child's
exit code.  A child starts from the state a fresh ``sectsum`` process has
after its imports, without paying for them again, so a short phase can be
run and timed many times.  Nothing a child does reaches the server or the
next child.

A child redirects its output to the job's log, times
``sectsum.cli.main(argv)`` between two runs of the calibration kernel and
writes {rc, seconds, calibration_s, maxrss_kb, stdout, blas_threads,
blas_config, trace} to the job's result path.  With "trace" set, the phase
runs under spans.Tracer and "trace" holds its summary.  A child still
running after the job's "timeout" seconds is killed by SIGALRM.
"""

import contextlib
import functools
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from calibrate import kernel_seconds

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def blas_info() -> tuple[int | None, str | None]:
    """Thread count and build string reported by the loaded OpenBLAS, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.restype = ctypes.c_int
                config = None
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode("utf-8", "replace").strip()
                return int(get_threads()), config
    return None, None


def run(job: dict) -> dict:
    src = str(Path(job["src"]).resolve())
    import sectsum
    from sectsum import cli

    if not str(Path(sectsum.__file__).resolve()).startswith(src + os.sep):
        raise RuntimeError(f"sectsum imported from {sectsum.__file__}, not from {src}")
    tracer = None
    main = cli.main
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        main = functools.partial(tracer.phase, job["argv"][0], cli.main)
    before = kernel_seconds()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(job["argv"])
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # an escaped exception is a failed phase, not a harness error
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    after = kernel_seconds()
    threads, config = blas_info()
    return {
        "rc": rc,
        "seconds": seconds,
        "calibration_s": [before, after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "blas_threads": threads,
        "blas_config": config,
        "trace": tracer.summary() if tracer is not None else None,
    }


def child(job_path: str) -> int:
    """Body of a forked child: run one job; returns the exit code."""
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    signal.alarm(max(1, int(job["timeout"])))
    with open(job["log"], "w", encoding="utf-8") as log:
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def serve(src: str) -> None:
    for var in BLAS_THREAD_VARS:  # before NumPy loads
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import numpy  # noqa: F401

    try:
        import sectsum.cli  # noqa: F401
    except Exception:  # a broken program fails in each child, where it is reported
        pass
    kernel_seconds()  # warm-up: the first run pays one-off costs
    for line in sys.stdin:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = child(line.strip())
            except BaseException:  # the child must never return into the server loop
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)


if __name__ == "__main__":
    serve(sys.argv[1])
