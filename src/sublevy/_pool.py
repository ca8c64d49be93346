"""One-call fork pool: the caller plus forked children, one per usable core.

``map_chunks`` runs a call's chunks over k workers, k being the usable
cores (``os.sched_getaffinity``) capped at the number of chunks, and 1
where ``os.fork`` does not exist.  The calling process is worker 0; the
others are forked for the call, send back what they return through a pipe,
and are reaped before it returns.  The Monte Carlo in ``simulate`` deals
its path chunks over it.  Python 3.12 and later warn
(``DeprecationWarning``) when ``os.fork`` runs in a multi-threaded
process, as one with OpenBLAS threads is.
"""

from __future__ import annotations

import os
import pickle


def workers(n_chunks: int) -> int:
    """Processes for n_chunks chunks: one per usable core, at most one per chunk."""
    if not hasattr(os, "fork"):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, n_chunks))


def _serve(run, chunks, wfd):
    """Body of a forked worker: run its chunks, pickle the results or the error to wfd, exit."""
    status = 1
    try:
        try:
            payload = (None, [run(c) for c in chunks])
        except Exception as e:
            payload = (e, None)
        with os.fdopen(wfd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        # never return into the caller's stack, nor flush its inherited buffers
        os._exit(status)


def map_chunks(run, n_chunks):
    """[run(c) for c in range(n_chunks)], with chunk c on worker c % k of k.

    Worker 0 is this process; the others are forked children that send back
    what they return, or the exception they raise, which is raised here.
    Every child is reaped before this returns or raises, and killed first if
    this process is raising.
    """
    k = workers(n_chunks)
    out = [None] * n_chunks
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, k):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                os.close(rfd)
                _serve(run, range(w, n_chunks, k), wfd)
            os.close(wfd)
            children[w] = (pid, os.fdopen(rfd, "rb"))
        out[0::k] = [run(c) for c in range(0, n_chunks, k)]
        for w in range(1, k):
            pid, fh = children[w]
            data = fh.read()
            fh.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            if code != 0:
                raise RuntimeError(f"pool worker {w} exited with code {code}")
            # only bytes this call's own fork wrote are unpickled
            error, results = pickle.loads(data)
            if error is not None:
                raise error
            out[w::k] = results
    finally:
        for pid, fh in children.values():
            fh.close()
            os.kill(pid, 9)  # SIGKILL; numpy does not load the signal module
            os.waitpid(pid, 0)
    return out
