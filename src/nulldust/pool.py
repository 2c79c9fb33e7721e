"""Independent sub-problems of one criterion, run at the same time.

The marches and curvature evaluations that criteria run side by side spend
their time in numpy calls that release the GIL, so threads use the cores.
Each task does the same arithmetic as in a loop, so results are
bit-identical to running the items one after another.
"""

import os
import threading

_in_task = threading.local()


def workers() -> int:
    """Threads a criterion may use: the cores this process may run on."""
    return len(os.sched_getaffinity(0))


def pmap(fn, items) -> list:
    """[fn(x) for x in items], on up to one thread per core.

    The calling thread is one of them and runs the first item, so the
    largest task, put first, reuses the memory earlier work freed on that
    thread.  The other items are taken in input order by whichever thread
    is free.  Results come back in input order.  When tasks raise, the
    exception of the earliest such item in input order is re-raised, the one
    a loop would raise; items after it that have not started are skipped.
    With one worker, or when called from inside a task, it runs as that loop
    on the calling thread, so nested calls cannot deadlock or oversubscribe.
    """
    items = list(items)
    n = min(len(items), workers())
    if n <= 1 or getattr(_in_task, "active", False):
        return [fn(x) for x in items]
    results, errors = [None] * len(items), {}
    order, lock = iter(range(len(items))), threading.Lock()

    def run(i):
        try:
            results[i] = fn(items[i])
        except BaseException as exc:  # re-raised on the calling thread
            errors[i] = exc

    def drain():
        _in_task.active = True
        try:
            while not errors:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                run(i)
        finally:
            _in_task.active = False

    first = next(order)
    helpers = [threading.Thread(target=drain) for _ in range(n - 1)]
    for t in helpers:
        t.start()
    _in_task.active = True
    run(first)
    drain()
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results
