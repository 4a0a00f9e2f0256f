"""``python -m ghzport`` and the ``ghzport`` console script.

Both start in ``run``, the one start-up function. It imports the command-line
front end with the cyclic collector off: the import makes about 22,000 tracked
objects that live as long as the process, and the 30-odd collections it would
trigger scan them again and again to free a few hundred. The objects are then
frozen, so no later collection scans them, and the collector is back on before
``cli.main`` starts.

When ``cli.main`` has returned, ``run`` runs the ``atexit`` handlers, flushes
stdout and stderr and ends the process with ``os._exit``. That skips the
interpreter's finalization, whose module teardown (mostly numpy's) costs a
few milliseconds and writes nothing. ``run`` exits through ``sys.exit``
instead, with the full teardown, when an exception escapes ``cli.main``, when
the interpreter is to stay interactive (``python -i``), or when a profiler or
tracer is active (``sys.setprofile``, ``sys.settrace`` or, from Python 3.12,
a ``sys.monitoring`` tool such as ``python -m cProfile``'s), because such a
tool may write its report only as the interpreter ends.

``cli.main`` itself always returns: tools call it inside their own processes.
"""

import atexit
import gc
import os
import sys


def _needs_interpreter_exit() -> bool:
    """True when a profiler, tracer or ``-i`` wants the interpreter's own
    exit. Tool ids 0 to 5 are every id ``sys.monitoring`` accepts."""
    if sys.flags.inspect or sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def run() -> None:
    """Console entry point: import ``ghzport.cli`` with the collector paused,
    freeze, turn the collector on and exit with ``cli.main()``'s code. A
    reader closing stdout early (``| head``) ends the run with exit 1 and no
    traceback: stdout then points at devnull (the ``signal`` docs' recipe)."""
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    try:
        code = cli.main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = cli._EXIT_ERROR
    if _needs_interpreter_exit():
        sys.exit(code)
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
