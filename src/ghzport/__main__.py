"""``python -m ghzport`` and the ``ghzport`` console script.

Both start in ``run``, the one start-up function. It imports the command-line
front end with the cyclic collector off: the import makes about 22,000 tracked
objects that live as long as the process, and the 30-odd collections it would
trigger scan them again and again to free a few hundred. The objects are then
frozen, so no later collection scans them, and the collector is back on before
``cli.main`` starts. The process ends through ``sys.exit``, not ``os._exit``,
so ``atexit`` handlers still run and tools such as ``python -m cProfile -m
ghzport`` still write their output.
"""

import gc
import os
import sys


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
    sys.exit(code)


if __name__ == "__main__":
    run()
