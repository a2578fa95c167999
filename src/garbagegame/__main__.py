import gc
import sys

from .cli import main


def run() -> int:
    """The process entry of `python -m garbagegame` and the `garbagegame` script: freeze the
    import-time heap, so that the exit-time collection skips it, then run main(), which makes
    no gc call because tests and demos call it in-process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
