"""Process entry point: `python -m facelab` and the `facelab` script."""

import gc
import sys
from typing import NoReturn

from . import cli


def main() -> NoReturn:
    """Run one request and exit with its code.  The collector is frozen
    first: shutdown still flushes, runs atexit and tears the modules down,
    but its full collections skip every object alive at that point."""
    code = cli.main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
