"""Child process that measures CLI set-up from a fresh interpreter.

Usage: ``python3 setup_probe.py <overlay.ini | ->``.  Imports
``fieldtomo.cli``, has the CLI build its parser and default
configuration (``--print-defaults``), parses the first op's INI overlay,
and prints ``time.monotonic()`` at that point.  CLOCK_MONOTONIC is
shared by all processes, so the parent subtracts its own reading taken
just before it started this interpreter.
"""

import configparser
import contextlib
import io
import sys
import time


def main() -> int:
    import fieldtomo.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = fieldtomo.cli.main(["--print-defaults"])
    if sys.argv[1] != "-":
        configparser.ConfigParser(interpolation=None).read(sys.argv[1])
    ready = time.monotonic()
    print(repr(ready))
    return code


if __name__ == "__main__":
    sys.exit(main())
