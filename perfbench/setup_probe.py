"""Set-up probe: a fresh interpreter imports squintlab and runs a first sweep.

Usage: python3 setup_probe.py <checkout root> <cli_main arguments...>

Prints, as its last line, JSON with the seconds from before ``import
squintlab`` to the end of the sweep, and the sweep's exit code.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter


def main() -> None:
    start = perf_counter()
    sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
    from squintlab.cli import cli_main

    with redirect_stdout(io.StringIO()):
        rc = cli_main(sys.argv[2:])
    print(json.dumps({"setup_s": perf_counter() - start, "rc": rc}))


if __name__ == "__main__":
    main()
