"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage (from the root of a checkout, with ``PYTHONPATH=src``)::

    python3 perfbench/traced_serve.py --spans DIR -- serve SCHEME --store S --shards N --port 0

The wrappers of :mod:`layertrace` are installed before
:func:`repro.cli.main` runs, so the router process and every shard
worker it forks record spans; each writes them to ``DIR`` when it ends.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    import layertrace
    from repro.cli import main as cli_main

    layertrace.install(args.spans)
    try:
        return cli_main(serve_args)
    finally:
        layertrace.RECORDER.flush(args.spans)


if __name__ == "__main__":
    sys.exit(main())
