"""Start the chase service for the ``session_stream`` workload.

``python perfbench/server.py [--trace --spans PATH]`` runs
:func:`repro.service.http.run_server` on an ephemeral local port with one
serial chase worker, exactly as ``python -m repro.service --port 0``
would, and prints the same ``listening on`` line.  Traced and untraced
runs use this same launcher, so both have the same process layout.  With
``--trace`` the layer wrappers of ``perfbench/boundaries.py`` are
installed first, and on shutdown (SIGTERM) the recorded spans and
per-root-span counters are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.service.http import run_server  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="install the layer wrappers")
    parser.add_argument("--spans", help="where --trace writes the spans on shutdown")
    args = parser.parse_args(argv)
    if args.trace and not args.spans:
        parser.error("--trace needs --spans")

    tracer = None
    if args.trace:
        from boundaries import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    run_server(host="127.0.0.1", port=0, workers=1)
    if tracer is not None:
        tracer.uninstall()
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": tracer.spans,
                    "root_counts": {str(k): v for k, v in tracer.root_counts.items()},
                },
                handle,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
