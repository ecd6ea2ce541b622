#!/usr/bin/env python3
"""Snapshot every CLI subcommand on every shipped scenario.

    python3 tools/cli_snapshot.py <outdir>

Runs ``wnc.cli.main`` in process, with the package imported from this
checkout's ``src/``, for each of the eight subcommands on
``scenarios/*.yaml`` and ``bench/scenarios/*.yaml``, with ``--strict``,
once with ``--format csv`` and once with ``--format json``.  Each run
writes ``<dir>__<scenario>.<command>.<format>`` and its ``.meta.json``
sidecar (when the run gets that far), plus ``.stdout``, ``.stderr`` and
``.rc`` files named after it (the exit code, 3 where a strict verdict
fails).  Output is byte-reproducible, so ``diff -r`` of two snapshots
shows every change in behaviour between two checkouts.
"""

import contextlib
import glob
import io
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from wnc import cli  # noqa: E402


def main(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    paths = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.yaml"))
                   + glob.glob(os.path.join(ROOT, "bench", "scenarios", "*.yaml")))
    for path in paths:
        rel = os.path.relpath(path, ROOT)[:-len(".yaml")]
        for command, fmt in itertools.product(cli._QUERY_FIELDS, ("csv", "json")):
            base = os.path.join(
                outdir, f"{rel.replace(os.sep, '__')}.{command}.{fmt}")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([command, "--scenario", path, "--out", base,
                               "--format", fmt, "--strict"])
            for ext, text in ((".stdout", out.getvalue()),
                              (".stderr", err.getvalue()), (".rc", f"{rc}\n")):
                with open(base + ext, "w") as fh:
                    fh.write(text)
            print(f"{rel} {command} {fmt}: exit {rc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
