"""One timed CLI run: ``python3 child.py MARKER TRACE ARGS...``.

Runs the ``sqbattery`` console entry point (``sqbattery.cli:main``) on ARGS
from the checkout's ``src``, as the installed command would. MARKER receives
CLOCK_MONOTONIC stamps: ``parsed`` when the first argparse parse returns
(import and argument parsing done), ``main_end`` when the entry point
returns; and ``peak_rss_kib``, the VmHWM of this process image (the
parent's ru_maxrss of the child would also count the parent's own pages,
which the child holds between fork and exec). TRACE is ``-`` for an
untraced run, else the path the span dump is written to after the entry
point returns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
stamps: dict[str, float] = {}


def _stamp_first_parse() -> None:
    parse_args = argparse.ArgumentParser.parse_args

    def parse_and_stamp(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        stamps.setdefault("parsed", time.monotonic())
        return namespace

    argparse.ArgumentParser.parse_args = parse_and_stamp


def _peak_rss_kib() -> int | None:
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


def main() -> int:
    marker, trace, *argv = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    _stamp_first_parse()
    from sqbattery import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sqbattery imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    stamps["imported"] = time.monotonic()
    tracer = None
    if trace != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    stamps["main_end"] = time.monotonic()
    stamps["peak_rss_kib"] = _peak_rss_kib()
    sys.stdout.flush()
    if tracer is not None:
        tracer.restore()
        tracer.dump(trace)
    Path(marker).write_text(json.dumps(stamps), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
