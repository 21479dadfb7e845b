#!/usr/bin/env python3
"""Print the sha256 of every CLI output on some framework files, per mode.

Usage: PYTHONPATH=src python scripts/output_digests.py FILE.fw [FILE.fw ...]

For each input and each mode (exact, then float) one line is printed:

    <mode> <file name> analyze=<rc>:<sha256> json=... dims=... svgF<i>=... svgN<i>=... scan=...

``analyze``, ``json`` and ``dims`` are ``framehom analyze`` as text, with
``--json`` and with ``--dims-only``; ``svgF<i>``/``svgN<i>`` are ``framehom
svg`` for the first and last generator of H1(force) and H1(anchored)
(index 0 alone when there is at most one); ``scan`` is the CSV of ``framehom
scan -m 0,0.01 -s 1..2``.  Each digest covers stdout and stderr (for
``svg``, the written file and stderr), with the input path replaced by
``<input>``; ``<rc>`` is the exit code, or ``exc`` when the command raised.
Each command's wall time goes to stderr as ``<mode> <file name> <field>
<seconds> s``, so stdout stays comparable across versions.  Run the script
on two versions of framehom and diff the outputs: a line that differs
names the outputs that changed.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
import traceback
from pathlib import Path

from framehom.cli import main as cli_main

MODES = ("exact", "float")
SCAN_ARGS = ["-m", "0,0.01", "-s", "1..2"]


def run(argv, path, out_file=None):
    """(exit code, sha256, wall seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exc"
            err.write(traceback.format_exc(limit=0))
    wall = time.perf_counter() - start
    text = out.getvalue() + err.getvalue()
    if out_file is not None and rc == 0:
        text = Path(out_file).read_text(encoding="utf-8") + text
    text = text.replace(str(path), "<input>")
    return rc, hashlib.sha256(text.encode()).hexdigest(), wall


def h1_dims(path, mode):
    """(dim H1(force), dim H1(anchored)), or (0, 0) when they cannot be read."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli_main(["analyze", str(path), "--mode", mode, "--dims-only", "--json"])
            dims = json.loads(buf.getvalue())["dims"]
            return dims["force"]["h1"], dims["anchored"]["h1"]
        except Exception:
            return 0, 0


def digest_line(path, mode, tmpdir) -> str:
    label, fields = f"{mode} {Path(path).name}", []

    def field(key, argv, out_file=None):
        rc, h, wall = run(argv, path, out_file)
        print(f"{label} {key} {wall:.3f} s", file=sys.stderr, flush=True)
        fields.append(f"{key}={rc}:{h}")

    for key, flags in (("analyze", []), ("json", ["--json"]), ("dims", ["--dims-only"])):
        field(key, ["analyze", str(path), "--mode", mode, *flags])
    svg = Path(tmpdir) / "out.svg"
    for space, count in zip("FN", h1_dims(path, mode)):
        for idx in sorted({0, max(count - 1, 0)}):
            svg.unlink(missing_ok=True)
            field(f"svg{space}{idx}", ["svg", str(path), "--mode", mode, "--generator",
                                       f"{space}:{idx}", "--out", str(svg)], out_file=svg)
    field("scan", ["scan", str(path), "--mode", mode, *SCAN_ARGS])
    return f"{label} " + " ".join(fields)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmpdir:
        for path in paths:
            for mode in MODES:
                print(digest_line(path, mode, tmpdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
