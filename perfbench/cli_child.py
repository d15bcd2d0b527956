"""Run ``treeshap-hd`` in this process with the benchmark's instrumentation.

    python3 perfbench/cli_child.py RESULT.json trace|peak <treeshap-hd args...>

``trace`` records a ``cli.import`` span around importing the CLI module and
swaps in the timing wrappers of ``spans.installed`` (engine internals plus the
CLI's ``explain`` and ``load_canonical``).  ``peak`` starts ``tracemalloc``
before anything is imported and reports the peak of the whole process.  The
exit code and the measurements go to RESULT.json when the command returns.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

from spans import Recorder, installed


def main() -> int:
    result_path, how, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if how == "peak":
        tracemalloc.start()
    rec = Recorder()
    token = rec.open()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import treeshap_hd.cli as cli

    rec.close(token, "cli.import")
    if how == "trace":
        with installed(rec, cli=True):
            code = cli.main(argv)
    else:
        code = cli.main(argv)
    out = {"code": code, "spans": rec.spans}
    if how == "peak":
        out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
