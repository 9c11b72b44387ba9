"""One traced ``valfun`` CLI process.

    python bench/child.py SPANS_OUT [CLI ARGS...]

Times ``import valfun.cli``, then runs ``valfun.cli.main(CLI ARGS)`` under
the tracer and writes the spans and counts to SPANS_OUT as JSON.  The
report goes to stdout exactly as ``python -m valfun.cli`` would print it,
so the traced and untraced answers can be compared byte for byte.  With
no CLI ARGS only the import is timed.

Nothing but the standard library is imported before the timed import.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
import valfun.cli  # noqa: E402

t1 = time.perf_counter()

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    tr.spans.append(["cli.import", t0, t1, -1, None, None, True])
    rc = 0
    if argv:
        buf = io.StringIO()
        with tr:
            idx = tr.begin("cli.main")
            try:
                with contextlib.redirect_stdout(buf):
                    rc = valfun.cli.main(argv)
            finally:
                tr.end(idx)
        sys.stdout.write(buf.getvalue())
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tr.export(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
