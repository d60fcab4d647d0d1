"""Child process for the benchmark's CLI workload.

Runs the console entry point ``uvbeams.cli:main`` on the given arguments, as
the installed ``uvbeams`` script does, and exits with its code:

    python perfbench/cli_child.py [--trace-to FILE | --peak-to FILE] UVBEAMS-ARGS...

With ``--trace-to FILE`` the call runs under :class:`tracer.Tracer` and the
trace (per-function stats, spans, absent names) is written to FILE as JSON.
With ``--peak-to FILE`` the process's peak resident set size after ``exec``
(``VmHWM``, in kB) is written to FILE; ``ru_maxrss`` cannot serve, because on
Linux it also counts the parent's memory that the child held before ``exec``.
The plain path imports nothing beyond the entry point.
"""

import json
import sys


def _run(argv: list[str]) -> int:
    from uvbeams.cli import main

    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code


def _main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--trace-to"]:
        from tracer import Tracer

        with Tracer() as tracer:
            code = _run(argv[2:])
        record = {
            "stats": tracer.stats,
            "spans": tracer.spans,
            "absent": tracer.absent,
            "layer_self_s": tracer.layer_self_s(),
        }
    elif argv[:1] == ["--peak-to"]:
        code = _run(argv[2:])
        with open("/proc/self/status", encoding="ascii") as f:
            record = {"vm_hwm_kb": next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))}
    else:
        from uvbeams.cli import main

        return main(argv)
    with open(argv[1], "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(_main())
