"""Run ``python -m polysamp ARGS`` in this process with the benchmark's hooks.

Usage: child.py RESULT_FILE TRACE(0|1) -- POLYSAMP_ARGS...

Every run records when converter.convert_batch is first called (the end of
set-up). With TRACE 1 the layer boundaries are also wrapped in spans. Both
go to RESULT_FILE as JSON when the command has finished and closed its
output; the command's exit code is kept.
"""

import json
import runpy
import sys
import time

import tracing


def main() -> None:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        sys.exit("usage: child.py RESULT_FILE TRACE(0|1) -- POLYSAMP_ARGS...")

    from polysamp import converter

    tracer = tracing.Tracer()
    if trace == "1":
        tracing.install(tracer)

    first_convert: list[int] = []
    convert = converter.convert_batch

    def stamped(*args, **kwargs):
        if not first_convert:
            first_convert.append(time.monotonic_ns())
        return convert(*args, **kwargs)

    converter.convert_batch = stamped

    sys.argv = ["polysamp", *argv]
    try:
        runpy.run_module("polysamp", run_name="__main__", alter_sys=True)
    finally:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"first_convert_ns": first_convert[0] if first_convert else None,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main()
