"""The program's own set-up before its first op, and a probe that times it.

Set-up is importing ``qurg`` (the CLI too, for the corpus workloads), plus
``init_params`` at the default ``EncoderConfig`` and ``load_schema`` where a
workload needs them.  Run as a script, this file performs the set-up in the
fresh interpreter it was started in and prints the CPU seconds it took and
the host speed factor measured right after (see ``hostspeed``).  Only
``json`` and ``hostspeed`` are imported before the clock starts, so the
import cost of numpy and of the other modules the program pulls in is
counted.
"""

import json
import sys
import time

from hostspeed import REFERENCE_MS, calibration_ms


def program_setup(workload, schema_path=None):
    """Do the set-up and return ``(params, schema)``; either may be None."""
    if workload in ("roundtrip-short", "build-matrix-longturn"):
        import qurg.cli  # noqa: F401

        return None, None
    from qurg import dataset_io, rat_encoder

    params = None
    if workload == "encode-turns":
        params = rat_encoder.init_params(rat_encoder.EncoderConfig())
    return params, dataset_io.load_schema(schema_path)


if __name__ == "__main__":
    start = time.process_time()
    program_setup(*sys.argv[1:])
    setup_s = time.process_time() - start
    print(json.dumps({"setup_s": setup_s, "speed": REFERENCE_MS / calibration_ms()}))
