"""Start ``repro serve run`` as the serve-open workload's child process.

    python3 perfbench/serve_launcher.py [--responses PATH] -- serve run --registry DIR

Without ``--responses`` this is exactly the ``repro`` CLI.  With it, the
launcher wraps ``ImputationServer.submit`` so that every request whose id
starts with ``t`` records its resolved ``ImputeResponse`` timing
(``queue_seconds``, ``service_seconds``, ``coalesced``) in memory; the
records are written to PATH as JSON once the server has drained.  Requests
with other ids pass through untouched, so the load generator can interleave
traced and untraced requests and measure what the recording costs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv):
    responses_path = None
    if argv[:1] == ["--responses"]:
        responses_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.cli import main as cli_main
    from repro.serve import ImputationServer

    records = []
    if responses_path is not None:
        original = ImputationServer.submit

        def submit(self, key, values, request_id=None):
            future = original(self, key, values, request_id=request_id)
            if request_id is not None and request_id.startswith("t"):

                def record(done, request_id=request_id):
                    response = done.result()
                    records.append(
                        [request_id, response.queue_seconds,
                         response.service_seconds, response.coalesced]
                    )

                future.add_done_callback(record)
            return future

        ImputationServer.submit = submit

    code = cli_main(argv)
    if responses_path is not None:
        with open(responses_path, "w") as handle:
            json.dump(records, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
