"""Record the reference digest of every pool entry.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

A CLI entry's digest is the SHA-256 of its stdout; a survey entry's is the
digest of its summary. The committed reference.json was recorded at the
commit named in it; re-record only when an output is meant to change, and
say so in the change that does it. Recording refuses to write a digest for
an output that breaks one of the benchmark's invariants.
"""

from __future__ import annotations

import json
import sys

from run import OP_TIMEOUT_S, REFERENCE, Worker, git_state, run_cli_op
from workloads import all_entries


def main():
    digests = {}
    worker = Worker(OP_TIMEOUT_S)
    try:
        for entry in all_entries():
            if entry.startswith("survey"):
                record = worker.survey(entry, None, OP_TIMEOUT_S)
            else:
                record = run_cli_op(entry, None, OP_TIMEOUT_S)
            if not record["ok"]:
                print(f"refusing to record {entry}: {record['why']}", file=sys.stderr)
                return 1
            digests[entry] = record["digest"]
            print(f"{record['wall']:7.3f}s  {entry}", file=sys.stderr)
    finally:
        worker.close()
    sha, dirty = git_state()
    doc = {"recorded_at": {"git_sha": sha, "git_dirty": dirty}, "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
