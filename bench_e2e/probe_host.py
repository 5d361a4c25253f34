"""Runs ``run.py``'s fresh-interpreter probes, one per request.

Reads one JSON command list per line on standard input, runs it, and
writes its CPU seconds (user plus system, from ``RUSAGE_CHILDREN``) as
one line.  ``run.py`` keeps this process alive for the whole run and
reaps it only after reading its own peak RSS, so the probes' memory
stays out of ``peak_rss_mb``.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        # The probe's own output must not reach the reply channel.
        subprocess.run(json.loads(line), stdout=sys.stderr, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        print(repr(cpu), flush=True)


if __name__ == "__main__":
    main()
