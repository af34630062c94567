#!/usr/bin/env python3
"""Load generator for a *running* allocation server.

The service's benchmark is perfbench's ``serve`` workload; this tool
drives a server from outside instead — point it at any live server
(CI's smoke job starts one with ``repro serve`` and drives it from
here) and it replays a deterministic fuzz-derived corpus with a
configurable duplicate ratio, printing the hit rate and the latency
percentiles, optionally gating on a minimum hit rate.

Usage::

    PYTHONPATH=src python tools/loadgen.py --port 7070
        [--host 127.0.0.1] [--requests 200] [--dup-ratio 0.5] [--seed 0]
        [--passes 1] [--min-hit-rate 0.45] [--json FILE]

Exit status: 0 on success, 1 when any request errored or the final
pass's hit rate fell below ``--min-hit-rate``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--requests", type=int, default=200, metavar="N",
                        help="requests per pass (default: 200)")
    parser.add_argument("--dup-ratio", type=float, default=0.5, metavar="R",
                        help="fraction of duplicate requests (default: 0.5)")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="corpus seed (default: 0)")
    parser.add_argument("--passes", type=int, default=1, metavar="N",
                        help="replay the corpus N times (default: 1; a "
                             "second pass measures the warmed cache)")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        metavar="R",
                        help="fail unless the final pass's hit rate is "
                             "at least R")
    parser.add_argument("--timeout", type=float, default=60.0, metavar="S",
                        help="wait up to S seconds for the server "
                             "(default: 60)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the per-pass reports as JSON")
    args = parser.parse_args(argv)

    from repro.serve import build_corpus, run_load, wait_ready

    wait_ready(args.host, args.port, timeout=args.timeout)
    corpus = build_corpus(args.requests, dup_ratio=args.dup_ratio,
                          seed=args.seed)
    reports = []
    for n in range(args.passes):
        report = run_load(args.host, args.port, corpus,
                          label=f"pass-{n + 1}")
        reports.append(report)
        print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    final = reports[-1]
    if any(r.errors for r in reports):
        print(f"FAIL: {sum(r.errors for r in reports)} request(s) errored",
              file=sys.stderr)
        return 1
    if args.min_hit_rate is not None and final.hit_rate < args.min_hit_rate:
        print(f"FAIL: final hit rate {final.hit_rate:.2%} below the "
              f"{args.min_hit_rate:.2%} floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
