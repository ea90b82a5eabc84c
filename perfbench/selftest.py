#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (builds like run.py).  Checks that:
  * every output check rejects a deliberately wrong expected value;
  * the open-loop generator charges an injected stall to the frames behind it;
  * an unknown workload or a bad seed fails loudly (exit 2, no result);
  * two traced runs with one seed give identical digests and count metrics,
    and another seed gives a different digest.
Exits 0 when every test passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNT_METRICS = [
    "tcl.cmds_per_job",
    "tk.bind_matches_per_input",
    "tk.redraws_per_input",
    "tk.repacks_per_input",
    "pipeline.requests_per_input",
    "pipeline.flushes_per_input",
    "pipeline.round_trips_per_input",
    "pipeline.round_trips_per_dialog",
    "wire.frames_per_input",
    "wire.bytes_per_req",
]

# (workload, check to corrupt).
MUTATIONS = [
    ("ui_local", "ui_text"),
    ("ui_local", "ui_list"),
    ("ui_local", "ui_label"),
    ("ui_local", "ui_keys"),
    ("ui_wire", "ui_raster"),
    ("script", "script_job"),
    ("wire_fleet", "fleet_ack"),
    ("wire_fleet", "fleet_reply"),
    ("wire_fleet", "fleet_region"),
]


class Run:
    def __init__(self, binary, args):
        result = subprocess.run([binary] + args, capture_output=True, text=True,
                                timeout=run.RUN_TIMEOUT_S, check=False)
        self.code = result.returncode
        self.stdout = result.stdout
        self.stderr = result.stderr
        lines = result.stdout.strip().splitlines()
        self.result = None
        if lines and lines[-1].startswith("{"):
            self.result = json.loads(lines[-1])
        self.notes = {}
        for line in lines[:-1]:
            key, sep, value = line.partition(": ")
            if sep:
                self.notes[key] = value

    def metric(self, name):
        return self.result["metrics"][name]["value"]


def bench(binary, workload, seed, seconds, trace, *extra):
    return Run(binary, ["--workload", workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", str(trace)] + list(extra))


def main():
    binary = run.build()
    if binary is None:
        return 3
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload, check in MUTATIONS:
        r = bench(binary, workload, 7, 2, 0, "--mutate", check)
        expect(r.code == 1 and r.result is not None and not r.result["correct"]
               and "check failed" in r.stderr,
               f"{workload}: corrupted expectation '{check}' is rejected")

    plain = bench(binary, "wire_fleet", 7, 3, 0)
    stalled = bench(binary, "wire_fleet", 7, 3, 0, "--stall-ms", "200")
    expect(plain.code == 0 and stalled.code == 0, "wire_fleet runs with and without a stall pass")
    if plain.code == 0 and stalled.code == 0:
        expect(float(stalled.notes["gen_late_max_us"]) >= 180000,
               "the stall shows as generator lateness")
        expect(float(stalled.notes["batch_max_us"]) >= 180000,
               "frames due during the stall are charged the stall")
        expect(float(stalled.notes["op_p99_us"]) > float(plain.notes["op_p99_us"]),
               "the stall raises the batch p99")

    for args, what in [
        (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
         "unknown workload"),
        (["--workload", "script", "--seed", "abc", "--seconds", "1", "--trace", "0"],
         "non-numeric seed"),
        (["--workload", "script", "--seed", "-1", "--seconds", "1", "--trace", "0"],
         "negative seed"),
        (["--workload", "script", "--seed", "99999999999999999999999", "--seconds", "1",
          "--trace", "0"], "seed out of range"),
        (["--workload", "script", "--seconds", "1", "--trace", "0"], "missing seed"),
    ]:
        r = Run(binary, args)
        expect(r.code == 2 and r.result is None and "perfbench:" in r.stderr,
               f"{what} fails loudly")

    for workload in ["ui_wire", "ui_local", "script", "wire_fleet"]:
        first = bench(binary, workload, 11, 1, 1)
        second = bench(binary, workload, 11, 1, 1)
        other = bench(binary, workload, 12, 1, 1)
        ok = all(r.code == 0 for r in (first, second, other))
        expect(ok, f"{workload}: traced runs pass")
        if not ok:
            continue
        expect(first.notes["digest"] == second.notes["digest"],
               f"{workload}: same seed, same output digest")
        expect(first.notes["digest"] != other.notes["digest"],
               f"{workload}: another seed, another output digest")
        differing = [m for m in COUNT_METRICS if first.metric(m) != second.metric(m)]
        expect(not differing, f"{workload}: same seed, same count metrics {differing or ''}")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
