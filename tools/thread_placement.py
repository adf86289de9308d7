#!/usr/bin/env python3
"""Runs a command and reports on which CPUs its threads ran.

usage: python3 tools/thread_placement.py CMD [ARG...]

Every 5 ms it reads /proc/<pid>/task/*/stat of the command and of every
process the command started, read-only, and notes each thread's state and
the CPU it last ran on. When the command exits it prints, to stderr, one
line per thread that was ever runnable: its samples, its runnable samples
and the histogram of CPUs over those runnable samples. The last line is the
number of samples in which two runnable threads sat on one CPU, the
stacking that per-core runtime workers rule out. The command's own
stdout and stderr pass through; the exit status is the command's.

For example, to check that the ring workload's two workers hold one CPU each
(the binary is the one perfbench/run.py builds; running it directly keeps
the wrapper's own samples out):

  python3 tools/thread_placement.py .bench_build/perfbench/perfbench \\
      --workload uthread-ring --seed 1 --seconds 4 --trace 0
"""
import collections
import os
import subprocess
import sys
import time

SAMPLE_S = 0.005
# Descendant processes are looked up by a scan of /proc, which costs more
# than a sample; it runs every this many samples.
RESCAN_EVERY = 20


def read_stat(path):
    """Returns (name, state, ppid, cpu) from a /proc stat file, or None."""
    try:
        with open(path, "rb") as f:
            raw = f.read().decode("utf-8", "replace")
    except OSError:
        return None  # the thread or process exited between listing and reading
    open_paren = raw.find("(")
    close_paren = raw.rfind(")")
    if open_paren < 0 or close_paren < 0:
        return None
    name = raw[open_paren + 1:close_paren]
    # Fields after the name start at field 3 (state); the CPU is field 39.
    fields = raw[close_paren + 2:].split()
    if len(fields) < 37:
        return None
    return name, fields[0], int(fields[1]), int(fields[36])


def descendants(root):
    """The pids of `root` and of every process below it."""
    children = collections.defaultdict(list)
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = read_stat(f"/proc/{entry}/stat")
            if stat is not None:
                children[stat[2]].append(int(entry))
    found = [root]
    i = 0
    while i < len(found):
        found.extend(children.get(found[i], []))
        i += 1
    return found


def main():
    if len(sys.argv) < 2 or sys.argv[1] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2

    child = subprocess.Popen(sys.argv[1:])
    names = {}
    samples = collections.Counter()
    runnable = collections.Counter()
    cpus = collections.defaultdict(collections.Counter)
    taken = 0
    stacked = 0
    pids = [child.pid]
    while child.poll() is None:
        if taken % RESCAN_EVERY == 0:
            pids = descendants(child.pid)
        on_cpu = collections.Counter()
        for pid in pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                stat = read_stat(f"/proc/{pid}/task/{tid}/stat")
                if stat is None:
                    continue
                name, state, _, cpu = stat
                key = (pid, int(tid))
                names[key] = name
                samples[key] += 1
                if state == "R":
                    runnable[key] += 1
                    cpus[key][cpu] += 1
                    on_cpu[cpu] += 1
        taken += 1
        if any(n >= 2 for n in on_cpu.values()):
            stacked += 1
        time.sleep(SAMPLE_S)

    out = sys.stderr
    print(f"thread_placement: {taken} samples every {SAMPLE_S * 1000:g} ms", file=out)
    for key in sorted(runnable):
        pid, tid = key
        histogram = " ".join(f"cpu{c}:{n}" for c, n in sorted(cpus[key].items()))
        print(f"  pid {pid} tid {tid} ({names[key]}): {samples[key]} samples, "
              f"{runnable[key]} runnable: {histogram}", file=out)
    print(f"thread_placement: {stacked} of {taken} samples had two runnable threads "
          f"on one CPU", file=out)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
