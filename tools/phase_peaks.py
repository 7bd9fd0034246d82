"""Traced memory peak of each phase of one ``sdtdl fit``.

    PYTHONPATH=src python3 tools/phase_peaks.py DATA [-- FIT_OPTIONS...]

``DATA`` is a directory holding ``source.stdl``, ``source_labels.txt`` and
``target.stdl``, as ``sdtdl synth`` and the benchmark write them. The tool
runs ``sdtdl fit`` on it through ``sdtdl.cli.main``, in this process, with
the ``sdtdl`` on ``sys.path`` and under ``tracemalloc``; options after
``--`` go to ``sdtdl fit``, and what it prints goes to stderr. The tool
prints one JSON line per phase, in the order
the phases ended, then one line with the traced peak of the whole command
(reading the inputs and writing the outputs included). The phases are:

* ``init_class``: init step 1's class HOOIs, from the start of
  ``solver.fit`` to its first source update
* ``source_update`` and ``target_update``: each domain update
* ``class_jobs``: each block pass's class jobs, from the start of
  ``solver.run_block_updates`` to its target update
* ``prediction_pass``: each prediction pass

A phase line gives the phase, its index among the phases of its name
(from 0), its wall time in seconds and ``peak_mib``, the highest traced
memory seen while it ran, in MiB. Phases overlap, since a
source update runs beside a prediction pass. A polling thread reads and
resets ``tracemalloc``'s peak every millisecond, and so does each phase
boundary; each interval's peak is charged to every phase that ran through
it, so a peak is never missed, but the phases that overlap share the
peaks of their common intervals.

The phase boundaries are found by wrapping ``sdtdl.solver`` functions from
outside, in the ``sdtdl.solver`` and ``sdtdl.pseudolabel`` namespaces
that bind them, and put back when the fit ends; nothing in ``src/`` is
patched. The exit code
is ``sdtdl fit``'s.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
import threading
import time
import tracemalloc

MIB = 2.0**20
POLL_S = 0.001


class PhasePeaks:
    """The traced peak of each phase, from the intervals between polls."""

    def __init__(self):
        self.lock = threading.Lock()
        self.active = {}  # (name, index) -> [start, peak]
        self.counts = {}
        self.done = []
        self.overall = 0

    def poll(self):
        """Charge the peak since the last poll to every active phase."""
        with self.lock:
            self._poll()

    def _poll(self):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        self.overall = max(self.overall, peak)
        for state in self.active.values():
            state[1] = max(state[1], peak)

    def start(self, name):
        with self.lock:
            self._poll()
            key = (name, self.counts.get(name, 0))
            self.counts[name] = key[1] + 1
            self.active[key] = [time.perf_counter(), 0]
            return key

    def end(self, key):
        with self.lock:
            if key not in self.active:  # None: no such phase is open
                return
            self._poll()
            start, peak = self.active.pop(key)
            self.done.append(
                {
                    "phase": key[0],
                    "index": key[1],
                    "seconds": round(time.perf_counter() - start, 4),
                    "peak_mib": round(peak / MIB, 2),
                }
            )

    def open_key(self, name):
        """The active phase of ``name`` started last, or None."""
        with self.lock:
            keys = [key for key in self.active if key[0] == name]
        return max(keys, default=None)


# (solver function, the phase its call starts, the open phase its call ends
# first, whether its phase ends with the call). A phase that does not end
# with its call is ended by the next call that names it.
BOUNDARIES = [
    ("fit", "init_class", None, False),
    ("run_block_updates", "class_jobs", None, False),
    ("update_domain_source", "source_update", "init_class", True),
    ("update_domain_target", "target_update", "class_jobs", True),
    ("predict_labels", "prediction_pass", None, True),
]


def install(peaks: PhasePeaks):
    """Wrap the solver functions whose calls bound the phases, in
    ``sdtdl.solver`` and in ``sdtdl.pseudolabel``, the two modules through
    which ``solver.fit`` and ``sdtdl fit`` call them. Returns a function
    that puts the originals back."""
    from sdtdl import pseudolabel, solver

    def wrap(fn, name, ends, spans_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ends is not None:
                peaks.end(peaks.open_key(ends))
            key = peaks.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if spans_call:
                    peaks.end(key)

        return wrapper

    patches = []
    for attr, name, ends, spans_call in BOUNDARIES:
        original = getattr(solver, attr)
        wrapper = wrap(original, name, ends, spans_call)
        for module in (solver, pseudolabel):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patches.append((module, attr, original))

    def restore():
        for module, attr, original in patches:
            setattr(module, attr, original)

    return restore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("data", help="directory of source.stdl, source_labels.txt, target.stdl")
    parser.add_argument("fit_options", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    options = args.fit_options[1:] if args.fit_options[:1] == ["--"] else args.fit_options
    from sdtdl import cli

    peaks = PhasePeaks()
    restore = install(peaks)
    stop = threading.Event()

    def poller():
        while not stop.wait(POLL_S):
            peaks.poll()

    with tempfile.TemporaryDirectory() as out:
        argv = ["fit", "--source", os.path.join(args.data, "source.stdl")]
        argv += ["--source-labels", os.path.join(args.data, "source_labels.txt")]
        argv += ["--target", os.path.join(args.data, "target.stdl"), "--out", out]
        tracemalloc.start()
        thread = threading.Thread(target=poller, daemon=True)
        thread.start()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv + options)
        finally:
            stop.set()
            thread.join()
            for key in list(peaks.active):  # left open by a fit that raised
                peaks.end(key)
            peaks.poll()
            tracemalloc.stop()
            restore()
    for line in peaks.done:
        print(json.dumps(line))
    overall = round(peaks.overall / MIB, 2)
    print(json.dumps({"phase": "sdtdl fit", "exit_code": code, "peak_mib": overall}))
    return code


if __name__ == "__main__":
    sys.exit(main())
