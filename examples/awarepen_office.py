#!/usr/bin/env python3
"""AwareOffice simulation: AwarePen + quality-gated whiteboard camera.

The paper's motivating application (section 1): the whiteboard camera
takes a picture when a writing session ends, and the quality measure keeps
wrong pen contexts from triggering spurious snapshots.  This example runs
the same office scenario twice through the scenario runner — once with an
ungated camera, once with a camera gated at the calibrated threshold —
and compares the outcomes.

Run:  python examples/awarepen_office.py
"""

import numpy as np

from repro.datasets.activities import evaluation_script
from repro.scenarios import office_spec, run_scenario
from repro.sensors.accelerometer import AWAREPEN_CLASSES


def main() -> None:
    script = evaluation_script(np.random.default_rng(2024), blocks=4)
    ungated = run_scenario(office_spec(script, gated=False), seed=7)
    gated = run_scenario(office_spec(script, gated=True), seed=7)
    [ungated_camera] = ungated.cameras
    [camera] = gated.cameras
    s = camera.threshold
    print(f"calibrated acceptance threshold s = {s:.3f}\n")

    print("scenario: 4 writing blocks with thinking pauses and rests")
    print(f"pen emitted {ungated.n_windows} context events, "
          f"raw accuracy {ungated.accuracy:.2f}\n")

    print("ungated camera (believes every context event):")
    print(f"  accepted {ungated_camera.accepted_events} events, "
          f"took {ungated_camera.n_snapshots} snapshots")

    print("quality-gated camera (paper's proposal):")
    print(f"  accepted {camera.accepted_events} events, rejected "
          f"{camera.rejected_events} low-quality ones, "
          f"took {camera.n_snapshots} snapshots\n")

    print("gated camera snapshot log:")
    for time_s, start_s, n_writing in zip(camera.snapshot_times,
                                          camera.session_starts,
                                          camera.n_writing_events):
        print(f"  t={time_s:7.1f}s  session started {start_s:7.1f}s  "
              f"({n_writing} writing events)")

    print("\nlast few pen events (context, q):")
    [pen] = gated.events
    names = {c.index: c.name for c in AWAREPEN_CLASSES}
    for time_s, index, q in zip(pen.times[-8:], pen.predicted_indices[-8:],
                                pen.qualities[-8:]):
        shown = "eps" if np.isnan(q) else f"{q:.2f}"
        verdict = "PASS" if q > s else "drop"
        print(f"  t={time_s:6.1f}s  {names[index]:<8} "
              f"q={shown:<5} {verdict}")


if __name__ == "__main__":
    main()
