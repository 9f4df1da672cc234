"""Hand-sized tour of the tracking metrics.

Two static targets, five frames, and a tracker that swaps their ids at
frame 3. Every box is spatially perfect, so the only errors are identity
errors: the frame-by-frame protocol charges one switch per target at the
swap (MOTA 0.8), while the global identity measure asks how much of each
trajectory the best fixed id assignment explains (IDF1 0.6).
"""

from omctrack.frame_io import MotBox
from omctrack.metrics import evaluate


def box(frame, tid, x):
    return MotBox(frame=frame, id=tid, x=x, y=0.0, w=10.0, h=10.0, conf=1.0)


gt, pred = [], []
for f in range(1, 6):
    gt += [box(f, 1, x=0.0), box(f, 2, x=100.0)]
    if f <= 2:
        pred += [box(f, 1, x=0.0), box(f, 2, x=100.0)]
    else:  # ids swapped from frame 3 on
        pred += [box(f, 2, x=0.0), box(f, 1, x=100.0)]

report = evaluate(gt, pred)
fp, fn, idsw, mota = report.fp, report.fn, report.idsw, report.mota
print("frame-by-frame protocol:")
print(f"  FP={fp} FN={fn} IDSW={idsw} over {len(gt)} gt boxes")
print(f"  MOTA = 1 - ({fp}+{fn}+{idsw})/{len(gt)} = {mota}")

print("\nglobal identity measure:")
print(f"  IDF1 = {report.idf1}")
print("  (the best fixed correspondence explains 3 of 5 frames per target)")

print("\nfull report:")
print(report.pretty())

print("\nperfect tracking for contrast:")
print(evaluate(gt, list(gt)).pretty())
