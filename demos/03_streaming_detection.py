"""Streaming detection: robust projection versus plain projection.

Two opposite point anomalies, five decile-spreads tall and five samples
apart, are planted in a synthetic stream. The robust detector flags both,
keeps the stamps between them quiet, and replaces the stored values so later
windows stay clean. The same pipeline with a plain projection (an exclusion
budget of n_s = 0 rows) smears each anomaly across every window that contains
it and flags the clean stamps in between. (The empirical-CDF threshold of
0.95 means roughly one clean stamp in twenty is flagged as borderline either
way; the point is the contrast around the anomalies.)

Run:  python3 demos/03_streaming_detection.py
"""

import numpy as np

from rpe.detector import DetectorConfig, train
from rpe.synth import SynthSpec, anomaly_scale, generate_clean
from rpe.trajectory import TimeSeries

TRAIN_LEN = 150
ANOMALIES = (21, 26)  # offsets into the streamed half


def run(config: DetectorConfig, clean, stream):
    state = train(TimeSeries(values=clean.values[:TRAIN_LEN].copy()), config)
    records = [state.step(v) for v in stream.tolist()]
    return {r.index: r for r in records}


def main() -> None:
    clean = generate_clean(SynthSpec(length=300, seed=0))
    f = anomaly_scale(clean.values[:TRAIN_LEN])
    stream = clean.values[TRAIN_LEN:].copy()
    stream[ANOMALIES[0]] += 5.0 * f
    stream[ANOMALIES[1]] -= 5.0 * f
    a1, a2 = (TRAIN_LEN + k for k in ANOMALIES)

    print(f"trained on {TRAIN_LEN} clean samples; decile spread f = {f:.2f}")
    print(f"anomalies: +5f at index {a1}, -5f at index {a2}\n")

    robust = run(DetectorConfig(), clean, stream)
    plain = run(DetectorConfig(n_s=0), clean, stream)

    print("index    value     robust |e|  flag   plain |e|   flag")
    for i in range(a1 - 2, a2 + 4):
        r, p = robust[i], plain[i]
        mark = "  <- anomaly" if i in (a1, a2) else ""
        print(f"{i:5d} {stream[i - TRAIN_LEN]:9.3f} {r.abs_residual:11.3f}"
              f"{'   *' if r.flagged else '    '} {p.abs_residual:11.3f}"
              f"{'   *' if p.flagged else '    '}{mark}")

    robust_mid = max(robust[i].abs_residual for i in range(a1 + 1, a2))
    plain_mid = max(plain[i].abs_residual for i in range(a1 + 1, a2))
    print(f"\nlargest residual on the clean stamps between the anomalies:")
    print(f"  robust projection : {robust_mid:.3f}")
    print(f"  plain projection  : {plain_mid:.3f} "
          f"({plain_mid / robust_mid:.0f}x larger — the smear)")

    # The value stored for each streamed stamp: its reconstruction when the
    # stamp was replaced, else the value itself.
    stored = np.array([
        stream[i - TRAIN_LEN] if robust[i].replaced_value is None else robust[i].replaced_value
        for i in range(TRAIN_LEN, TRAIN_LEN + stream.size)
    ])
    print("\nvalue replacement: the flagged values were rewritten with their")
    print("reconstructions, so the stored history tracks the clean series:")
    print(f"  |stored - clean| at index {a1}: "
          f"{abs(stored[a1 - TRAIN_LEN] - clean.values[a1]):.3f} "
          f"(the raw anomaly was {5 * f:.2f} away)")
    print(f"  worst |stored - clean| anywhere: "
          f"{np.abs(stored - clean.values[TRAIN_LEN:]).max():.3f}")


if __name__ == "__main__":
    main()
