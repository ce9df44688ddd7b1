#!/usr/bin/env python3
"""Gate cross-fidelity agreement between simulation backends.

Consumes bench JSON records (bench_common.hpp JsonRecords format) from the
same figure bench run at two fidelities and checks two things:

1. flow vs packet (tight): for every mean_speedup_*/median_speedup_* metric
   present in both files, the flow value must lie within --pair-band
   (default 25%) of the packet value. Both simulators execute the identical
   realized networks, so disagreement here means an engine bug, not model
   error.

2. each simulator vs analytic (loose): each fidelity_agreement_* record
   (a simulated mean or median speedup over the same statistic of the
   analytic twins, which the sweep computes on the very realizations it
   simulates) must lie within --model-band (default [0.4, 2.2]). The
   analytic closed form is a model, not ground truth -- e.g. slow-start
   overshoot on mid-size transfers is real in both simulators but absent
   from the Mathis-style formula -- so this band only catches gross
   divergence.

Usage: check_fidelity_agreement.py FLOW_JSON PACKET_JSON
           [--pair-band 0.25] [--model-band-lo 0.4] [--model-band-hi 2.2]
Exit status: 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import sys


def load(path: str) -> dict[str, float]:
    with open(path) as f:
        records = json.load(f)
    return {r["metric"]: float(r["value"]) for r in records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("flow_json", help="bench --fidelity=flow records")
    parser.add_argument("packet_json", help="bench --fidelity=packet records")
    parser.add_argument("--pair-band", type=float, default=0.25,
                        help="max |flow/packet - 1| per speedup metric")
    parser.add_argument("--model-band-lo", type=float, default=0.4)
    parser.add_argument("--model-band-hi", type=float, default=2.2)
    args = parser.parse_args()

    flow = load(args.flow_json)
    packet = load(args.packet_json)

    failures = []
    checked = 0

    speedups = sorted(m for m in flow
                      if "speedup_" in m and m in packet and packet[m] > 0.0)
    for metric in speedups:
        rel = flow[metric] / packet[metric] - 1.0
        ok = abs(rel) <= args.pair_band
        checked += 1
        tag = "ok  " if ok else "FAIL"
        print(f"  [{tag}] flow/packet {metric:40s} "
              f"{flow[metric]:7.4f} vs {packet[metric]:7.4f} "
              f"({rel:+.1%}, band +-{args.pair_band:.0%})")
        if not ok:
            failures.append(f"{metric}: flow {flow[metric]:.4f} vs packet "
                            f"{packet[metric]:.4f} ({rel:+.1%})")

    for name, records in (("flow", flow), ("packet", packet)):
        for metric in sorted(m for m in records
                             if m.startswith("fidelity_agreement_")):
            value = records[metric]
            ok = args.model_band_lo <= value <= args.model_band_hi
            checked += 1
            tag = "ok  " if ok else "FAIL"
            print(f"  [{tag}] {name} vs analytic {metric:36s} {value:7.4f} "
                  f"(band [{args.model_band_lo}, {args.model_band_hi}])")
            if not ok:
                failures.append(f"{name} {metric}: {value:.4f} outside "
                                f"[{args.model_band_lo}, {args.model_band_hi}]")

    if checked == 0:
        print("error: no speedup_* or fidelity_agreement_* metrics found")
        return 1
    if failures:
        print(f"\nfidelity agreement FAILED ({len(failures)} check(s)):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nfidelity agreement passed: {checked} check(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
