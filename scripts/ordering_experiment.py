#!/usr/bin/env python3
"""Planner-vs-random ordering experiment on a synthetic bank.

Runs the deterministic stack (heuristic planner, template realiser, rule
detector) against the uniform-random baseline on the same patients, once per
run seed, and reports the coverage/AUCC margins. The strategy-sensitive
emission hook is enabled for both conditions; with it off the simulated
patient ignores the questioning strategy entirely and no planner can separate
from any other.

Usage:
    python scripts/ordering_experiment.py --patients 20 --snippets 10 \
        --episodes 200 --seeds 11 22 33 44 55 --gain 2.0 --out margins.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from elicit.bank import SynthSpec, synthesize_bank
from elicit.metrics import aggregate
from elicit.patient import EmissionParams
from elicit.runner import EpisodeConfig, build_components, run_batch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=20)
    parser.add_argument("--snippets", type=int, default=10)
    parser.add_argument("--episodes", type=int, default=200, help="episodes per condition per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 22, 33, 44, 55])
    parser.add_argument("--bank-seed", type=int, default=1234)
    parser.add_argument("--gain", type=float, default=2.0, help="strategy-affinity logit boost")
    parser.add_argument("--turns", type=int, default=EpisodeConfig.max_turns)
    parser.add_argument("--out", default=None, help="optional CSV of per-seed results")
    args = parser.parse_args(argv)

    bank = synthesize_bank(
        SynthSpec(n_patients=args.patients, snippets_per_patient=args.snippets),
        seed=args.bank_seed,
    )
    emission = EmissionParams(strategy_gain=args.gain)
    print(f"bank: {len(bank)} snippets, {args.patients} patients; gain={args.gain}")
    print(f"{'seed':>6} {'cov planned':>12} {'cov random':>11} {'d_cov':>8} "
          f"{'aucc planned':>13} {'aucc random':>12} {'d_aucc':>8}")

    rows = []
    t0 = time.time()
    for seed in args.seeds:
        cfg = EpisodeConfig(seed=seed, emission=emission, max_turns=args.turns)
        comps = build_components(cfg, bank)
        planned = aggregate(list(run_batch(cfg, bank, "tpa", args.episodes, components=comps).logs))
        uniform = aggregate(list(run_batch(cfg, bank, "random", args.episodes, components=comps).logs))
        row = {
            "seed": seed,
            "coverage_planned": planned.mean_coverage,
            "coverage_random": uniform.mean_coverage,
            "coverage_margin": planned.mean_coverage - uniform.mean_coverage,
            "aucc_planned": planned.mean_aucc,
            "aucc_random": uniform.mean_aucc,
            "aucc_margin": planned.mean_aucc - uniform.mean_aucc,
        }
        rows.append(row)
        print(f"{seed:>6} {row['coverage_planned']:>12.4f} {row['coverage_random']:>11.4f} "
              f"{row['coverage_margin']:>+8.4f} {row['aucc_planned']:>13.4f} "
              f"{row['aucc_random']:>12.4f} {row['aucc_margin']:>+8.4f}")

    cov_wins = sum(r["coverage_margin"] > 0 for r in rows)
    aucc_wins = sum(r["aucc_margin"] > 0 for r in rows)
    print(f"\nsign consistency: coverage {cov_wins}/{len(rows)}, aucc {aucc_wins}/{len(rows)} "
          f"({time.time() - t0:.0f}s)")

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")

    return 0 if cov_wins == len(rows) and aucc_wins == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
