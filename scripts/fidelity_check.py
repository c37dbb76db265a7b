#!/usr/bin/env python3
"""Leave-one-out patient-agent fidelity check against a bank.

Synthesises a bank when none is given, runs the validation harness, and
prints the per-metric summary with threshold verdicts.

Usage:
    python scripts/fidelity_check.py --bank bank.jsonl --episodes-per-patient 2
    python scripts/fidelity_check.py --patients 8 --snippets 12   # synthetic
"""

from __future__ import annotations

import argparse
import json
import sys

from elicit.bank import SynthSpec, ingest, synthesize_bank
from elicit.cli import _given
from elicit.fidelity import FidelityConfig, loo_validate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bank", default=None, help="JSON-lines bank; synthetic when omitted")
    parser.add_argument("--patients", type=int, default=8)
    parser.add_argument("--snippets", type=int, default=12)
    parser.add_argument("--bank-seed", type=int, default=99)
    # left at None, these keep FidelityConfig's defaults, as `elicit validate` does
    parser.add_argument("--episodes-per-patient", type=int, default=None)
    parser.add_argument("--turns", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.bank:
        bank = ingest(args.bank)
    else:
        bank = synthesize_bank(
            SynthSpec(n_patients=args.patients, snippets_per_patient=args.snippets),
            seed=args.bank_seed,
        )
        print(f"synthetic bank: {len(bank)} snippets, {args.patients} patients")

    report = loo_validate(
        bank,
        FidelityConfig(**_given(episodes_per_patient=args.episodes_per_patient, turns=args.turns, seed=args.seed)),
    )
    print(f"patients: {report.n_patients}")
    print(f"kl divergence      mean={report.kl.mean:.4f} sd={report.kl.sd:.4f} "
          f"median={report.kl.median:.4f} ci95={report.kl.ci95:.4f}")
    print(f"frequency error    mean={report.freq_error.mean:.4f} sd={report.freq_error.sd:.4f}")
    print(f"semantic similarity mean={report.semantic_similarity.mean:.4f} "
          f"sd={report.semantic_similarity.sd:.4f}")
    print(f"auc overall        {report.auc_overall}")
    for name, entry in report.per_trait_auc.items():
        print(f"  {name:<4} auc={entry['auc']} n={entry['n_patients']}")
    for name, ok in report.thresholds_met.items():
        print(f"threshold {name:<20} {'pass' if ok else 'FAIL'}")

    if args.out:  # the same text as `elicit validate --out`
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
