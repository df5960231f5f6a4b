"""Assert quick-preset experiment results are bit-for-bit identical to the pins.

The pins live in ``results/autodiff_pins.json``, the one file under
``results/`` that is committed (``.gitignore`` re-includes it).  They are
the quick-preset seed-0 row hashes of the training pipeline with CSR as its
one propagation path.  Training numerics must not move at all — every float
in the quick table3/figure4/table4 rows is canonicalised via ``float.hex``
(lossless) and the rows hashed, so a single ULP of drift anywhere in the
training pipeline fails this check.  The hashes do not depend on the BLAS
thread count.

Usage::

    PYTHONPATH=src python scripts/check_autodiff_pins.py            # cora only
    PYTHONPATH=src python scripts/check_autodiff_pins.py --full     # all datasets
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent.parent / "results" / "autodiff_pins.json"


def canonical(rows) -> str:
    def encode(value):
        return float.hex(value) if isinstance(value, float) else value

    return json.dumps(
        [{key: encode(value) for key, value in sorted(row.items())} for row in rows],
        sort_keys=True,
    )


def row_hash(rows) -> str:
    return hashlib.sha256(canonical(rows).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="check all quick-preset datasets instead of cora only",
    )
    options = parser.parse_args()

    from repro.experiments.figures import figure4_attack_auc
    from repro.experiments.tables import table3_accuracy_bias, table4_ppfr_effectiveness

    pins = json.loads(PINS_PATH.read_text())
    datasets = None if options.full else ["cora"]
    suffix = "all_datasets" if options.full else "cora"

    table3 = table3_accuracy_bias("quick", seed=pins["seed"], datasets=datasets)
    figure4 = figure4_attack_auc("quick", seed=pins["seed"], datasets=datasets)
    table4 = table4_ppfr_effectiveness("quick", seed=pins["seed"], datasets=datasets)

    failures = []
    for name, rows in (
        ("table3", table3.rows),
        ("figure4", figure4.rows),
        ("table4", table4.rows),
    ):
        digest = row_hash(rows)
        pinned = pins[f"{name}_{suffix}"]
        status = "OK" if digest == pinned else "MISMATCH"
        print(f"{name} ({suffix}): {status} {digest}")
        if digest != pinned:
            failures.append(name)

    if failures:
        print(
            f"training numerics drifted from the pin: {failures}. "
            "If the change is intentional, re-pin results/autodiff_pins.json.",
            file=sys.stderr,
        )
        return 1
    print("autodiff pins OK: results are bit-for-bit identical to the pins")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
