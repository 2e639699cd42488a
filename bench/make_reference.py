"""Write the exact-sweep reference values that run.py checks at the default seed.

    python3 bench/make_reference.py

Run only when a change is meant to alter the paper's numbers; the file it
writes pins tuned step-size bases, every exact and theory gap, and the
fitted log-log slopes of the three panels.
"""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import NullTracer  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_FILE, ExactSweep  # noqa: E402


def main() -> None:
    sweep = ExactSweep(DEFAULT_SEED)
    rows = sweep.run(NullTracer())
    replayed = sweep.replay(NullTracer())
    ref = {
        "seed": DEFAULT_SEED,
        "tuned_a": replayed.tuned,
        "gaps": {},
        "slopes": [[panel, c, slope] for (panel, c), slope in sweep.slopes(rows).items()],
    }
    for (panel, mode), panel_rows in rows.items():
        ref["gaps"].setdefault(panel, {})[mode] = [[row.K, row.c, row.gap] for row in panel_rows]
    text = json.dumps(ref, indent=1)
    # one cell per line: collapse the innermost lists
    text = re.sub(r"\[\s+([^\[\]]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE_FILE.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
