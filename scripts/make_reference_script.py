#!/usr/bin/env python3
"""Regenerate the shipped reference-campaign fault script.

The JSON under scenarios/ is a fixture: it is what ``--fault-script`` and
the acceptance gate read. ``bagcell replay`` does not read it; it builds its
script with ``build_reference_script`` from the config's retry caps. Run
this after touching the campaign table to refresh the file.
"""

import argparse
import json
from pathlib import Path

from bagcell.devices import SCRIPT_VERSION
from bagcell.scenarios import build_reference_script

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "scenarios" / "reference_campaign.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    entries = [{"when": e.when, "outcome": e.outcome} for e in build_reference_script().entries]
    text = json.dumps({"version": SCRIPT_VERSION, "entries": entries}, indent=2) + "\n"
    args.out.write_text(text)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
