"""Library-level operation of the certify workload: dense spectral abscissae of ``h1``.

    PYTHONPATH=src python3 perfbench/lib_child.py --ns 100,200,400 --output out.json

writes ``{"n": [...], "abscissa": [...]}``. The traced benchmark mode calls
:func:`main` in-process instead of starting this script.
"""

import argparse
import json
import sys

import wavetank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ns", required=True, help="comma-separated truncation sizes")
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    h = wavetank.WavemakerProfile.builtin("h1")
    ns = [int(v) for v in args.ns.split(",")]
    values = [wavetank.stability.spectral_abscissa(h, n) for n in ns]
    with open(args.output, "w") as fh:
        json.dump({"n": ns, "abscissa": values}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
