"""Check the last JSON line of a traced benchmark run.

Usage:  python3 bench/run.py ... --trace 1 | python3 .github/layers_above_zero.py NAME...

Exits 1 unless the line says "correct": true and every named metric reads
above 0.  A traced function that never runs reads 0 ms and would still
leave "correct": true, so a layer that drops out of the path shows here.
"""

import json
import sys


def main(names: list[str]) -> None:
    lines = sys.stdin.read().splitlines()
    result = json.loads(lines[-1])
    silent = [name for name in names if not result["metrics"][name]["value"] > 0]
    if result["correct"] is not True or silent:
        sys.exit("correct: %s; metrics at 0: %s" % (result["correct"], silent))


if __name__ == "__main__":
    main(sys.argv[1:])
