"""Entry point: ``python3 platformbench/run.py --workload <name> ...``.

Runs from the root of a source checkout; the simulator is imported from
``src/``. Outside a checkout (no ``src/repro``) it exits 2 without
printing a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"platformbench: no simulator source under {ROOT / 'src'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from platformbench import pin_hash_seed
    pin_hash_seed(__file__)
    from platformbench.bench import main as bench_main
    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
