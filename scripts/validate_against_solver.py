#!/usr/bin/env python3
"""Cross-validate every analytic catalog ground state against the
sinc-DVR solver through the CLI's ``oracle-check`` command, which
prints one row per instance and applies the oracle tolerances.

Exits nonzero if any instance fails its check.
"""

from nonlinosc.cli import main as cli_main

CATALOG = [
    "harmonic:omega=1",
    "harmonic:omega=1000",
    "morse:D=1,alpha=0.5",
    "morse:D=1,alpha=1",
    "morse:D=2,alpha=1.5",
    "mpt:D=1,alpha=0.5",
    "mpt:D=1,alpha=1",
    "mpt:D=3,alpha=1",
    "mio:a=0.5",
    "mio:a=2",
    "mio:a=8",
    "fs:p=-0.1",
    "fs:p=-0.5",
    "fs:p=-0.9",
]


def main() -> int:
    failures = 0
    for text in CATALOG:
        print(f"# {text}", flush=True)
        failures += cli_main(["oracle-check", "--potential", text]) != 0
    if failures:
        print(f"{failures} instance(s) failed the oracle check")
        return 1
    print("all instances match the DVR oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
