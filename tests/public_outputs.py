"""The public-output corpus: sha256 digests of the CLI's ``--json`` output and
exit code on a fixed set of commands over the example specs, and of each
demo's standard output, one line per case in ``public_outputs.sha256``:
``<sha256> <exit code> <case>``.

tests/test_public_outputs.py and tests/test_demos.py compare each output
with its line and never write the list.  After a change that alters a
public output on purpose, regenerate the list and name each changed case,
with the reason, in CHANGES.md.  The script prints each case that it adds,
drops or changes (digest or exit code) against the old list, then writes it:

    PYTHONPATH=src python tests/public_outputs.py
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = Path(__file__).resolve().parent / "public_outputs.sha256"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SPECS = ["basilica", "ex310", "katsura", "noncontracting", "nonhausdorff", "odometer"]
CONTRACTING = [s for s in SPECS if s != "noncontracting"]


def cli_cases() -> list[tuple[str, ...]]:
    """The CLI argument lists of the corpus, spec paths relative to the checkout."""
    def spec(name):
        return "--spec", f"specs/{name}.ss"
    out = [("nucleus", *spec(s), "--format", f) for s in SPECS for f in ("json", "dot")]
    out += [("rk", *spec(s), "--k", str(k)) for s in CONTRACTING for k in range(1, 6)]
    out += [("check", "recurrent", *spec(s), "--depth", str(d)) for s in SPECS for d in range(8)]
    out += [("check", prop, *spec(s)) for s in SPECS for prop in ("regular", "hausdorff")]
    out += [("schreier", *spec(s), "--level", str(n), "--format", f)
            for s in ("basilica", "ex310", "odometer") for n in range(1, 7) for f in ("json", "dot")]
    # literals whose normal forms absorb edges: a tail repeating the cycle, a
    # head ending in it, a center absorbed on both sides, a seam rotation and
    # a globally periodic bi-infinite path
    germ = ("--m1", "0", "--elem1", "b", "--n1", "0", "--m2", "2", "--elem2", "v", "--n2", "2")
    centers = [("(2.3)^inf . 2.3.2.4.1.1 . (1)^inf @ 0", "(3.2)^inf . 4 . (1)^inf @ 1"),
               ("(2.3)^inf . (2.4)^inf @ 0", "(3.2)^inf . (4.2)^inf @ 1"),
               ("(2.3)^inf . 2 . (3.2)^inf @ 1", "(3.2)^inf . (3.2)^inf @ 0")]
    out += [("shift", *spec("ex310"), "--x", "(2.3)^inf . 2.3.2.3.1"),
            ("class", *spec("ex310"), "--x", "(2.3)^inf . 2.3.2"),
            ("ae", *spec("basilica"), "--x", "(3)^inf . 3.3.2.1", "--y", "(3)^inf . 2.1"),
            ("germ-eq", *spec("ex310"), "--x", "2 . 4 . 1.1 . (1)^inf",
             "--y", "4 . 1 . (1)^inf", *germ)]
    out += [(cmd, *spec("ex310"), "--x", x, "--y", y)
            for x, y in centers for cmd in ("stable", "unstable")]
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv) -> tuple[str, int]:
    """(sha256 of the standard output, exit code) of ``selfsim --json argv``
    run in this process, spec paths read from the checkout."""
    from selfsim import cli

    out = io.StringIO()
    code = cli.dispatch(["--json", *(str(ROOT / a) if a.startswith("specs/") else a
                                     for a in argv)], out)
    return _digest(out.getvalue()), code


def run_demo(path: Path) -> tuple[str, int, str]:
    """(sha256 of the standard output, exit code, standard error) of the demo
    script ``path`` run in a child process from the checkout; the checkout's
    path in the output reads ``<checkout>``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return _digest(proc.stdout.replace(str(ROOT), "<checkout>")), proc.returncode, proc.stderr


def case_name(argv) -> str:
    return " ".join(argv)


def demo_name(path: Path) -> str:
    return f"demo {path.name}"


def recorded() -> dict[str, tuple[str, int]]:
    """case -> (sha256, exit code), as listed."""
    out = {}
    for line in LIST.read_text().splitlines():
        digest, code, case = line.split(" ", 2)
        out[case] = (digest, int(code))
    return out


def main():
    new = {case_name(a): run_cli(a) for a in cli_cases()}
    for path in DEMOS:
        digest, code, err = run_demo(path)
        if code:
            sys.exit(f"{path.name} exited {code}:\n{err}")
        new[demo_name(path)] = digest, code
    old = recorded() if LIST.exists() else {}
    added = [c for c in new if c not in old]
    dropped = [c for c in old if c not in new]
    changed = [c for c in new if c in old and new[c] != old[c]]
    for tag, cases in (("added", added), ("dropped", dropped), ("changed", changed)):
        for case in cases:
            print(f"{tag}: {case}")
    LIST.write_text("".join(f"{d} {c} {case}\n" for case, (d, c) in new.items()))
    print(f"wrote {len(new)} digests to {LIST.relative_to(ROOT)}: {len(added)} added, "
          f"{len(dropped)} dropped, {len(changed)} changed")


if __name__ == "__main__":
    main()
