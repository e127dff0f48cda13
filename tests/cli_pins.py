"""The expected output of ktaquin CLI calls, kept in cli_pins.txt.

``load()`` parses the file (its header gives the format) and refuses any line
it cannot parse. Tier-1 runs every entry in process through ``cli.main``. Run as
a script, this module runs every entry as a subprocess through a command prefix
and exits 1 if any output differs::

    python tests/cli_pins.py ktaquin
    python tests/cli_pins.py python -m ktaquin

It uses the standard library only, so it checks an installed ktaquin without
importing it.
"""

import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

PATH = Path(__file__).with_name("cli_pins.txt")
CACHE = "{cache}"


@dataclass
class Pin:
    line: int
    args: str
    words: list[str]
    cache_lines: list[str] = field(default_factory=list)
    out: list[str] = field(default_factory=list)
    err: list[str] = field(default_factory=list)
    code: int | None = None

    def cache_at(self, path: Path) -> str:
        """Write the entry's cache lines, if any, to ``path``; return the path to use for ``{cache}``."""
        if self.cache_lines:
            path.write_text("".join(f"{line}\n" for line in self.cache_lines), encoding="utf-8")
        return str(path)

    def argv(self, cache: str) -> list[str]:
        return [word.replace(CACHE, cache) for word in self.words]

    def expected(self, cache: str) -> tuple[int, list[str], list[str]]:
        out, err = ([line.replace(CACHE, cache) for line in stream] for stream in (self.out, self.err))
        return self.code or 0, out, err


def load(path: Path = PATH) -> list[Pin]:
    pins: list[Pin] = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        tag, text = line[:1], line[2:]
        where = f"{path}:{number}"
        if tag not in "$<>!?" or line[1:2] not in ("", " "):
            raise ValueError(f"{where}: a pin line starts with one of $ < > ! ? and a space: {line!r}")
        if tag == "$":
            try:
                pins.append(Pin(number, text, shlex.split(text)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}: {line!r}") from None
            continue
        if not pins:
            raise ValueError(f"{where}: {tag} line before the first $ line")
        pin = pins[-1]
        if tag == "?":
            if pin.code is not None or not text.isdecimal():
                raise ValueError(f"{where}: one exit code per entry, a non-negative integer: {line!r}")
            pin.code = int(text)
        else:
            {"<": pin.cache_lines, ">": pin.out, "!": pin.err}[tag].append(text)
    if not pins:
        raise ValueError(f"{path}: no pins")
    return pins


def render(code: int, out: list[str], err: list[str]) -> list[str]:
    """An outcome in the pin file's own notation."""
    return [f"? {code}", *(f"> {line}" for line in out), *(f"! {line}" for line in err)]


def main(prefix: list[str]) -> int:
    if not prefix:
        print("usage: python tests/cli_pins.py COMMAND...", file=sys.stderr)
        return 2
    pins = load()
    # no pin reads or appends to a default cache named in the environment
    env = {name: value for name, value in os.environ.items() if name != "KTAQUIN_CACHE"}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for pin in pins:
            cache = pin.cache_at(Path(tmp, f"{pin.line}.jsonl"))
            run = subprocess.run([*prefix, *pin.argv(cache)], capture_output=True, text=True, env=env)
            got = (run.returncode, run.stdout.splitlines(), run.stderr.splitlines())
            if got != pin.expected(cache):
                failed += 1
                print(f"FAIL {PATH.name}:{pin.line}: $ {pin.args}")
                print("  expected:", *render(*pin.expected(cache)), sep="\n    ")
                print("  got:", *render(*got), sep="\n    ")
    print(f"{len(pins) - failed} of {len(pins)} pins pass through {shlex.join(prefix)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
