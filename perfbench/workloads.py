"""The four benchmark workloads: seeded inputs, the timed calls and their checks.

Every workload has a finite universe of items in a fixed canonical order, and
``reference.json`` records each item's value at a known-good commit by its
position in that order.  A run draws its items from the universe with the
seed, so every seed is checked against the same reference.  A tiny run (for
the benchmark's self-test) draws only a few items from the same universe.

``Workload.run`` is the timed part: it makes the calls into ``ktaquin`` for one
item, including the item's independent check, and returns ``(value, problem)``
where ``problem`` is ``None`` when the check agrees.  Library functions are
looked up through their modules at call time, so a tracer that replaces them
sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

from ktaquin import cli, coefficients, equivalence, jdt, schur, shapes
from ktaquin.shapes import AmbientRectangle, DirectSumFrame
from ktaquin.tableaux import IncreasingTableau


def canon(value) -> int | str:
    """The form a value takes in the reference: small ints as is, anything else hashed."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    text = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _plain(value):
    """A JSON-ready copy; tableaux become (outer, inner, cells) so no class repr leaks in."""
    if isinstance(value, IncreasingTableau):
        return [list(value.outer), list(value.inner), [list(c) for c in value.cells]]
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


class Workload:
    name = ""

    def size(self) -> int:
        raise NotImplementedError

    def make(self, index: int):
        """The arguments of universe item ``index``."""
        raise NotImplementedError

    def draw(self, seed: int, tiny: bool) -> list[int]:
        """Universe indices of one run, in run order."""
        order = list(range(self.size()))
        random.Random(seed).shuffle(order)
        return order[:40] if tiny else order

    def prepare(self, workdir: str) -> None:
        """Make any scratch files a pass needs, under ``workdir``."""

    def run(self, args):
        raise NotImplementedError


class _ListWorkload(Workload):
    """A universe small enough to list up front."""

    def __init__(self) -> None:
        self._items = self.universe()

    def universe(self) -> list:
        raise NotImplementedError

    def size(self) -> int:
        return len(self._items)

    def make(self, index: int):
        return self._items[index]


class ClassicalSweep(_ListWorkload):
    """C, D and c of every classical triple, each against the Schur-polynomial oracle."""

    name = "classical-sweep"

    def __init__(self) -> None:
        super().__init__()
        self._oracle: dict[tuple, dict] = {}

    def universe(self) -> list:
        out = []
        for total in range(8):
            for a in range(total + 1):
                for lam in shapes.partitions_of(a):
                    for mu in shapes.partitions_of(total - a):
                        out.extend((lam, mu, nu) for nu in shapes.partitions_of(total))
        return out

    def run(self, args):
        lam, mu, nu = args
        oracle = self._oracle.get((lam, mu))
        if oracle is None:
            oracle = self._oracle[(lam, mu)] = schur.schur_product_expansion(lam, mu)
        c = coefficients.coeff_C(lam, mu, nu)
        d = coefficients.coeff_D(lam, mu, nu)
        cl = coefficients.coeff_c_classical(lam, mu, nu)
        expected = oracle.get(nu, 0)
        if c == d == cl == expected:
            return c, None
        return (c, d, cl), f"{lam},{mu}->{nu}: C={c} D={d} c={cl} schur={expected}"


def _frames(k_max: int, n_max: int) -> list[DirectSumFrame]:
    sides = [(k, n) for k in range(1, k_max + 1) for n in range(k + 1, n_max + 1)]
    return [DirectSumFrame(k1, n1, k2, n2) for k1, n1 in sides for k2, n2 in sides]


class KTheoryChecks(_ListWorkload):
    """D three ways over every small frame, then C and E with all their cross-checks."""

    name = "ktheory-checks"

    def universe(self) -> list:
        out = []
        for frame in _frames(2, 4):
            for lam in shapes.partitions_in_rectangle(frame.k1, frame.n1 - frame.k1):
                for mu in shapes.partitions_in_rectangle(frame.k2, frame.n2 - frame.k2):
                    for nu in shapes.partitions_in_rectangle(frame.k, frame.n - frame.k):
                        out.append(("D", frame, lam, mu, nu))
        parts = list(shapes.partitions_in_rectangle(2, 4))
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    if sum(nu) > sum(lam) + sum(mu) and shapes.contains(nu, lam):
                        out.extend((kind, None, lam, mu, nu) for kind in ("C", "E"))
        return out

    def draw(self, seed: int, tiny: bool) -> list[int]:
        # all D items first, then the C/E items, each phase in seeded order
        rng = random.Random(seed)
        split = sum(1 for item in self._items if item[0] == "D")
        first, second = list(range(split)), list(range(split, self.size()))
        rng.shuffle(first)
        rng.shuffle(second)
        return first[:30] + second[:10] if tiny else first + second

    def run(self, args):
        kind, frame, lam, mu, nu = args
        if kind == "D":
            d = coefficients.coeff_D(lam, mu, nu)
            buch = coefficients.coeff_D_buch(lam, mu, nu)
            ident = coefficients.coeff_D_via_identity(lam, mu, nu, frame)
            if d == buch == ident:
                return d, None
            return (d, buch, ident), f"D{lam},{mu}->{nu} in {frame}: jdt={d} buch={buch} identity={ident}"
        record = coefficients.compute_with_checks(kind, lam, mu, nu)
        if record.agreed:
            return record.value, None
        bad = [name for name, ok in record.checks if not ok]
        return record.value, f"{kind}{lam},{mu}->{nu}: {record.value} fails {bad}"


def _random_filling(rng: random.Random, outer, inner) -> IncreasingTableau:
    entries = {}
    for r, width in enumerate(outer, start=1):
        start = inner[r - 1] if r <= len(inner) else 0
        for c in range(start + 1, width + 1):
            lo = max(entries.get((r, c - 1), 0), entries.get((r - 1, c), 0))
            entries[(r, c)] = lo + rng.randint(1, 2)
    return IncreasingTableau.make(outer, inner, entries)


def _random_skew(rng: random.Random, max_boxes: int, max_inner: int | None = None) -> IncreasingTableau:
    while True:
        rows = []
        width = rng.randint(1, 4)
        for _ in range(rng.randint(1, 4)):
            rows.append(width)
            if width > 1 and rng.random() < 0.5:
                width = rng.randint(1, width)
        outer = tuple(sorted(rows, reverse=True))
        inner = tuple(p for p in sorted((rng.randint(0, w) for w in outer), reverse=True) if p)
        region = sum(outer) - sum(inner)
        if not 0 < region <= max_boxes or not inner:
            continue
        if max_inner is not None and sum(inner) > max_inner:
            continue
        return _random_filling(rng, outer, inner)


def _random_rectangle(rng: random.Random, max_area: int) -> IncreasingTableau:
    while True:
        c, d = rng.randint(1, 3), rng.randint(1, 3)
        if c * d <= max_area:
            return _random_filling(rng, (d,) * c, ())


class SlideLab(Workload):
    """Seeded random skew tableaux through the slide kernel's forward, reverse and traced copies.

    The universe is four fixed quarters, one per check; item i of a quarter is
    generated from its own seed, so a run builds only the items it draws.
    """

    name = "slide-lab"
    POOL = 600
    DRAW = 500

    def size(self) -> int:
        return 4 * self.POOL

    def draw(self, seed: int, tiny: bool) -> list[int]:
        rng = random.Random(seed)
        take = 10 if tiny else self.DRAW
        order = [q * self.POOL + i for q in range(4) for i in rng.sample(range(self.POOL), take)]
        rng.shuffle(order)
        return order

    def make(self, index: int):
        quarter, i = divmod(index, self.POOL)
        rng = random.Random(1_000_003 * (quarter + 1) + i)
        if quarter == 0:
            t = _random_skew(rng, 10)
            corners = shapes.removable_corners(t.inner)
            chosen = frozenset(rng.sample(corners, rng.randint(1, len(corners))))
            ambient = AmbientRectangle(len(t.outer) + 1, len(t.outer) + 2 + t.outer[0])
            return ("round-trip", t, chosen, ambient)
        if quarter == 1:
            t = _random_skew(rng, 10, max_inner=6)
            order = _random_filling(rng, t.inner, ())
            return ("infusion", order, t)
        if quarter == 2:
            t = _random_rectangle(rng, 6)
            ambient = AmbientRectangle(len(t.outer) + 2, len(t.outer) + t.outer[0] + 4)
            outer, steps = t.outer, []
            for _ in range(rng.randint(1, 3)):
                corners = shapes.addable_corners(outer, max_rows=ambient.rows, max_cols=ambient.cols)
                if not corners:
                    break
                chosen = frozenset(rng.sample(corners, rng.randint(1, len(corners))))
                steps.append(jdt.SlideStep("reverse", chosen))
                outer = shapes.add_boxes(outer, chosen)
            return ("trace", t, tuple(steps), ambient)
        t = _random_rectangle(rng, 9)
        rows = len(t.outer) + rng.randint(0, 2)
        cols = t.outer[0] + rng.randint(0, 3)
        return ("anchor", t, AmbientRectangle(rows, rows + cols))

    def run(self, args):
        kind = args[0]
        if kind == "round-trip":
            _, t, corners, ambient = args
            slid = jdt.kjdt_slide(t, corners)
            vacated = frozenset(set(shapes.boxes_of(t.outer)) - set(shapes.boxes_of(slid.outer)))
            back = jdt.rev_kjdt_slide(slid, vacated, ambient)
            return slid, None if back == t else "reverse slide did not undo the forward slide"
        if kind == "infusion":
            _, a, b = args
            pair = jdt.kinfusion(a, b)
            back = jdt.kinfusion(*pair)
            return pair, None if back == (a, b) else "infusion applied twice is not the identity"
        if kind == "trace":
            _, t, steps, ambient = args
            trace = jdt.switch_trace(t, steps, ambient)
            report = equivalence.verify_origin_invariants(trace)
            value = (trace.final_tableau(), len(trace.states))
            return value, None if report.clean else f"origin violations: {report.violations[:2]}"
        _, t, ambient = args
        out, anchor = jdt.rev_krect_in_ambient(t, ambient)
        c, d = len(t.outer), t.outer[0]
        expected = (ambient.rows - c + 1, ambient.cols - d + 1)
        landed = out.outer == ambient.full and out.values == t.values
        ok = anchor == expected and landed
        return (out, anchor), None if ok else f"anchored at {anchor}, expected {expected}"


class CliBatch(_ListWorkload):
    """In-process ``ktaquin`` CLI calls: checked coefficients through one growing JSON-lines cache."""

    name = "cli-batch"
    KEYS = 300
    EXPAND = (
        ("--json", "expand", "--op", "product", "--lambda", "[1]", "--mu", "[1]", "--ambient", "2,4"),
        ("--json", "expand", "--op", "coproduct", "--nu", "[3,1]", "--frame", "1,3,2,4"),
    )

    def __init__(self) -> None:
        super().__init__()
        self.cache_path = ""

    def universe(self) -> list:
        small = list(shapes.partitions_in_rectangle(2, 2))
        targets = list(shapes.partitions_in_rectangle(3, 3))
        fmt = shapes.format_partition
        out = [
            ("--json", "coeff", kind, "--lambda", fmt(lam), "--mu", fmt(mu), "--nu", fmt(nu), "--check")
            for kind in ("C", "D", "E", "c")
            for lam in small
            for mu in small
            for nu in targets
        ]
        return out + list(self.EXPAND)

    def prepare(self, workdir: str) -> None:
        """A fresh, empty cache file for the pass."""
        os.makedirs(workdir, exist_ok=True)
        self.cache_path = os.path.join(workdir, f"cache-{os.getpid()}.jsonl")
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)

    def draw(self, seed: int, tiny: bool) -> list[int]:
        # The keys are an even stride through the universe, the same for every
        # seed; the seed orders the calls.  A handful of D keys on star shapes of
        # two 2x2 squares cost as much as all other keys together, so drawing keys
        # by seed made throughput swing by a quarter with the draw.
        n_coeff = self.size() - len(self.EXPAND)
        count = 4 if tiny else self.KEYS
        keys = [i * n_coeff // count for i in range(count)]
        order = keys + keys
        random.Random(seed).shuffle(order)
        return order + list(range(n_coeff, self.size()))

    def run(self, args):
        argv = list(args)
        if args[1] == "coeff":
            argv += ["--cache", self.cache_path]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            return code, f"exit {code}: {err.getvalue().strip()[:200]}"
        payload = json.loads(out.getvalue())
        if args[1] == "coeff":
            bad = [name for name, ok in payload["checks"] if not ok]
            return payload["value"], f"checks disagree: {bad}" if bad else None
        return payload, self._check_expansion(args, payload)

    @staticmethod
    def _check_expansion(args, payload: dict) -> str | None:
        """Each expansion entry against an independent route: Schur oracle or set-valued rule."""
        opts = dict(zip(args[2::2], args[3::2]))
        parse = shapes.parse_partition
        if opts["--op"] == "product":
            lam, mu = parse(opts["--lambda"]), parse(opts["--mu"])
            for key, value in payload.items():
                nu = parse(key)
                if sum(nu) == sum(lam) + sum(mu) and value != schur.lr_coefficient(lam, mu, nu):
                    return f"product entry {key}={value} disagrees with the Schur oracle"
            return None
        nu = parse(opts["--nu"])
        for key, value in payload.items():
            lam, mu = (parse(p) for p in key.split("|"))
            if value != coefficients.coeff_D_buch(lam, mu, nu):
                return f"coproduct entry {key}={value} disagrees with the set-valued rule"
        return None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ClassicalSweep, KTheoryChecks, SlideLab, CliBatch)
}
