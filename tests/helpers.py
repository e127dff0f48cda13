"""Shared deterministic generators for randomized property sweeps."""

import random

from ktaquin.shapes import SkewShape, add_boxes, boxes_of, partition, remove_boxes, row_length
from ktaquin.tableaux import IncreasingTableau
from ktaquin.formats import cache_append


def random_partition(rng: random.Random, max_rows: int, max_cols: int, allow_empty: bool = True):
    rows = rng.randint(0 if allow_empty else 1, max_rows)
    parts = []
    width = rng.randint(1, max_cols) if rows else 0
    for _ in range(rows):
        parts.append(width)
        width = rng.randint(1, width) if width > 1 and rng.random() < 0.6 else width
    return partition(sorted(parts, reverse=True))


def random_skew(rng: random.Random, max_size: int) -> SkewShape:
    while True:
        outer = random_partition(rng, 4, 4, allow_empty=False)
        inner_candidates = [
            lam
            for lam in _subdiagrams(outer)
            if 0 < sum(outer) - sum(lam) <= max_size
        ]
        if inner_candidates:
            return SkewShape(outer, rng.choice(inner_candidates))


def _subdiagrams(outer):
    if not outer:
        return [()]
    out = set()

    def rec(prefix, row):
        if row == len(outer):
            out.add(partition(prefix))
            return
        cap = min(outer[row], prefix[-1] if prefix else outer[0])
        for w in range(cap + 1):
            rec(prefix + [w], row + 1)

    rec([], 0)
    return sorted(out)


def random_increasing(rng: random.Random, shape: SkewShape, slack: int = 2) -> IncreasingTableau:
    """Fill the shape box by box with bounded random gaps."""
    entries = {}
    for r, c in shape.boxes():
        lo = max(entries.get((r, c - 1), 0), entries.get((r - 1, c), 0))
        entries[(r, c)] = lo + rng.randint(1, slack)
    return IncreasingTableau.make(shape.outer, shape.inner, entries)


# ---------------------------------------------------------------------------
# Reference slide engine: the component-search switch that the local-rule
# kernel in ktaquin.jdt replaced.  Every label is a stage; a stage grows the
# connected components of {bullets, label boxes} from the bullets and swaps
# bullets and labels in each component that holds both.  Test-only.


def _ref_components(entries, bullets, label):
    comps = []
    unvisited = set(bullets)
    while unvisited:
        start = unvisited.pop()
        comp_bullets, comp_labels, frontier, seen = [start], [], [start], {start}
        while frontier:
            r, c = frontier.pop()
            for nb in ((r, c + 1), (r, c - 1), (r + 1, c), (r - 1, c)):
                if nb in seen:
                    continue
                if nb in bullets:
                    unvisited.discard(nb)
                    comp_bullets.append(nb)
                elif entries.get(nb) == label:
                    comp_labels.append(nb)
                else:
                    continue
                seen.add(nb)
                frontier.append(nb)
        if comp_labels:
            comps.append((comp_bullets, comp_labels))
    return comps


def reference_switches(entries, bullets, reverse, on_stage=None):
    """Run every label stage of one slide on entries/bullets in place.

    on_stage(label, components) is called after each stage that moved boxes.
    """
    for label in sorted(set(entries.values()), reverse=reverse):
        comps = _ref_components(entries, bullets, label)
        if not comps:
            continue
        for comp_bullets, comp_labels in comps:
            for b in comp_bullets:
                entries[b] = label
                bullets.discard(b)
            for x in comp_labels:
                del entries[x]
                bullets.add(x)
        if on_stage is not None:
            on_stage(label, comps)
    return bullets


def _ref_slide(entries, inner, outer, corners, direction, on_stage=None):
    bullets = set(corners)
    if direction == "forward":
        inner = remove_boxes(inner, corners)
        reference_switches(entries, bullets, False, on_stage)
        return inner, remove_boxes(outer, bullets)
    outer = add_boxes(outer, corners)
    reference_switches(entries, bullets, True, on_stage)
    return add_boxes(inner, bullets), outer


def reference_slide(t, corners, direction="forward"):
    entries = t.entries
    inner, outer = _ref_slide(entries, t.inner, t.outer, corners, direction)
    return IncreasingTableau.make(outer, inner, entries)


def reference_kinfusion(a, b):
    entries, inner, outer, record = b.entries, b.inner, b.outer, {}
    groups = {}
    for r, c, v in a.cells:
        groups.setdefault(v, set()).add((r, c))
    for label in sorted(groups, reverse=True):
        before = outer
        inner, outer = _ref_slide(entries, inner, outer, groups[label], "forward")
        record.update((box, label) for box in set(boxes_of(before)) - set(boxes_of(outer)))
    return IncreasingTableau.make(outer, inner, entries), IncreasingTableau.make(b.outer, outer, record)


def reference_trace(t, steps):
    """(states, uniform flags, origins) of a slide sequence, states as plain tuples."""
    entries, inner, outer = t.entries, t.inner, t.outer
    origins = {box: box for box in entries}
    states, flags, history = [], [], []
    for step in steps:
        bullets = set(step.corners)
        if step.direction == "forward":
            mid = (outer, remove_boxes(inner, step.corners))
        else:
            mid = (add_boxes(outer, step.corners), inner)

        def snapshot(stage):
            cells = tuple((r, c, v) for (r, c), v in sorted(entries.items()))
            states.append((*mid, cells, frozenset(bullets), stage, step.direction))
            flags.append(origins is not None)
            history.append(None if origins is None else dict(origins))

        def on_stage(label, comps):
            nonlocal origins
            if origins is not None:
                sources = [{origins[x] for x in labels} for _, labels in comps]
                if all(len(src) == 1 for src in sources):
                    for (comp_bullets, labels), (src,) in zip(comps, sources):
                        for x in labels:
                            del origins[x]
                        origins.update((b, src) for b in comp_bullets)
                else:
                    origins = None
            snapshot(label)

        snapshot(None)
        reference_switches(entries, bullets, step.direction == "reverse", on_stage)
        if step.direction == "forward":
            inner, outer = mid[1], remove_boxes(outer, bullets)
        else:
            inner, outer = add_boxes(inner, bullets), mid[0]
    return states, flags, history


# ---------------------------------------------------------------------------
# Reference enumerator: the recursive generator that the iterative backtracker
# in ktaquin.tableaux.iter_increasing_cells replaced.  Test-only.


def reference_increasing_cells(outer, inner, alphabet, surjective=False):
    """Increasing fillings of outer/inner as cell tuples, in row-major lexicographic order."""
    outer, inner = partition(outer), partition(inner)
    boxes = [(r, c) for r, width in enumerate(outer, start=1) for c in range(row_length(inner, r) + 1, width + 1)]
    alpha = sorted(set(alphabet))
    n = len(boxes)
    if n == 0:
        if not surjective or not alpha:
            yield ()
        return
    if not alpha or (surjective and len(alpha) > n):
        return

    in_region = set(boxes)
    tails = []  # (boxes right of it in its row, region boxes below it in its column)
    for r, c in boxes:
        below = 0
        while (r + below + 1, c) in in_region:
            below += 1
        tails.append((outer[r - 1] - c, below))
    greater = {v: len(alpha) - 1 - i for i, v in enumerate(alpha)}
    assignment = {}
    used = {v: 0 for v in alpha}
    missing = len(alpha) if surjective else 0

    def rec(idx):
        nonlocal missing
        if idx == n:
            yield tuple((r, c, assignment[(r, c)]) for r, c in boxes)
            return
        r, c = boxes[idx]
        lo = max(assignment.get((r, c - 1), 0), assignment.get((r - 1, c), 0))
        right_need, below_need = tails[idx]
        for v in alpha:
            if v <= lo:
                continue
            if greater[v] < right_need or greater[v] < below_need:
                break
            assignment[(r, c)] = v
            first_use = used[v] == 0
            used[v] += 1
            if first_use and surjective:
                missing -= 1
            if not surjective or missing <= n - idx - 1:
                yield from rec(idx + 1)
            used[v] -= 1
            if first_use and surjective:
                missing += 1
            del assignment[(r, c)]

    yield from rec(0)


# ---------------------------------------------------------------------------
# A cache writer for tests that append from a second process.  It lives here,
# not in a test module, so a spawned process can import it cheaply.


def append_records(path: str, records, barrier=None) -> None:
    """``cache_append`` each record to ``path``; a process target.

    ``barrier`` lines the writers up before the first append.
    """
    if barrier is not None:
        barrier.wait()
    for rec in records:
        cache_append(path, rec)
