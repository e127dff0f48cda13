"""Shared deterministic generators for randomized property sweeps."""

import random
from functools import lru_cache

from ktaquin import coefficients
from ktaquin.coefficients import _sign
from ktaquin.shapes import (
    SkewShape,
    add_boxes,
    boxes_of,
    contains,
    partition,
    partitions_of,
    psize,
    remove_boxes,
    removable_corners,
    row_length,
)
from ktaquin.equivalence import (
    EquivalenceVerdict,
    OriginReport,
    OriginViolation,
    available_steps,
    check_strong_dual_equivalence,
)
from ktaquin.jdt import (
    InternalInvariantError,
    _check_corners,
    _label_groups_desc,
    _slide,
    _switch_class,
    switch_trace,
)
from ktaquin.tableaux import (
    IncreasingTableau,
    SetValuedTableau,
    eligible_x_boxes,
    is_partial_reverse_lattice,
    iter_increasing_cells,
    reading_word,
    superstandard,
)
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
# Reference checks: the ribbon check as a search that groups each stage's
# bullets and label boxes into ribbons and counts their rows and columns, the
# reference for the kernel's local rule on each box's neighbours; and the
# origin check as it was before it read its boxes from the cells and the
# origins.  Test-only.


def reference_check_ribbons(moves) -> None:
    """No ribbon of one stage has more than two boxes in a row or a column."""
    link = {}
    for b, hits in moves.items():
        link.setdefault(b, []).extend(hits)
        for x in hits:
            link.setdefault(x, []).append(b)
    unvisited = set(link)
    while unvisited:
        frontier = [unvisited.pop()]
        comp = list(frontier)
        while frontier:
            for nb in link[frontier.pop()]:
                if nb in unvisited:
                    unvisited.discard(nb)
                    comp.append(nb)
                    frontier.append(nb)
        rows = [r for r, _ in comp]
        cols = [c for _, c in comp]
        if any(rows.count(r) > 2 for r in rows) or any(cols.count(c) > 2 for c in cols):
            raise InternalInvariantError("ribbon has more than two boxes in a row or column")


def _ref_nw_comparable(x, y):
    return (x[0] <= y[0] and x[1] <= y[1]) or (y[0] <= x[0] and y[1] <= x[1])


def reference_verify_origin_invariants(trace) -> OriginReport:
    """Per-stage checks: uniformity, origin-row/column order, bullet-neighbor comparability."""
    violations = []
    for i, state in enumerate(trace.states):
        origins = state.origins
        if origins is None:
            violations.append(OriginViolation(i, "uniformity", f"switch into stage {state.stage}"))
            continue
        entries = state.entries()
        boxes = sorted(entries)
        for x in boxes:
            ox = origins[x]
            for y in boxes:
                if x == y:
                    continue
                oy = origins[y]
                if ox[0] == oy[0] and oy[1] > ox[1]:
                    if not (y[1] > x[1] and y[0] <= x[0]):
                        violations.append(
                            OriginViolation(i, "row-order", f"origins {ox},{oy} boxes {x},{y}")
                        )
                if ox[1] == oy[1] and oy[0] > ox[0]:
                    if not (y[0] > x[0] and y[1] <= x[1]):
                        violations.append(
                            OriginViolation(i, "column-order", f"origins {ox},{oy} boxes {x},{y}")
                        )
        for (r, c) in state.bullets:
            north, west = (r - 1, c), (r, c - 1)
            if north in entries and west in entries:
                if not _ref_nw_comparable(origins[north], origins[west]):
                    violations.append(
                        OriginViolation(
                            i,
                            "bullet-neighbors",
                            f"bullet {(r, c)} neighbors originate at {origins[north]}, {origins[west]}",
                        )
                    )
    return OriginReport(tuple(violations), len(trace.states))


# ---------------------------------------------------------------------------
# Reference pair walks: the equivalence lab's walks before they extended the
# pair's traces, which traced every step again.  Here every sequence is traced
# in full from the start tableaux and compared state by state, so a verdict
# numbers its states along the whole sequence; the walks find the next steps
# by sliding a through the reference kernel.  Test-only.


def reference_pair_verdict(a, b, slides, ambient) -> EquivalenceVerdict:
    """Trace a and b through the slides and compare their configurations."""
    confs_a = [s.configuration() for s in switch_trace(a, slides, ambient).states]
    confs_b = [s.configuration() for s in switch_trace(b, slides, ambient).states]
    n = min(len(confs_a), len(confs_b))
    for i in range(n):
        if confs_a[i] != confs_b[i]:
            return EquivalenceVerdict(False, i, i + 1)
    if len(confs_a) != len(confs_b):
        return EquivalenceVerdict(False, n, n)
    return EquivalenceVerdict(True, None, n)


def reference_first_divergence(a, b, ambient, depth):
    """The first divergent verdict over single-corner sequences up to depth, else None.

    Sequences come in pre-order of ``available_steps``; each one is compared
    in full through ``check_strong_dual_equivalence``.
    """

    def walk(t, slides, left):
        for step in available_steps(SkewShape(t.outer, t.inner), ambient):
            seq = slides + [step]
            verdict = check_strong_dual_equivalence(a, b, seq, ambient)
            if not verdict.equivalent:
                return verdict
            if left > 1:
                found = walk(reference_slide(t, step.corners, step.direction), seq, left - 1)
                if found is not None:
                    return found
        return None

    return walk(a, [], depth) if depth > 0 else None


def reference_random_run(a, b, ambient, length, rng):
    """One random single-corner sequence, drawn as ``random_equivalence_run`` draws it.

    Each prefix is compared in full through ``reference_pair_verdict``.
    """
    t, slides = a, []
    verdict = reference_pair_verdict(a, b, slides, ambient)
    for _ in range(length):
        choices = available_steps(SkewShape(t.outer, t.inner), ambient)
        if not choices:
            break
        step = rng.choice(choices)
        slides.append(step)
        verdict = reference_pair_verdict(a, b, slides, ambient)
        if not verdict.equivalent:
            break
        t = reference_slide(t, step.corners, step.direction)
    return verdict


# ---------------------------------------------------------------------------
# Reference enumerator: an independent recursive generator of increasing
# fillings, which ktaquin.tableaux.iter_increasing_cells is checked against.
# It finds each box's tails by walking the region, not from the outer shape's
# column heights.  Test-only.


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
# Reference tally: the per-filling histogram that the label-by-label count in
# ktaquin.coefficients replaced.  Every surjective filling is rectified through
# the superstandard order of the inner shape; keys are (outer, cells) of the
# results, whatever the target.  Test-only.


def _rectify_entries(entries, outer, inner, groups):
    """Slide raw entries in place through corner groups, each checked when reached; returns outer."""
    for corners in groups:
        _check_corners(inner, outer, corners, False)
        inner, outer, _ = _slide(entries, inner, outer, corners, False)
    return outer


def reference_rect_tally(outer, inner, alphabet):
    """Histogram of the rectifications of every surjective filling of outer/inner."""
    outer, inner = partition(outer), partition(inner)
    groups = [boxes for _, boxes in _label_groups_desc(superstandard(inner).cells)]
    tally = {}
    for cells in iter_increasing_cells(outer, inner, alphabet, surjective=True):
        entries = {(r, c): v for r, c, v in cells}
        key = (
            _rectify_entries(entries, outer, inner, groups),
            tuple(sorted((r, c, v) for (r, c), v in entries.items())),
        )
        tally[key] = tally.get(key, 0) + 1
    return tally


def superstandard_row(tally):
    """A reference histogram restricted to superstandard results, keyed by shape."""
    return {outer: n for (outer, cells), n in tally.items() if cells == superstandard(outer).cells}


def reference_tiles(filled, classes, placed, result) -> bool:
    """The full-shape tiling check of one label step, box by box over the filled shape.

    ``(filled, classes, placed)`` is a ``("label-step", ...)`` memo key and
    ``result`` its value ``(now, new classes, landed)``.  The state stepped
    from must be tiled by its S classes and the boxes landed before, which
    are the rest of ``filled``; the state reached must be tiled by the new
    S classes, those boxes and the newly landed ones, each box exactly once.
    """
    now, new, landed = result
    old = boxes_of(filled)
    in_classes = [box for s in classes for box in s]
    if len(set(in_classes)) != len(in_classes) or not set(in_classes) <= set(old):
        return False
    earlier = set(old).difference(in_classes)
    boxes = [(r, row_length(filled, r) + 1) for r in placed]
    if now != add_boxes(filled, boxes) or len(new) != len(classes):
        return False
    tiles = [*earlier, *landed, *(box for s in new for box in s)]
    return len(tiles) == len(set(tiles)) and set(tiles) == set(boxes_of(now))


def reference_label_step(filled, classes, placed):
    """One label step with every S class through the kernel, largest first.

    The body that ``coefficients._label_step`` replaced, which switches only
    the classes next to the placed class: every class here is the bullets of
    one slide, whether or not it touches the placed class, and each class
    it produces is checked apart.  The tiling check is the same.  Nothing is
    interned in the memo, so a sweep's steps can be compared with it after
    the sweep.  Test-only.
    """
    boxes = [(r, row_length(filled, r) + 1) for r in placed]
    entries = dict.fromkeys(boxes, 1)
    new = list(classes)
    before = set(boxes)
    after = set()
    moved = 0
    for s in range(len(new) - 1, -1, -1):
        bullets = _switch_class(entries, new[s])
        if bullets != new[s]:
            before.update(new[s])
            after.update(bullets)
            moved += len(bullets)
            new[s] = frozenset(bullets)
    now = add_boxes(filled, boxes)
    after.update(entries)
    if after != before or len(before) != len(entries) + moved:
        raise InternalInvariantError(f"S classes and landed boxes do not tile {now} after placing {boxes}")
    return now, tuple(new), frozenset(entries)


# ---------------------------------------------------------------------------
# Reference E count: the per-filling loop that coefficients.coeff_E replaced
# by the rook-strip sum of C rows.  Each X-augmented filling is enumerated and
# rectified on its own, reading no row and no memo entry.  Test-only.


def reference_count_E(lam, mu, nu):
    """Count the X-augmented fillings of nu/lam whose erased part rectifies to mu's target.

    Marks are any subset of the outer corners inside the region; erasing them
    leaves a surjective filling of the smaller shape, which is enumerated and
    rectified as raw entries through the superstandard order of lam.  No row
    or memo entry is read, so the rook-strip sum of C values stays an
    independent check.
    """
    if not contains(nu, lam):
        return 0
    groups = [boxes for _, boxes in _label_groups_desc(superstandard(lam).cells)]
    target = superstandard(mu).entries
    alphabet = range(1, psize(mu) + 1)
    eligible = eligible_x_boxes(SkewShape(nu, lam))
    count = 0
    for mask in range(1 << len(eligible)):
        erased = remove_boxes(nu, [b for i, b in enumerate(eligible) if mask >> i & 1])
        for cells in iter_increasing_cells(erased, lam, alphabet, surjective=True):
            entries = {(r, c): v for r, c, v in cells}
            if _rectify_entries(entries, erased, lam, groups) == mu and entries == target:
                count += 1
    return _sign(psize(nu) - psize(lam) - psize(mu)) * count


def drop_the_all_corners_strip(monkeypatch):
    """The strip mutant: coefficients' rook_strip_contractions without nu minus all its corners.

    E's value sums over that enumeration, so the mutant moves E; a check of E
    or of an ideal-sheaf table that shares no code with it must then fail.
    """
    real = coefficients.rook_strip_contractions

    def dropped(nu):
        every = remove_boxes(nu, removable_corners(nu))
        return tuple(nubar for nubar in real(nu) if nubar != every)

    monkeypatch.setattr(coefficients, "rook_strip_contractions", dropped)


# ---------------------------------------------------------------------------
# Reference set-valued enumerator: the recursive generator that the pruned
# backtracker in ktaquin.tableaux.enumerate_set_valued replaced, with the
# reading-word filter its callers ran afterwards.  Test-only.


def reference_set_valued(nu, content, lattice=(), inner=()):
    """Set-valued tableaux of nu/inner with the given content, then filtered on each lattice interval."""
    nu, inner = partition(nu), partition(inner)
    boxes = [
        (r, c) for r, width in enumerate(nu, start=1) for c in range(row_length(inner, r) + 1, width + 1)
    ]
    n = len(boxes)
    letters = len(content)
    total = sum(content)
    if total < n:
        return
    if n == 0:
        if total == 0:
            yield SetValuedTableau(nu, (), inner)
        return

    remaining = list(content)
    chosen = {}

    def candidate_sets(lower, strict_lower):
        floor = max(lower, strict_lower + 1)
        avail = [i for i in range(floor, letters + 1) if remaining[i - 1] > 0]

        def extend(prefix, start):
            if prefix:
                yield prefix
            for j in range(start, len(avail)):
                yield from extend(prefix + (avail[j],), j + 1)

        yield from extend((), 0)

    def rec(idx, left_total):
        if idx == n:
            if left_total == 0:
                yield SetValuedTableau(nu, tuple((r, c, vals) for (r, c), vals in chosen.items()), inner)
            return
        r, c = boxes[idx]
        left = chosen.get((r, c - 1))
        above = chosen.get((r - 1, c))
        lower = max(left) if left else 1
        strict_lower = max(above) if above else 0
        for vals in candidate_sets(lower, strict_lower):
            k = len(vals)
            if left_total - k < n - idx - 1:
                continue
            chosen[(r, c)] = vals
            for v in vals:
                remaining[v - 1] -= 1
            yield from rec(idx + 1, left_total - k)
            for v in vals:
                remaining[v - 1] += 1
            del chosen[(r, c)]

    for t in rec(0, total):
        word = reading_word(t)
        if all(is_partial_reverse_lattice(word, interval) for interval in lattice):
            yield t


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


# The Schur-polynomial oracle as it was before monomials were packed into ints:
# exponent vectors are tuples, products are built with zip, and the monomials
# of each Schur polynomial sit in an lru_cache.

@lru_cache(maxsize=None)
def _ref_schur_monomials(lam, nvars):
    """Monomial expansion of the Schur polynomial of lam in nvars variables."""
    lam = partition(lam)
    if len(lam) > nvars:
        return ()
    counts = {}
    boxes = [(r, c) for r, width in enumerate(lam, start=1) for c in range(1, width + 1)]
    entries = {}

    def rec(idx):
        if idx == len(boxes):
            exp = [0] * nvars
            for v in entries.values():
                exp[v - 1] += 1
            key = tuple(exp)
            counts[key] = counts.get(key, 0) + 1
            return
        r, c = boxes[idx]
        lo = max(entries.get((r, c - 1), 1), entries.get((r - 1, c), 0) + 1)
        for v in range(lo, nvars + 1):
            entries[(r, c)] = v
            rec(idx + 1)
            del entries[(r, c)]

    rec(0)
    return tuple(sorted(counts.items()))


def _ref_multiply(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _ref_extract_schur_basis(poly, degree, nvars):
    """Write poly as a sum of Schur polynomials by descending-lex peeling."""
    poly = {k: v for k, v in poly.items() if v}
    out = {}
    for eta in partitions_of(degree, max_rows=nvars):
        exp = tuple(eta) + (0,) * (nvars - len(eta))
        coeff = poly.get(exp, 0)
        if coeff:
            out[eta] = coeff
            for mono, c in _ref_schur_monomials(eta, nvars):
                key = mono
                poly[key] = poly.get(key, 0) - coeff * c
                if poly[key] == 0:
                    del poly[key]
    if any(poly.values()):
        raise ArithmeticError("polynomial is not a nonnegative-length Schur combination")
    return out


def reference_schur_product(lam, mu):
    """All classical LR coefficients of s_lam * s_mu, by the tuple-exponent oracle."""
    lam, mu = partition(lam), partition(mu)
    nvars = max(len(lam) + len(mu), 1)
    prod = _ref_multiply(dict(_ref_schur_monomials(lam, nvars)), dict(_ref_schur_monomials(mu, nvars)))
    return _ref_extract_schur_basis(prod, psize(lam) + psize(mu), nvars)
