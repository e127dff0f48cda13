"""Per-layer tracing of ``ktaquin`` from outside the library.

``Tracer.install`` replaces each target with a wrapper in every ``ktaquin``
module that holds it, so a name bound by ``from ... import`` (for example
``coefficients.krect``) is traced as well as the one in the defining module.
Wrappers keep a stack of child-time accumulators: a layer's self time is the
time inside its spans minus the time inside the traced spans they call.
Generators are timed per ``next()``, never from creation to exhaustion.

A target that no longer exists is skipped and every metric built on it is
reported as missing; the rest of the trace still works.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

# (layer, module, attribute, how).  how: "call" times each call, "gen" times each
# next() of the returned iterator, "count" only counts calls (for functions so
# cheap and frequent that a span would swamp them).
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("shapes", "shapes", "partition", "count"),
    ("tableaux", "tableaux", "iter_increasing_cells", "gen"),
    ("tableaux", "tableaux", "enumerate_increasing", "gen"),
    ("tableaux", "tableaux", "enumerate_augmented", "gen"),
    ("tableaux", "tableaux", "enumerate_set_valued", "gen"),
    ("tableaux", "tableaux", "superstandard", "call"),
    ("tableaux", "tableaux", "reading_word", "call"),
    ("tableaux", "tableaux", "is_partial_reverse_lattice", "call"),
    ("tableaux", "tableaux", "IncreasingTableau.__post_init__", "call"),
    ("jdt", "jdt", "kjdt_slide", "call"),
    ("jdt", "jdt", "rev_kjdt_slide", "call"),
    ("jdt", "jdt", "kinfusion", "call"),
    ("jdt", "jdt", "krect", "call"),
    ("jdt", "jdt", "switch_trace", "call"),
    ("jdt", "jdt", "rev_krect_in_ambient", "call"),
    ("coefficients", "coefficients", "rect_tally", "call"),
    ("coefficients", "coefficients", "coeff_C", "call"),
    ("coefficients", "coefficients", "coeff_D", "call"),
    ("coefficients", "coefficients", "coeff_D_buch", "call"),
    ("coefficients", "coefficients", "coeff_D_via_identity", "call"),
    ("coefficients", "coefficients", "coeff_E", "call"),
    ("coefficients", "coefficients", "coeff_E_via_C", "call"),
    ("coefficients", "coefficients", "coeff_F", "call"),
    ("coefficients", "coefficients", "coeff_c_classical", "call"),
    ("coefficients", "coefficients", "compute_with_checks", "call"),
    ("coefficients", "coefficients", "expand_product", "call"),
    ("coefficients", "coefficients", "expand_coproduct", "call"),
    ("schur", "schur", "schur_product_expansion", "call"),
    ("schur", "schur", "lr_coefficient", "call"),
    ("equivalence", "equivalence", "verify_origin_invariants", "call"),
    ("formats", "formats", "cache_load", "call"),
    ("formats", "formats", "cache_append", "call"),
    ("formats", "formats", "CacheRecord.from_json", "call"),
    ("cli", "cli", "main", "call"),
)

LAYERS = ("shapes", "tableaux", "jdt", "coefficients", "schur", "equivalence", "formats", "cli")

# what an enumeration looks like to the memo: a tally call that starts none ran no enumeration
_ENUMERATION = "tableaux.iter_increasing_cells"
_MEMO = "coefficients.rect_tally"
_BUILD = "tableaux.IncreasingTableau.__post_init__"
_LINE = "formats.CacheRecord.from_json"


@dataclass
class Stat:
    layer: str
    calls: int = 0  # calls; for generators, iterators created
    yields: int = 0  # values produced (generators only)
    total_s: float = 0.0  # time inside the spans, children included
    memo_hits: int = 0  # tally calls that started no enumeration


class _TimedIter:
    __slots__ = ("_it", "_stat", "_tracer")

    def __init__(self, it, stat: Stat, tracer: "Tracer"):
        self._it, self._stat, self._tracer = it, stat, tracer

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._tracer._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            value = next(self._it)
        finally:
            self._tracer._close(self._stat, perf_counter() - t0)
        self._stat.yields += 1
        return value


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.missing: dict[str, str] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, stat: Stat, dt: float) -> None:
        child = self._stack.pop()
        stat.total_s += dt
        self.self_s[stat.layer] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, key: str, stat: Stat, fn, how: str):
        if how == "count":
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted
        if how == "gen":
            def generator(*args, **kwargs):
                stat.calls += 1
                return _TimedIter(fn(*args, **kwargs), stat, self)
            return generator
        enum_stat = self.stats.get(_ENUMERATION) if key == _MEMO else None

        def timed(*args, **kwargs):
            stat.calls += 1
            started = enum_stat.calls if enum_stat is not None else 0
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stat, perf_counter() - t0)
                if enum_stat is not None and enum_stat.calls == started:
                    stat.memo_hits += 1
        return timed

    @staticmethod
    def _modules() -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ktaquin" or name.startswith("ktaquin."))]

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        modules = self._modules()
        for layer, module, attr, how in self.targets:
            key = f"{module}.{attr}"
            mod = sys.modules.get(f"ktaquin.{module}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = getattr(owner, "__dict__", {}).get(name) if owner is not None else None
            if raw is None:
                self.missing[key] = f"ktaquin.{module}.{attr} not found"
                continue
            stat = self.stats[key] = Stat(layer)
            if isinstance(raw, classmethod):
                self._set(owner, name, classmethod(self._wrap(key, stat, raw.__func__, how)))
                continue
            wrapped = self._wrap(key, stat, raw, how)
            if owner is not mod:
                self._set(owner, name, wrapped)
                continue
            # every namespace that bound the same object by import
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is raw:
                        self._set(m, k, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def metrics(self) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
        """Per-layer metrics as name -> (value, unit), and name -> reason for missing ones."""
        out: dict[str, tuple[float, str]] = {}
        missing: dict[str, str] = {}
        for name, unit, needs, compute in _METRICS:
            if isinstance(needs, str):  # a layer total: missing only when the whole layer is
                needs = [k for k in _layer_keys(needs) if k in self.stats] or _layer_keys(needs)
            gone = [self.missing.get(k, f"{k} is not traced") for k in needs if k not in self.stats]
            if gone:
                missing[name] = "; ".join(gone)
            else:
                out[name] = (compute(self), unit)
        return out, missing


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def _calls(key):
    return lambda t: t.stats[key].calls


def _us_per_call(key):
    return lambda t: _per(t.stats[key].total_s, t.stats[key].calls, 1e6)


def _total(key):
    return lambda t: t.stats[key].total_s


def _self(layer):
    return lambda t: t.self_s[layer]


def _layer_keys(layer: str) -> list[str]:
    return [f"{m}.{a}" for lay, m, a, _ in TARGETS if lay == layer]


_COEFF_QUERIES = [k for k in _layer_keys("coefficients") if k != _MEMO]

_METRICS: list[tuple[str, str, list[str], object]] = [
    ("tableaux.fillings", "count", [_ENUMERATION], lambda t: t.stats[_ENUMERATION].yields),
    ("tableaux.enum_us_per_filling", "us", [_ENUMERATION],
     lambda t: _per(t.stats[_ENUMERATION].total_s, t.stats[_ENUMERATION].yields, 1e6)),
    ("tableaux.builds", "count", [_BUILD], _calls(_BUILD)),
    ("tableaux.build_us", "us", [_BUILD], _us_per_call(_BUILD)),
    ("tableaux.set_valued_s", "s", ["tableaux.enumerate_set_valued"], _total("tableaux.enumerate_set_valued")),
    ("tableaux.augmented_s", "s", ["tableaux.enumerate_augmented"], _total("tableaux.enumerate_augmented")),
    ("tableaux.self_s", "s", "tableaux", _self("tableaux")),
    ("jdt.krect_calls", "count", ["jdt.krect"], _calls("jdt.krect")),
    ("jdt.krect_us", "us", ["jdt.krect"], _us_per_call("jdt.krect")),
    ("jdt.slide_us", "us", ["jdt.kjdt_slide"], _us_per_call("jdt.kjdt_slide")),
    ("jdt.rev_slide_us", "us", ["jdt.rev_kjdt_slide"], _us_per_call("jdt.rev_kjdt_slide")),
    ("jdt.infusion_us", "us", ["jdt.kinfusion"], _us_per_call("jdt.kinfusion")),
    ("jdt.trace_us", "us", ["jdt.switch_trace"], _us_per_call("jdt.switch_trace")),
    ("jdt.self_s", "s", "jdt", _self("jdt")),
    ("coefficients.queries", "count", "coefficients",
     lambda t: sum(t.stats[k].calls for k in _COEFF_QUERIES if k in t.stats)),
    ("coefficients.tally_calls", "count", [_MEMO], _calls(_MEMO)),
    ("coefficients.memo_hit_ratio", "ratio", [_MEMO, _ENUMERATION],
     lambda t: _per(t.stats[_MEMO].memo_hits, t.stats[_MEMO].calls, 1.0)),
    ("coefficients.self_s", "s", "coefficients", _self("coefficients")),
    ("schur.expansions", "count", ["schur.schur_product_expansion"], _calls("schur.schur_product_expansion")),
    ("schur.self_s", "s", "schur", _self("schur")),
    ("equivalence.origin_check_us", "us", ["equivalence.verify_origin_invariants"],
     _us_per_call("equivalence.verify_origin_invariants")),
    ("equivalence.self_s", "s", "equivalence", _self("equivalence")),
    ("formats.cache_loads", "count", ["formats.cache_load"], _calls("formats.cache_load")),
    ("formats.cache_lines_read", "count", [_LINE], _calls(_LINE)),
    ("formats.cache_load_ms", "ms", ["formats.cache_load"],
     lambda t: _per(t.stats["formats.cache_load"].total_s, t.stats["formats.cache_load"].calls, 1e3)),
    ("formats.cache_append_us", "us", ["formats.cache_append"], _us_per_call("formats.cache_append")),
    ("formats.self_s", "s", "formats", _self("formats")),
    ("cli.calls", "count", ["cli.main"], _calls("cli.main")),
    ("cli.self_s", "s", "cli", _self("cli")),
    ("shapes.partition_calls", "count", ["shapes.partition"], _calls("shapes.partition")),
]
