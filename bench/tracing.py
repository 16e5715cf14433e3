"""
Layer tracing for the benchmark's traced run.

:meth:`Tracer.install` replaces public callables in the package's module
namespaces with timing wrappers at run time; nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` puts the originals back.

- Coarse calls (``cli.main``, ``compute_basis``, ``count_table``,
  ``class_members``, the two sweeps) become spans: name, start, end and
  the enclosing span.
- Hot calls (``PatternChecker.contains_any``, ``one_step_down``, the
  bijection functions, each element a generator yields) are only
  aggregated into a call count and busy time, to keep the overhead
  bounded.  The bijections' own path generators count as
  ``bijections.paths``.

Self time is a call's duration minus the time its wrapped callees
cover.  Every wrapped call adds its duration to its caller's child time,
so the self times of all wrapped calls, plus the time spent outside any
of them (``bench.self_s``: job set-up and the output checks), add up to
the traced wall time.
"""
from __future__ import annotations

import functools
from time import perf_counter

LAYERS = ("core", "containment", "classes", "enumeration", "mcgovern",
          "bijections", "cli")

# each bijection family: the forward map and its inverse
ROUNDTRIPS = {
    "history": ("perm_to_history", "history_to_perm"),
    "dyck": ("dyck_to_history", "history_to_dyck"),
    "levels": ("strip_level_steps", "insert_level_steps"),
    "omega": ("andre_to_involution", "involution_to_andre"),
}

_EMBED_KEYS = {"classical": "containment.classical", "I": "containment.embed.I",
               "Iprime": "containment.embed.Iprime", "F": "containment.embed.F"}


class Stat:
    """Calls, self time and hits of one wrapped callable."""

    __slots__ = ("calls", "self_s", "hits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0


class Tracer:
    def __init__(self):
        # child time of each open call; entry 0 collects the top-level calls
        self.stack = [0.0]
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []      # [name, parent index, start, end]
        self.open_spans = [-1]
        self.origin = perf_counter()
        # tallies of what the coarse calls returned
        self.members = self.candidates = 0
        self.basis_elements = 0
        self.sweep_elements = self.sweep_avoiders = 0
        self._undo: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn, coarse: bool = False, before=None, after=None):
        """Wrap fn; ``after(before(), result)`` tallies what a call returned."""
        st = self._stat(name)
        stack, spans, open_spans = self.stack, self.spans, self.open_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before() if before else None
            if coarse:
                idx = len(spans)
                spans.append([name, open_spans[-1], perf_counter() - self.origin, None])
                open_spans.append(idx)
            t0 = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_s += dt - child
                if coarse:
                    open_spans.pop()
                    spans[idx][3] = perf_counter() - self.origin
            if after:
                after(token, result)
            return result
        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function, timing each element it yields."""
        st = self._stat(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                stack.append(0.0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    st.self_s += dt - child
                st.calls += 1
                yield item
        return wrapper

    def contains_any(self, fn):
        """Wrap PatternChecker.contains_any, split by the checker's mode."""
        stats = {mode: self._stat(key) for mode, key in _EMBED_KEYS.items()}
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(checker, tau):
            st = stats[checker.mode.value]
            t0 = perf_counter()
            stack.append(0.0)
            try:
                hit = fn(checker, tau)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self_s += dt - child
            if hit:
                st.hits += 1
            return hit
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from invpat import (bijections, classes, cli, containment, enumeration,
                            mcgovern)

        for module in (classes, mcgovern):
            for attr in ("generate_involutions", "generate_fpf"):
                self._patch(module, attr, self.generator("core.generate",
                                                         getattr(module, attr)))
        self._patch(containment.PatternChecker, "contains_any",
                    self.contains_any(containment.PatternChecker.contains_any))
        self._patch(classes, "one_step_down",
                    self.timed("containment.one_step_down", classes.one_step_down))

        generated = self.stats["core.generate"]

        def members_after(generated_before, result):
            self.members += len(result)
            self.candidates += generated.calls - generated_before

        members = self.timed("classes.class_members", classes.class_members, coarse=True,
                             before=lambda: generated.calls, after=members_after)
        self._patch(classes, "class_members", members)
        self._patch(enumeration, "class_members", members)

        def basis_after(_, report):
            self.basis_elements += len(report.all_elements())

        basis = self.timed("classes.compute_basis", classes.compute_basis, coarse=True,
                           after=basis_after)
        self._patch(classes, "compute_basis", basis)
        self._patch(cli, "compute_basis", basis)

        table = self.timed("enumeration.count_table", enumeration.count_table, coarse=True)
        self._patch(enumeration, "count_table", table)
        self._patch(cli, "count_table", table)

        def sweep_after(_, report):
            for row in report.rows.values():
                self.sweep_elements += row.total
                self.sweep_avoiders += row.classical_avoiders

        for attr in ("verify_part1", "verify_part2"):
            self._patch(mcgovern, attr, self.timed("mcgovern.sweep", getattr(mcgovern, attr),
                                                   coarse=True, after=sweep_after))
        for pair in ROUNDTRIPS.values():
            for attr in pair:
                self._patch(bijections, attr,
                            self.timed(f"bijections.{attr}", getattr(bijections, attr)))
        for attr in ("iter_labeled_dyck", "iter_andre_paths"):
            self._patch(bijections, attr,
                        self.generator("bijections.paths", getattr(bijections, attr)))
        self._patch(cli, "main", self.timed("cli.main", cli.main, coarse=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric for a traced run of ``wall_s`` seconds."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {
            "core.generate.elements": (s["core.generate"].calls, "count"),
            "core.generate.self_s": (s["core.generate"].self_s, "s"),
        }
        for key in _EMBED_KEYS.values():
            st = s[key]
            out[f"{key}.calls"] = (st.calls, "count")
            out[f"{key}.self_s"] = (st.self_s, "s")
            out[f"{key}.hit_ratio"] = (st.hits / st.calls if st.calls else 0.0, "ratio")
        out["containment.one_step_down.calls"] = (s["containment.one_step_down"].calls, "count")
        out["classes.class_members.calls"] = (s["classes.class_members"].calls, "count")
        out["classes.class_members.self_s"] = (s["classes.class_members"].self_s, "s")
        out["classes.members_per_candidate"] = (
            self.members / self.candidates if self.candidates else 0.0, "ratio")
        out["classes.compute_basis.self_s"] = (s["classes.compute_basis"].self_s, "s")
        out["classes.basis.elements"] = (self.basis_elements, "count")
        out["enumeration.count_table.self_s"] = (s["enumeration.count_table"].self_s, "s")
        out["mcgovern.sweep.self_s"] = (s["mcgovern.sweep"].self_s, "s")
        out["mcgovern.sweep.elements"] = (self.sweep_elements, "count")
        out["mcgovern.sweep.avoider_ratio"] = (
            self.sweep_avoiders / self.sweep_elements if self.sweep_elements else 0.0, "ratio")
        for family, pair in ROUNDTRIPS.items():
            a, b = (s[f"bijections.{attr}"] for attr in pair)
            out[f"bijections.{family}.roundtrips"] = (min(a.calls, b.calls), "count")
            out[f"bijections.{family}.self_s"] = (a.self_s + b.self_s, "s")
        out["bijections.paths.self_s"] = (s["bijections.paths"].self_s, "s")
        out["cli.main.calls"] = (s["cli.main"].calls, "count")
        out["cli.main.self_s"] = (s["cli.main"].self_s, "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(st.self_s for name, st in s.items()
                                          if name.split(".", 1)[0] == layer), "s")
        out["bench.self_s"] = (wall_s - self.stack[0], "s")
        out["trace.wall_s"] = (wall_s, "s")
        return out
