"""Span tracing for the benchmark, kept outside the package.

``Tracer.install`` wraps densitylab's public functions in place. Each
wrapper records a span (id, parent, request, layer, group, start, end plus
counters taken from the arguments or the result). Spans stay in memory and
are written as JSON lines by ``dump`` when the traced process ends, so the
report on stdout is untouched.

A call opens a span only when it enters its layer from another layer or from
the top. A call nested in a span of the same layer runs unwrapped and is
neither timed separately nor counted, so counts come from the outermost call
into a layer (``lbd_profile`` calling ``banach_window_sup_at`` is one density
call). The one exception is ``productset.products_in``: it opens its own span
inside ``gap_witness`` so that the gap scan's self time excludes it.
``progressions._allowed`` (one vectorized n-approximation test over a batch)
is counted but not timed, because its time belongs to the search loop.

Run as a script, this module is the traced stand-in for
``python -m densitylab.cli`` and for ``session.py``:

    python3 perfbench/trace.py SPANS.jsonl REQUEST_ID cli density --set ...
    python3 perfbench/trace.py SPANS.jsonl REQUEST_ID session
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self, request: str):
        self.request = request
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._next_id = 0
        # spec -> disjoint sorted ranges already materialized by members()
        self._materialized: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, group: str, attrs=None, nested: bool = False):
        """Timed wrapper around ``fn``; ``attrs(args, result)`` gives counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == layer and not (nested and stack[-1][1] != group):
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else None
            stack.append((layer, group, sid))
            result = done = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                # a call that raises keeps its span, without counters
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if done and attrs is not None else None
                self.spans.append((sid, parent, layer, group, start, end, extra))

        return wrapper

    def counter(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters taken from arguments and results ----------------------------

    def _members_attrs(self, args, result):
        spec, lo, hi = args[0], int(args[1]), int(args[2])
        seen = self._materialized.setdefault(spec, [])
        covered = any(a <= lo and hi <= b for a, b in seen)
        merged = []
        for a, b in sorted(seen + [(lo, hi)]):
            if merged and a <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        seen[:] = merged
        return {"elements": len(result), "covered": covered}

    def install(self):
        """Wrap the public entry points of every densitylab layer in place."""
        from densitylab import cli, density, intset, monad, numerics, productset, progressions

        spec_cls = intset.IntegerSetSpec
        spec_cls.members = self.wrap(spec_cls.members, "intset", "members", self._members_attrs)
        spec_cls.contains = self.wrap(spec_cls.contains, "intset", "contains")
        spec_cls.next_member = self.wrap(spec_cls.next_member, "intset", "walk")
        spec_cls.prev_member = self.wrap(spec_cls.prev_member, "intset", "walk")
        spec_cls.from_json = classmethod(self.wrap(spec_cls.from_json.__func__, "intset", "parse"))

        power_sum = self.wrap(
            numerics.power_sum_range, "numerics", "power_sum",
            lambda a, r: {"terms": max(0, int(a[1]) - int(a[0]) + 1)},
        )
        numerics.power_sum_range = density.power_sum_range = monad.power_sum_range = power_sum
        prefix_cls = numerics.PrefixSums
        prefix_cls.__init__ = self.wrap(
            prefix_cls.__init__, "numerics", "prefix_build", lambda a, r: {"terms": len(a[1])}
        )
        prefix_cls.range_sum = self.wrap(
            prefix_cls.range_sum, "numerics", "range_sum", lambda a, r: {"queries": int(np.size(a[1]))}
        )

        groups = {
            "profile": ("counting_profile", "log_profile", "count_extremes"),
            "banach": ("banach_window_sup_at", "banach_window_sup", "lbd_profile", "lbd_estimate"),
            "bd": ("bd_estimate_at", "bd_estimate"),
            "bdm": ("bdm_window_sup_at", "bdm_window_sup"),
        }
        for group, names in groups.items():
            for name in names:
                setattr(density, name, self.wrap(getattr(density, name), "density", group))

        for name in ("find_geo", "find_power_ap", "approx_subset"):
            setattr(progressions, name, self.wrap(getattr(progressions, name), "progressions", "search"))
        for name in ("find_gp3", "gp_free_certify"):
            setattr(progressions, name, self.wrap(getattr(progressions, name), "progressions", "gp3"))
        progressions._allowed = self.counter(progressions._allowed, "progressions.approx_calls")

        productset.products_in = self.wrap(
            productset.products_in, "productset", "products_in", lambda a, r: {"products": len(r)}, nested=True
        )
        productset.gap_witness = self.wrap(productset.gap_witness, "productset", "gap")

        for name in ("nu", "nu_m", "big_estimate", "scale_check", "inversion_check", "interval_measure",
                     "density_plus", "density_minus"):
            setattr(monad, name, self.wrap(getattr(monad, name), "monad", "monad"))

        cli.parse_args = self.wrap(cli.parse_args, "cli", "parse")
        cli.run = self.wrap(cli.run, "cli", "run")

    def dump(self, path: str):
        # formatted by hand: json.dumps per span would dominate the tracing
        # overhead of requests with ~1e5 point-membership spans
        request = json.dumps(self.request)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, group, start, end, extra in self.spans:
                fields = [f'"id": {sid}', f'"parent": {"null" if parent is None else parent}',
                          f'"request": {request}', f'"layer": "{layer}"', f'"group": "{group}"',
                          f'"start": {start!r}', f'"end": {end!r}']
                fields.extend(f'"{k}": {json.dumps(v)}' for k, v in (extra or {}).items())
                fh.write("{" + ", ".join(fields) + "}\n")
            fh.write(json.dumps({"request": self.request, "counts": self.counts}) + "\n")


def main(argv: list[str]) -> int:
    spans_path, request, mode, rest = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(request)
    tracer.install()
    try:
        if mode == "cli":
            from densitylab import cli

            return cli.main(rest)
        import session

        return session.main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
