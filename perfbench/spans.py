"""In-memory spans around the public functions of matcascade's modules.

``Tracer.installed`` wraps every public function defined in a layer
module and, while it is entered, binds the wrapper under every name any
``matcascade`` module holds
for that function, because a caller looks a name up in its own module
(``cli`` calls ``simulate_batch`` through ``matcascade.cli``, ``engine``
calls ``perron`` through ``matcascade.engine``).  A span is
``[function, tag, start, end, parent]``; spans stay in memory until
``write``.  A function's self time is its span's duration less the
durations of its child spans.  A few functions also feed counters from
their arguments or results, outside their own span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "model", "mbrw", "spectral", "conditions", "engine", "estimate")


def _cli_main(tracer, span, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    span[1] = argv[0] if argv else None


def _intensity(tracer, span, args, kwargs, result):
    model, n = args[0], args[1]
    branch = sum(len(a.matrices) for a in model.atoms)
    tracer.counters["products_projected"] += branch ** n
    tracer.counters["support_size"] += len(result.weights)
    tracer.intensity_keys.add((model.content_hash(), n))


def _perron(tracer, span, args, kwargs, result):
    tracer.counters["perron_iterations"] += result.iterations


def _batch(tracer, span, args, kwargs, result):
    tracer.counters["replicates"] += result.replicates
    tracer.counters["extinct"] += result.extinct_count


def _file_bytes(counter):
    def hook(tracer, span, args, kwargs, result):
        tracer.counters[counter] += os.path.getsize(args[1])
    return hook


HOOKS = {
    "cli.main": _cli_main,
    "spectral.intensity_measure": _intensity,
    "spectral.perron": _perron,
    "engine.simulate_batch": _batch,
    "engine.batch_to_csv": _file_bytes("csv_bytes"),
    "engine.batch_to_binary": _file_bytes("bin_bytes"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.intensity_keys = set()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers' public functions in every matcascade namespace,
        and restore the originals on exit."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"matcascade.{layer}"]
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == mod.__name__ and fn.__name__ == name):
                    qual = f"{layer}.{name}"
                    wrappers[fn] = self._wrap(fn, qual, HOOKS.get(qual))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname == "matcascade" or modname.startswith("matcascade."):
                for name, value in list(vars(mod).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        setattr(mod, name, wrappers[value])
                        patched.append((mod, name, value))
        try:
            yield self
        finally:
            for mod, name, value in patched:
                setattr(mod, name, value)

    def _wrap(self, fn, qual, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qual, None, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["function", "tag", "start", "end", "parent"],
                       "spans": self.spans, "counters": self.counters},
                      f, separators=(",", ":"))

    def metrics(self):
        """Per-layer metrics of this trace, by name."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        calls = Counter()
        by_command = Counter()
        for i, (qual, tag, start, end, _) in enumerate(self.spans):
            own[qual] += end - start - child[i]
            calls[qual] += 1
            if qual == "cli.main":
                by_command[tag] += end - start
        c = self.counters
        n_intensity = calls["spectral.intensity_measure"]
        return {
            "cli.check_s": by_command["check"],
            "cli.simulate_s": by_command["simulate"],
            "cli.estimate_s": by_command["estimate"],
            "cli.mbrw_build_s": by_command["mbrw-build"],
            "cli.self_s": sum(t for q, t in own.items() if q.startswith("cli.")),
            "model.load_s": own["model.load_model"],
            "model.validate_s": own["model.validate_model"],
            "model.validate_calls": calls["model.validate_model"],
            "mbrw.build_s": own["mbrw.build_cascade_from_mbrw"],
            "mbrw.report_s": own["mbrw.mbrw_condition_report"],
            "spectral.intensity_s": own["spectral.intensity_measure"],
            "spectral.intensity_calls": n_intensity,
            "spectral.intensity_reuse": len(self.intensity_keys) / max(n_intensity, 1),
            "spectral.products_projected": c["products_projected"],
            "spectral.support_size": c["support_size"],
            "spectral.merge_ratio": c["support_size"] / max(c["products_projected"], 1),
            "spectral.nstep_s": own["spectral.n_step_moment_matrix"],
            "spectral.nstep_calls": calls["spectral.n_step_moment_matrix"],
            "spectral.perron_s": own["spectral.perron"],
            "spectral.perron_calls": calls["spectral.perron"],
            "spectral.perron_iterations": c["perron_iterations"],
            "spectral.moment_matrix_s": own["spectral.moment_matrix"],
            "conditions.alpha_s": own["conditions.check_alpha_moment"],
            "conditions.alpha_calls": calls["conditions.check_alpha_moment"],
            "conditions.harmonic_s": own["conditions.check_harmonic"],
            "conditions.profile_s": own["conditions.exponential_profile"],
            "engine.simulate_s": own["engine.simulate_batch"],
            "engine.stream_setup_s": own["engine.replicate_rng"],
            "engine.stream_setup_calls": calls["engine.replicate_rng"],
            "engine.csv_write_s": own["engine.batch_to_csv"],
            "engine.csv_bytes": c["csv_bytes"],
            "engine.bin_write_s": own["engine.batch_to_binary"],
            "engine.bin_read_s": own["engine.batch_from_binary"],
            "engine.bin_bytes": c["bin_bytes"],
            "engine.replicates": c["replicates"],
            "engine.extinct": c["extinct"],
            "estimate.moment_s": own["estimate.estimate_moment"],
            "estimate.harmonic_s": own["estimate.estimate_harmonic"],
            "estimate.laplace_s": own["estimate.estimate_laplace"],
            "estimate.fit_s": (own["estimate.fit_power_decay"]
                               + own["estimate.fit_stretched_exponential"]),
        }
