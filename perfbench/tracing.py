"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each semdiff layer, in
every semdiff module that names them, by wrappers that time each call and
subtract the time of wrapped callees to get self time. A call is attributed
by its caller: ``is_instance`` called by ``cddiff`` itself, and ``accepts``
called by ``addiff`` itself, are self-checks, and so is everything they call;
the rest is search. Nothing is wrapped outside the traced run.
"""

from __future__ import annotations

import sys
from time import perf_counter

METRICS = (
    # (name, unit, better)
    ("cd_semantics.count_vectors", "count", "lower"),
    ("cd_semantics.membership_checks", "count", "lower"),
    ("cd_semantics.membership_ms", "ms", "lower"),
    ("cd_diff.search_self_ms", "ms", "lower"),
    ("cd_diff.witness_yield", "w/check", "higher"),
    ("cd_semantics.print_om_ms", "ms", "lower"),
    ("cd_diff.selfcheck_checks", "count", "lower"),
    ("cd_diff.selfcheck_ms", "ms", "lower"),
    ("cd_diff.cddiff_ms", "ms", "lower"),
    ("ad_semantics.config_nfas", "count", "lower"),
    ("ad_semantics.config_states", "count", "lower"),
    ("ad_semantics.config_nfa_ms", "ms", "lower"),
    ("ad_diff.dfa_states", "count", "lower"),
    ("ad_diff.determinize_ms", "ms", "lower"),
    ("ad_diff.product_states", "count", "lower"),
    ("ad_diff.product_ms", "ms", "lower"),
    ("ad_diff.walk_ms", "ms", "lower"),
    ("ad_diff.walk_words", "count", "lower"),
    ("ad_semantics.subset_steps", "count", "lower"),
    ("ad_diff.selfcheck_nfas", "count", "lower"),
    ("ad_diff.selfcheck_ms", "ms", "lower"),
    ("ad_diff.addiff_ms", "ms", "lower"),
    ("lexer.tokenize_ms", "ms", "lower"),
    ("cd_lang.parse_cd_ms", "ms", "lower"),
    ("ad_lang.parse_ad_ms", "ms", "lower"),
    ("render.render_ms", "ms", "lower"),
    ("cli.run_self_ms", "ms", "lower"),
    ("cli.history_report_ms", "ms", "lower"),
)
COUNTS = tuple(name for name, unit, _ in METRICS if unit == "count")

RENDER_FUNCTIONS = ("om_dot", "om_json", "trace_dot", "trace_json", "diff_json", "print_trace",
                    "_json_dump", "render_om", "render_trace")


class Tracer:
    def __init__(self):
        self.stack = []  # wrapped time of the callees of each open call
        self.selfcheck = 0  # depth of open self-check calls
        self.values = {}
        self.cd_witnesses = 0
        self._saved = []
        m = {name: sys.modules[f"semdiff.{name}"] for name in (
            "lexer", "cd_lang", "ad_lang", "cd_semantics", "cd_diff", "ad_semantics", "ad_diff",
            "render", "cli")}
        # A membership call made by the public diff function itself is its self-check.
        self._check_callers = {
            m["cd_semantics"].is_instance: m["cd_diff"].cddiff.__code__,
            m["ad_semantics"].accepts: m["ad_diff"].addiff.__code__,
        }
        handlers = {
            m["lexer"].tokenize: self._tokenize,
            m["cd_lang"].parse_cd: self._parse_cd,
            m["ad_lang"].parse_ad: self._parse_ad,
            m["cd_semantics"].parse_om: None,
            m["render"].parse_trace: None,
            m["cd_semantics"].objects_for_counts: self._objects_for_counts,
            m["cd_semantics"].is_instance: self._is_instance,
            m["cd_semantics"].print_om: self._print_om,
            m["cd_diff"].cddiff: self._cddiff,
            m["ad_semantics"].build_config_nfa: self._build_config_nfa,
            m["ad_semantics"].accepts: self._accepts,
            m["ad_diff"].determinize: self._determinize,
            m["ad_diff"].difference_automaton: self._product,
            m["ad_diff"].prefix_minimal_words: self._walk,
            m["ad_diff"].addiff: self._addiff,
            m["cli"].run: self._run,
            m["cli"].history_report: self._history_report,
        }
        for name in RENDER_FUNCTIONS:
            handlers[getattr(m["render"], name)] = self._render
        self.handlers = handlers
        self.runner = m["ad_semantics"].NfaRunner

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {fn: self._wrap(fn, h) for fn, h in self.handlers.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "semdiff" and not modname.startswith("semdiff."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        step = self.runner.step
        self._saved.append((self.runner, "step", step))
        values = self.values

        def counted_step(runner, states, letter):
            values["ad_semantics.subset_steps"] += 1
            return step(runner, states, letter)

        self.runner.step = counted_step

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def reset(self):
        self.values.clear()
        self.values.update({name: 0 for name, _, _ in METRICS})
        self.cd_witnesses = 0

    def finish(self):
        """The values gathered since ``reset``, with the derived ratio."""
        v = dict(self.values)
        checks = v["cd_semantics.membership_checks"]
        v["cd_diff.witness_yield"] = self.cd_witnesses / checks if checks else 0.0
        return v

    def _wrap(self, fn, handler):
        tracer = self

        def wrapper(*args, **kwargs):
            caller = sys._getframe(1)
            entering_check = tracer._check_callers.get(fn) is caller.f_code
            tracer.selfcheck += entering_check
            tracer.stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                inner = tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1] += elapsed
                in_check = tracer.selfcheck > 0
                tracer.selfcheck -= entering_check
            if handler is not None:
                handler(elapsed * 1e3, (elapsed - inner) * 1e3, caller, in_check, result)
            return result

        return wrapper

    # -- handlers: (inclusive ms, self ms, caller frame, in self-check, result)

    def _add(self, name, value):
        self.values[name] += value

    def _tokenize(self, incl, own, caller, check, result):
        self._add("lexer.tokenize_ms", incl)

    def _parse_cd(self, incl, own, caller, check, result):
        self._add("cd_lang.parse_cd_ms", own)

    def _parse_ad(self, incl, own, caller, check, result):
        self._add("ad_lang.parse_ad_ms", own)

    def _objects_for_counts(self, incl, own, caller, check, result):
        if caller.f_globals.get("__name__") == "semdiff.cd_diff":
            self._add("cd_semantics.count_vectors", 1)

    def _is_instance(self, incl, own, caller, check, result):
        if check:
            self._add("cd_diff.selfcheck_checks", 1)
            self._add("cd_diff.selfcheck_ms", incl)
        else:
            self._add("cd_semantics.membership_checks", 1)
            self._add("cd_semantics.membership_ms", incl)

    def _print_om(self, incl, own, caller, check, result):
        if caller.f_globals.get("__name__") == "semdiff.cd_diff":
            self._add("cd_semantics.print_om_ms", incl)
        else:
            self._add("render.render_ms", own)

    def _cddiff(self, incl, own, caller, check, result):
        self._add("cd_diff.cddiff_ms", incl)
        self._add("cd_diff.search_self_ms", own)
        self.cd_witnesses += len(result.witnesses)

    def _build_config_nfa(self, incl, own, caller, check, result):
        if check:
            self._add("ad_diff.selfcheck_nfas", 1)
        else:
            self._add("ad_semantics.config_nfas", 1)
            self._add("ad_semantics.config_states", result.n_states)
            self._add("ad_semantics.config_nfa_ms", incl)

    def _accepts(self, incl, own, caller, check, result):
        if check:
            self._add("ad_diff.selfcheck_ms", incl)

    def _determinize(self, incl, own, caller, check, result):
        self._add("ad_diff.dfa_states", result.n_states)
        self._add("ad_diff.determinize_ms", incl)

    def _product(self, incl, own, caller, check, result):
        self._add("ad_diff.product_states", result.n_states)
        self._add("ad_diff.product_ms", own)

    def _walk(self, incl, own, caller, check, result):
        self._add("ad_diff.walk_ms", incl)
        self._add("ad_diff.walk_words", len(result[0]))

    def _addiff(self, incl, own, caller, check, result):
        self._add("ad_diff.addiff_ms", incl)

    def _render(self, incl, own, caller, check, result):
        self._add("render.render_ms", own)

    def _run(self, incl, own, caller, check, result):
        self._add("cli.run_self_ms", own)

    def _history_report(self, incl, own, caller, check, result):
        self._add("cli.history_report_ms", incl)
