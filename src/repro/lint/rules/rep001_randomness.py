"""REP001: randomness must be threaded, not conjured.

The engine's determinism contract (seeded runs depend only on ``(seed,
chunk_size)``; CRN comparisons share one generator across systems) only
holds if every stochastic component draws from a generator that was
*threaded in* — an explicit ``rng`` argument or a ``seed=`` constructor
parameter.  Two shapes break that silently:

* the stdlib ``random`` module — process-global state, invisible to the
  seed-threading machinery and untracked by CRN comparisons;
* ``np.random.default_rng()`` with **no arguments** — a fresh
  OS-entropy-seeded generator that makes the result irreproducible.

``default_rng(seed)`` with an explicit argument is fine anywhere: that
*is* the threading idiom — it is how the engine's chunk generators are
derived (:mod:`repro.engine.fused`).  The approved seam module
(``repro._numeric``) is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext, dotted_name
from ..findings import Finding
from ..registry import register

_DEFAULT_RNG_SUFFIXES = ("random.default_rng",)


@register
class UnthreadedRandomnessRule:
    rule_id = "REP001"
    summary = (
        "no random-module use or unseeded default_rng() outside approved seams"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        config = context.config
        if context.module in config.randomness_seam_modules:
            return
        aliases = context.import_aliases()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random" or name.name.startswith("random."):
                        yield context.finding(
                            node,
                            self.rule_id,
                            "stdlib 'random' uses process-global state that "
                            "seed threading cannot reach; draw from a threaded "
                            "numpy Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield context.finding(
                        node,
                        self.rule_id,
                        "stdlib 'random' uses process-global state that seed "
                        "threading cannot reach; draw from a threaded numpy "
                        "Generator instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(context, node, aliases)

    def _check_call(
        self,
        context: ModuleContext,
        node: ast.Call,
        aliases: dict[str, str],
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        head, _, rest = name.partition(".")
        resolved = aliases.get(head, head) + ("." + rest if rest else "")
        is_default_rng = resolved.endswith(_DEFAULT_RNG_SUFFIXES) or resolved in (
            "numpy.random.default_rng",
            "default_rng",
        )
        if not is_default_rng:
            return
        if node.args or node.keywords:
            return  # seeded construction: the approved threading idiom
        yield context.finding(
            node,
            self.rule_id,
            "default_rng() without a seed conjures irreproducible "
            "randomness; accept a seed/rng parameter and construct "
            "default_rng(seed) from it",
        )
