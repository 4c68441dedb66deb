"""Action-word view of an automaton, ignoring the continuous part.

Dropping guards, resets and dynamics leaves a plain labeled graph over the
action alphabet. A lasso word (prefix, cycle) with nonempty cycle is
accepted when some run reads the prefix from an initial location, then
repeats the cycle forever while visiting every acceptance set infinitely
often. An empty acceptance family accepts every infinite run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import TraceError
from .automaton import HybridAutomaton, live_nodes


class WordAutomaton:
    """Graph view of an automaton for answering lasso-word membership.

    Cycle answers are cached per cycle word, so sweeps that test many
    prefixes against few distinct cycles stay cheap.
    """

    def __init__(self, h: HybridAutomaton):
        self.locations = list(h.locations)
        self.idx = {l: i for i, l in enumerate(self.locations)}
        n = self.n = len(self.locations)
        self.succ: dict[str, list[list[int]]] = {
            a: [[] for _ in range(n)] for a in h.actions
        }
        for t in h.transitions:
            self.succ[t.action][self.idx[t.source]].append(self.idx[t.target])
        self.init = frozenset(self.idx[l] for l in h.init)
        self.acceptance = [frozenset(self.idx[l] for l in F) for F in h.acceptance]
        self._good_cache: dict[tuple[str, ...], frozenset[int]] = {}

    def step(self, S: frozenset[int], a: str) -> frozenset[int]:
        succ_a = self.succ.get(a)
        if succ_a is None:
            return frozenset()
        out: set[int] = set()
        for s in S:
            out.update(succ_a[s])
        return frozenset(out)

    def after_word(self, word: Iterable[str]) -> frozenset[int]:
        S = self.init
        for a in word:
            if not S:
                break
            S = self.step(S, a)
        return S

    def good_cycle_entries(self, cycle: Sequence[str]) -> frozenset[int]:
        """Locations that, reading the cycle forever, can satisfy acceptance.

        Built on the product of locations with cycle positions: an entry is
        good when its position-0 node is live (live_nodes) with every node
        initial and each acceptance set lifted to its (location, position)
        nodes.
        """
        cycle = tuple(cycle)
        cached = self._good_cache.get(cycle)
        if cached is not None:
            return cached
        c = len(cycle)
        N = self.n * c
        succ: list[list[int]] = [[] for _ in range(N)]
        for i, a in enumerate(cycle):
            sa = self.succ.get(a)
            if sa is None:
                continue
            j = (i + 1) % c
            for li in range(self.n):
                succ[li * c + i] = [w * c + j for w in sa[li]]
        sets = [[l * c + i for l in F for i in range(c)] for F in self.acceptance]
        live = live_nodes(N, succ, range(N), sets)
        out = frozenset(node // c for node in live if node % c == 0)
        self._good_cache[cycle] = out
        return out

    def accepts_word(self, prefix: Sequence[str], cycle: Sequence[str]) -> bool:
        if not cycle:
            raise TraceError("lasso word needs a nonempty cycle")
        S = self.after_word(prefix)
        return bool(S & self.good_cycle_entries(cycle))


def accepts_lasso_word(
    h: HybridAutomaton, prefix: Sequence[str], cycle: Sequence[str]
) -> bool:
    """One-shot convenience; build a WordAutomaton to test many words."""
    return WordAutomaton(h).accepts_word(prefix, cycle)
