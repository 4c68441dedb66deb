"""Action-word view of an automaton, ignoring the continuous part.

Dropping guards, resets and dynamics leaves a plain labeled graph over the
action alphabet. A lasso word (prefix, cycle) with nonempty cycle is
accepted when some run reads the prefix from an initial location, then
repeats the cycle forever while visiting every acceptance set infinitely
often. An empty acceptance family accepts every infinite run.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .automaton import HybridAutomaton


def strongly_connected_components(
    n: int, succ: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Tarjan's algorithm, iterative so deep graphs cannot overflow the
    Python stack. Components come out in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def _reaching_set(n: int, succ: Sequence[Sequence[int]], targets: set[int]) -> set[int]:
    """All nodes with a path into targets (targets included)."""
    pred: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in pred[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def live_nodes(
    n: int,
    succ: Sequence[Sequence[int]],
    init: Iterable[int],
    acceptance: Sequence[Iterable[int]],
) -> set[int]:
    """Nodes on a path from an initial node to a nontrivial strongly
    connected component that meets every acceptance set.

    Such a component holds a cycle visiting every set, so these are the
    nodes an accepting run can visit. Every node on such a path is
    reachable from init, so only the forward-reachable subgraph is
    searched.
    """
    forward = set(init)
    frontier = list(forward)
    while frontier:
        v = frontier.pop()
        for w in succ[v]:
            if w not in forward:
                forward.add(w)
                frontier.append(w)
    nodes = sorted(forward)
    local = {v: k for k, v in enumerate(nodes)}
    sub = [[local[w] for w in succ[v]] for v in nodes]
    sets = [{local[v] for v in F if v in local} for F in acceptance]

    good: set[int] = set()
    for comp in strongly_connected_components(len(nodes), sub):
        nontrivial = len(comp) > 1 or comp[0] in sub[comp[0]]
        if nontrivial and all(F.intersection(comp) for F in sets):
            good.update(comp)
    return {nodes[k] for k in _reaching_set(len(nodes), sub, good)}


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
            raise ValueError("cycle must be nonempty")
        S = self.after_word(prefix)
        return bool(S & self.good_cycle_entries(cycle))


def accepts_lasso_word(
    h: HybridAutomaton, prefix: Sequence[str], cycle: Sequence[str]
) -> bool:
    """One-shot convenience; build a WordAutomaton to test many words."""
    return WordAutomaton(h).accepts_word(prefix, cycle)
