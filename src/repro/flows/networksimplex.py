"""Network simplex for min-cost flow.

The paper computes its FBP flows with "a (sequential) NetworkSimplex
algorithm"; this module is that solver — the ``ns`` backend of
:class:`~repro.flows.mincostflow.MinCostFlowProblem` and the ``ns``
method of the window transportation solves.

Implementation notes
--------------------
Classic primal network simplex on the bounded-arc formulation:

* the instance is first transformed like the other backends (super
  source/sink absorb supplies and demand capacities), so all node
  balances are zero except ``s`` and ``t``;
* a strongly feasible-ish start: an artificial root node connected to
  every node by big-M arcs carrying the initial imbalance;
* spanning tree kept as parent/parent-arc/depth arrays with child
  lists; entering arcs picked by block pricing (Dantzig within a
  block); the pivot cycle is found by walking both endpoints to their
  common ancestor; ties in the leaving-arc choice break by smallest
  arc id (a Bland-style guard against cycling);
* after a pivot, potentials are updated only on the reattached subtree.

Infeasibility = any artificial arc still carrying flow at optimality.

Arcs live in contiguous numpy arrays, so block pricing, flow
recomputation and basis validation run vectorized; tree surgery, the
pivot cycle and the potential refresh are pointer-chasing loops over
Python lists.  The evaluation order of the arithmetic is part of the
result: a different summation order changes the last bit of a flow or
potential, which moves degenerate ties and, through them, the
placement bits ``tests/data/legalize_golden.json`` pins and the
``n.*`` counters of the benchmark record.  Hence the sequential balance
sum, the per-node potential refresh and the arc-ordered ``np.add.at``
below.  ``tests/flow_oracle.py`` checks feasibility verdicts and optimal
costs against ``networkx`` independently.

Every solve ends with a canonical flow recomputation from the final
basis, so the returned flows are a pure function of (final basis,
instance data) rather than of the increments accumulated along the
pivot path; those recomputed bits are the ones the goldens pin.
:meth:`NetworkSimplex.solve` also accepts a starting basis
(``warm_basis``, an :class:`NSBasis` as :meth:`~NetworkSimplex.export_basis`
returns it), validated and re-flowed for the new data by
``_try_warm_init`` with a fall back to the all-artificial tree; it is
the one entry point for a crash basis built from outside the kernel.

Numeric tolerances are scale-relative (:mod:`repro.flows.tolerances`):
reduced-cost tests scale with the instance's largest |cost|, flow and
degeneracy tests with its largest capacity/balance.  The historical
absolute ``1e-9`` misclassified legitimate degenerate runs on
large-cost instances as cycling (:class:`SolverNumericsError`).

Resilience: the pivot loop ticks a
:class:`~repro.resilience.budget.BudgetClock` (iteration/wall-time
limits -> :class:`SolverBudgetExceeded`), runs of degenerate pivots
force an early switch to Bland's rule, and apparent cycling under
Bland (which terminates finitely when arithmetic is exact, so a long
degenerate run there means the float comparisons have broken down) or
non-finite pivot state raises
:class:`~repro.resilience.errors.SolverNumericsError`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import incr
from repro.resilience.budget import BudgetClock
from repro.resilience.errors import SolverNumericsError
from repro.flows.tolerances import BASE_EPS, scale_eps

INF = float("inf")

_LOWER, _TREE, _UPPER = 0, 1, 2

#: pricing key sign per arc state (_LOWER, _TREE, _UPPER): an arc is an
#: entering candidate iff ``rc * sign < -eps`` — LOWER wants rc < -eps
#: (sign +1), UPPER wants rc > eps (sign -1, an exact IEEE negation),
#: TREE never qualifies (sign 0 -> key 0).  ``argmin`` over the signed
#: keys keeps the first minimum, i.e. the smallest arc id on ties.
_PRICE_SIGN = np.array([1.0, 0.0, -1.0])

#: incident-arc count at or above which a subtree refresh drops the
#: pricing-key cache (full vectorized rebuild at the next pricing
#: call) instead of patching keys one by one.  Movebound
#: transportation networks have high-degree region nodes (hundreds of
#: incident arcs per refresh), where the scalar patch costs more than
#: the rebuild; partitioning networks touch ~16 arcs per refresh and
#: stay on the scalar path.  Additionally gated on touched/m so huge
#: networks with comparatively small touch sets keep patching.
_PATCH_INVALIDATE_MIN = 64

#: BFS-level width at or above which the subtree relabel computes the
#: level's potentials with one vectorized gather + np.where instead
#: of the scalar per-node loop.  Below it, numpy's fixed per-op
#: overhead loses to ~0.5us/node of python.
_LEVEL_VECTOR_MIN = 48

#: incident-arc count at or above which a relabeled node's pricing
#: keys are patched with one vectorized gather (same float64
#: expression and sign selection as the scalar patch, so identical
#: bits) instead of the per-arc loop.
_PATCH_VECTOR_MIN = 48


class NSBasis:
    """Spanning-tree basis snapshot of a network-simplex solve.

    ``parent``/``parent_arc`` describe the tree over all nodes
    (including the artificial root, which has parent ``-1``);
    ``state`` is the LOWER/TREE/UPPER state of every arc, including
    super-source/sink and artificial arcs.
    """

    __slots__ = ("parent", "parent_arc", "state", "n_nodes", "n_arcs")

    def __init__(
        self,
        parent: List[int],
        parent_arc: List[int],
        state: List[int],
        n_nodes: int,
        n_arcs: int,
    ) -> None:
        self.parent = parent
        self.parent_arc = parent_arc
        self.state = state
        self.n_nodes = n_nodes
        self.n_arcs = n_arcs


class NetworkSimplex:
    """Network simplex on contiguous arc arrays, integer node ids.

    Data layout: ``tail``/``head`` (int64), ``cost``/``cap``
    (float64) and ``state`` (int8) are numpy arrays — flow
    recomputation and starting-basis validation run vectorized over
    them.  Pricing runs on a
    float64 *key cache*: ``(cost - pi[tail] + pi[head]) * sign`` for
    every arc, rebuilt once per basis initialization and thereafter
    patched incrementally — a pivot changes the potentials of one
    subtree and the state of at most two arcs, so only the keys of
    arcs incident to those nodes are recomputed.  ``_find_entering``
    is then a slice + ``argmin`` per pricing block with no gathers at
    all.  The spanning tree (parent / parent_arc / depth / children),
    the arc flows and the node potentials stay Python lists: tree
    surgery, the pivot cycle and per-node potential refresh are
    pointer-chasing loops where list indexing beats numpy scalar
    access.  Read-only list mirrors of ``tail``/``head``/``cost``/
    ``cap``/``state`` serve those loops; the float64 potential vector
    (``_pi_np``) is maintained alongside the list, one store per
    relabeled node.
    """

    def __init__(
        self,
        n: int,
        tail: np.ndarray,
        head: np.ndarray,
        cost: np.ndarray,
        cap: np.ndarray,
    ) -> None:
        self.n = n  # real nodes; the artificial root is node n
        self.tail = np.ascontiguousarray(tail, dtype=np.int64)
        self.head = np.ascontiguousarray(head, dtype=np.int64)
        self.cost = np.ascontiguousarray(cost, dtype=np.float64)
        self.cap = np.ascontiguousarray(cap, dtype=np.float64)
        m = self.tail.shape[0]
        self.flow = [0.0] * m
        self.state = np.zeros(m, dtype=np.int8)  # _LOWER
        self.pivots = 0  # pivot count of the last solve()
        self.degenerate_pivots = 0  # zero-delta pivots of the last solve()
        self.warm_used = False  # last solve() started from a warm basis
        self.eps_cost = BASE_EPS
        self.eps_flow = BASE_EPS
        self.stat_pricing_blocks = 0
        self.stat_pricing_arcs = 0
        self._pi_np = None
        self._key_np = None

    # ------------------------------------------------------------------
    def solve(
        self,
        balance,
        clock: Optional[BudgetClock] = None,
        warm_basis: Optional[NSBasis] = None,
    ) -> bool:
        """Optimize; returns True when no artificial arc carries flow."""
        n = self.n
        max_cost = float(np.max(np.abs(self.cost))) if self.cost.size else 1.0
        big_m = (n + 1) * (max_cost + 1.0)
        # scale-relative tolerances: cost comparisons scale with the
        # largest |cost|, flow comparisons with the largest finite
        # capacity / balance (floor: the historical absolute 1e-9)
        fin = self.cap[np.isfinite(self.cap)]
        mc = float(np.max(np.abs(fin))) if fin.size else 0.0
        bal = np.asarray(balance, dtype=np.float64)
        bf = bal[np.isfinite(bal)]
        mb = float(np.max(np.abs(bf))) if bf.size else 0.0
        self.eps_cost = scale_eps(max_cost)
        self.eps_flow = scale_eps(mc if mc > mb else mb)
        self._big_m = big_m

        # artificial arcs v<->root (direction from the balance sign);
        # created whatever the start, so arc ids align with a starting
        # basis of the same topology
        self._add_artificials(balance, big_m)

        self.warm_used = False
        if warm_basis is not None and self._try_warm_init(warm_basis, balance):
            self.warm_used = True
        else:
            self._cold_init(balance)

        m = len(self.tail)
        block = max(int(np.sqrt(m)) + 10, 20)
        scan_start = 0
        # Dantzig/block pricing can cycle on degenerate pivots; after a
        # generous budget — or a long *consecutive* run of degenerate
        # pivots, the actual cycling signature — switch to Bland's
        # rule (smallest eligible arc id), which terminates finitely.
        dantzig_budget = 40 * m + 400
        degenerate_trigger = 2 * m + 40
        # Under Bland, cycling is impossible with exact arithmetic; a
        # run this long means the epsilon comparisons have broken down.
        bland_cycle_cap = 10 * m + 1000
        pivots = 0
        degenerate = 0
        consecutive_degenerate = 0
        use_bland = False
        # loop-invariant hoists: tick/eps/find/pivot are fixed for the
        # whole solve, and this loop runs once per pivot
        tick = clock.tick if clock is not None else None
        eps_flow = self.eps_flow
        find_entering = self._find_entering
        do_pivot = self._pivot
        while True:
            if tick is not None:
                tick()
            use_bland = use_bland or (
                pivots >= dantzig_budget
                or consecutive_degenerate >= degenerate_trigger
            )
            if use_bland:
                entering = self._find_entering_bland()
            else:
                entering = find_entering(block, scan_start)
            if entering is None:
                break
            scan_start = (entering + 1) % m
            delta = do_pivot(entering)
            if not math.isfinite(delta):
                raise SolverNumericsError(
                    "network simplex pivot produced non-finite flow change",
                    solver="ns",
                )
            pivots += 1
            if delta <= eps_flow:
                degenerate += 1
                consecutive_degenerate += 1
                if use_bland and consecutive_degenerate >= bland_cycle_cap:
                    raise SolverNumericsError(
                        f"network simplex appears to be cycling "
                        f"({consecutive_degenerate} consecutive degenerate "
                        f"pivots under Bland's rule)",
                        solver="ns",
                        context={"pivots": pivots},
                    )
            else:
                consecutive_degenerate = 0

        self.pivots = pivots
        self.degenerate_pivots = degenerate
        # canonical flow recomputation: the returned flows are a pure
        # function of (final basis, instance data), not of the float
        # increments the pivots accumulated — its last bits decide
        # degenerate ties downstream and are what the goldens pin
        if not self._recompute_flows(balance):
            raise SolverNumericsError(
                "network simplex basis flows violate arc bounds at "
                "optimality (beyond scaled tolerance)",
                solver="ns",
            )
        eps = self.eps_flow
        return all(f <= eps for f in self.flow[self._art0 :])

    def _add_artificials(self, balance, big_m: float) -> None:
        n, root = self.n, self.n
        bal = np.asarray(balance, dtype=np.float64)[:n]
        pos = bal >= 0.0
        nodes = np.arange(n, dtype=np.int64)
        m0 = self.tail.shape[0]
        self.tail = np.concatenate([self.tail, np.where(pos, nodes, root)])
        self.head = np.concatenate([self.head, np.where(pos, root, nodes)])
        self.cost = np.concatenate([self.cost, np.full(n, big_m)])
        self.cap = np.concatenate([self.cap, np.full(n, INF)])
        self.flow = [0.0] * (m0 + n)
        self.state = np.concatenate(
            [self.state, np.zeros(n, dtype=np.int8)]
        )
        self._art0 = m0  # arcs m0.. are the artificial ones
        # read-only scalar mirrors for the pivot/tree-surgery loops
        self._tail_list = self.tail.tolist()
        self._head_list = self.head.tolist()
        self._cost_list = self.cost.tolist()
        self._cap_list = self.cap.tolist()
        # node -> incident arc ids, for the incremental pricing-key
        # maintenance (a relabeled node invalidates exactly the keys
        # of its incident arcs).  Built as a CSR in one vectorized
        # pass; the per-node Python lists the patch loop wants are
        # materialized lazily (_inc), so nodes never relabeled during
        # the solve cost nothing.
        m = m0 + n
        endpoints = np.concatenate([self.tail, self.head])
        order = np.argsort(endpoints, kind="stable")
        self._inc_arcs = order % m  # index i in the concat is arc i % m
        starts = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(endpoints, minlength=n + 1), out=starts[1:])
        self._inc_start = starts.tolist()
        self._inc_start_np = starts
        self._inc: List[Optional[List[int]]] = [None] * (n + 1)
        self._pi_np = None
        self._key_np = None

    # ------------------------------------------------------------------
    # basis initialization
    # ------------------------------------------------------------------
    def _cold_init(self, balance) -> None:
        """All-artificial big-M starting tree (the classic cold start)."""
        n, root = self.n, self.n
        big_m = self._big_m
        art0 = self._art0
        self.parent = [root] * (n + 1)
        self.parent_arc = list(range(art0, art0 + n)) + [-1]
        self.depth = [1] * n + [0]
        # child sets as insertion-ordered dicts: iteration follows
        # insertion order, but unlinking a child is O(1) instead of an
        # O(degree) list scan — the root and the region nodes of
        # transportation networks have hundreds of children
        self.children = [{} for _ in range(n)] + [dict.fromkeys(range(n))]
        self.parent[root] = -1
        bal = np.asarray(balance, dtype=np.float64)[:n]
        pos = bal >= 0.0
        self.state[:] = _LOWER
        self.state[art0:] = _TREE
        # tree arc v -> root (b >= 0) or root -> v (b < 0) carries |b|;
        # 0 = M - pi[v] + pi[root] resp. M - pi[root] + pi[v]
        self.flow = [0.0] * art0 + np.where(pos, bal, -bal).tolist()
        self.pi = np.where(pos, big_m, -big_m).tolist() + [0.0]
        self._pi_np = np.asarray(self.pi, dtype=np.float64)
        self._key_np = None

    def _try_warm_init(self, basis: NSBasis, balance) -> bool:
        """Install a previous basis and re-flow it for the new data.

        Non-destructive until the basis is fully validated: a spanning
        tree over all nodes, every tree arc connecting its child to its
        parent, and the recomputed flows within arc bounds.  Any
        failure leaves the caller to cold-start.
        """
        n, root = self.n, self.n
        m = self.tail.shape[0]
        n_nodes = n + 1
        if basis.n_nodes != n_nodes or basis.n_arcs != m:
            return False
        parent = np.asarray(basis.parent, dtype=np.int64)
        parent_arc = np.asarray(basis.parent_arc, dtype=np.int64)
        state = np.asarray(basis.state, dtype=np.int8)
        if parent.shape[0] != n_nodes or state.shape[0] != m:
            return False
        if parent[root] != -1:
            return False
        # vectorized structural validation: parent/arc ranges, tree
        # states, and every tree arc connecting its child to its parent
        v = np.arange(n_nodes, dtype=np.int64)
        mask = v != root
        p = parent[mask]
        a = parent_arc[mask]
        v = v[mask]
        if np.any((p < 0) | (p >= n_nodes) | (a < 0) | (a >= m)):
            return False
        if np.any(state[a] != _TREE):
            return False
        ta, ha = self.tail[a], self.head[a]
        if not np.all(((ta == v) & (ha == p)) | ((ta == p) & (ha == v))):
            return False
        if int(np.count_nonzero(state == _TREE)) != n_nodes - 1:
            return False

        plist = parent.tolist()
        parc = parent_arc.tolist()
        children: List[Dict[int, None]] = [{} for _ in range(n_nodes)]
        for node in range(n_nodes):
            if node != root:
                children[plist[node]][node] = None

        # reachability from the root doubles as the cycle check, and
        # fills depths/potentials in one traversal (per-node potential
        # recursion, the evaluation order _refresh_subtree uses too)
        depth = [0] * n_nodes
        pi = [0.0] * n_nodes
        tl = self._tail_list
        cl = self._cost_list
        seen = 1
        stack = [root]
        while stack:
            node = stack.pop()
            for c in children[node]:
                aid = parc[c]
                depth[c] = depth[node] + 1
                if tl[aid] == c:  # arc c -> node
                    pi[c] = pi[node] + cl[aid]
                else:  # arc node -> c
                    pi[c] = pi[node] - cl[aid]
                seen += 1
                stack.append(c)
        if seen != n_nodes:
            return False

        self.parent = plist
        self.parent_arc = parc
        self.children = children
        self.depth = depth
        self.pi = pi
        self._pi_np = np.asarray(pi, dtype=np.float64)
        self._key_np = None
        self.state[:] = state
        if self._recompute_flows(balance):
            return True
        # Typical after a capacity relaxation: arcs recorded at UPPER
        # re-flow at the new (larger) bound and overship.  Demote every
        # nonbasic arc to LOWER — the tree (and hence the duals) is
        # unchanged, and pivoting repairs the primal — before giving
        # up on the basis entirely (the caller cold-starts;
        # _cold_init resets all mutated state).
        self.state[self.state == _UPPER] = _LOWER
        if self._recompute_flows(balance):
            return True
        return False

    def _recompute_flows(self, balance) -> bool:
        """Derive all arc flows from (basis states, tree, balances).

        Nonbasic arcs sit at their bound (LOWER -> 0, UPPER -> cap);
        tree-arc flows follow by leaf-to-root elimination of node
        residuals in deterministic (depth desc, node id asc) order.
        Returns False when any derived flow violates its arc bounds by
        more than the scaled tolerance; violations within tolerance are
        clamped onto the bound.
        """
        n1 = self.n + 1
        eps = self.eps_flow
        state = self.state
        cap = self.cap
        tail = self.tail
        head = self.head
        resid = np.zeros(n1, dtype=np.float64)
        resid[: self.n] = np.asarray(balance, dtype=np.float64)[: self.n]

        at_upper = state == _UPPER
        if np.any(at_upper & ~np.isfinite(cap)):
            return False  # an uncapacitated arc cannot sit at UPPER
        flow_np = np.where(at_upper, cap, 0.0)
        carriers = np.nonzero(flow_np != 0.0)[0]
        if carriers.size:
            # interleave tail/head updates in arc order so np.add.at
            # accumulates every node residual arc by arc (float
            # addition is not associative; a reordered sum moves the
            # last bit of the tree flows derived below)
            idx = np.empty(2 * carriers.size, dtype=np.int64)
            idx[0::2] = tail[carriers]
            idx[1::2] = head[carriers]
            vals = np.empty(2 * carriers.size, dtype=np.float64)
            f = flow_np[carriers]
            vals[0::2] = -f
            vals[1::2] = f
            np.add.at(resid, idx, vals)

        depth = np.asarray(self.depth, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        parc = np.asarray(self.parent_arc, dtype=np.int64)
        # leaf-to-root elimination, one depth level at a time.  Within
        # a level no node is another's parent, and the stable sort
        # keeps node ids ascending: (depth desc, node id asc).
        order = np.argsort(-depth, kind="stable")
        cuts = np.nonzero(np.diff(depth[order]))[0] + 1
        for vs in np.split(order, cuts):
            if self.depth[int(vs[0])] == 0:
                continue  # the root level terminates the elimination
            a = parc[vs]
            r = resid[vs]
            f = np.where(tail[a] == vs, r, -r)
            if np.any((f < -eps) | (f > cap[a] + eps)):
                return False
            f = np.where(f < 0.0, 0.0, f)
            f = np.where(f > cap[a], cap[a], f)
            flow_np[a] = f
            np.add.at(resid, parent[vs], r)
        self.flow = flow_np.tolist()
        return True

    def export_basis(self) -> NSBasis:
        """Snapshot the current basis (a valid ``warm_basis`` for a
        later solve of the same topology)."""
        return NSBasis(
            list(self.parent),
            list(self.parent_arc),
            self.state.tolist(),
            self.n + 1,
            self.tail.shape[0],
        )

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def _rebuild_key(self) -> np.ndarray:
        # full-array pricing key: (cost - pi[tail] + pi[head]) signed
        # by state.  Built once per basis initialization; thereafter a
        # pivot invalidates only the keys of arcs incident to the
        # relabeled subtree plus the two arcs whose state changed, and
        # those are patched in place (same expression, same current pi
        # — identical bits to a rebuild).  Pricing then never gathers:
        # it is a slice + argmin over this cache.
        pi = self._pi_np
        rc = self.cost - pi[self.tail]
        rc += pi[self.head]
        rc *= _PRICE_SIGN[self.state]
        self._key_np = rc
        self._state_list = self.state.tolist()
        return rc

    def _find_entering(self, block: int, start: int) -> Optional[int]:
        """Block pricing: scan blocks of ``block`` arcs cyclically from
        ``start`` and return the most violated arc of the first block
        holding one (first minimum on ties), or None at optimality."""
        m = len(self._tail_list)
        eps = self.eps_cost
        key_np = self._key_np
        if key_np is None:
            key_np = self._rebuild_key()
        blocks = 0
        scanned = 0
        pos = start
        while scanned < m:
            rem = m - scanned
            upper = block if block < rem else rem
            end = pos + upper
            if end <= m:
                key = key_np[pos:end]
                j = int(key.argmin())
                best_key = float(key[j])
                best_arc = pos + j
                blocks += 1
            else:
                # the scan block wraps around the arc array: argmin
                # the two runs separately; a strict < on the second
                # keeps the first run's candidate on ties (scan order)
                k1 = key_np[pos:m]
                j = int(k1.argmin())
                best_key = float(k1[j])
                best_arc = pos + j
                k2 = key_np[: end - m]
                j = int(k2.argmin())
                k2j = float(k2[j])
                if k2j < best_key:
                    best_key = k2j
                    best_arc = j
                blocks += 2
            if best_key < -eps:
                self.stat_pricing_blocks += blocks
                self.stat_pricing_arcs += scanned + upper
                return best_arc
            scanned += upper
            pos = end % m
        self.stat_pricing_blocks += blocks
        self.stat_pricing_arcs += scanned
        return None

    def _find_entering_bland(self) -> Optional[int]:
        """Bland's rule: the smallest eligible arc id."""
        key_np = self._key_np
        if key_np is None:
            key_np = self._rebuild_key()
        idx = np.nonzero(key_np < -self.eps_cost)[0]
        return int(idx[0]) if idx.size else None

    # ------------------------------------------------------------------
    # pivoting
    # ------------------------------------------------------------------
    def _pivot(self, entering: int) -> float:
        """Execute one pivot; returns the flow change |delta| around
        the cycle (0.0 for a degenerate pivot).

        Pivot cycles are a handful of arcs, so the leaving-arc scan and
        flow update run on the list mirrors (numpy's fixed per-op
        overhead exceeds the whole scalar loop).  The cycle walk is
        fused in: arcs are folded in cycle order (entering arc, then
        the tree path from u, then the one from v, each walked upward
        to their common ancestor) — the order matters inside eps-tie
        chains — without materializing the cycle.
        """
        sl = self._state_list
        # orientation: push along the entering arc's direction when it
        # enters from LOWER, against it when from UPPER
        forward = sl[entering] == _LOWER
        tl = self._tail_list
        hl = self._head_list
        capl = self._cap_list
        flow = self.flow
        depth = self.depth
        parent = self.parent
        parc = self.parent_arc
        u = tl[entering] if forward else hl[entering]
        v = hl[entering] if forward else tl[entering]
        # The u-side fold runs inline during the walk — its start state
        # is known before the walk and flows are untouched until the
        # update below, so interleaved v-steps cannot perturb it.  Only
        # the v-path is materialized (its fold must start from the
        # u-fold's final state); the u-path is re-walked from the
        # parent pointers when a nonzero delta needs flow updates.
        eps = self.eps_flow
        delta = INF
        leaving = entering
        room = capl[entering] - flow[entering] if forward else flow[entering]
        if room < delta - eps:  # arc == leaving here, so no tie branch
            delta = room
        arcs_v: List[int] = []
        fwd_v: List[bool] = []
        av_app = arcs_v.append
        fv_app = fwd_v.append
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                arc = parc[a]
                room = (
                    capl[arc] - flow[arc] if hl[arc] == a else flow[arc]
                )
                if room < delta - eps or (
                    room <= delta + eps and arc < leaving
                ):
                    if room < delta:
                        delta = room
                    leaving = arc
                a = parent[a]
            else:
                arc = parc[b]
                av_app(arc)
                fv_app(tl[arc] == b)
                b = parent[b]
        join = a

        for arc, fwd in zip(arcs_v, fwd_v):
            room = capl[arc] - flow[arc] if fwd else flow[arc]
            if room < delta - eps or (room <= delta + eps and arc < leaving):
                if room < delta:
                    delta = room
                leaving = arc
        if delta == INF:
            raise SolverNumericsError(
                "network simplex: unbounded pivot cycle", solver="ns"
            )

        # apply the flow change around the cycle
        if delta > 0:
            if forward:
                flow[entering] += delta
            else:
                flow[entering] -= delta
            a = u
            while a != join:
                arc = parc[a]
                if hl[arc] == a:
                    flow[arc] += delta
                else:
                    flow[arc] -= delta
                a = parent[a]
            for arc, fwd in zip(arcs_v, fwd_v):
                if fwd:
                    flow[arc] += delta
                else:
                    flow[arc] -= delta

        if leaving == entering:
            # the entering arc saturates: toggle its bound state.  No
            # relabel, so patch its one pricing key here (sign flip of
            # the same reduced cost)
            ns = _UPPER if forward else _LOWER
            self.state[entering] = ns
            sl[entering] = ns
            pi = self.pi
            t, h = tl[entering], hl[entering]
            rc = (self._cost_list[entering] - pi[t]) + pi[h]
            self._key_np[entering] = rc if ns == _LOWER else -rc
            return delta

        # tree update: entering becomes a tree arc, leaving becomes
        # LOWER/UPPER depending on which bound it hit
        ls = _LOWER if flow[leaving] <= eps else _UPPER
        self.state[leaving] = ls
        sl[leaving] = ls
        self.state[entering] = _TREE
        sl[entering] = _TREE
        # a tree arc's key is pinned at +-0.0 (sign 0) and skipped by
        # the incremental patching, so zero it here once; the leaving
        # arc is incident to the relabeled subtree and is patched by
        # _refresh_subtree below
        self._key_np[entering] = 0.0

        # the leaving arc disconnects a subtree (rooted at its deeper
        # endpoint); the entering arc's endpoint inside it becomes its
        # new root, hung below the other endpoint
        lu, lv = tl[leaving], hl[leaving]
        sub_root = lu if self.depth[lu] > self.depth[lv] else lv
        inside = u if self._in_subtree(u, sub_root) else v
        self._detach(sub_root)
        self._reroot(inside, sub_root)
        outside = v if inside == u else u
        self.parent[inside] = outside
        self.parent_arc[inside] = entering
        self.children[outside][inside] = None
        self._refresh_subtree(inside)
        return delta

    # ------------------------------------------------------------------
    # tree surgery
    # ------------------------------------------------------------------
    def _in_subtree(self, node: int, sub_root: int) -> bool:
        a = node
        while a != -1:
            if a == sub_root:
                return True
            if self.depth[a] < self.depth[sub_root]:
                return False
            a = self.parent[a]
        return False

    def _detach(self, sub_root: int) -> None:
        p = self.parent[sub_root]
        if p != -1:
            del self.children[p][sub_root]
        self.parent[sub_root] = -1
        self.parent_arc[sub_root] = -1

    def _reroot(self, new_root: int, old_root: int) -> None:
        """Reverse parent pointers on the path new_root -> old_root."""
        path = [new_root]
        while path[-1] != old_root:
            path.append(self.parent[path[-1]])
        # capture the connecting arcs before any mutation: reversing a
        # pair overwrites parent_arc entries later pairs still need
        arcs = [self.parent_arc[path[i]] for i in range(len(path) - 1)]
        for i in range(len(path) - 1):
            child, parent = path[i], path[i + 1]
            # reverse: parent becomes child's child
            del self.children[parent][child]
            self.children[child][parent] = None
            self.parent[parent] = child
            self.parent_arc[parent] = arcs[i]
        self.parent[new_root] = -1
        self.parent_arc[new_root] = -1

    def _refresh_subtree(self, sub_root: int) -> None:
        """Recompute depth and potential for the reattached subtree.

        Level by level: every node of a BFS level shares one depth, and
        its potential pi[node] = pi[parent] +- cost[arc] depends only
        on the previous level — so a wide level (the thousands of leaf
        cells under a high-degree region node) is relabeled with one
        gather + np.where while narrow levels (chains) stay on the
        scalar loop.  Both paths evaluate the same float64 expression
        per node.  (A vectorized ``+= delta`` over the whole subtree
        would be cheaper but rounds differently.)
        """
        tl = self._tail_list
        cl = self._cost_list
        parent = self.parent
        parc = self.parent_arc
        depth = self.depth
        pi = self.pi
        pi_np = self._pi_np
        children = self.children
        starts = self._inc_start
        nodes = []
        touched = 0
        level = [sub_root]
        d = depth[parent[sub_root]] + 1
        while level:
            nodes.extend(level)
            nxt = []
            if len(level) >= _LEVEL_VECTOR_MIN:
                cnt = len(level)
                lv = np.fromiter(level, np.int64, cnt)
                arcs = np.fromiter((parc[v] for v in level), np.int64, cnt)
                ps = np.fromiter((parent[v] for v in level), np.int64, cnt)
                c = self.cost[arcs]
                pv = pi_np[ps]
                newpi = np.where(self.tail[arcs] == lv, pv + c, pv - c)
                pi_np[lv] = newpi
                starts_np = self._inc_start_np
                touched += int((starts_np[lv + 1] - starts_np[lv]).sum())
                for v, val in zip(level, newpi.tolist()):
                    pi[v] = val
                    depth[v] = d
                    cs = children[v]
                    if cs:
                        nxt.extend(cs)
            else:
                for v in level:
                    arc = parc[v]
                    p = parent[v]
                    if tl[arc] == v:  # arc v -> p
                        val = pi[p] + cl[arc]
                    else:  # arc p -> v
                        val = pi[p] - cl[arc]
                    pi[v] = val
                    pi_np[v] = val
                    depth[v] = d
                    touched += starts[v + 1] - starts[v]
                    nxt.extend(children[v])
            level = nxt
            d += 1
        # patch the pricing keys of every nonbasic arc incident to a
        # relabeled node.  Small touch sets (a few nodes, ~2m/n arcs
        # each) take the scalar loop — per-element python cost beats
        # numpy's fixed per-op overhead there.  Large ones (deep
        # subtrees, high-degree region nodes of the movebound
        # transportation networks) just drop the cache: the next
        # pricing call re-derives every key with one vectorized pass
        # over all m arcs, which costs less than patching hundreds of
        # keys one by one — and _rebuild_key is the definition the
        # scalar patch reproduces bit for bit anyway (LOWER: rc * 1.0
        # == rc, UPPER: rc * -1.0 == -rc, TREE keys pinned at +-0.0
        # and skipped).
        key = self._key_np
        if key is None:
            return
        if (
            touched >= _PATCH_INVALIDATE_MIN
            and touched * 24 >= len(self._tail_list)
        ):
            self._key_np = None
            return
        sl = self._state_list
        inc = self._inc
        hl = self._head_list
        for node in nodes:
            n_inc = starts[node + 1] - starts[node]
            if n_inc >= _PATCH_VECTOR_MIN:
                # wide node (root / region node): one gathered pass.
                # Same expression over the same float64 values as the
                # scalar loop below (pi_np mirrors pi bit for bit), so
                # the patched keys are identical either way.
                an = self._inc_arcs[starts[node] : starts[node + 1]]
                st = self.state[an]
                a2 = an[st != _TREE]
                rc = self.cost[a2] - pi_np[self.tail[a2]]
                rc += pi_np[self.head[a2]]
                key[a2] = np.where(self.state[a2] == _LOWER, rc, -rc)
                continue
            arcs = inc[node]
            if arcs is None:
                arcs = inc[node] = self._inc_arcs[
                    starts[node] : starts[node + 1]
                ].tolist()
            for a in arcs:
                s = sl[a]
                if s == _TREE:
                    continue
                rc = (cl[a] - pi[tl[a]]) + pi[hl[a]]
                key[a] = rc if s == _LOWER else -rc


def solve_network_simplex_arrays(
    supply: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    costs: np.ndarray,
    caps: np.ndarray,
    clock: Optional[BudgetClock] = None,
) -> Tuple[bool, float, np.ndarray, int]:
    """Solve a min-cost flow instance with the network simplex.

    Nodes are integers ``0..n-1`` with per-node balances ``supply``
    (positive = supply, negative = demand-as-capacity); arcs are the
    parallel arrays ``tails/heads/costs/caps``.

    ``clock`` is ticked once per pivot (budget enforcement).  Every
    solve starts from the all-artificial tree.  Returns
    ``(feasible, cost, flows_per_input_arc, pivots)``.
    """
    supply = np.ascontiguousarray(supply, dtype=np.float64)
    tails = np.ascontiguousarray(tails, dtype=np.int64)
    heads = np.ascontiguousarray(heads, dtype=np.int64)
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    n = supply.shape[0]
    s_node, t_node = n, n + 1
    n_orig = tails.shape[0]

    # super source/sink transform.  The extra arcs are appended in
    # *node order* with the s-arc/t-arc choice per node: arc ids fix
    # the pricing order, hence the pivot sequence, so this order is
    # part of the result.
    finite_supply = np.isfinite(supply)
    eps_supply = scale_eps(
        float(np.max(np.abs(supply[finite_supply]), initial=0.0))
    )
    pos = supply > eps_supply
    neg = supply < -eps_supply
    extra_nodes = np.nonzero(pos | neg)[0]
    node_pos = pos[extra_nodes]
    e_tails = np.where(node_pos, s_node, extra_nodes)
    e_heads = np.where(node_pos, extra_nodes, t_node)
    e_caps = np.where(node_pos, supply[extra_nodes], -supply[extra_nodes])
    full_tail = np.concatenate([tails, e_tails])
    full_head = np.concatenate([heads, e_heads])
    full_cost = np.concatenate([costs, np.zeros(extra_nodes.shape[0])])
    full_cap = np.concatenate([caps, e_caps])
    # sequential accumulation, not np.sum's pairwise one: the total is
    # the s/t balance every flow is derived from, and its last bit
    # decides degenerate ties downstream
    total = 0.0
    for b in supply[pos].tolist():
        total += b
    balance = np.zeros(n + 2, dtype=np.float64)
    balance[s_node] = total
    balance[t_node] = -total

    sx = NetworkSimplex(n + 2, full_tail, full_head, full_cost, full_cap)
    feasible = sx.solve(balance, clock=clock)

    if sx.degenerate_pivots:
        incr("ns.degenerate_pivots", sx.degenerate_pivots)
    if sx.stat_pricing_blocks:
        incr("kernel.pricing_blocks", sx.stat_pricing_blocks)
        incr("kernel.pricing_arcs", sx.stat_pricing_arcs)
    flows = np.array(sx.flow[:n_orig], dtype=np.float64)
    cost = float(np.dot(flows, costs))
    return feasible, cost, flows, sx.pivots
