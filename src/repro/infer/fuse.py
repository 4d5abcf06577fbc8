"""IR optimization passes and the traced-program executor.

:func:`optimize` takes the linear IR recorded by :mod:`repro.infer.trace`
and produces a :class:`TracedProgram` — a bound-once, replayed-many
execution schedule of generated kernels (:mod:`repro.infer.kernels`).  The
passes, in order:

1. **Flatten aliasing** — reshape nodes vanish; their outputs become views
   of the root value (this is lowering, not optimization, and always runs).
2. **Epilogue fusion** (``PlanConfig.fuse``) — a standalone LeakyReLU or
   ActQuant whose input has exactly one reader is absorbed into its
   producer's kernel as an epilogue, eliminating a full intermediate
   traversal per fused op.  Legality: single reader, producer in the fused
   kernel library, value not the program output, no alias in between.
3. **Dead-value elimination** (``PlanConfig.fuse``) — nodes whose outputs
   are never read (and aren't the program output) are dropped.
4. **Batch blocking** — every node kind except ``linear``/``fallback`` is
   per-sample independent (numpy's batched ``matmul`` runs one GEMM per
   sample, so splitting the batch is *bitwise invariant*); nodes before the
   first non-blockable one execute in cache-sized batch blocks so the whole
   working set of the conv trunk stays resident instead of streaming
   full-batch intermediates through memory once per op.
5. **Register allocation** — liveness-based slot reuse through
   :class:`repro.nn.arena.RegisterPlanner`, one planner per storage scope
   (per-block vs full-batch).  Peak intermediate memory becomes the high-
   water mark of live values, not the sum of all of them.

A :class:`TracedProgram` is immutable; per-:class:`ExecutionContext` bound
state (flat registers, prebound views, the thunk list) is cached on the
context keyed by the program's ``uid``.  Invalidation rides the plan's
``WeightBinding`` fingerprint machinery: any refresh that touches weights
calls ``ExecutionPlan.invalidate_traced()``, dropping the programs (and
orphaning their bound states), so the next execution re-traces and re-binds
against the fresh arrays atomically.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from math import prod

import numpy as np

from repro.infer import kernels
from repro.nn.arena import RegisterPlanner
from repro.nn.tensor import Tensor, no_grad
from repro.utils.profiler import active_profiler

__all__ = ["TracedProgram", "optimize"]

#: Target bytes of per-block working set (activations + scratch) for batch
#: blocking; roughly "stay L2/L3-resident".  Tests shrink this to force
#: multi-block execution on unit-test-sized inputs.
_BLOCK_TARGET_BYTES = 4 << 20
#: Don't bother with blocks smaller than this (per-call overhead dominates).
_BLOCK_MIN = 8
#: Bound states kept per execution context (per distinct traced program).
_MAX_BOUND_STATES = 4

_FUSABLE_PRODUCERS = ("conv", "linear", "add", "maxpool", "avgpool", "gap", "eltwise")
_UNBLOCKABLE = ("linear", "fallback")

_uid_counter = itertools.count(1)
_uid_lock = threading.Lock()


def _next_uid() -> int:
    with _uid_lock:
        return next(_uid_counter)


# -- IR passes ----------------------------------------------------------------


def _resolve(vals, vid: int) -> int:
    while vals[vid].alias_of is not None:
        vid = vals[vid].alias_of
    return vid


def _recount_readers(nodes, vals) -> None:
    for v in vals:
        v.readers = []
    for node in nodes:
        for s in node.srcs:
            vals[_resolve(vals, s)].readers.append(node)


def _alias_flatten(ir) -> int:
    """Turn flatten nodes into storage aliases of their inputs."""
    kept, removed = [], 0
    for node in ir.nodes:
        if node.kind == "flatten":
            ir.vals[node.dst].alias_of = _resolve(ir.vals, node.srcs[0])
            ir.vals[node.dst].producer = None
            removed += 1
        else:
            kept.append(node)
    ir.nodes = kept
    return removed


def _fuse_epilogues(ir) -> int:
    """Absorb single-reader LeakyReLU/ActQuant nodes into their producers."""
    fused = 0
    out_root = _resolve(ir.vals, ir.out_val)
    changed = True
    while changed:
        changed = False
        _recount_readers(ir.nodes, ir.vals)
        for node in ir.nodes:
            if node.kind != "eltwise" or node.head[0] not in ("lrelu", "aq"):
                continue
            svid = node.srcs[0]
            sval = ir.vals[svid]
            # No fusing across an alias: the producer's kernel writes its own
            # output layout, and the reshaped value must stay a plain view.
            if sval.alias_of is not None:
                continue
            producer = sval.producer
            if producer is None or producer.kind not in _FUSABLE_PRODUCERS:
                continue
            if svid == out_root or sval.readers != [node]:
                continue
            producer.epilogue = producer.epilogue + [node.head] + node.epilogue
            producer.dst = node.dst
            ir.vals[node.dst].producer = producer
            ir.nodes.remove(node)
            fused += 1
            changed = True
            break  # reader lists are stale; restart the scan
    return fused


def _eliminate_dead(ir) -> int:
    """Drop nodes whose outputs nothing reads (all node kinds are pure)."""
    removed = 0
    out_root = _resolve(ir.vals, ir.out_val)
    changed = True
    while changed:
        changed = False
        _recount_readers(ir.nodes, ir.vals)
        for node in list(ir.nodes):
            droot = _resolve(ir.vals, node.dst)
            if droot != out_root and not ir.vals[droot].readers:
                ir.nodes.remove(node)
                removed += 1
                changed = True
    return removed


# -- scratch planning ---------------------------------------------------------


def _node_scratch(node, vals, inplace: bool):
    """Scratch requests of ``node``'s generated kernel (bind order)."""
    op = node.op
    if node.kind in ("conv", "linear"):
        impl = getattr(op, "impl", "dense")
        return kernels.producer_scratch(
            node.kind, op, vals[node.srcs[0]].shape, impl, node.epilogue
        )
    if node.kind == "eltwise":
        chain = [node.head] + node.epilogue
        return kernels.eltwise_scratch(chain, vals[node.dst].shape[1:], inplace)
    if node.kind in ("maxpool", "avgpool", "gap", "add"):
        return kernels.epilogue_scratch(node.epilogue, vals[node.dst].shape[1:])
    return []  # fallback: the module allocates its own intermediates


def _phase_name(node) -> str:
    if node.kind in ("conv", "linear"):
        base = f"{node.kind}[{getattr(node.op, 'impl', 'dense')}]"
    elif node.kind == "eltwise":
        base = node.head[0]
    else:
        base = node.kind
    return f"ir{node.index}:" + "+".join([base] + [step[0] for step in node.epilogue])


@dataclass
class _NodePlan:
    """Schedule entry: one IR node plus its placement decisions."""

    node: object
    blocked: bool
    inplace: bool
    scratch: list  # [(ScratchReq, register id)] in the node's scope
    phase: str


# -- the compiled program -----------------------------------------------------


class _BoundState:
    """Per-context realization of a program: registers + prebound thunks."""

    __slots__ = ("input", "regs", "thunks", "names", "out")


class TracedProgram:
    """An optimized, shape-specialized execution schedule for one plan.

    Immutable once built.  ``run`` binds lazily per execution context (flat
    registers are allocated and every kernel's views/constants resolved
    exactly once per context), then replays the thunk list per batch.  The
    output array is a register view owned by the context — same ownership
    contract as the interpreter path.
    """

    def __init__(
        self,
        ir,
        node_plans: list,
        val_reg: dict,
        reg_sizes: dict,
        zero_regs: set,
        blocks: list,
        stats: dict,
        backend: str = "numpy",
    ) -> None:
        self.uid = _next_uid()
        self.vals = ir.vals
        self.out_val = ir.out_val
        self.input_shape = ir.input_shape
        self.n = ir.input_shape[0]
        self.dtype = np.dtype(ir.dtype)
        self.node_plans = node_plans
        self.val_reg = val_reg  # root val id -> (scope, register id)
        self.reg_sizes = reg_sizes  # scope -> [elems per register]
        self.zero_regs = zero_regs  # {(scope, register id)} zero-filled at bind
        self.blocks = blocks  # [(start, end)] batch blocks
        self.bmax = max(e - s for s, e in blocks)
        self.stats = stats
        #: Plan-level backend policy ("auto" | "numpy") and the per-node
        #: outcome records (filled at bind/first-run time by
        #: :mod:`repro.infer.kernels` / the native binding's self-check).
        self.backend = backend
        self.node_backends: dict[int, dict] = {}

    def _node_backend(self, node) -> tuple[str, dict]:
        """(effective backend for this node's bind, its outcome record).

        ``"numpy"`` binds the numpy codegen; ``"auto"`` tries the native
        backend — it declines or self-demotes per kernel, so trying is
        always safe.
        """
        rec = self.node_backends.setdefault(
            node.index, {"kind": node.kind, "impl": getattr(node.op, "impl", "")}
        )
        return ("numpy" if self.backend == "numpy" else "native"), rec

    def backend_counts(self) -> dict:
        """``{"native": n, "numpy": m}`` over nodes bound so far."""
        counts: dict[str, int] = {}
        for rec in self.node_backends.values():
            chosen = rec.get("backend")
            if chosen:
                counts[chosen] = counts.get(chosen, 0) + 1
        return counts

    # -- binding ---------------------------------------------------------------

    def _view(self, state: _BoundState, vid: int, blk):
        """A typed view of value ``vid`` for one batch block (or full batch)."""
        vals = self.vals
        root = _resolve(vals, vid)
        rv = vals[root]
        if rv.producer is None:  # the program input
            base = state.input if blk is None else state.input[blk[0] : blk[1]]
        else:
            scope, rid = self.val_reg[root]
            buf = state.regs[scope][rid]
            if scope == "block":
                nb = self.n if blk is None else blk[1] - blk[0]
                base = buf[: nb * prod(rv.shape[1:])].reshape((nb,) + rv.shape[1:])
            else:
                full = buf[: prod(rv.shape)].reshape(rv.shape)
                base = full if blk is None else full[blk[0] : blk[1]]
        if vid != root:  # alias: reshape the root's storage
            base = base.reshape((base.shape[0],) + vals[vid].shape[1:])
        return base

    def _bind_node(self, state: _BoundState, nplan: _NodePlan, blk):
        node = nplan.node
        nb = self.n if blk is None else blk[1] - blk[0]
        scope = "block" if nplan.blocked else "full"
        scratch = {}
        for req, rid in nplan.scratch:
            rows = nb if scope == "block" else self.n
            buf = state.regs[scope][rid]
            scratch[req.name] = buf[: rows * prod(req.tail)].reshape((rows,) + req.tail)
        kind, op = node.kind, node.op
        backend, rec = self._node_backend(node)
        if kind == "conv":
            x = self._view(state, node.srcs[0], blk)
            dstv = self._view(state, node.dst, blk)
            out3 = dstv.reshape(dstv.shape[0], dstv.shape[1], -1)
            return kernels.bind_producer(
                "conv", op, x, out3, scratch, op.impl, node.epilogue, self.dtype, backend, rec
            )
        if kind == "linear":
            x = self._view(state, node.srcs[0], blk)
            out = self._view(state, node.dst, blk)
            return kernels.bind_producer(
                "linear", op, x, out, scratch, op.impl, node.epilogue, self.dtype, backend, rec
            )
        if kind == "eltwise":
            x = self._view(state, node.srcs[0], blk)
            out = x if nplan.inplace else self._view(state, node.dst, blk)
            return kernels.bind_eltwise(
                [node.head] + node.epilogue, x, out, scratch, self.dtype, backend, rec
            )
        if kind in ("maxpool", "avgpool"):
            x = self._view(state, node.srcs[0], blk)
            out = self._view(state, node.dst, blk)
            return kernels.bind_pool(
                kind, op.kernel, op.stride, x, out, scratch, node.epilogue, self.dtype,
                backend, rec,
            )
        if kind == "gap":
            x = self._view(state, node.srcs[0], blk)
            out = self._view(state, node.dst, blk)
            return kernels.bind_gap(x, out, scratch, node.epilogue, self.dtype, backend, rec)
        if kind == "add":
            a = self._view(state, node.srcs[0], blk)
            b = self._view(state, node.srcs[1], blk)
            out = self._view(state, node.dst, blk)
            return kernels.bind_add(a, b, out, scratch, node.epilogue, self.dtype, backend, rec)
        # fallback: eager module forward, copied into the destination register
        rec.setdefault("backend", "numpy")
        x = self._view(state, node.srcs[0], blk)
        out = self._view(state, node.dst, blk)
        module = op.module

        def fallback():
            with no_grad():
                out[...] = module(Tensor(x)).data

        return fallback

    def _bind(self) -> _BoundState:
        state = _BoundState()
        state.input = np.empty(self.input_shape, self.dtype)
        state.regs = {
            "block": [np.empty(sz * self.bmax, self.dtype) for sz in self.reg_sizes["block"]],
            "full": [np.empty(sz, self.dtype) for sz in self.reg_sizes["full"]],
        }
        for scope, rid in self.zero_regs:
            state.regs[scope][rid].fill(0.0)
        thunks: list = []
        names: list[str] = []
        for blk in self.blocks:
            for nplan in self.node_plans:
                if nplan.blocked:
                    thunks.append(self._bind_node(state, nplan, blk))
                    names.append(nplan.phase)
        for nplan in self.node_plans:
            if not nplan.blocked:
                thunks.append(self._bind_node(state, nplan, None))
                names.append(nplan.phase)
        state.thunks = thunks
        state.names = names
        state.out = self._view(state, self.out_val, None)
        return state

    # -- execution -------------------------------------------------------------

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        """Execute one batch; returns a register view owned by ``ctx``."""
        cache = getattr(ctx, "_traced", None)
        if cache is None:
            cache = {}
            ctx._traced = cache
        state = cache.get(self.uid)
        if state is None:
            state = self._bind()
            cache[self.uid] = state
            while len(cache) > _MAX_BOUND_STATES:
                cache.pop(next(iter(cache)))
        np.copyto(state.input, x, casting="unsafe")
        prof = active_profiler()
        if prof is None:
            for fn in state.thunks:
                fn()
        else:
            for name, fn in zip(state.names, state.thunks):
                with prof.phase(name):
                    fn()
        return state.out


# -- the optimizer ------------------------------------------------------------


def _naive_bytes(ir) -> int:
    """Intermediate bytes the op-by-op interpreter holds for this program:
    one full-batch buffer per op output plus each op's private scratch
    (pad / im2col columns / plane partials / elementwise temporaries)."""
    n = ir.input_shape[0]
    itemsize = np.dtype(ir.dtype).itemsize
    elems = 0
    for node in ir.nodes:
        if node.kind == "flatten":
            continue  # reshape view, no buffer
        elems += prod(ir.vals[node.dst].shape)
        for req in _node_scratch(node, ir.vals, inplace=True):
            elems += n * prod(req.tail)
    return elems * itemsize


def optimize(ir, plan) -> TracedProgram:
    """Run the IR passes and produce a bound-ready :class:`TracedProgram`."""
    fuse_enabled = bool(getattr(plan.config, "fuse", True))
    naive = _naive_bytes(ir)
    aliased = _alias_flatten(ir)
    fused = dead = 0
    if fuse_enabled:
        fused = _fuse_epilogues(ir)
        dead = _eliminate_dead(ir)
    nodes = ir.nodes
    vals = ir.vals
    _recount_readers(nodes, vals)
    pos = {id(node): t for t, node in enumerate(nodes)}
    out_root = _resolve(vals, ir.out_val)
    n = ir.input_shape[0]

    # Batch-blocking cut: everything before the first non-per-sample node
    # runs in batch blocks, everything from it on runs full-batch.
    cut = len(nodes)
    if fuse_enabled:
        for t, node in enumerate(nodes):
            if node.kind in _UNBLOCKABLE:
                cut = t
                break
    else:
        cut = 0

    # Storage scopes: a value lives per-block iff it is produced and fully
    # consumed inside the blocked region and is not the program output.
    scope_of: dict[int, str] = {}
    for node in nodes:
        for vid in node.srcs + (node.dst,):
            root = _resolve(vals, vid)
            if root in scope_of:
                continue
            rv = vals[root]
            if rv.producer is None:
                scope_of[root] = "input"
                continue
            t_prod = pos[id(rv.producer)]
            reader_ts = [pos[id(r)] for r in rv.readers]
            if root != out_root and t_prod < cut and all(t < cut for t in reader_ts):
                scope_of[root] = "block"
            else:
                scope_of[root] = "full"

    last_use: dict[int, int] = {}
    for t, node in enumerate(nodes):
        for s in node.srcs:
            last_use[_resolve(vals, s)] = t
    last_use[out_root] = len(nodes)  # the output outlives the program

    # Liveness-driven register allocation (reuse only when fusing).
    planners = {"block": RegisterPlanner(), "full": RegisterPlanner()}
    val_reg: dict[int, tuple] = {}
    occupants: dict[tuple, set] = {}
    zero_regs: set = set()
    node_plans: list[_NodePlan] = []
    for t, node in enumerate(nodes):
        blocked = t < cut
        nscope = "block" if blocked else "full"
        planner = planners[nscope]
        src_roots = [_resolve(vals, s) for s in node.srcs]
        dst = node.dst
        dscope = scope_of[dst]
        dval = vals[dst]
        delems = prod(dval.shape[1:]) if dscope == "block" else prod(dval.shape)

        # In-place: a standalone elementwise op may overwrite its input when
        # that value dies here and shares nothing (mirrors `mark_inplace`).
        inplace = False
        if fuse_enabled and node.kind == "eltwise" and len(src_roots) == 1:
            r = src_roots[0]
            key = val_reg.get(r)
            if (
                key is not None
                and scope_of[r] == dscope
                and last_use.get(r) == t
                and occupants.get(key) == {r}
            ):
                inplace = True
                val_reg[dst] = key
                occupants[key] = {dst}
        if not inplace:
            # Destination first, sources freed last: a kernel's output can
            # never be handed the register one of its own inputs lives in.
            # A boundary value (produced blocked, read full-batch) allocates
            # from the *full* planner — its own scope, not the node's.
            dplanner = planners[dscope]
            rid = dplanner.alloc(delems) if fuse_enabled else dplanner.alloc_dedicated(delems)
            val_reg[dst] = (dscope, rid)
            occupants[(dscope, rid)] = {dst}

        scratch_plan = []
        for req in _node_scratch(node, vals, inplace):
            elems = prod(req.tail) if nscope == "block" else n * prod(req.tail)
            if req.dedicated or not fuse_enabled:
                srid = planner.alloc_dedicated(elems)
            else:
                srid = planner.alloc(elems)
            if req.zero:
                zero_regs.add((nscope, srid))
            scratch_plan.append((req, srid))
        for req, srid in scratch_plan:
            if not req.dedicated and fuse_enabled:
                planner.free(srid)
        for r in set(src_roots):
            if last_use.get(r) == t:
                key = val_reg.get(r)
                if key is not None:
                    held = occupants.get(key)
                    if held is not None:
                        held.discard(r)
                        if not held and fuse_enabled:
                            planners[key[0]].free(key[1])
        node_plans.append(_NodePlan(node, blocked, inplace, scratch_plan, _phase_name(node)))

    itemsize = np.dtype(ir.dtype).itemsize
    ps_bytes = planners["block"].peak_elems() * itemsize
    if cut == 0 or ps_bytes == 0 or ps_bytes * n <= _BLOCK_TARGET_BYTES:
        b = n
    else:
        b = max(min(_BLOCK_MIN, n), min(n, _BLOCK_TARGET_BYTES // ps_bytes))
    blocks = [(s, min(s + b, n)) for s in range(0, n, b)] or [(0, n)]

    peak = (
        planners["block"].peak_elems() * b * itemsize
        + planners["full"].peak_elems() * itemsize
        + prod(ir.input_shape) * itemsize
    )
    stats = {
        "input_shape": list(ir.input_shape),
        "nodes": len(nodes),
        "fused_elementwise": fused,
        "eliminated_buffers": aliased + dead,
        "block_size": int(b),
        "blocks": len(blocks),
        "blocked_nodes": int(cut),
        "naive_intermediate_bytes": int(naive),
        "peak_intermediate_bytes": int(peak),
    }
    return TracedProgram(
        ir,
        node_plans,
        val_reg,
        {"block": planners["block"].sizes, "full": planners["full"].sizes},
        zero_regs,
        blocks,
        stats,
        backend=plan.config.backend,
    )
