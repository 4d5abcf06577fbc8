"""IR optimization passes and the traced-program executor.

:func:`optimize` takes the linear IR recorded by :mod:`repro.infer.trace`
and produces a :class:`TracedProgram` — a bound-once, replayed-many
execution schedule of generated kernels (:mod:`repro.infer.kernels` for
float plans, :mod:`repro.infer.intq.kernels` for int8 ones).  The same
passes run for both dtypes, in order:

1. **Flatten aliasing** — reshape nodes vanish; their outputs become views
   of the root value (this is lowering, not optimization, and always runs).
2. **Epilogue fusion** — a standalone elementwise node whose input has
   exactly one reader is absorbed into its producer's kernel as an
   epilogue, eliminating a full intermediate traversal per fused op.
   Legality: single reader, value not the program output, no alias in
   between, and :func:`_folds`: a float LeakyReLU/ActQuant into any kernel
   with an epilogue, an int8 LeakyReLU (``|slope| <= 1``) or rescale step
   into an int conv/linear.
3. **Dead-value elimination** — nodes whose outputs are never read (and
   aren't the program output) are dropped.
4. **Batch blocking** — every node kind except ``linear`` is
   per-sample independent (numpy's batched ``matmul`` runs one GEMM per
   sample, so splitting the batch is *bitwise invariant*); nodes before the
   first non-blockable one execute in cache-sized batch blocks so the whole
   working set of the conv trunk stays resident instead of streaming
   full-batch intermediates through memory once per op.
5. **Register allocation** — liveness-based slot reuse through
   :class:`repro.nn.arena.RegisterPlanner`, one planner per storage scope
   (per-block vs full-batch) and dtype.  Peak intermediate memory becomes
   the high-water mark of live values, not the sum of all of them.

A :class:`TracedProgram` is immutable; per-:class:`ExecutionContext` bound
state (flat registers, prebound views, the thunk list) is cached on the
context keyed by the program's ``uid``.  Nothing is ever invalidated: plans
are immutable too, and a weight refresh compiles a new plan whose programs
trace and bind afresh on their first batch (the old plan's bound states
are orphaned with it).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from math import prod

import numpy as np

from repro.infer import kernels
from repro.infer.intq import kernels as int_kernels
from repro.infer.intq.kernels import STEP_ARGS
from repro.nn.arena import RegisterPlanner
from repro.utils.profiler import active_profiler

__all__ = ["TracedProgram", "fused_steps", "optimize"]

#: Target bytes of per-block working set (activations + scratch) for batch
#: blocking; roughly "stay L2/L3-resident".  Tests shrink this to force
#: multi-block execution on unit-test-sized inputs.
_BLOCK_TARGET_BYTES = 4 << 20
#: Don't bother with blocks smaller than this (per-call overhead dominates).
_BLOCK_MIN = 8
#: Bound states kept per execution context (per distinct traced program).
_MAX_BOUND_STATES = 4

_FUSABLE_PRODUCERS = ("conv", "linear", "add", "maxpool", "avgpool", "gap", "eltwise")

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


def _folds(ir, node, producer) -> bool:
    """Whether the standalone eltwise ``node`` may become an epilogue step
    of ``producer``.  Float: a LeakyReLU or ActQuant, into any kernel with
    an epilogue.  int8: a LeakyReLU with ``|slope| <= 1`` or a rescale,
    into an int conv/linear only; a steeper LeakyReLU can leave its input's
    bound, and only its standalone narrowing store reproduces that."""
    if ir.intq:
        return (
            node.head[0] in STEP_ARGS
            and abs(node.op.slope) <= 1.0
            and producer.kind in ("conv", "linear")
        )
    return node.head[0] in ("lrelu", "aq") and producer.kind in _FUSABLE_PRODUCERS


def _fuse_epilogues(ir) -> int:
    """Absorb single-reader elementwise nodes into their producers."""
    fused = 0
    out_root = _resolve(ir.vals, ir.out_val)
    changed = True
    while changed:
        changed = False
        _recount_readers(ir.nodes, ir.vals)
        for node in ir.nodes:
            if node.kind != "eltwise":
                continue
            svid = node.srcs[0]
            sval = ir.vals[svid]
            # No fusing across an alias: the producer's kernel writes its own
            # output layout, and the reshaped value must stay a plain view.
            if sval.alias_of is not None:
                continue
            producer = sval.producer
            if producer is None or not _folds(ir, node, producer):
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


def fused_steps(intq) -> dict:
    """The steps :func:`_fuse_epilogues` folds into each int conv/linear of
    the int8 program ``intq``, by op index.  The fold depends only on the
    program's dataflow, so one batch-1 trace answers for every shape."""
    from repro.infer.trace import trace_plan

    ir = trace_plan(intq, (1,) + tuple(intq.input_chw))
    _alias_flatten(ir)
    _fuse_epilogues(ir)
    return {n.op.index: tuple(n.epilogue) for n in ir.nodes if n.kind in ("conv", "linear")}


# -- scratch planning ---------------------------------------------------------


def _node_scratch(ir, node, inplace: bool):
    """Scratch requests of ``node``'s generated kernel (bind order)."""
    op = node.op
    vals = ir.vals
    if ir.intq:
        return int_kernels.node_scratch(node, vals)
    if node.kind in ("conv", "linear"):
        impl = getattr(op, "impl", "dense")
        return kernels.producer_scratch(
            node.kind, op, vals[node.srcs[0]].shape, impl, node.epilogue
        )
    if node.kind == "eltwise":
        chain = [node.head] + node.epilogue
        return kernels.eltwise_scratch(chain, vals[node.dst].shape[1:], inplace)
    return kernels.epilogue_scratch(node.epilogue, vals[node.dst].shape[1:])


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

    __slots__ = ("input", "regs", "thunks", "names", "out", "checked")


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
        self.intq = ir.intq
        self.n = ir.input_shape[0]
        self.node_plans = node_plans
        self.val_reg = val_reg  # root val id -> (scope, dtype, register id)
        self.reg_sizes = reg_sizes  # (scope, dtype) -> [elems per register]
        self.zero_regs = zero_regs  # {(scope, dtype, register id)} zero-filled at bind
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
            scope, dtype, rid = self.val_reg[root]
            buf = state.regs[(scope, dtype)][rid]
            if scope == "block":
                nb = self.n if blk is None else blk[1] - blk[0]
                base = buf[: nb * prod(rv.shape[1:])].reshape((nb,) + rv.shape[1:])
            else:
                full = buf[: prod(rv.shape)].reshape(rv.shape)
                base = full if blk is None else full[blk[0] : blk[1]]
        if vid != root:  # alias: reshape the root's storage
            base = base.reshape((base.shape[0],) + vals[vid].shape[1:])
        return base

    def _bind_node(self, state: _BoundState, nplan: _NodePlan, blk, verdicts: dict):
        node = nplan.node
        nb = self.n if blk is None else blk[1] - blk[0]
        rows = nb if nplan.blocked else self.n
        scratch = {}
        for req, (scope, dtype, rid) in nplan.scratch:
            buf = state.regs[(scope, dtype)][rid]
            scratch[req.name] = buf[: rows * prod(req.tail)].reshape((rows,) + req.tail)
        kind, op = node.kind, node.op
        backend, rec = self._node_backend(node)
        srcs = [self._view(state, s, blk) for s in node.srcs]
        x = srcs[0]
        out = x if nplan.inplace else self._view(state, node.dst, blk)
        if self.intq:
            return int_kernels.bind_node(node, srcs, out, scratch, backend, rec, verdicts)
        dtype = self.vals[node.dst].dtype
        if kind in ("conv", "linear"):
            if kind == "conv":
                out = out.reshape(out.shape[0], out.shape[1], -1)
            return kernels.bind_producer(
                kind, op, x, out, scratch, op.impl, node.epilogue, dtype, backend, rec
            )
        if kind == "eltwise":
            return kernels.bind_eltwise(
                [node.head] + node.epilogue, x, out, scratch, dtype, backend, rec
            )
        if kind in ("maxpool", "avgpool"):
            return kernels.bind_pool(
                kind, op.kernel, op.stride, x, out, scratch, node.epilogue, dtype, backend, rec
            )
        if kind == "gap":
            return kernels.bind_gap(x, out, scratch, node.epilogue, dtype, backend, rec)
        return kernels.bind_add(x, srcs[1], out, scratch, node.epilogue, dtype, backend, rec)

    def _bind(self, verdicts: dict) -> _BoundState:
        state = _BoundState()
        state.input = np.empty(self.input_shape, self.vals[0].dtype)
        state.regs = {
            (scope, dtype): [
                np.empty(sz * (self.bmax if scope == "block" else 1), dtype) for sz in sizes
            ]
            for (scope, dtype), sizes in self.reg_sizes.items()
        }
        for scope, dtype, rid in self.zero_regs:
            state.regs[(scope, dtype)][rid].fill(0)
        thunks: list = []
        names: list[str] = []
        for blk in self.blocks:
            for nplan in self.node_plans:
                if nplan.blocked:
                    thunks.append(self._bind_node(state, nplan, blk, verdicts))
                    names.append(nplan.phase)
        for nplan in self.node_plans:
            if not nplan.blocked:
                thunks.append(self._bind_node(state, nplan, None, verdicts))
                names.append(nplan.phase)
        state.thunks = thunks
        state.names = names
        state.checked = False
        state.out = self._view(state, self.out_val, None)
        return state

    # -- execution -------------------------------------------------------------

    def run(self, x: np.ndarray, ctx) -> np.ndarray:
        """Execute one batch; returns a register view owned by ``ctx``."""
        cache = ctx._traced
        state = cache.get(self.uid)
        if state is None:
            state = self._bind(ctx.verdicts)
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
        if not state.checked:
            # Every native kernel has byte-checked itself and pinned a
            # callable by now; call that directly from here on.
            state.thunks = [getattr(fn, "pinned", None) or fn for fn in state.thunks]
            state.checked = True
        return state.out


# -- the optimizer ------------------------------------------------------------


def _scratch_dtype(req, node, vals) -> str:
    return str(np.dtype(req.dtype or vals[node.dst].dtype))


def _naive_bytes(ir) -> int:
    """Intermediate bytes the op-by-op interpreter holds for this program:
    one full-batch buffer per op output plus each op's private scratch
    (pad / im2col columns / plane partials / elementwise temporaries)."""
    n = ir.input_shape[0]
    total = 0
    for node in ir.nodes:
        if node.kind == "flatten":
            continue  # reshape view, no buffer
        dval = ir.vals[node.dst]
        total += prod(dval.shape) * dval.dtype.itemsize
        for req in _node_scratch(ir, node, inplace=True):
            total += n * prod(req.tail) * np.dtype(_scratch_dtype(req, node, ir.vals)).itemsize
    return total


def optimize(ir, plan) -> TracedProgram:
    """Run the IR passes and produce a bound-ready :class:`TracedProgram`."""
    naive = _naive_bytes(ir)
    aliased = _alias_flatten(ir)
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
    cut = next((t for t, node in enumerate(nodes) if node.kind == "linear"), len(nodes))

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

    # Liveness-driven register allocation: one planner per (scope, dtype),
    # so registers are only ever reused at their own element type.
    planners: dict[tuple, RegisterPlanner] = {}

    def planner(scope: str, dtype: str) -> RegisterPlanner:
        return planners.setdefault((scope, dtype), RegisterPlanner())

    val_reg: dict[int, tuple] = {}
    occupants: dict[tuple, set] = {}
    zero_regs: set = set()
    node_plans: list[_NodePlan] = []
    for t, node in enumerate(nodes):
        blocked = t < cut
        nscope = "block" if blocked else "full"
        src_roots = [_resolve(vals, s) for s in node.srcs]
        dst = node.dst
        dscope = scope_of[dst]
        dval = vals[dst]
        ddtype = str(dval.dtype)
        delems = prod(dval.shape[1:]) if dscope == "block" else prod(dval.shape)

        # In-place: a standalone elementwise op may overwrite its input when
        # that value dies here, shares nothing and has the output's scope
        # and dtype (mirrors `mark_inplace`).
        inplace = False
        if node.kind == "eltwise" and len(src_roots) == 1:
            r = src_roots[0]
            key = val_reg.get(r)
            if (
                key is not None
                and key[:2] == (dscope, ddtype)
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
            key = (dscope, ddtype, planner(dscope, ddtype).alloc(delems))
            val_reg[dst] = key
            occupants[key] = {dst}

        scratch_plan = []
        for req in _node_scratch(ir, node, inplace):
            elems = prod(req.tail) if nscope == "block" else n * prod(req.tail)
            sdtype = _scratch_dtype(req, node, vals)
            splanner = planner(nscope, sdtype)
            srid = splanner.alloc_dedicated(elems) if req.dedicated else splanner.alloc(elems)
            if req.zero:
                zero_regs.add((nscope, sdtype, srid))
            scratch_plan.append((req, (nscope, sdtype, srid)))
        for req, key in scratch_plan:
            if not req.dedicated:
                planners[key[:2]].free(key[2])
        for r in set(src_roots):
            if last_use.get(r) == t:
                key = val_reg.get(r)
                if key is not None:
                    held = occupants.get(key)
                    if held is not None:
                        held.discard(r)
                        if not held:
                            planners[key[:2]].free(key[2])
        node_plans.append(_NodePlan(node, blocked, inplace, scratch_plan, _phase_name(node)))

    def peak_bytes(scope: str) -> int:
        return sum(
            p.peak_elems() * np.dtype(dtype).itemsize
            for (pscope, dtype), p in planners.items()
            if pscope == scope
        )

    ps_bytes = peak_bytes("block")
    if cut == 0 or ps_bytes == 0 or ps_bytes * n <= _BLOCK_TARGET_BYTES:
        b = n
    else:
        b = max(min(_BLOCK_MIN, n), min(n, _BLOCK_TARGET_BYTES // ps_bytes))
    blocks = [(s, min(s + b, n)) for s in range(0, n, b)] or [(0, n)]

    peak = ps_bytes * b + peak_bytes("full") + prod(ir.input_shape) * vals[0].dtype.itemsize
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
        {key: p.sizes for key, p in planners.items()},
        zero_regs,
        blocks,
        stats,
        backend=plan.config.backend,
    )
