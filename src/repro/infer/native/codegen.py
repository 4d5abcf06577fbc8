"""C source emission for the native kernel backend.

Every generated translation unit exports one entry point with a uniform
ABI::

    void run(void **ptrs, long long *dims, double *scalars);

Shapes, strides-free geometry and presence flags (bias? dead-map? padded?)
travel through ``dims`` at *runtime*; the C text varies only with the
**structural signature** — op kind, epilogue-op structure, the BLAS
integer width and the integer element type.  A whole model therefore
compiles a couple dozen distinct sources (each ~150 ms cold, disk-cached
afterwards), not one per layer shape.

Bitwise-parity ground rules (each was probed against numpy on real data
before this backend was committed):

* float64 GEMMs call the exact OpenBLAS entry points numpy's ``matmul``
  loop calls, replicating its per-shape dispatch (``mm()`` below): gemm
  for m>1 and n>1, ddot for 1x1, gemv NoTrans/Trans for the vector cases.
  A hand-written C GEMM would *not* be bitwise-equal (different blocking
  and FMA use), which is why the BLAS addresses ride in ``ptrs[0..2]``.
* per-element epilogues replay numpy ufunc semantics exactly:
  ``NPMAX``/``NPMIN`` propagate NaN like ``np.maximum``/``np.minimum``,
  ``rint()`` is round-half-to-even like ``np.rint``, and optional adds
  (bias, dead-map) are branch-guarded — unconditionally adding ``0.0``
  would flip ``-0.0`` outputs to ``+0.0``.
* compiled with ``-ffp-contract=off`` (see toolchain) so no FMA
  contraction reorders the epilogue arithmetic.
* integer kernels are bitwise by integer exactness: every accumulator
  value is an exact integer below the layer's static bound, so any
  summation order reproduces the numpy result digit for digit.  That
  includes the float32 ``sgemm`` chosen for layers whose bound is below
  2^24 (every product and partial sum is then an integer float32 holds
  exactly); C integer loops run above it.  ``>>`` on gcc/clang is the
  same arithmetic shift as ``np.right_shift``.
"""

from __future__ import annotations

from repro.infer.intq.kernels import STEP_ARGS

__all__ = [
    "epilogue_struct",
    "epilogue_scalars",
    "conv_source",
    "linear_source",
    "pool_source",
    "gap_source",
    "add_source",
    "eltwise_source",
    "int_conv_source",
    "int_linear_source",
    "int_epilogue",
]


# -- epilogue helpers ---------------------------------------------------------


def epilogue_struct(sig) -> tuple | None:
    """Structural op list of a numpy epilogue signature; None if any step
    has no native equivalent (e.g. the per-channel affine head)."""
    out = []
    for step in sig:
        if step[0] == "lrelu":
            out.append("lrelu0" if step[1] == "0.0" else "lrelu")
        elif step[0] == "aq":
            out.append("aq")
        else:
            return None
    return tuple(out)


def epilogue_scalars(sig) -> list[float]:
    """Runtime scalar slots of a signature, in emission order.

    The signature carries ``repr``'d float64 literals (that is what the
    numpy codegen inlines); ``float()`` round-trips them exactly, so the
    C kernel sees bit-identical constants.
    """
    vals: list[float] = []
    for step in sig:
        if step[0] == "lrelu":
            if step[1] != "0.0":
                vals.append(float(step[1]))
        elif step[0] == "aq":
            vals.extend(float(s) for s in step[1:])
    return vals


def _emit_epilogue(struct: tuple, base: int) -> list[str]:
    """C statements applying the epilogue chain to ``v`` (scalar slots are
    baked as literal indices — part of the structural signature)."""
    lines: list[str] = []
    si = base
    for kind in struct:
        if kind == "lrelu0":
            lines.append("v = NPMAX(v, 0.0);")
        elif kind == "lrelu":
            lines.append(f"t = v * scalars[{si}]; v = NPMAX(v, t);")
            si += 1
        else:  # aq: *= 1/step; rint; clip[lo, hi]; *= step
            lines.append(f"v *= scalars[{si}]; v = rint(v);")
            lines.append(f"v = NPMIN(NPMAX(v, scalars[{si + 1}]), scalars[{si + 2}]);")
            lines.append(f"v *= scalars[{si + 3}];")
            si += 4
    return lines


# -- shared prelude -----------------------------------------------------------


def _prelude(blas: bool, ilp64: bool = True) -> str:
    head = [
        "#include <math.h>",
        "#include <string.h>",
        "#include <stdint.h>",
        "typedef long long i64;",
        "#define NPMAX(a,b) (((a)>(b)||(a)!=(a))?(a):(b))",
        "#define NPMIN(a,b) (((a)<(b)||(a)!=(a))?(a):(b))",
    ]
    if blas:
        head += [
            f"typedef {'long long' if ilp64 else 'int'} blasint;",
            # CBLAS order/transpose enums stay 32-bit ints even under ILP64.
            "typedef void (*gemm_t)(int,int,int,blasint,blasint,blasint,double,"
            "const double*,blasint,const double*,blasint,double,double*,blasint);",
            "typedef void (*gemv_t)(int,int,blasint,blasint,double,const double*,"
            "blasint,const double*,blasint,double,double*,blasint);",
            "typedef double (*dot_t)(blasint,const double*,blasint,const double*,blasint);",
            # np.matmul's float64 per-shape dispatch, replicated: the gemm
            # kernel is NOT bitwise-equal to the gemv/dot ones on degenerate
            # shapes, so the branch structure matters as much as the lib.
            "static void mm(void *gemm, void *gemv, void *dot, i64 m, i64 k, i64 n,",
            "               const double *A, const double *B, double *C) {",
            "    if (m > 1 && n > 1) {",
            "        ((gemm_t)gemm)(101, 111, 111, (blasint)m, (blasint)n, (blasint)k,",
            "                       1.0, A, (blasint)k, B, (blasint)n, 0.0, C, (blasint)n);",
            "    } else if (m == 1 && n == 1) {",
            "        C[0] = ((dot_t)dot)((blasint)k, A, 1, B, 1);",
            "    } else if (n == 1) {",
            "        ((gemv_t)gemv)(101, 111, (blasint)m, (blasint)k, 1.0, A, (blasint)k,",
            "                       B, 1, 0.0, C, 1);",
            "    } else {",
            "        ((gemv_t)gemv)(101, 112, (blasint)k, (blasint)n, 1.0, B, (blasint)n,",
            "                       A, 1, 0.0, C, 1);",
            "    }",
            "}",
        ]
    return "\n".join(head) + "\n"


def _fn(body: list[str]) -> str:
    inner = "\n".join("    " + ln if ln else "" for ln in body)
    return f"void run(void **ptrs, long long *dims, double *scalars) {{\n{inner}\n}}\n"


def _dims_decl(slots: list, consts: dict) -> list[str]:
    """Declarations for the dims-array names.  Any name present in
    ``consts`` is emitted as a compile-time constant instead of a runtime
    ``dims[]`` read — constant trip counts let the compiler emit
    straight-line copies and unrolled epilogues (worth ~15% on a batch-1
    conv).  Only spec-derivable dims may be baked: the in-process kernel
    cache keys native functions by spec, so a baked value the spec does
    not pin (the batch dimension) would leak across bindings.
    """
    out = []
    for name, slot in slots:
        if name in consts:
            out.append(f"const i64 {name} = {int(consts[name])}; (void)dims[{slot}];")
        else:
            out.append(f"i64 {name} = dims[{slot}];")
    return out


# -- float64 producer kernels (conv / linear) ---------------------------------

# conv ptr slots: 0 gemm 1 gemv 2 dot 3 x 4 pad 5 cols 6 bias 7 dead 8 out,
#   shift planes append 5 slots each at 9+5j: w idx sel part rows
#   (dense uses slot 9 for the single weight matrix).
# conv dims: 0 nb 1 C 2 H 3 W 4 K 5 S 6 P 7 F 8 CKK 9 L 10 OH 11 OW
#   12 haspad 13 onebyone 14 hb 15 hd 16 nplanes, planes append 4 at 17+4j:
#   rows_j kk_j has_sel_j has_rows_j

# Row copies are plain loops, not memcpy: rows here are a few dozen doubles
# and the ~C*K*K*OH call overhead of tiny memcpys dominates the actual copy
# (the compiler vectorizes the loops to the same wide moves, inline).
def _conv_im2col(
    haspad: bool,
    onebyone: bool,
    xt: str = "double",
    ct: str = "double",
    per_sample: bool = False,
) -> list[str]:
    """im2col statements specialized on the op's structural flags (the
    flags live in the kernel spec, so each combination is its own cached
    source — no runtime branches survive into the copy loops).

    ``xt`` is the element type of the input ``xs`` and ``ct`` that of the
    ``pad``/``cols`` buffers; the pad copy converts one to the other.  The
    float kernels keep whole-batch buffers; ``per_sample`` points both at
    one sample's worth, reused for every ``n`` (the integer kernels).
    """
    if onebyone:
        return [f"const {ct} *src = xs;"]
    out = [f"const {ct} *base; i64 BH, BW;"]
    if haspad:
        out += [
            f"{ct} *pd = {'pad' if per_sample else 'pad + n * C * HP * WP'};",
            "for (i64 c = 0; c < C; c++)",
            "    for (i64 i = 0; i < H; i++) {",
            f"        {ct} *pr = pd + (c * HP + i + P) * WP + P;",
            f"        const {xt} *xr = xs + (c * H + i) * W;",
            "        for (i64 j = 0; j < W; j++) pr[j] = xr[j];",
            "    }",
            "base = pd; BH = HP; BW = WP;",
        ]
    else:
        out += ["base = xs; BH = H; BW = W;"]
    out += [
        f"{ct} *cl = {'cols' if per_sample else 'cols + n * CKK * L'};",
        "for (i64 c = 0; c < C; c++)",
        " for (i64 ki = 0; ki < K; ki++)",
        "  for (i64 kj = 0; kj < K; kj++) {",
        f"    {ct} *dst = cl + ((c * K + ki) * K + kj) * L;",
        f"    const {ct} *sr = base + (c * BH + ki) * BW + kj;",
        "    if (S == 1) {",
        "        for (i64 oi = 0; oi < OH; oi++) {",
        f"            const {ct} *r = sr + oi * BW;",
        f"            {ct} *d = dst + oi * OW;",
        "            for (i64 oj = 0; oj < OW; oj++) d[oj] = r[oj];",
        "        }",
        "    } else {",
        "        for (i64 oi = 0; oi < OH; oi++) {",
        f"            const {ct} *r = sr + oi * S * BW;",
        "            for (i64 oj = 0; oj < OW; oj++) dst[oi * OW + oj] = r[oj * S];",
        "        }",
        "    }",
        "  }",
        f"const {ct} *src = cl;",
    ]
    return out


def conv_source(
    impl: str,
    epi: tuple,
    ilp64: bool,
    haspad: bool = True,
    onebyone: bool = False,
    hb: bool = True,
    hd: bool = True,
    consts: dict | None = None,
) -> str:
    """conv producer: im2col + per-sample GEMM (dense) or shift-plane
    accumulate, then the bias/dead adds and the fused epilogue.

    ``haspad``/``onebyone``/``hb``/``hd`` are structural facts already in
    the kernel spec (padding geometry, the ``bias``/``dead`` flags), so
    they are baked into the source: the epilogue loop body is branch-free
    and vectorizes.  A guarded ``v += hb ? bias[f] : 0.0`` would NOT be
    equivalent — adding literal ``+0.0`` flips a ``-0.0`` output.
    ``consts`` bakes spec-derivable dims (everything but the batch) as
    compile-time constants; see :func:`_dims_decl`.
    """
    body = [
        "void *gemm = ptrs[0], *gemv = ptrs[1], *dot = ptrs[2];",
        "const double *x = (const double *)ptrs[3];",
        "double *pad = (double *)ptrs[4];",
        "double *cols = (double *)ptrs[5];",
        "const double *bias = (const double *)ptrs[6];",
        "const double *dead = (const double *)ptrs[7];",
        "double *out = (double *)ptrs[8];",
    ]
    body += _dims_decl(
        [("nb", 0), ("C", 1), ("H", 2), ("W", 3), ("K", 4), ("S", 5), ("P", 6),
         ("F", 7), ("CKK", 8), ("L", 9), ("OH", 10), ("OW", 11)],
        consts or {},
    )
    body += [
        "i64 HP = H + 2 * P, WP = W + 2 * P;",
        "(void)pad; (void)cols; (void)bias; (void)dead;",
        "(void)HP; (void)WP; (void)dims[12];",
        "double v, t; (void)t;",
        "for (i64 n = 0; n < nb; n++) {",
        "    const double *xs = x + n * C * H * W;",
        "    double *on = out + n * F * L;",
    ]
    body += ["    " + ln for ln in _conv_im2col(haspad, onebyone)]
    if impl == "shift_plane":
        body += [
            "    memset(on, 0, (size_t)(F * L) * sizeof(double));",
            "    i64 nplanes = dims[16];",
            "    for (i64 j = 0; j < nplanes; j++) {",
            "        i64 rows_m = dims[17 + 4 * j], kk = dims[18 + 4 * j];",
            "        i64 has_sel = dims[19 + 4 * j], has_rows = dims[20 + 4 * j];",
            "        const double *wj = (const double *)ptrs[9 + 5 * j];",
            "        const i64 *idx = (const i64 *)ptrs[10 + 5 * j];",
            "        double *sel = (double *)ptrs[11 + 5 * j];",
            "        double *part = (double *)ptrs[12 + 5 * j];",
            "        const i64 *rows = (const i64 *)ptrs[13 + 5 * j];",
            "        const double *psrc = src;",
            "        if (has_sel) {",
            "            double *sn = sel + n * kk * L;",
            "            for (i64 ki = 0; ki < kk; ki++)",
            "                memcpy(sn + ki * L, src + idx[ki] * L, (size_t)L * sizeof(double));",
            "            psrc = sn;",
            "        }",
            "        double *pn = part + n * rows_m * L;",
            "        mm(gemm, gemv, dot, rows_m, kk, L, wj, psrc, pn);",
            "        if (has_rows) {",
            "            for (i64 r = 0; r < rows_m; r++) {",
            "                double *orow = on + rows[r] * L;",
            "                const double *prow = pn + r * L;",
            "                for (i64 l = 0; l < L; l++) orow[l] += prow[l];",
            "            }",
            "        } else {",
            "            for (i64 e = 0; e < F * L; e++) on[e] += pn[e];",
            "        }",
            "    }",
        ]
    else:
        body += [
            "    const double *w = (const double *)ptrs[9];",
            "    mm(gemm, gemv, dot, F, CKK, L, w, src, on);",
        ]
    if hb or hd or epi:
        body += [
            "    for (i64 f = 0; f < F; f++) {",
            "        for (i64 l = 0; l < L; l++) {",
            "            v = on[f * L + l];",
        ]
        if hb:
            body.append("            v += bias[f];")
        if hd:
            body.append("            v += dead[f * L + l];")
        body += ["            " + ln for ln in _emit_epilogue(epi, 0)]
        body += [
            "            on[f * L + l] = v;",
            "        }",
            "    }",
        ]
    body.append("}")
    return _prelude(blas=True, ilp64=ilp64) + _fn(body)


# linear ptr slots: 0 gemm 1 gemv 2 dot 3 x 4 bias 5 out, planes at 6+5j:
#   w idx sel part rows (dense uses slot 6 for the weight matrix).
# linear dims: 0 nb 1 IN 2 F 3 hb 4 nplanes, planes at 5+4j:
#   rows_j kk_j has_sel_j has_rows_j


def linear_source(
    impl: str, epi: tuple, ilp64: bool, hb: bool = True, consts: dict | None = None
) -> str:
    """linear producer: one whole-batch GEMM (numpy's layout: ``x @ w``).

    ``hb`` (bias presence, a spec flag) is baked in like the conv flags.
    """
    body = [
        "void *gemm = ptrs[0], *gemv = ptrs[1], *dot = ptrs[2];",
        "const double *x = (const double *)ptrs[3];",
        "const double *bias = (const double *)ptrs[4];",
        "double *out = (double *)ptrs[5];",
    ]
    body += _dims_decl([("nb", 0), ("IN", 1), ("F", 2)], consts or {})
    body += [
        "(void)bias; (void)dims[3];",
        "double v, t; (void)t;",
    ]
    if impl == "shift_plane":
        body += [
            "memset(out, 0, (size_t)(nb * F) * sizeof(double));",
            "i64 nplanes = dims[4];",
            "for (i64 j = 0; j < nplanes; j++) {",
            "    i64 rows_m = dims[5 + 4 * j], kk = dims[6 + 4 * j];",
            "    i64 has_sel = dims[7 + 4 * j], has_rows = dims[8 + 4 * j];",
            "    const double *wj = (const double *)ptrs[6 + 5 * j];",
            "    const i64 *idx = (const i64 *)ptrs[7 + 5 * j];",
            "    double *sel = (double *)ptrs[8 + 5 * j];",
            "    double *part = (double *)ptrs[9 + 5 * j];",
            "    const i64 *rows = (const i64 *)ptrs[10 + 5 * j];",
            "    const double *psrc = x;",
            "    if (has_sel) {",
            "        for (i64 n = 0; n < nb; n++)",
            "            for (i64 ki = 0; ki < kk; ki++)",
            "                sel[n * kk + ki] = x[n * IN + idx[ki]];",
            "        psrc = sel;",
            "    }",
            "    mm(gemm, gemv, dot, nb, kk, rows_m, psrc, wj, part);",
            "    if (has_rows) {",
            "        for (i64 n = 0; n < nb; n++)",
            "            for (i64 r = 0; r < rows_m; r++)",
            "                out[n * F + rows[r]] += part[n * rows_m + r];",
            "    } else {",
            "        for (i64 e = 0; e < nb * F; e++) out[e] += part[e];",
            "    }",
            "}",
        ]
    else:
        body += [
            "const double *w = (const double *)ptrs[6];",
            "mm(gemm, gemv, dot, nb, IN, F, x, w, out);",
        ]
    if hb or epi:
        body += [
            "for (i64 n = 0; n < nb; n++) {",
            "    for (i64 f = 0; f < F; f++) {",
            "        v = out[n * F + f];",
        ]
        if hb:
            body.append("        v += bias[f];")
        body += ["        " + ln for ln in _emit_epilogue(epi, 0)]
        body += [
            "        out[n * F + f] = v;",
            "    }",
            "}",
        ]
    return _prelude(blas=True, ilp64=ilp64) + _fn(body)


# -- pools / add / eltwise ----------------------------------------------------

# pool ptrs: 0 x 1 out; dims: 0 nb 1 C 2 H 3 W 4 K 5 S 6 OH 7 OW 8 is_avg;
#   scalars[0] = 1/(K*K) for avgpool, epilogue scalars start at slot 1.


def pool_source(
    epi: tuple,
    kernel: int = 0,
    is_avg: bool = False,
    consts: dict | None = None,
    ct: str = "double",
) -> str:
    """max/avg pool: window reduction in the numpy kernel's (i-major,
    j-minor) view order, seeded from the first window element.

    Small windows (K <= 4, the only sizes the paper's nets use) are fully
    unrolled into straight-line code — same reduce order, but the branch-free
    body vectorizes across output columns; larger K keeps the runtime loop.
    ``ct`` is the element type of input and output: the int8 program's
    max-pool runs this same reduction on its ``int32_t``/``int64_t`` codes
    (``NPMAX`` reduces to a plain max on integers).
    """
    body = [
        f"const {ct} *x = (const {ct} *)ptrs[0];",
        f"{ct} *out = ({ct} *)ptrs[1];",
    ]
    body += _dims_decl(
        [("nb", 0), ("C", 1), ("H", 2), ("W", 3), ("K", 4), ("S", 5),
         ("OH", 6), ("OW", 7)],
        consts or {},
    )
    body += [
        "(void)K; (void)dims[8];",
        f"{ct} v, t; (void)t;",
        "for (i64 n = 0; n < nb; n++) {",
        " for (i64 c = 0; c < C; c++) {",
        f"    const {ct} *xc = x + (n * C + c) * H * W;",
        f"    {ct} *oc = out + (n * C + c) * OH * OW;",
        "    for (i64 oi = 0; oi < OH; oi++) {",
        "        for (i64 oj = 0; oj < OW; oj++) {",
        f"            const {ct} *wbase = xc + oi * S * W + oj * S;",
        "            v = wbase[0];",
    ]
    acc = "v += {e};" if is_avg else "v = NPMAX(v, {e});"
    if 0 < kernel <= 4:
        for ki in range(kernel):
            for kj in range(1 if ki == 0 else 0, kernel):
                at = f"wbase[{ki} * W + {kj}]" if ki else f"wbase[{kj}]"
                body.append("            " + acc.format(e=at))
    else:
        body += [
            "            for (i64 ki = 0; ki < K; ki++)",
            "                for (i64 kj = (ki ? 0 : 1); kj < K; kj++) {",
            f"                    {ct} e = wbase[ki * W + kj];",
            "                    " + acc.format(e="e"),
            "                }",
        ]
    if is_avg:
        body.append("            v *= scalars[0];")
    body += ["            " + ln for ln in _emit_epilogue(epi, 1)]
    body += [
        "            oc[oi * OW + oj] = v;",
        "        }",
        "    }",
        " }",
        "}",
    ]
    return _prelude(blas=False) + _fn(body)


def gap_source(epi: tuple, consts: dict | None = None) -> str:
    """Global average pool: np.mean over the contiguous H*W tail.

    The sum replicates numpy's scalar pairwise reduction exactly (sequential
    below 8 elements, an 8-accumulator unrolled block up to 128, recursive
    halving above — the same tree np.add.reduce builds for a contiguous
    float64 axis), then divides by the count like ``np.mean`` does.  The
    8 partial accumulators are independent lanes, so the compiler may
    vectorize them without reassociating anything.

    The ``0.0 +`` seed is load-bearing: numpy's reduce starts from the add
    identity (+0.0), so an all ``-0.0`` channel sums to *positive* zero.
    gcc keeps the add because eliding ``x + 0.0`` is only legal under
    ``-fno-signed-zeros``, which we never pass.
    """
    pw = [
        "static double pw(const double *a, i64 n) {",
        "    if (n < 8) {",
        "        double res = 0.0;",
        "        for (i64 i = 0; i < n; i++) res += a[i];",
        "        return res;",
        "    }",
        "    if (n <= 128) {",
        "        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];",
        "        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];",
        "        i64 i;",
        "        for (i = 8; i < n - (n % 8); i += 8) {",
        "            r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];",
        "            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];",
        "        }",
        "        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));",
        "        for (; i < n; i++) res += a[i];",
        "        return res;",
        "    }",
        "    i64 n2 = n / 2;",
        "    n2 -= n2 % 8;",
        "    return pw(a, n2) + pw(a + n2, n - n2);",
        "}",
    ]
    body = [
        "const double *x = (const double *)ptrs[0];",
        "double *out = (double *)ptrs[1];",
    ]
    body += _dims_decl([("nb", 0), ("C", 1), ("HW", 2)], consts or {})
    body += [
        "double v, t; (void)t;",
        "for (i64 nc = 0; nc < nb * C; nc++) {",
        "    v = (0.0 + pw(x + nc * HW, HW)) / (double)HW;",
    ]
    body += ["    " + ln for ln in _emit_epilogue(epi, 0)]
    body += ["    out[nc] = v;", "}"]
    return _prelude(blas=False) + "\n".join(pw) + "\n" + _fn(body)


def add_source(epi: tuple) -> str:
    body = [
        "const double *a = (const double *)ptrs[0];",
        "const double *b = (const double *)ptrs[1];",
        "double *out = (double *)ptrs[2];",
        "i64 count = dims[0];",
        "double v, t; (void)t;",
        "for (i64 e = 0; e < count; e++) {",
        "    v = a[e] + b[e];",
    ]
    body += ["    " + ln for ln in _emit_epilogue(epi, 0)]
    body += ["    out[e] = v;", "}"]
    return _prelude(blas=False) + _fn(body)


def eltwise_source(chain: tuple, out_t: str = "double") -> str:
    """Standalone elementwise chain (head included); safe when out == x.

    With an integer ``out_t`` each result is stored through a cast, like
    numpy's unsafe ``copyto``: the int8 program's input quantize is the
    chain ``("aq",)`` with a unit step.  A NaN, whose conversion C leaves
    undefined, stores ``dims[1]`` instead: numpy's own result for that
    cast, measured by the caller.
    """
    if out_t == "double":
        store = "out[e] = v;"
    else:
        store = f"out[e] = v != v ? ({out_t})dims[1] : ({out_t})v;"
    body = [
        "const double *x = (const double *)ptrs[0];",
        f"{out_t} *out = ({out_t} *)ptrs[1];",
        "i64 count = dims[0];",
        "double v, t; (void)t;",
        "for (i64 e = 0; e < count; e++) {",
        "    v = x[e];",
    ]
    body += ["    " + ln for ln in _emit_epilogue(chain, 0)]
    body += ["    " + store, "}"]
    return _prelude(blas=False) + _fn(body)


# -- integer kernels (intq) ---------------------------------------------------

def int_step_decls(fused: tuple, base: int) -> list[str]:
    """Declarations binding each fused step's runtime constants, read from
    ``dims[base:]`` in :data:`~repro.infer.intq.kernels.STEP_ARGS` order
    (``fused`` is the structural step list; the values ride in ``dims``,
    so layers with different grids share one compiled source)."""
    lines, slot = [], base
    for i, kind in enumerate(fused):
        for arg in STEP_ARGS[kind]:
            lines.append(f"const i64 s{i}_{arg} = dims[{slot}];")
            slot += 1
    return lines


def int_epilogue(flags: tuple, fused: tuple, dead_at: str) -> list[str]:
    """Per-element requant epilogue on the int64 accumulator ``a`` of
    channel ``f``, then the fused steps, then the store to ``outv[ooff]``.

    Every conv/linear integer kernel (blas and loops) emits its epilogue
    through here.  ``flags`` (``"dead"``,
    ``"gb"``, ``"out32"``) are baked, like the float kernels' bias/dead
    flags: runtime flag branches would make the compiler unswitch the
    loop into one copy per combination, which doubles compile time once
    the fused steps are in the body.  The fused steps replay the numpy
    reference in :mod:`repro.infer.intq.kernels` on the same int64
    values.  Their multiplies, adds and left shifts run on ``uint64_t``:
    that wraps like numpy's int64 ufuncs do, where signed overflow or a
    left shift of a negative value would be undefined behaviour in C.
    Right shifts stay signed (arithmetic, as ``np.right_shift``).
    """
    lines = ["a = a * M0[f] + RND[f];", "a >>= SH[f];"]
    if "dead" in flags:
        lines.append(f"a += DMAP[{dead_at}];")
    if "gb" in flags:
        lines.append("a += GB[f];")
    for i, kind in enumerate(fused):
        m0, rnd = f"(uint64_t)s{i}_m0", f"(uint64_t)s{i}_rnd"
        if kind == "lrelu0":
            lines.append("if (a < 0) a = 0;")
            continue
        if kind == "lrelu":
            lines.append(
                f"{{ i64 t = (i64)((uint64_t)a * {m0} + {rnd}) >> s{i}_sh; if (t > a) a = t; }}"
            )
            continue
        if kind == "lshift":
            lines.append(f"a = (i64)((uint64_t)a << s{i}_amount);")
        elif kind == "rshift":
            lines.append(f"a = (i64)((uint64_t)a + {rnd}) >> s{i}_amount;")
        else:  # requant
            lines.append(f"a = (i64)((uint64_t)a * {m0} + {rnd}) >> s{i}_amount;")
        lines.append(f"a = a < s{i}_lo ? s{i}_lo : (a > s{i}_hi ? s{i}_hi : a);")
    if "out32" in flags:
        lines.append("((int32_t *)outv)[ooff] = (int32_t)a;")
    else:
        lines.append("((i64 *)outv)[ooff] = a;")
    return lines


def _int_sgemm(ilp64: bool) -> list[str]:
    """The integer kernels' one BLAS entry point: a row-major, untransposed
    float32 ``C = A @ B`` through ``sgemm`` for every shape.  No gemv/dot
    dispatch as in :func:`_prelude`'s ``mm``: that replicates np.matmul's
    float rounding, and the result here is an exact integer whichever
    kernel sums it."""
    return [
        f"typedef {'long long' if ilp64 else 'int'} blasint;",
        # CBLAS order/transpose enums stay 32-bit ints even under ILP64.
        "typedef void (*sgemm_t)(int,int,int,blasint,blasint,blasint,float,",
        "                        const float*,blasint,const float*,blasint,float,float*,blasint);",
        "static void gemm(void *fn, i64 m, i64 k, i64 n, const float *A, const float *B,",
        "                 float *C) {",
        "    ((sgemm_t)fn)(101, 111, 111, (blasint)m, (blasint)n, (blasint)k,",
        "                  1, A, (blasint)k, B, (blasint)n, 0, C, (blasint)n);",
        "}",
    ]


def _int_source(variant: str, ilp64: bool, body: list[str]) -> str:
    head = _int_sgemm(ilp64) if variant == "sgemm" else []
    return _prelude(blas=False) + "".join(ln + "\n" for ln in head) + _fn(body)


def _int_tail_ptrs(base: int) -> list[str]:
    """The requant constants and the output, from ``ptrs[base]`` on."""
    names = ("M0", "RND", "SH", "DMAP", "GB")
    lines = [f"const i64 *{n} = (const i64 *)ptrs[{base + i}];" for i, n in enumerate(names)]
    return lines + [f"void *outv = ptrs[{base + len(names)}];"]


#: Runtime geometry of the integer conv, ``dims[0:12]``; the fused steps'
#: constants follow from ``dims[12]``.
INT_CONV_DIMS = ("nb", "C", "H", "W", "K", "S", "P", "F", "CKK", "L", "OH", "OW")


def int_conv_source(
    variant: str,
    ilp64: bool = True,
    ctype: str = "int32_t",
    flags: tuple = (),
    fused: tuple = (),
    xtype: str = "int32_t",
) -> str:
    """Integer conv reading the NCHW activation codes (``xtype``) directly.

    Per sample, the codes are cast into ``pad`` (zeroed by the caller;
    only its interior is ever written, so the border stays zero) in the
    GEMM's element type and unrolled into ``cols`` by the float conv's
    row-copy loops (:func:`_conv_im2col`); both buffers hold one sample.
    Geometry rides in ``dims`` at runtime, so every conv of a plan with
    the same variant, flags and fused steps shares one compiled source.

    ``variant="sgemm"``: W, ``pad``, ``cols`` and the accumulator are
    ``float`` and one BLAS sgemm per sample sums them.  That is exact when
    the layer's static accumulator bound is below 2^24: every code,
    weight, product and partial sum is then an integer float32 holds
    exactly, so the truncation back to int64 is of an exact integer.
    ``variant="loops"``: the element type is the accumulator's ``ctype``;
    plain C MAC loops accumulate in int64 with a zero-weight skip (the
    decoded shift weights are sparse).

    ptrs: 0 x 1 W 2 pad 3 cols 4 acc (F*L scratch; int64 for loops)
          5 M0 6 RND 7 SH 8 DMAP 9 GB 10 out, 11 sgemm (sgemm variant)
    dims: :data:`INT_CONV_DIMS`, then the fused steps' constants (see
    :func:`int_step_decls`); ``flags`` and ``fused`` are baked by
    :func:`int_epilogue`
    """
    sgemm = variant == "sgemm"
    ct, at = ("float", "float") if sgemm else (ctype, "i64")
    body = [
        f"const {xtype} *x = (const {xtype} *)ptrs[0];",
        f"const {ct} *Wm = (const {ct} *)ptrs[1];",
        f"{ct} *pad = ({ct} *)ptrs[2];",
        f"{ct} *cols = ({ct} *)ptrs[3];",
        f"{at} *acc = ({at} *)ptrs[4];",
        *_int_tail_ptrs(5),
        *_dims_decl([(name, i) for i, name in enumerate(INT_CONV_DIMS)], {}),
        "i64 HP = H + 2 * P, WP = W + 2 * P;",
        *int_step_decls(fused, len(INT_CONV_DIMS)),
        "for (i64 n = 0; n < nb; n++) {",
        f"    const {xtype} *xs = x + n * C * H * W;",
    ]
    body += ["    " + ln for ln in _conv_im2col(True, False, xtype, ct, per_sample=True)]
    if sgemm:
        body += ["    gemm(ptrs[11], F, CKK, L, Wm, src, acc);"]
        acc_at = "(i64)acc[f * L + l]"
    else:
        body += [
            "    memset(acc, 0, (size_t)(F * L) * sizeof(i64));",
            "    for (i64 f = 0; f < F; f++) {",
            "        i64 *arow = acc + f * L;",
            "        for (i64 k = 0; k < CKK; k++) {",
            "            i64 wv = (i64)Wm[f * CKK + k];",
            "            if (!wv) continue;",
            f"            const {ctype} *crow = src + k * L;",
            "            for (i64 l = 0; l < L; l++) arow[l] += wv * (i64)crow[l];",
            "        }",
            "    }",
        ]
        acc_at = "acc[f * L + l]"
    body += [
        "    for (i64 f = 0; f < F; f++) {",
        "        for (i64 l = 0; l < L; l++) {",
        f"            i64 a = {acc_at};",
        "            i64 ooff = (n * F + f) * L + l;",
    ]
    body += ["            " + ln for ln in int_epilogue(flags, fused, "f * L + l")]
    body += ["        }", "    }", "}"]
    return _int_source(variant, ilp64, body)


def int_linear_source(
    variant: str,
    ilp64: bool = True,
    ctype: str = "int32_t",
    flags: tuple = (),
    fused: tuple = (),
) -> str:
    """Integer linear (``x @ W`` orientation, W pre-transposed ``(IN, F)``)
    on codes ``x`` in the accumulator's ``ctype``.

    ``"sgemm"`` casts the codes into float ``xf`` and runs one
    whole-batch sgemm (exact under the same bound as
    :func:`int_conv_source`); ``"loops"`` accumulates each sample's row in
    int64 and leaves ``xf`` unused.

    ptrs: 0 x 1 W 2 xf (nb*IN scratch) 3 acc (nb*F scratch; F int64 for
          loops) 4 M0 5 RND 6 SH 7 DMAP 8 GB 9 out, 10 sgemm (sgemm variant)
    dims: 0 nb 1 IN 2 F, then the fused steps' constants from 3
    """
    sgemm = variant == "sgemm"
    ct, at = ("float", "float") if sgemm else (ctype, "i64")
    body = [
        f"const {ctype} *x = (const {ctype} *)ptrs[0];",
        f"const {ct} *Wm = (const {ct} *)ptrs[1];",
        f"{ct} *xf = ({ct} *)ptrs[2]; (void)xf;",
        f"{at} *acc = ({at} *)ptrs[3];",
        *_int_tail_ptrs(4),
        "i64 nb = dims[0], IN = dims[1], F = dims[2];",
        *int_step_decls(fused, 3),
    ]
    if sgemm:
        body += [
            "for (i64 e = 0; e < nb * IN; e++) xf[e] = (float)x[e];",
            "gemm(ptrs[10], nb, IN, F, xf, Wm, acc);",
            "for (i64 n = 0; n < nb; n++) {",
            "    for (i64 f = 0; f < F; f++) {",
            "        i64 a = (i64)acc[n * F + f];",
        ]
    else:
        body += [
            "for (i64 n = 0; n < nb; n++) {",
            "    memset(acc, 0, (size_t)F * sizeof(i64));",
            "    for (i64 k = 0; k < IN; k++) {",
            "        i64 xv = (i64)x[n * IN + k];",
            "        if (!xv) continue;",
            f"        const {ctype} *wrow = Wm + k * F;",
            "        for (i64 f = 0; f < F; f++) acc[f] += xv * (i64)wrow[f];",
            "    }",
            "    for (i64 f = 0; f < F; f++) {",
            "        i64 a = acc[f];",
        ]
    body.append("        i64 ooff = n * F + f;")
    body += ["        " + ln for ln in int_epilogue(flags, fused, "f")]
    body += ["    }", "}"]
    return _int_source(variant, ilp64, body)
