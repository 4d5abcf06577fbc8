"""Tile-parameterized C emitters — the threaded twins of
:mod:`repro.infer.native.codegen`.

Every threaded translation unit keeps the uniform ``run(ptrs, dims,
scalars)`` ABI but restructures the body into ``static`` *tile functions*
``tf_x(void *ctx, i64 tile, i64 wk)`` dispatched through a parallel-for
function pointer riding ``ptrs[0]`` (either ``rt_parallel_for`` or
``rt_serial_for`` — the self-check swaps one address for the other and
nothing else).  ``dims[0]`` carries the participant limit; every serial
slot shifts up by one.

Determinism rules, enforced structurally in every emitter here:

* the tile grid is a pure function of the problem shape — block sizes are
  compile-time constants (``FB``/``CB``/``RB``/``PANEL``/``CHUNK``
  below), never derived from the thread count;
* every output element is written by exactly one tile;
* inside a tile, the per-element operation order equals the serial
  kernel's (same loop nests, same reduction order, same epilogue);
* cross-phase ordering is sequenced by the caller: each ``pf(...)`` call
  is a full barrier, and shift planes run in plane order with ``ctx->j``
  updated between barriers.

Which thread executes a tile therefore cannot influence any output bit.

The ``gemm="micro"`` variant replaces the per-tile OpenBLAS call with a
blocked native micro-kernel: the im2col source is repacked into 8-column
panels and each (filter row, panel) pair is reduced with a fixed
k-ascending 8-lane MAC.  Its bits differ from OpenBLAS (different
blocking) but are identical for any thread count, which is the contract
that matters here; the autotuner picks micro only when it times faster.
"""

from __future__ import annotations

from repro.infer.native import codegen
from repro.infer.native.codegen import (
    _dims_decl,
    _emit_epilogue,
    _fn,
    int_epilogue,
    int_step_decls,
)

__all__ = [
    "conv_source_mt",
    "linear_source_mt",
    "pool_source_mt",
    "gap_source_mt",
    "add_source_mt",
    "eltwise_source_mt",
    "int_conv_source_mt",
    "int_linear_source_mt",
]

#: Static block sizes (compile-time; the tile grid depends on these and the
#: shape only, never on the thread count).
FB = 16  # filter rows per conv/epilogue tile
RB = 16  # shift-plane rows per tile
CB = 32  # linear output columns per tile
PANEL = 8  # micro-kernel column-panel width (8 doubles = one AVX-512 lane pair)
PG = 4  # panels per linear micro tile
CHUNK = 8192  # elements per eltwise/add tile


def _mt_prelude(blas: bool, ilp64: bool = True) -> str:
    return codegen._prelude(blas=blas, ilp64=ilp64) + "\n".join(
        [
            "typedef void (*mt_tile_fn)(void *, i64, i64);",
            "typedef void (*mt_pf)(mt_tile_fn, void *, i64, i64);",
            "typedef struct { void **p; i64 *d; double *s; i64 j; } mtctx;",
        ]
    ) + "\n"


def _tile_fn(name: str, body: list[str]) -> str:
    head = [
        f"static void {name}(void *vc, i64 tile, i64 wk) {{",
        "    mtctx *cx = (mtctx *)vc;",
        "    void **ptrs = cx->p; i64 *dims = cx->d; double *scalars = cx->s;",
        "    (void)ptrs; (void)dims; (void)scalars; (void)wk; (void)tile; (void)cx;",
    ]
    inner = ["    " + ln if ln else "" for ln in body]
    return "\n".join(head + inner + ["}"]) + "\n"


def _run_mt(body: list[str]) -> str:
    head = [
        "mt_pf pf = (mt_pf)ptrs[0];",
        "mtctx cx; cx.p = ptrs; cx.d = dims; cx.s = scalars; cx.j = 0;",
        "i64 limit = dims[0];",
    ]
    return _fn(head + body)


# -- conv ---------------------------------------------------------------------

# mt conv ptrs: 0 pf 1 gemm 2 gemv 3 dot 4 x 5 pad 6 cols 7 bias 8 dead 9 out,
#   dense: 10 w (+ 11 packbuf for gemm="micro"); planes append 5 at 10+5j:
#   w idx sel part rows
# mt conv dims: 0 limit 1 nb 2 C 3 H 4 W 5 K 6 S 7 P 8 F 9 CKK 10 L 11 OH
#   12 OW 13 haspad 14 onebyone 15 hb 16 hd 17 nplanes, planes at 18+4j:
#   rows_j kk_j has_sel_j has_rows_j

_CONV_SLOTS = [
    ("nb", 1), ("C", 2), ("H", 3), ("W", 4), ("K", 5), ("S", 6), ("P", 7),
    ("F", 8), ("CKK", 9), ("L", 10), ("OH", 11), ("OW", 12),
]
_CONV_VOID = (
    "(void)nb; (void)C; (void)H; (void)W; (void)K; (void)S; (void)P;"
    " (void)F; (void)CKK; (void)L; (void)OH; (void)OW;"
)


def _conv_decl(consts: dict) -> list[str]:
    return _dims_decl(_CONV_SLOTS, consts) + [_CONV_VOID]


def _conv_src_expr(onebyone: bool) -> str:
    """Per-sample GEMM source: the raw input for 1x1/s1 convs (im2col is
    the identity there), the im2col scratch otherwise."""
    return "x + n * C * H * W" if onebyone else "cols + n * CKK * L"


def _conv_epi_rows(epi: tuple, hb: bool, hd: bool) -> list[str]:
    """bias/dead/epilogue over filter rows ``f0..f1`` of sample plane
    ``on`` — byte-for-byte the serial epilogue body, row-windowed."""
    lines = [
        "double v, t; (void)t;",
        "for (i64 f = f0; f < f1; f++) {",
        "    for (i64 l = 0; l < L; l++) {",
        "        v = on[f * L + l];",
    ]
    if hb:
        lines.append("        v += bias[f];")
    if hd:
        lines.append("        v += dead[f * L + l];")
    lines += ["        " + ln for ln in _emit_epilogue(epi, 0)]
    lines += ["        on[f * L + l] = v;", "    }", "}"]
    return lines


def conv_source_mt(
    impl: str,
    epi: tuple,
    ilp64: bool,
    haspad: bool = True,
    onebyone: bool = False,
    hb: bool = True,
    hd: bool = True,
    gemm: str = "blas",
    consts: dict | None = None,
) -> str:
    """Threaded conv producer.

    Phases (each ``pf`` call a barrier): im2col over (sample, channel)
    tiles; then dense → GEMM over (sample, FB-filter-row) tiles (BLAS or
    the packed micro-kernel), or shift_plane → zero over samples, per
    plane select + (sample, RB-row) GEMM/accumulate tiles, final epilogue
    over (sample, FB-row) tiles.
    """
    consts = consts or {}
    shift = impl == "shift_plane"
    common = [
        "const double *x = (const double *)ptrs[4];",
        "double *pad = (double *)ptrs[5]; (void)pad;",
        "double *cols = (double *)ptrs[6]; (void)cols;",
        "const double *bias = (const double *)ptrs[7]; (void)bias;",
        "const double *dead = (const double *)ptrs[8]; (void)dead;",
        "double *out = (double *)ptrs[9];",
    ]
    tiles: list[str] = []

    if not onebyone:
        body = common + _conv_decl(consts) + [
            "(void)out;",
            "i64 n = tile / C, ch = tile % C;",
            "const double *xs = x + (n * C + ch) * H * W;",
            "double *cl = cols + n * CKK * L + ch * K * K * L;",
            "const double *base; i64 BW;",
        ]
        if haspad:
            body += [
                "i64 HP = H + 2 * P, WP = W + 2 * P; (void)HP;",
                "double *pd = pad + (n * C + ch) * HP * WP;",
                "for (i64 i = 0; i < H; i++) {",
                "    double *pr = pd + (i + P) * WP + P;",
                "    const double *xr = xs + i * W;",
                "    for (i64 jj = 0; jj < W; jj++) pr[jj] = xr[jj];",
                "}",
                "base = pd; BW = WP;",
            ]
        else:
            body += ["base = xs; BW = W;"]
        body += [
            "for (i64 ki = 0; ki < K; ki++)",
            " for (i64 kj = 0; kj < K; kj++) {",
            "    double *dst = cl + (ki * K + kj) * L;",
            "    const double *sr = base + ki * BW + kj;",
            "    if (S == 1) {",
            "        for (i64 oi = 0; oi < OH; oi++) {",
            "            const double *r = sr + oi * BW;",
            "            double *d = dst + oi * OW;",
            "            for (i64 oj = 0; oj < OW; oj++) d[oj] = r[oj];",
            "        }",
            "    } else {",
            "        for (i64 oi = 0; oi < OH; oi++) {",
            "            const double *r = sr + oi * S * BW;",
            "            for (i64 oj = 0; oj < OW; oj++) dst[oi * OW + oj] = r[oj * S];",
            "        }",
            "    }",
            " }",
        ]
        tiles.append(_tile_fn("tf_cols", body))

    if shift:
        tiles.append(
            _tile_fn(
                "tf_zero",
                common
                + _conv_decl(consts)
                + ["memset(out + tile * F * L, 0, (size_t)(F * L) * sizeof(double));"],
            )
        )
        sel_body = common + _conv_decl(consts) + [
            "(void)out;",
            "i64 j = cx->j;",
            "i64 kk = dims[19 + 4 * j];",
            "const i64 *idx = (const i64 *)ptrs[11 + 5 * j];",
            "double *sel = (double *)ptrs[12 + 5 * j];",
            "i64 n = tile;",
            f"const double *src = {_conv_src_expr(onebyone)};",
            "double *sn = sel + n * kk * L;",
            "for (i64 ki = 0; ki < kk; ki++)",
            "    memcpy(sn + ki * L, src + idx[ki] * L, (size_t)L * sizeof(double));",
        ]
        tiles.append(_tile_fn("tf_sel", sel_body))
        plane_body = common + _conv_decl(consts) + [
            "void *gemm = ptrs[1], *gemv = ptrs[2], *dot = ptrs[3];",
            "i64 j = cx->j;",
            "i64 rows_m = dims[18 + 4 * j], kk = dims[19 + 4 * j];",
            "i64 has_sel = dims[20 + 4 * j], has_rows = dims[21 + 4 * j];",
            "const double *wj = (const double *)ptrs[10 + 5 * j];",
            "double *sel = (double *)ptrs[12 + 5 * j];",
            "double *part = (double *)ptrs[13 + 5 * j];",
            "const i64 *rows = (const i64 *)ptrs[14 + 5 * j];",
            f"i64 RT = (rows_m + {RB - 1}) / {RB};",
            "i64 n = tile / RT, rb = tile % RT;",
            f"i64 r0 = rb * {RB}, r1 = r0 + {RB};",
            "if (r1 > rows_m) r1 = rows_m;",
            f"const double *psrc = has_sel ? sel + n * kk * L : {_conv_src_expr(onebyone)};",
            "double *pn = part + n * rows_m * L;",
            "mm(gemm, gemv, dot, r1 - r0, kk, L, wj + r0 * kk, psrc, pn + r0 * L);",
            "double *on = out + n * F * L;",
            "for (i64 r = r0; r < r1; r++) {",
            "    double *orow = on + (has_rows ? rows[r] : r) * L;",
            "    const double *prow = pn + r * L;",
            "    for (i64 l = 0; l < L; l++) orow[l] += prow[l];",
            "}",
        ]
        tiles.append(_tile_fn("tf_plane", plane_body))
        if hb or hd or epi:
            epi_body = common + _conv_decl(consts) + [
                f"i64 FT = (F + {FB - 1}) / {FB};",
                "i64 n = tile / FT, fb = tile % FT;",
                f"i64 f0 = fb * {FB}, f1 = f0 + {FB};",
                "if (f1 > F) f1 = F;",
                "double *on = out + n * F * L;",
            ] + _conv_epi_rows(epi, hb, hd)
            tiles.append(_tile_fn("tf_epi", epi_body))
    elif gemm == "micro":
        pack_body = common + _conv_decl(consts) + [
            "(void)out;",
            "double *pk = (double *)ptrs[11];",
            f"i64 NP = (L + {PANEL - 1}) / {PANEL};",
            "i64 n = tile / NP, p = tile % NP;",
            f"const double *src = {_conv_src_expr(onebyone)};",
            f"double *pan = pk + (n * NP + p) * CKK * {PANEL};",
            f"i64 c0 = p * {PANEL};",
            f"i64 jlim = L - c0; if (jlim > {PANEL}) jlim = {PANEL};",
            "for (i64 k = 0; k < CKK; k++) {",
            "    const double *sr = src + k * L + c0;",
            f"    double *pr = pan + k * {PANEL};",
            "    for (i64 jj = 0; jj < jlim; jj++) pr[jj] = sr[jj];",
            f"    for (i64 jj = jlim; jj < {PANEL}; jj++) pr[jj] = 0.0;",
            "}",
        ]
        tiles.append(_tile_fn("tf_pack", pack_body))
        micro_body = common + _conv_decl(consts) + [
            "const double *w = (const double *)ptrs[10];",
            "const double *pk = (const double *)ptrs[11];",
            f"i64 NP = (L + {PANEL - 1}) / {PANEL};",
            f"i64 FT = (F + {FB - 1}) / {FB};",
            "i64 n = tile / FT, fb = tile % FT;",
            f"i64 f0 = fb * {FB}, f1 = f0 + {FB};",
            "if (f1 > F) f1 = F;",
            "double *on = out + n * F * L;",
            "double v, t; (void)t;",
            "for (i64 f = f0; f < f1; f++) {",
            "    const double *wr = w + f * CKK;",
            "    for (i64 p = 0; p < NP; p++) {",
            f"        const double *pan = pk + (n * NP + p) * CKK * {PANEL};",
            "        double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};",
            "        for (i64 k = 0; k < CKK; k++) {",
            "            double wv = wr[k];",
            f"            const double *pr = pan + k * {PANEL};",
            f"            for (i64 jj = 0; jj < {PANEL}; jj++) acc[jj] += wv * pr[jj];",
            "        }",
            f"        i64 c0 = p * {PANEL};",
            f"        i64 jlim = L - c0; if (jlim > {PANEL}) jlim = {PANEL};",
            "        for (i64 jj = 0; jj < jlim; jj++) {",
            "            v = acc[jj];",
        ]
        if hb:
            micro_body.append("            v += bias[f];")
        if hd:
            micro_body.append("            v += dead[f * L + c0 + jj];")
        micro_body += ["            " + ln for ln in _emit_epilogue(epi, 0)]
        micro_body += [
            "            on[f * L + c0 + jj] = v;",
            "        }",
            "    }",
            "}",
        ]
        tiles.append(_tile_fn("tf_micro", micro_body))
    else:
        gemm_body = common + _conv_decl(consts) + [
            "void *gemm = ptrs[1], *gemv = ptrs[2], *dot = ptrs[3];",
            "const double *w = (const double *)ptrs[10];",
            f"i64 FT = (F + {FB - 1}) / {FB};",
            "i64 n = tile / FT, fb = tile % FT;",
            f"i64 f0 = fb * {FB}, f1 = f0 + {FB};",
            "if (f1 > F) f1 = F;",
            f"const double *src = {_conv_src_expr(onebyone)};",
            "double *on = out + n * F * L;",
            "mm(gemm, gemv, dot, f1 - f0, CKK, L, w + f0 * CKK, src, on + f0 * L);",
        ] + (_conv_epi_rows(epi, hb, hd) if (hb or hd or epi) else [])
        tiles.append(_tile_fn("tf_gemm", gemm_body))

    run = _dims_decl([("nb", 1), ("C", 2), ("F", 8), ("L", 10)], consts)
    run += ["(void)C; (void)F; (void)L;"]
    if not onebyone:
        run.append("pf(tf_cols, &cx, nb * C, limit);")
    if shift:
        run += [
            "pf(tf_zero, &cx, nb, limit);",
            "i64 nplanes = dims[17];",
            "for (i64 j = 0; j < nplanes; j++) {",
            "    cx.j = j;",
            "    if (dims[20 + 4 * j]) pf(tf_sel, &cx, nb, limit);",
            f"    pf(tf_plane, &cx, nb * ((dims[18 + 4 * j] + {RB - 1}) / {RB}), limit);",
            "}",
        ]
        if hb or hd or epi:
            run += ["cx.j = 0;", f"pf(tf_epi, &cx, nb * ((F + {FB - 1}) / {FB}), limit);"]
    elif gemm == "micro":
        run += [
            f"pf(tf_pack, &cx, nb * ((L + {PANEL - 1}) / {PANEL}), limit);",
            f"pf(tf_micro, &cx, nb * ((F + {FB - 1}) / {FB}), limit);",
        ]
    else:
        run.append(f"pf(tf_gemm, &cx, nb * ((F + {FB - 1}) / {FB}), limit);")
    return _mt_prelude(blas=True, ilp64=ilp64) + "".join(tiles) + _run_mt(run)


# -- linear -------------------------------------------------------------------

# mt linear ptrs: 0 pf 1 gemm 2 gemv 3 dot 4 x 5 bias 6 out, dense: 7 w
#   (blas: row-major (IN, F); micro: packed (NP, IN, PANEL)); planes append
#   5 at 7+5j: w idx sel part rows
# mt linear dims: 0 limit 1 nb 2 IN 3 F 4 hb 5 nplanes, planes at 6+4j:
#   rows_j kk_j has_sel_j has_rows_j

_LIN_SLOTS = [("nb", 1), ("IN", 2), ("F", 3)]
_LIN_VOID = "(void)nb; (void)IN; (void)F;"


def _lin_decl(consts: dict) -> list[str]:
    return _dims_decl(_LIN_SLOTS, consts) + [_LIN_VOID]


def linear_source_mt(
    impl: str,
    epi: tuple,
    ilp64: bool,
    hb: bool = True,
    gemm: str = "blas",
    consts: dict | None = None,
) -> str:
    """Threaded linear producer: output columns partitioned into CB-wide
    blocks (dense) or RB within each shift plane; the whole-batch GEMM
    becomes one column-sliced GEMM per tile."""
    consts = consts or {}
    shift = impl == "shift_plane"
    common = [
        "const double *x = (const double *)ptrs[4];",
        "const double *bias = (const double *)ptrs[5]; (void)bias;",
        "double *out = (double *)ptrs[6];",
    ]
    tiles: list[str] = []
    epi_cols = [
        "double v, t; (void)t;",
        "for (i64 n = 0; n < nb; n++) {",
        "    for (i64 f = c0; f < c1; f++) {",
        "        v = out[n * F + f];",
    ]
    if hb:
        epi_cols.append("        v += bias[f];")
    epi_cols += ["        " + ln for ln in _emit_epilogue(epi, 0)]
    epi_cols += ["        out[n * F + f] = v;", "    }", "}"]

    if shift:
        tiles.append(
            _tile_fn(
                "tf_zero",
                common
                + _lin_decl(consts)
                + ["memset(out + tile * F, 0, (size_t)F * sizeof(double));"],
            )
        )
        sel_body = common + _lin_decl(consts) + [
            "(void)out;",
            "i64 j = cx->j;",
            "i64 kk = dims[7 + 4 * j];",
            "const i64 *idx = (const i64 *)ptrs[8 + 5 * j];",
            "double *sel = (double *)ptrs[9 + 5 * j];",
            "i64 n = tile;",
            "for (i64 ki = 0; ki < kk; ki++)",
            "    sel[n * kk + ki] = x[n * IN + idx[ki]];",
        ]
        tiles.append(_tile_fn("tf_sel", sel_body))
        plane_body = common + _lin_decl(consts) + [
            "void *gemm = ptrs[1];",
            "i64 j = cx->j;",
            "i64 rows_m = dims[6 + 4 * j], kk = dims[7 + 4 * j];",
            "i64 has_sel = dims[8 + 4 * j], has_rows = dims[9 + 4 * j];",
            "const double *wj = (const double *)ptrs[7 + 5 * j];",
            "double *sel = (double *)ptrs[9 + 5 * j];",
            "double *part = (double *)ptrs[10 + 5 * j];",
            "const i64 *rows = (const i64 *)ptrs[11 + 5 * j];",
            f"i64 r0 = tile * {RB}, r1 = r0 + {RB};",
            "if (r1 > rows_m) r1 = rows_m;",
            "const double *psrc = has_sel ? sel : x;",
            "((gemm_t)gemm)(101, 111, 111, (blasint)nb, (blasint)(r1 - r0), (blasint)kk,",
            "               1.0, psrc, (blasint)kk, wj + r0, (blasint)rows_m,",
            "               0.0, part + r0, (blasint)rows_m);",
            "for (i64 n = 0; n < nb; n++) {",
            "    const double *pr = part + n * rows_m;",
            "    double *orow = out + n * F;",
            "    for (i64 r = r0; r < r1; r++)",
            "        orow[has_rows ? rows[r] : r] += pr[r];",
            "}",
        ]
        tiles.append(_tile_fn("tf_plane", plane_body))
        if hb or epi:
            epi_body = common + _lin_decl(consts) + [
                f"i64 c0 = tile * {CB}, c1 = c0 + {CB};",
                "if (c1 > F) c1 = F;",
            ] + epi_cols
            tiles.append(_tile_fn("tf_epi", epi_body))
    elif gemm == "micro":
        micro_body = common + _lin_decl(consts) + [
            "const double *wp = (const double *)ptrs[7];",
            f"i64 NP = (F + {PANEL - 1}) / {PANEL};",
            f"i64 p0 = tile * {PG}, p1 = p0 + {PG};",
            "if (p1 > NP) p1 = NP;",
            "double v, t; (void)t;",
            "for (i64 p = p0; p < p1; p++) {",
            f"    const double *pb = wp + p * IN * {PANEL};",
            f"    i64 c0 = p * {PANEL};",
            f"    i64 jlim = F - c0; if (jlim > {PANEL}) jlim = {PANEL};",
            "    for (i64 n = 0; n < nb; n++) {",
            "        const double *xr = x + n * IN;",
            "        double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};",
            "        for (i64 k = 0; k < IN; k++) {",
            "            double xv = xr[k];",
            f"            const double *pr = pb + k * {PANEL};",
            f"            for (i64 jj = 0; jj < {PANEL}; jj++) acc[jj] += xv * pr[jj];",
            "        }",
            "        for (i64 jj = 0; jj < jlim; jj++) {",
            "            v = acc[jj];",
        ]
        if hb:
            micro_body.append("            v += bias[c0 + jj];")
        micro_body += ["            " + ln for ln in _emit_epilogue(epi, 0)]
        micro_body += [
            "            out[n * F + c0 + jj] = v;",
            "        }",
            "    }",
            "}",
        ]
        tiles.append(_tile_fn("tf_micro", micro_body))
    else:
        dense_body = common + _lin_decl(consts) + [
            "void *gemm = ptrs[1];",
            "const double *w = (const double *)ptrs[7];",
            f"i64 c0 = tile * {CB}, c1 = c0 + {CB};",
            "if (c1 > F) c1 = F;",
            "((gemm_t)gemm)(101, 111, 111, (blasint)nb, (blasint)(c1 - c0), (blasint)IN,",
            "               1.0, x, (blasint)IN, w + c0, (blasint)F,",
            "               0.0, out + c0, (blasint)F);",
        ] + ((epi_cols) if (hb or epi) else [])
        tiles.append(_tile_fn("tf_dense", dense_body))

    run = _dims_decl(_LIN_SLOTS, consts) + ["(void)IN;"]
    if shift:
        run += [
            "pf(tf_zero, &cx, nb, limit);",
            "i64 nplanes = dims[5];",
            "for (i64 j = 0; j < nplanes; j++) {",
            "    cx.j = j;",
            "    if (dims[8 + 4 * j]) pf(tf_sel, &cx, nb, limit);",
            f"    pf(tf_plane, &cx, (dims[6 + 4 * j] + {RB - 1}) / {RB}, limit);",
            "}",
        ]
        if hb or epi:
            run += ["cx.j = 0;", f"pf(tf_epi, &cx, (F + {CB - 1}) / {CB}, limit);"]
    elif gemm == "micro":
        run.append(
            f"pf(tf_micro, &cx, ((F + {PANEL - 1}) / {PANEL} + {PG - 1}) / {PG}, limit);"
        )
    else:
        run.append(f"pf(tf_dense, &cx, (F + {CB - 1}) / {CB}, limit);")
    return _mt_prelude(blas=True, ilp64=ilp64) + "".join(tiles) + _run_mt(run)


# -- pools / add / eltwise ----------------------------------------------------

# mt pool ptrs: 0 pf 1 x 2 out; dims: 0 limit 1 nb 2 C 3 H 4 W 5 K 6 S
#   7 OH 8 OW 9 is_avg; scalars unchanged (slot 0 = 1/(K*K), epilogue base 1).


def pool_source_mt(
    epi: tuple, kernel: int = 0, is_avg: bool = False, consts: dict | None = None
) -> str:
    """Threaded pool: one tile per (sample, channel) plane, the serial
    window-reduction body inside."""
    consts = consts or {}
    body = [
        "const double *x = (const double *)ptrs[1];",
        "double *out = (double *)ptrs[2];",
    ]
    body += _dims_decl(
        [("nb", 1), ("C", 2), ("H", 3), ("W", 4), ("K", 5), ("S", 6),
         ("OH", 7), ("OW", 8)],
        consts,
    )
    body += [
        "(void)nb; (void)K;",
        "const double *xc = x + tile * H * W;",
        "double *oc = out + tile * OH * OW;",
        "double v, t; (void)t;",
        "for (i64 oi = 0; oi < OH; oi++) {",
        "    for (i64 oj = 0; oj < OW; oj++) {",
        "        const double *wbase = xc + oi * S * W + oj * S;",
        "        v = wbase[0];",
    ]
    acc = "v += {e};" if is_avg else "v = NPMAX(v, {e});"
    if 0 < kernel <= 4:
        for ki in range(kernel):
            for kj in range(1 if ki == 0 else 0, kernel):
                at = f"wbase[{ki} * W + {kj}]" if ki else f"wbase[{kj}]"
                body.append("        " + acc.format(e=at))
    else:
        body += [
            "        for (i64 ki = 0; ki < K; ki++)",
            "            for (i64 kj = (ki ? 0 : 1); kj < K; kj++) {",
            "                double e = wbase[ki * W + kj];",
            "                " + acc.format(e="e"),
            "            }",
        ]
    if is_avg:
        body.append("        v *= scalars[0];")
    body += ["        " + ln for ln in _emit_epilogue(epi, 1)]
    body += ["        oc[oi * OW + oj] = v;", "    }", "}"]
    run = _dims_decl([("nb", 1), ("C", 2)], consts) + [
        "pf(tf_pool, &cx, nb * C, limit);",
    ]
    return _mt_prelude(blas=False) + _tile_fn("tf_pool", body) + _run_mt(run)


# mt gap ptrs: 0 pf 1 x 2 out; dims: 0 limit 1 nb 2 C 3 HW.


def gap_source_mt(epi: tuple, consts: dict | None = None) -> str:
    consts = consts or {}
    # pw() replicates numpy's pairwise reduction; body identical to the
    # serial gap kernel's (see codegen.gap_source for the derivation).
    pw_lines = [
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
        "const double *x = (const double *)ptrs[1];",
        "double *out = (double *)ptrs[2];",
    ]
    body += _dims_decl([("HW", 3)], consts)
    body += [
        "double v, t; (void)t;",
        "v = (0.0 + pw(x + tile * HW, HW)) / (double)HW;",
    ]
    body += _emit_epilogue(epi, 0)
    body += ["out[tile] = v;"]
    run = _dims_decl([("nb", 1), ("C", 2)], consts) + [
        "pf(tf_gap, &cx, nb * C, limit);",
    ]
    return (
        _mt_prelude(blas=False)
        + "\n".join(pw_lines)
        + "\n"
        + _tile_fn("tf_gap", body)
        + _run_mt(run)
    )


# mt add ptrs: 0 pf 1 a 2 b 3 out; dims: 0 limit 1 count.


def add_source_mt(epi: tuple) -> str:
    body = [
        "const double *a = (const double *)ptrs[1];",
        "const double *b = (const double *)ptrs[2];",
        "double *out = (double *)ptrs[3];",
        "i64 count = dims[1];",
        f"i64 e0 = tile * {CHUNK}, e1 = e0 + {CHUNK};",
        "if (e1 > count) e1 = count;",
        "double v, t; (void)t;",
        "for (i64 e = e0; e < e1; e++) {",
        "    v = a[e] + b[e];",
    ]
    body += ["    " + ln for ln in _emit_epilogue(epi, 0)]
    body += ["    out[e] = v;", "}"]
    run = [
        "i64 count = dims[1];",
        f"pf(tf_add, &cx, (count + {CHUNK - 1}) / {CHUNK}, limit);",
    ]
    return _mt_prelude(blas=False) + _tile_fn("tf_add", body) + _run_mt(run)


# mt eltwise ptrs: 0 pf 1 x 2 out; dims: 0 limit 1 count.


def eltwise_source_mt(chain: tuple) -> str:
    body = [
        "const double *x = (const double *)ptrs[1];",
        "double *out = (double *)ptrs[2];",
        "i64 count = dims[1];",
        f"i64 e0 = tile * {CHUNK}, e1 = e0 + {CHUNK};",
        "if (e1 > count) e1 = count;",
        "double v, t; (void)t;",
        "for (i64 e = e0; e < e1; e++) {",
        "    v = x[e];",
    ]
    body += ["    " + ln for ln in _emit_epilogue(chain, 0)]
    body += ["    out[e] = v;", "}"]
    run = [
        "i64 count = dims[1];",
        f"pf(tf_elt, &cx, (count + {CHUNK - 1}) / {CHUNK}, limit);",
    ]
    return _mt_prelude(blas=False) + _tile_fn("tf_elt", body) + _run_mt(run)


# -- integer kernels ----------------------------------------------------------

# mt int conv ptrs: 0 pf 1 cols(CT) 2 W(CT) 3 accbuf(i64, threads x FB*L)
#   4 M0 5 RND 6 SH 7 DMAP 8 GB 9 out
# dims: 0 limit 1 nb 2 F 3 K 4 L, fused-step constants from 5
# Per-worker scratch rows are indexed by the worker id (``wk``), which is
# always < limit <= the scratch's first dimension.


def int_conv_source_mt(ctype: str = "int32_t", flags: tuple = (), fused: tuple = ()) -> str:
    body = [
        f"const {ctype} *cols = (const {ctype} *)ptrs[1];",
        f"const {ctype} *Wm = (const {ctype} *)ptrs[2];",
        "i64 *accbuf = (i64 *)ptrs[3];",
        "const i64 *M0 = (const i64 *)ptrs[4];",
        "const i64 *RND = (const i64 *)ptrs[5];",
        "const i64 *SH = (const i64 *)ptrs[6];",
        "const i64 *DMAP = (const i64 *)ptrs[7];",
        "const i64 *GB = (const i64 *)ptrs[8];",
        "void *outv = ptrs[9];",
        "i64 nb = dims[1], F = dims[2], K = dims[3], L = dims[4];",
        *int_step_decls(fused, 5),
        "(void)nb;",
        f"i64 FT = (F + {FB - 1}) / {FB};",
        "i64 n = tile / FT, fb = tile % FT;",
        f"i64 f0 = fb * {FB}, f1 = f0 + {FB};",
        "if (f1 > F) f1 = F;",
        f"const {ctype} *cn = cols + n * K * L;",
        f"i64 *acc = accbuf + wk * ({FB} * L);",
        "for (i64 f = f0; f < f1; f++) {",
        "    i64 *arow = acc + (f - f0) * L;",
        "    memset(arow, 0, (size_t)L * sizeof(i64));",
        "    for (i64 k = 0; k < K; k++) {",
        "        i64 wv = (i64)Wm[f * K + k];",
        "        if (!wv) continue;",
        f"        const {ctype} *crow = cn + k * L;",
        "        for (i64 l = 0; l < L; l++) arow[l] += wv * (i64)crow[l];",
        "    }",
        "}",
        "for (i64 f = f0; f < f1; f++) {",
        "    for (i64 l = 0; l < L; l++) {",
        "        i64 a = acc[(f - f0) * L + l];",
        "        i64 ooff = (n * F + f) * L + l;",
    ]
    body += ["        " + ln for ln in int_epilogue(flags, fused, "f * L + l")]
    body += ["    }", "}"]
    run = [
        "i64 nb = dims[1], F = dims[2];",
        f"pf(tf_iconv, &cx, nb * ((F + {FB - 1}) / {FB}), limit);",
    ]
    return _mt_prelude(blas=False) + _tile_fn("tf_iconv", body) + _run_mt(run)


# mt int linear ptrs: 0 pf 1 x(CT) 2 W(CT) 3 rowbuf(i64, threads x F)
#   4 M0 5 RND 6 SH 7 DMAP 8 GB 9 out
# dims: 0 limit 1 nb 2 IN 3 F, fused-step constants from 4


def int_linear_source_mt(ctype: str = "int32_t", flags: tuple = (), fused: tuple = ()) -> str:
    body = [
        f"const {ctype} *x = (const {ctype} *)ptrs[1];",
        f"const {ctype} *Wm = (const {ctype} *)ptrs[2];",
        "i64 *rowbuf = (i64 *)ptrs[3];",
        "const i64 *M0 = (const i64 *)ptrs[4];",
        "const i64 *RND = (const i64 *)ptrs[5];",
        "const i64 *SH = (const i64 *)ptrs[6];",
        "const i64 *DMAP = (const i64 *)ptrs[7];",
        "const i64 *GB = (const i64 *)ptrs[8];",
        "void *outv = ptrs[9];",
        "i64 nb = dims[1], IN = dims[2], F = dims[3];",
        *int_step_decls(fused, 4),
        "(void)nb;",
        "i64 n = tile;",
        "i64 *row = rowbuf + wk * F;",
        "memset(row, 0, (size_t)F * sizeof(i64));",
        "for (i64 k = 0; k < IN; k++) {",
        "    i64 xv = (i64)x[n * IN + k];",
        "    if (!xv) continue;",
        f"    const {ctype} *wrow = Wm + k * F;",
        "    for (i64 f = 0; f < F; f++) row[f] += xv * (i64)wrow[f];",
        "}",
        "for (i64 f = 0; f < F; f++) {",
        "    i64 a = row[f];",
        "    i64 ooff = n * F + f;",
    ]
    body += ["    " + ln for ln in int_epilogue(flags, fused, "f")]
    body += ["}"]
    run = [
        "i64 nb = dims[1];",
        "pf(tf_ilin, &cx, nb, limit);",
    ]
    return _mt_prelude(blas=False) + _tile_fn("tf_ilin", body) + _run_mt(run)
