#include "layer_replay.hh"

#include <cmath>
#include <string>

#include "common/parallel.hh"
#include "tensor/ops.hh"

using namespace mokey;

namespace perfbench
{

namespace
{

/** The engine a weight site resolves to with calibration off. */
IndexEngine
siteEngine(size_t aRows, const QuantizedTensor &w)
{
    const IndexEngine e = indexEngine();
    if (e != IndexEngine::Auto)
        return e;
    return autoEngineChoice(aRows, w.rows(), w.cols(),
                            w.planesFootprint());
}

/** Dense-plane bytes per element an engine streams per operand. */
double
bytesPerElement(IndexEngine e)
{
    return e == IndexEngine::Count ? 2.0 : 8.0;
}

/** Operand planes in, float output out: M x K times (N x K)^T. */
double
gemmBytes(IndexEngine e, size_t m, size_t n, size_t k)
{
    return bytesPerElement(e) * double(m * k + n * k) +
        4.0 * double(m * n);
}

using Attrs = std::vector<std::pair<std::string, double>>;

Attrs
gemmAttrs(IndexEngine e, size_t m, size_t n, size_t k, double bytes)
{
    return {{"rows", double(m)},
            {"n", double(n)},
            {"k", double(k)},
            {"engine", e == IndexEngine::Count ? 1.0 : 0.0},
            {"bytes", bytes}};
}

} // namespace

LayerReplay::LayerReplay(const Transformer &model,
                         const Quantizer &quantizer_,
                         const QuantizedTransformer &pipe, size_t layer)
    : cfg(model.config()), quantizer(quantizer_)
{
    const EncoderWeights &w = model.weights()[layer];
    const Tensor *ws[kGraphSiteCount] = {&w.wq, &w.wk, &w.wv,
                                         &w.wo, &w.w1, &w.w2};
    const std::vector<float> *bs[kGraphSiteCount] = {
        &w.bq, &w.bk, &w.bv, &w.bo, &w.b1, &w.b2};
    parallelFor(0, kGraphSiteCount, 1, [&](size_t s) {
        const auto dict = quantizer.buildDictionary(*ws[s]);
        sites[s].w = quantizer.encode(*ws[s], dict);
        sites[s].w.pinPlanes(weightPlaneSet(
            indexEngine(), ws[s]->rows(), ws[s]->cols()));
        sites[s].bias = bs[s];
    });

    const auto dict = [&](const char *t) {
        return &pipe.activationDict({layer, t});
    };
    dx = dict("x");
    dq = dict("q");
    dk = dict("k");
    dv = dict("v");
    dp = dict("p");
    dctx = dict("ctx");
    dmidIn = dict("mid_in");
    dmid = dict("mid");
    const TensorDictionary *in[kGraphSiteCount] = {dx, dx,     dx,
                                                   dctx, dmidIn, dmid};
    for (size_t s = 0; s < kGraphSiteCount; ++s)
        sites[s].constants = gemmConstants(
            *in[s], sites[s].w.dictionary(), sites[s].w.cols());
}

size_t
LayerReplay::weightPlaneBytes() const
{
    size_t bytes = 0;
    for (const Site &s : sites)
        bytes += s.w.planesFootprint().planeBytes;
    return bytes;
}

void
LayerReplay::run(const Tensor &x, const std::vector<size_t> &starts,
                 SpanLog &log) const
{
    const size_t total = x.rows();
    const size_t hidden = cfg.hidden;
    const size_t hd = cfg.headDim();
    const size_t jobs = (starts.size() - 1) * cfg.heads;

    Span root;
    root.name = "replay.step";
    root.start = nowS();
    root.attrs = {{"rows", double(total)},
                  {"members", double(starts.size() - 1)}};
    for (size_t b = 0; b + 1 < starts.size(); ++b)
        root.attrs.push_back({"rows" + std::to_string(b),
                              double(starts[b + 1] - starts[b])});
    const int64_t parent = log.add(root);

    const auto encode = [&](const char *name, const Tensor &t,
                            const TensorDictionary &d, IndexEngine e) {
        QuantizedTensor q;
        log.timed(
            name,
            [&] { q = quantizer.encodeToPlanes(t, d, enginePlaneSet(e)); },
            parent, {{"elems", double(t.size())}});
        return q;
    };
    const auto gemm = [&](const char *name, const QuantizedTensor &a,
                          size_t s) {
        const Site &site = sites[s];
        const IndexEngine e = siteEngine(a.rows(), site.w);
        Tensor out;
        const size_t n = site.w.rows(), k = site.w.cols();
        log.timed(
            name,
            [&] {
                out = indexMatmulTransBFused(a, site.w, e, nullptr,
                                             nullptr, PlaneSet::Bytes,
                                             true, &site.constants)
                          .dense;
            },
            parent, gemmAttrs(e, a.rows(), n, k,
                              gemmBytes(e, a.rows(), n, k)));
        addBias(out, *site.bias);
        return out;
    };

    // Q/K/V projections off one x encode.
    const QuantizedTensor qx =
        encode("encode.x", x, *dx, siteEngine(total, sites[kSiteWq].w));
    const Tensor q = gemm("gemm.wq", qx, kSiteWq);
    const Tensor k = gemm("gemm.wk", qx, kSiteWk);
    const Tensor v = gemm("gemm.wv", qx, kSiteWv);

    // Attention: one job per (sequence, head), each kernel phase
    // fanned out over every job at once.
    std::vector<Tensor> qh(jobs), kh(jobs), vht(jobs), scores(jobs),
        outs(jobs);
    for (size_t j = 0; j < jobs; ++j) {
        const size_t r0 = starts[j / cfg.heads];
        const size_t seq = starts[j / cfg.heads + 1] - r0;
        const size_t c0 = (j % cfg.heads) * hd;
        qh[j] = Tensor(seq, hd);
        kh[j] = Tensor(seq, hd);
        vht[j] = Tensor(hd, seq);
        for (size_t r = 0; r < seq; ++r)
            for (size_t c = 0; c < hd; ++c) {
                qh[j].at(r, c) = q.at(r0 + r, c0 + c);
                kh[j].at(r, c) = k.at(r0 + r, c0 + c);
                vht[j].at(c, r) = v.at(r0 + r, c0 + c);
            }
    }
    const IndexEngine actEngine = indexEngine() == IndexEngine::Auto
        ? IndexEngine::Count
        : indexEngine();
    const PlaneSet actSet = enginePlaneSet(actEngine);
    const auto encodeJobs = [&](const char *name,
                                const std::vector<Tensor> &src,
                                const TensorDictionary &d) {
        std::vector<QuantizedTensor> dst(jobs);
        size_t elems = 0;
        for (const Tensor &t : src)
            elems += t.size();
        log.timed(
            name,
            [&] {
                parallelFor(0, jobs, 1, [&](size_t j) {
                    dst[j] = quantizer.encodeToPlanes(src[j], d, actSet);
                });
            },
            parent, {{"elems", double(elems)}});
        return dst;
    };
    const auto gemmJobs = [&](const char *name,
                              const std::vector<QuantizedTensor> &a,
                              const std::vector<QuantizedTensor> &b,
                              std::vector<Tensor> &out) {
        double bytes = 0.0;
        size_t rows = 0;
        const IndexEngine e0 = resolveIndexEngine(a[0], b[0]);
        for (size_t j = 0; j < jobs; ++j) {
            bytes += gemmBytes(resolveIndexEngine(a[j], b[j]),
                               a[j].rows(), b[j].rows(), a[j].cols());
            rows += a[j].rows();
        }
        log.timed(
            name,
            [&] {
                parallelFor(0, jobs, 1, [&](size_t j) {
                    out[j] = indexMatmulTransBFused(
                                 a[j], b[j], resolveIndexEngine(a[j], b[j]),
                                 nullptr, nullptr, PlaneSet::Bytes, true)
                                 .dense;
                });
            },
            parent,
            gemmAttrs(e0, rows, b[0].rows(), a[0].cols(), bytes));
    };

    const auto qq = encodeJobs("encode.q", qh, *dq);
    const auto qk = encodeJobs("encode.k", kh, *dk);
    gemmJobs("gemm.attn_qk", qq, qk, scores);
    const float invSqrt =
        static_cast<float>(1.0 / std::sqrt(static_cast<double>(hd)));
    log.timed(
        "ops.softmax",
        [&] {
            parallelFor(0, jobs, 1, [&](size_t j) {
                Tensor &s = scores[j];
                for (size_t r = 0; r < s.rows(); ++r) {
                    scaleRow(s.row(r), s.cols(), invSqrt);
                    softmaxRow(s.row(r), s.cols());
                }
            });
        },
        parent);
    const auto qp = encodeJobs("encode.p", scores, *dp);
    const auto qv = encodeJobs("encode.v", vht, *dv);
    gemmJobs("gemm.attn_pv", qp, qv, outs);

    Tensor ctx(total, hidden);
    for (size_t j = 0; j < jobs; ++j) {
        const size_t r0 = starts[j / cfg.heads];
        const size_t c0 = (j % cfg.heads) * hd;
        for (size_t r = 0; r < outs[j].rows(); ++r)
            for (size_t c = 0; c < hd; ++c)
                ctx.at(r0 + r, c0 + c) = outs[j].at(r, c);
    }

    // Output projection, residual + layer norm, then the FFN.
    const QuantizedTensor qctx = encode(
        "encode.ctx", ctx, *dctx, siteEngine(total, sites[kSiteWo].w));
    // Row operators fan out over rows, as inside the fused GEMM
    // epilogues they stand for.
    const auto rowOp = [&](const char *name, Tensor &t,
                           void (*op)(float *, size_t)) {
        log.timed(
            name,
            [&] {
                parallelFor(0, t.rows(), 1,
                            [&](size_t r) { op(t.row(r), t.cols()); });
            },
            parent);
    };
    const auto layerNorm = [](float *row, size_t n) { layerNormRow(row, n); };

    Tensor res1 = add(gemm("gemm.wo", qctx, kSiteWo), x);
    rowOp("ops.layernorm", res1, layerNorm);
    const QuantizedTensor qmidIn =
        encode("encode.mid_in", res1, *dmidIn,
               siteEngine(total, sites[kSiteW1].w));
    Tensor mid = gemm("gemm.w1", qmidIn, kSiteW1);
    rowOp("ops.gelu", mid, geluRow);
    const QuantizedTensor qmid = encode(
        "encode.mid", mid, *dmid, siteEngine(total, sites[kSiteW2].w));
    Tensor res2 = add(gemm("gemm.w2", qmid, kSiteW2), res1);
    rowOp("ops.layernorm", res2, layerNorm);

    log.close(parent);
}

} // namespace perfbench
